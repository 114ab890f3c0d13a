#ifndef PARIS_CORE_ALIGNER_H_
#define PARIS_CORE_ALIGNER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "paris/core/class_align.h"
#include "paris/core/config.h"
#include "paris/core/equiv.h"
#include "paris/core/instance_align.h"
#include "paris/core/literal_match.h"
#include "paris/core/pass.h"
#include "paris/core/relation_align.h"
#include "paris/core/relation_scores.h"
#include "paris/core/telemetry.h"
#include "paris/obs/hooks.h"
#include "paris/ontology/ontology.h"
#include "paris/util/thread_pool.h"

namespace paris::core {

// What happened in one fixpoint iteration; the per-iteration experiment
// tables (Tables 3 and 5 of the paper) are printed from these records.
struct IterationRecord {
  int index = 0;  // 1-based
  double seconds_instances = 0.0;
  double seconds_relations = 0.0;
  // Fraction of entities whose maximal assignment changed vs the previous
  // iteration (the "Change to prev." column).
  double change_fraction = 1.0;
  size_t num_left_aligned = 0;
  // What this iteration changed about the maximal assignment, per entity
  // and per shard (always recorded; not serialized in result snapshots).
  ConvergenceTelemetry telemetry;
  // Snapshots (populated when config.record_history): the iteration's
  // finalized store, shared with the run's own copy rather than copied.
  InstanceEquivalences instances;
  RelationScores relations;
};

// A mid-iteration cancellation checkpoint: the work of the interrupted
// iteration that is already done and need not be recomputed on resume. The
// surrounding AlignmentResult stays consistent — its tables reflect the
// last *completed* iteration; this carries the partial one on the side.
//
//  * pass == kInstancePass: `shards`/`payloads` hold the completed instance
//    shards (opaque `InstancePass::SaveShard` payloads).
//  * pass == kRelationPass: the instance pass of the iteration finished —
//    `instances` is its (blended) output — and `shards`/`payloads` hold the
//    completed relation shards.
//
// Resume re-runs the interrupted iteration, feeding the cached shards back
// through `Pass::LoadShard` and computing only the rest; because shard
// outputs are deterministic functions of the previous iteration's state,
// the final tables are byte-identical to an uninterrupted run even when the
// cache is unusable (different `num_shards`, or a payload that fails
// validation — both simply recompute).
struct PartialIterationState {
  int iteration = 0;  // 1-based, the iteration that was interrupted
  int pass = kInstancePass;           // kInstancePass or kRelationPass
  uint32_t num_shards = 0;            // the pass's shard count when saved
  std::vector<uint32_t> shards;       // completed shard ids, ascending
  std::vector<std::string> payloads;  // parallel to `shards`
  InstanceEquivalences instances;     // set when pass == kRelationPass
};

// Wall time spent in one pipeline pass, split by phase and accumulated over
// the run: `shard_seconds` is the parallel section, `prepare_seconds` +
// `merge_seconds` the serial rest (the bench harness reports these so the
// pipeline's parallel fraction stays visible). Not serialized in result
// snapshots.
struct PassTimings {
  std::string pass;
  double prepare_seconds = 0.0;
  double shard_seconds = 0.0;
  double merge_seconds = 0.0;
  size_t shards_run = 0;
};

// The complete output of a PARIS run.
struct AlignmentResult {
  InstanceEquivalences instances;  // final equivalence store
  RelationScores relations;        // final sub-relation scores
  ClassScores classes;             // final sub-class scores (Eq. 17)
  std::vector<IterationRecord> iterations;
  // 1-based iteration at which the convergence criterion fired, or -1 if
  // max_iterations was exhausted first.
  int converged_at = -1;
  double seconds_classes = 0.0;
  double seconds_total = 0.0;
  // Present when the run was cancelled mid-iteration (shard observer
  // returned false inside a pass): the completed work of the interrupted
  // iteration. Serialized in result snapshots; consumed by Resume.
  std::optional<PartialIterationState> partial;
  // Per-pass phase times, in pipeline order (instance, relation, class).
  std::vector<PassTimings> pass_timings;
};

// Warm-start state for an incremental re-alignment after a delta ingest
// (`Aligner::Realign`): a completed run's final tables over the pre-delta
// ontologies, plus the terms each side's delta touched (sorted — e.g. the
// `touched_terms` of `Ontology::ApplyDelta`; pass an empty vector for a
// side that received no delta).
struct RealignSeed {
  InstanceEquivalences instances;
  RelationScores relations;
  std::vector<rdf::TermId> left_touched_terms;
  std::vector<rdf::TermId> right_touched_terms;
};

// The PARIS fixpoint driver (§5.1), scheduling the pass pipeline
// (core/pass.h):
//   1. functionalities are precomputed per ontology (done at build),
//   2. each iteration runs the instance pass (Eq. 13/14, seeded with
//      Pr(r ⊆ r') = θ the first time) and then the relation pass (Eq. 12)
//      over fixed shards, with one shared Prepare → RunShard* → Merge
//      discipline per pass,
//   3. iteration stops when maximal assignments change less than the
//      convergence threshold (default 1 %),
//   4. a final class pass computes class alignments (Eq. 17).
//
// The two ontologies must share one `rdf::TermPool`. The aligner never
// mutates them; `Run()` may be called repeatedly (e.g. with different
// configs) on the same pair.
class Aligner {
 public:
  Aligner(const ontology::Ontology& left, const ontology::Ontology& right,
          AlignmentConfig config = {});

  // Replaces the default identity literal matcher (§5.3). Must be called
  // before Run().
  void set_literal_matcher_factory(LiteralMatcherFactory factory) {
    matcher_factory_ = std::move(factory);
  }

  // Observes the fixpoint from outside (api::Session wires progress
  // reporting and cooperative cancellation through this). Invoked on the
  // run thread after each completed iteration with that iteration's record.
  // Returning false stops the run at this iteration boundary: the class
  // pass still runs over the state so far, so the returned result is
  // internally consistent and — like a run that exhausted max_iterations —
  // resumable from a saved result snapshot. Must be set before Run().
  using IterationObserver = std::function<bool(const IterationRecord&)>;
  void set_iteration_observer(IterationObserver observer) {
    iteration_observer_ = std::move(observer);
  }

  // Observes the pipeline at shard granularity: invoked after every
  // completed shard of every pass — serialized, but possibly on a worker
  // thread, so the callback must be cheap and thread-safe. Returning false
  // cancels mid-iteration: the instance/relation pass stops claiming
  // shards, the completed ones are recorded as a PartialIterationState, and
  // the run wraps up with a consistent, resumable result whose Resume
  // reproduces the uninterrupted run byte-identically. During the final
  // class pass the return value is ignored (the pass always completes to
  // keep the result consistent). Must be set before Run().
  using ShardObserver = std::function<bool(const ShardProgress&)>;
  void set_shard_observer(ShardObserver observer) {
    shard_observer_ = std::move(observer);
  }

  // Uses `pool` (non-owning, may be null) for the parallel passes instead
  // of constructing a pool from `config.num_threads` per Run(). Lets a
  // caller that already owns a worker pool (api::Session) share it across
  // index finalization and repeated runs.
  void set_thread_pool(util::ThreadPool* pool) { external_pool_ = pool; }

  // Names the literal matcher for the periodic background checkpoints
  // (config().checkpoint_dir / checkpoint_interval): the name goes into
  // each checkpoint's compatibility key exactly as in SaveAlignmentResult.
  // Callers that install a non-default matcher factory and enable
  // checkpointing must set the matching registry name before Run().
  void set_matcher_name(std::string name) { matcher_name_ = std::move(name); }

  // Attaches tracing/metrics recorders (src/obs/) for the run. Both
  // pointers are optional and non-owning; when set they must be sized for
  // the worker pool the run uses (max(1, threads) worker slots) and stay
  // alive until Run/Resume returns. Spans cover the run, each iteration,
  // each pass (with prepare/shards/merge sub-phases), and every computed
  // shard; metrics stay deterministic across thread and shard counts.
  // Enabling observability never changes the alignment output. Must be set
  // before Run().
  void set_observability(obs::Hooks hooks) { obs_ = hooks; }

  const AlignmentConfig& config() const { return config_; }

  AlignmentResult Run();

  // Continues a run from `checkpoint` — an AlignmentResult saved after k
  // completed iterations (see src/core/result_snapshot.h), plus possibly a
  // partially completed iteration k+1 (mid-iteration cancel). Iterations
  // resume at k+1 with the checkpoint's equivalences and relation scores as
  // the previous-iteration state — cached shards of a partial iteration are
  // adopted instead of recomputed — so the final tables are identical to an
  // uninterrupted run with the same config (num_threads, num_shards, and
  // max_iterations may differ). A checkpoint that already converged (or
  // exhausted max_iterations) skips the fixpoint loop and recomputes only
  // the class alignment. The checkpoint's scalar iteration records are
  // carried over; their per-iteration history snapshots are not (result
  // snapshots do not store them).
  AlignmentResult Resume(AlignmentResult checkpoint);

  // Incremental re-alignment after a delta ingest: runs the fixpoint over
  // the (post-delta) ontologies warm-started from `seed` — the completed
  // base run's tables become the previous-iteration state, the first
  // instance pass recomputes only the delta's structural cone (the touched
  // terms, their fact neighbors, and the left instances whose expansions
  // reach a touched right term; see SemiNaiveTracker), and clean entities
  // keep their seeded alignment. Unlike Resume, convergence may fire at
  // iteration 1 (the seed is already near the fixpoint). The result is a
  // fixpoint of the post-delta pair, not a bit-replay of a cold run over
  // base+delta: global functionalities drifted by the delta re-weight the
  // evidence of *every* entity in a cold run, while the warm start
  // deliberately keeps entities outside the cone untouched (that drift is
  // second-order in the delta size). With `config().semi_naive` off this
  // degenerates to a warm-started exhaustive run (same tables, every
  // entity recomputed). The first relation pass is always exhaustive — the
  // delta changed the stores themselves, which the view-diff worklist
  // cannot see; later iterations reuse as usual.
  AlignmentResult Realign(RealignSeed seed);

 private:
  AlignmentResult RunInternal(AlignmentResult* checkpoint,
                              RealignSeed* seed = nullptr);

  const ontology::Ontology& left_;
  const ontology::Ontology& right_;
  AlignmentConfig config_;
  LiteralMatcherFactory matcher_factory_;
  std::string matcher_name_ = "identity";
  IterationObserver iteration_observer_;
  ShardObserver shard_observer_;
  util::ThreadPool* external_pool_ = nullptr;
  obs::Hooks obs_;
};

}  // namespace paris::core

#endif  // PARIS_CORE_ALIGNER_H_
