#ifndef PARIS_API_SESSION_H_
#define PARIS_API_SESSION_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "paris/api/matcher_registry.h"
#include "paris/core/aligner.h"
#include "paris/core/config.h"
#include "paris/obs/hooks.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/term.h"
#include "paris/storage/tri_index.h"
#include "paris/util/status.h"
#include "paris/util/thread_pool.h"

namespace paris::api {

// Re-exported so facade callers spell everything in one namespace.
using SnapshotLoadMode = ontology::SnapshotLoadMode;

// Cooperative cancellation for `Session::Align` / `Session::Resume`. Safe
// to `Cancel()` from any thread; the run checks it at *shard* granularity
// (after every completed shard of the instance/relation passes, typically
// 1/64th of a pass) and stops with a consistent, resumable partial result:
// a cancel that lands mid-iteration checkpoints the completed shards, and
// `Resume` continues byte-identically to the uninterrupted run.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Scalar progress report for one completed fixpoint iteration.
struct IterationProgress {
  int iteration = 0;       // 1-based
  int max_iterations = 0;  // the configured cap
  size_t num_aligned = 0;  // left instances with a counterpart
  double change_fraction = 1.0;
  double seconds = 0.0;    // instance + relation pass wall time
  // Convergence telemetry: left instances whose maximal assignment moved
  // this iteration (changed counterpart + newly assigned + dropped).
  size_t num_changed = 0;
};

// Scalar progress report for one completed pipeline shard (a fixed
// fraction of one pass — see src/core/README.md for the pass pipeline).
struct ShardProgress {
  const char* pass = "";     // "instance" | "relation" | "class"
  int iteration = 0;         // 1-based; for the final class pass, the last
                             // completed iteration
  size_t shard = 0;          // shard that just completed
  size_t num_shards = 0;     // shards in this pass
  size_t num_completed = 0;  // completed so far this pass
};

// Hooks into a run. All members are optional. `on_iteration` is invoked on
// the thread driving the run, after each completed iteration. `on_shard`
// is invoked after every completed shard of every pass — serialized, but
// possibly on a worker thread, so it must be cheap and thread-safe (a
// progress bar update, an atomic counter). The cancellation token is
// polled after every shard.
struct RunCallbacks {
  std::function<void(const IterationProgress&)> on_iteration;
  std::function<void(const ShardProgress&)> on_shard;
  std::shared_ptr<CancellationToken> cancellation;
};

// What a finished (or cancelled) run produced, in plain scalars — enough
// for a caller to report without reaching into the core result types.
struct RunSummary {
  size_t instances_aligned = 0;
  size_t relation_scores = 0;
  size_t class_scores = 0;
  size_t iterations = 0;          // completed, including resumed-over ones
  size_t resumed_iterations = 0;  // iterations adopted from a checkpoint
  double seconds = 0.0;
  bool converged = false;
  bool cancelled = false;
};

// The PARIS run lifecycle behind one handle:
//
//   load (files or snapshot) -> align / resume -> export / save
//                                  |
//                                  v
//                  apply delta -> realign -> export / save   (repeatable)
//
// A Session owns the shared term pool, both ontologies, and the worker
// pool; every method returns `util::Status` / `util::StatusOr` instead of
// printing or exiting, so the facade is embeddable (the CLI tools are thin
// adapters over it). One Session runs one *cold* alignment: load once,
// align once; re-running with different options means a new Session (the
// underlying data can be re-loaded cheaply from a snapshot). Incremental
// updates are the exception — ApplyDelta + Realign consume the current
// result (the session's own, or a saved one) and replace it, and may be
// repeated as new deltas arrive. Methods are not synchronized — drive a
// Session from one thread (cancellation tokens are the exception and may
// be flipped from anywhere).
//
//   paris::api::Session session(
//       paris::api::Session::Options().set_threads(4).set_matcher("fuzzy"));
//   auto status = session.LoadFromFiles("a.nt", "b.ttl");
//   if (status.ok()) status = session.Align();
//   if (status.ok()) status = session.Export("out");
class Session {
 public:
  struct Options {
    Options() = default;

    // Full engine configuration; the named setters below cover the common
    // knobs, the rest is reachable directly for ablation-style embedding.
    core::AlignmentConfig config;
    // Literal matcher, resolved by name when Align/Resume starts. The name
    // is recorded in result snapshots for the resume compatibility check.
    std::string matcher = "identity";
    // Registry the matcher name resolves against; null = Default().
    const MatcherRegistry* registry = nullptr;
    // How LoadFromSnapshot / Resume bring snapshot files in.
    ontology::SnapshotLoadMode snapshot_load_mode =
        ontology::SnapshotLoadMode::kAuto;
    // Observability (src/obs/): when set, the session owns a TraceRecorder
    // / MetricsRegistry sized for its worker pool and instruments loading,
    // the pass pipeline, and snapshot IO. Never changes alignment output.
    bool trace = false;
    bool metrics = false;
    // When set (and `config.checkpoint_dir` names a directory), Align()
    // first looks for the newest usable periodic checkpoint in that
    // directory and resumes from it — recomputing at most the shard that
    // was in flight when the previous run died — instead of starting cold.
    // A directory with no usable checkpoint (or a setup that no longer
    // matches) degrades to a cold start, never to an error.
    bool auto_resume = false;

    Options& set_threads(size_t n) { config.num_threads = n; return *this; }
    Options& set_theta(double theta) { config.theta = theta; return *this; }
    Options& set_max_iterations(int n) {
      config.max_iterations = n;
      return *this;
    }
    Options& set_negative_evidence(bool on) {
      config.use_negative_evidence = on;
      return *this;
    }
    Options& set_name_prior(bool on) {
      config.use_relation_name_prior = on;
      return *this;
    }
    Options& set_matcher(std::string name) {
      matcher = std::move(name);
      return *this;
    }
    Options& set_registry(const MatcherRegistry* r) {
      registry = r;
      return *this;
    }
    Options& set_snapshot_load_mode(ontology::SnapshotLoadMode mode) {
      snapshot_load_mode = mode;
      return *this;
    }
    Options& set_trace(bool on) {
      trace = on;
      return *this;
    }
    Options& set_metrics(bool on) {
      metrics = on;
      return *this;
    }
    Options& set_checkpointing(std::string dir, double interval_seconds) {
      config.checkpoint_dir = std::move(dir);
      config.checkpoint_interval = interval_seconds;
      return *this;
    }
    Options& set_auto_resume(bool on) {
      auto_resume = on;
      return *this;
    }
  };

  Session();  // all-default options
  explicit Session(Options options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  const Options& options() const { return options_; }

  // ---- Load --------------------------------------------------------------

  // Parses two RDF files into the left/right ontologies. Files ending in
  // .ttl/.turtle are parsed as Turtle, everything else as N-Triples.
  // FailedPrecondition if the session is already loaded; parse and build
  // errors carry the failing path.
  util::Status LoadFromFiles(const std::string& left_path,
                             const std::string& right_path);

  // Loads both ontologies from a binary alignment snapshot
  // (`SaveSnapshot`'s format) instead of parsing RDF.
  util::Status LoadFromSnapshot(const std::string& path);

  // Writes the loaded pair as a binary snapshot for fast future loads.
  util::Status SaveSnapshot(const std::string& path) const;

  // ---- Run ---------------------------------------------------------------

  // Runs the fixpoint to convergence (or the iteration cap). On
  // cancellation — honored at shard granularity, so even a cancel landing
  // deep inside the instance pass takes effect promptly — returns
  // kCancelled but keeps the partial result: it can still be saved with
  // SaveResult (a mid-iteration cancel records its completed shards in the
  // snapshot) and continued later via Resume, byte-identically to an
  // uninterrupted run. FailedPrecondition when nothing is loaded or the
  // session already has a result (one Session = one run).
  util::Status Align(const RunCallbacks& callbacks = {});

  // Continues a previous run from its result snapshot (`SaveResult`'s
  // format); the loaded inputs and the session config must match the saved
  // run or the load fails with FailedPrecondition naming the field. The
  // final tables are identical to an uninterrupted run.
  util::Status Resume(const std::string& result_snapshot_path,
                      const RunCallbacks& callbacks = {});

  // Writes the run's result (equivalences, relation and class scores,
  // iteration metadata) as a binary snapshot that Resume accepts.
  util::Status SaveResult(const std::string& path) const;

  // ---- Incremental update (delta ingestion + re-alignment) ---------------

  // Which side of the loaded pair a delta applies to.
  enum class DeltaSide { kLeft, kRight };

  // Stages a batch of new statements against one side: regular facts and
  // rdf:type statements for terms that keep their class/instance role
  // (schema deltas are rejected at Realign time — see
  // ontology::Ontology::ApplyDelta for the exact contract). Staging does
  // not touch the ontology yet: the merge happens inside the next Realign,
  // *after* the base result has been validated against the pre-delta pair
  // (a result snapshot fingerprints the ontologies its run aligned, so the
  // merge must not precede the check). Several deltas may be staged — both
  // sides, several batches — and are merged in staging order.
  // FailedPrecondition when nothing is loaded.
  util::Status ApplyDelta(DeltaSide side,
                          std::vector<rdf::ParsedTriple> triples);

  // Parses an RDF file (.ttl/.turtle as Turtle, everything else as
  // N-Triples) and stages it, as above.
  util::Status ApplyDelta(DeltaSide side, const std::string& delta_path);

  size_t num_staged_deltas() const { return staged_deltas_.size(); }

  // Incremental re-alignment: merges the staged deltas into the ontologies
  // and re-runs the fixpoint warm-started from the session's own result
  // (the first overload; requires a completed Align/Resume/Realign) or
  // from the result snapshot at `realign_from` (the second; a previous
  // session's SaveResult over the same pre-delta pair). Only the entities
  // in the deltas' structural cone are recomputed — with
  // `config.semi_naive` (the default) a small delta re-aligns in a small
  // fraction of a cold run — and the session's result is *replaced* by the
  // new fixpoint, so Export/SaveResult/Realign chain naturally. The result
  // is a fixpoint of the post-delta pair, not a bit-replay of a cold run
  // over base+delta (see core::Aligner::Realign for the precise
  // guarantee); it is still byte-identical across thread and shard counts.
  // FailedPrecondition when no delta is staged. On a delta that fails
  // validation the ontologies keep the batches merged before the failing
  // one, the failing and later batches are dropped, and the base result is
  // retained, so the session stays usable.
  util::Status Realign(const RunCallbacks& callbacks = {});
  util::Status Realign(const std::string& realign_from,
                       const RunCallbacks& callbacks = {});

  // ---- Inspect / export --------------------------------------------------

  // Evaluates one triple pattern against one side's statements
  // (rdf::TripleStore::Collect): every combination of bound / variable /
  // ignored subject, relation, and object positions is answered from the
  // store's columnar index, in the per-mask reply order that
  // src/paris/storage/README.md lists. A bound relation may be an inverse
  // id (the matching statements are returned in their positive direction).
  // Matches arrive as whole triples; a pattern with an ignored position
  // collapses the matches that differ only there and replies sorted by
  // (subject, relation, object), with `limit` applied after the collapse.
  // `limit` = 0 means no limit. FailedPrecondition when nothing is loaded.
  //
  //   auto triples = session.Query(
  //       Session::DeltaSide::kLeft,
  //       storage::TriplePattern().BindRel(rel).BindObject(city));
  util::StatusOr<std::vector<rdf::Triple>> Query(
      DeltaSide side, const storage::TriplePattern& pattern,
      size_t limit = 0) const;

  // The pattern-token syntax shared by paris_query and parisd's QUERY and
  // LOOKUP verbs. A term token is `#<id>` (a raw id into the shared pool)
  // or a lexical IRI. A relation token is `#<id>` (1..num_relations) or a
  // relation's IRI, either one prefixed `-` for the inverse. A malformed
  // or out-of-range raw id is InvalidArgument, an unknown name NotFound;
  // FailedPrecondition when nothing is loaded.
  util::StatusOr<rdf::TermId> ResolveTerm(std::string_view token) const;
  util::StatusOr<rdf::RelId> ResolveRelation(DeltaSide side,
                                             std::string_view token) const;
  // One pattern from its three slot tokens: `?` is a variable, `_` an
  // ignored position, anything else a token as above.
  util::StatusOr<storage::TriplePattern> ParsePattern(
      DeltaSide side, std::string_view subject, std::string_view relation,
      std::string_view object) const;

  // Writes `<prefix>_{instances,relations,classes}.tsv`.
  util::Status Export(const std::string& prefix) const;

  // Writes the maximal instance assignment as TSV to `out`.
  util::Status WriteInstanceAlignment(std::ostream& out) const;

  // Writes per-ontology statistics (sizes plus per-relation
  // functionalities) for both sides to `out`.
  util::Status PrintStats(std::ostream& out) const;

  // ---- Observability (Options::trace / Options::metrics) -----------------

  // Writes every span recorded so far as Chrome trace-event JSON (openable
  // in chrome://tracing or https://ui.perfetto.dev). FailedPrecondition
  // unless Options::trace was set.
  util::Status WriteTrace(std::ostream& out) const;

  // The merged metric values (deterministic across thread and shard
  // counts). FailedPrecondition unless Options::metrics was set.
  util::StatusOr<obs::MetricsSnapshot> Metrics() const;

  // The registry snapshot plus, when a result exists, the per-iteration
  // convergence telemetry, as one JSON object. FailedPrecondition unless
  // Options::metrics was set.
  util::Status WriteMetricsJson(std::ostream& out) const;

  bool loaded() const { return left_.has_value(); }
  bool has_result() const { return result_.has_value(); }

  // Require `loaded()` / `has_result()` respectively.
  const ontology::Ontology& left() const { return *left_; }
  const ontology::Ontology& right() const { return *right_; }
  const core::AlignmentResult& result() const { return *result_; }
  RunSummary summary() const;  // zero-value summary before a run

 private:
  util::Status RunAligner(const RunCallbacks& callbacks,
                          const std::string& resume_path);
  util::Status RealignInternal(const std::string& realign_from,
                               const RunCallbacks& callbacks);
  // Builds the aligner every run method shares: matcher resolved from the
  // registry, worker pool, observability, and the callback adapters
  // (iteration/shard observers flipping `cancelled` when the token fires).
  util::StatusOr<std::unique_ptr<core::Aligner>> MakeAligner(
      const RunCallbacks& callbacks, std::atomic<bool>* cancelled);
  // Shared post-run bookkeeping: records the resolved config, translates a
  // cancellation that raced the natural end of the run, and formats the
  // kCancelled detail. `resumed` = iterations adopted from a checkpoint.
  util::Status FinishRun(const core::Aligner& aligner, size_t resumed,
                         bool cancelled);
  // The worker pool, created on demand (null when options request 0
  // threads). Used for both index finalization and the alignment passes.
  util::ThreadPool* workers();
  // The session's recorders as non-owning hooks ({} when observability is
  // off); handed to every instrumented layer.
  obs::Hooks hooks() const { return {trace_.get(), metrics_.get()}; }

  Options options_;
  std::unique_ptr<rdf::TermPool> pool_;
  std::unique_ptr<util::ThreadPool> thread_pool_;
  // Created in the constructor (sized for the worker pool) when the
  // corresponding option is on, so spans/metrics cover loading too.
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::optional<ontology::Ontology> left_;
  std::optional<ontology::Ontology> right_;
  std::optional<core::AlignmentResult> result_;
  // The config the run actually used (instance_threshold resolved by the
  // Aligner); what SaveResult records for the resume compatibility check.
  core::AlignmentConfig resolved_config_;
  size_t resumed_iterations_ = 0;
  bool cancelled_ = false;
  // Deltas staged by ApplyDelta, merged (and cleared) by the next Realign.
  struct StagedDelta {
    DeltaSide side;
    std::vector<rdf::ParsedTriple> triples;
  };
  std::vector<StagedDelta> staged_deltas_;
};

}  // namespace paris::api

#endif  // PARIS_API_SESSION_H_
