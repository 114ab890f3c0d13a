#include "paris/core/aligner.h"

#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "paris/core/checkpoint.h"
#include "paris/core/result_snapshot.h"
#include "paris/core/worklist.h"
#include "paris/obs/trace.h"
#include "paris/util/fs.h"
#include "paris/util/logging.h"
#include "paris/util/string_util.h"

namespace paris::core {

namespace {

// Strips a namespace prefix ("y:wasBornIn" → "wasbornin") and normalizes.
std::string RelationNameKey(const ontology::Ontology& onto, rdf::RelId rel) {
  std::string name(onto.pool().lexical(onto.store().relation_name(rel)));
  const size_t colon = name.rfind(':');
  if (colon != std::string::npos) name = name.substr(colon + 1);
  return util::NormalizeAlnum(name);
}

// The §7 extension: seed the bootstrap table with relation-name similarity
// so that, e.g., "birthPlace" and "wasBornIn"... do not match, but "phone"
// and "phoneNumber" start above θ. Only shapes iteration 1.
RelationScores NamePriorBootstrap(const ontology::Ontology& left,
                                  const ontology::Ontology& right,
                                  const AlignmentConfig& config) {
  RelationScores scores = RelationScores::Bootstrap(config.theta);
  const rdf::RelId num_left = static_cast<rdf::RelId>(left.num_relations());
  const rdf::RelId num_right = static_cast<rdf::RelId>(right.num_relations());
  for (rdf::RelId l = 1; l <= num_left; ++l) {
    const std::string left_key = RelationNameKey(left, l);
    if (left_key.empty()) continue;
    for (rdf::RelId r = 1; r <= num_right; ++r) {
      const std::string right_key = RelationNameKey(right, r);
      if (right_key.empty()) continue;
      const double sim = util::EditSimilarity(left_key, right_key);
      const double prior = sim * config.name_prior_cap;
      if (prior > config.theta) scores.SetBootstrapPrior(l, r, prior);
    }
  }
  return scores;
}

// Feeds a checkpoint's cached shards back into `pass` ahead of the shard
// loop. Returns the completed-flags vector for the scheduler — empty when
// nothing is usable (wrong pass, a different shard layout, or every payload
// failing validation), in which case the pass simply recomputes everything;
// the final tables are byte-identical either way.
std::vector<uint8_t> AdoptShards(Pass& pass,
                                 const PartialIterationState* partial,
                                 int pass_index, size_t num_shards,
                                 IterationContext& ctx) {
  std::vector<uint8_t> done;
  if (partial == nullptr || partial->pass != pass_index ||
      partial->num_shards != num_shards ||
      partial->payloads.size() != partial->shards.size()) {
    return done;
  }
  done.assign(num_shards, 0);
  bool any = false;
  for (size_t i = 0; i < partial->shards.size(); ++i) {
    const uint32_t shard = partial->shards[i];
    if (shard >= num_shards || done[shard]) continue;
    if (pass.LoadShard(shard, partial->payloads[i], ctx)) {
      done[shard] = 1;
      any = true;
    }
  }
  if (!any) done.clear();
  return done;
}

// Serializes the completed shards of an interrupted pass into a checkpoint.
PartialIterationState CapturePartial(const Pass& pass, int pass_index,
                                     int iteration, size_t num_shards,
                                     const ShardRunOutcome& outcome) {
  PartialIterationState partial;
  partial.iteration = iteration;
  partial.pass = pass_index;
  partial.num_shards = static_cast<uint32_t>(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    if (!outcome.completed[shard]) continue;
    partial.shards.push_back(static_cast<uint32_t>(shard));
    partial.payloads.emplace_back();
    pass.SaveShard(shard, &partial.payloads.back());
  }
  return partial;
}

// Feeds the periodic background checkpointer (core/checkpoint.h) from
// inside the scheduler's shard gate. Rebound before each cancellable pass;
// `OnShard` runs under the gate mutex — the only place a pass's completed
// shard outputs are guaranteed stable and visible — and, once the writer's
// cadence elapses, captures a full result-snapshot view: the last completed
// iteration's tables plus the running pass's completed shards, exactly the
// state a mid-pass cancel would persist. Serialization happens here on the
// gate thread (no live table is copied, see ResultSnapshotView); all file
// IO stays on the writer's background thread.
class PassCheckpointer {
 public:
  void Bind(CheckpointWriter* writer, const Pass* pass, int pass_index,
            int iteration, size_t num_shards,
            const std::vector<uint8_t>* cached, const AlignmentResult* result,
            const InstanceEquivalences* instances,
            const RelationScores* relations,
            const InstanceEquivalences* partial_instances) {
    writer_ = writer;
    if (writer_ == nullptr) return;
    pass_ = pass;
    pass_index_ = pass_index;
    iteration_ = iteration;
    result_ = result;
    instances_ = instances;
    relations_ = relations;
    partial_instances_ = partial_instances;
    if (cached != nullptr) {
      done_ = *cached;  // checkpoint-adopted shards count as completed
    } else {
      done_.assign(num_shards, 0);
    }
  }

  void OnShard(const ShardProgress& progress) {
    if (writer_ == nullptr) return;
    if (progress.shard < done_.size()) done_[progress.shard] = 1;
    if (!writer_->Due()) return;
    shards_.clear();
    payloads_.clear();
    for (size_t shard = 0; shard < done_.size(); ++shard) {
      if (!done_[shard]) continue;
      shards_.push_back(static_cast<uint32_t>(shard));
      payloads_.emplace_back();
      pass_->SaveShard(shard, &payloads_.back());
    }
    ResultSnapshotView view;
    view.iterations = {result_->iterations.data(), result_->iterations.size()};
    view.converged_at = -1;
    view.instances = instances_;
    view.relations = relations_;
    view.has_partial = true;
    view.partial_iteration = iteration_;
    view.partial_pass = pass_index_;
    view.partial_num_shards = static_cast<uint32_t>(done_.size());
    view.partial_shards = shards_;
    view.partial_payloads = payloads_;
    view.partial_instances = partial_instances_;
    writer_->Submit(view);
  }

 private:
  CheckpointWriter* writer_ = nullptr;
  const Pass* pass_ = nullptr;
  int pass_index_ = 0;
  int iteration_ = 0;
  const AlignmentResult* result_ = nullptr;
  const InstanceEquivalences* instances_ = nullptr;
  const RelationScores* relations_ = nullptr;
  const InstanceEquivalences* partial_instances_ = nullptr;
  std::vector<uint8_t> done_;
  std::vector<uint32_t> shards_;
  std::vector<std::string> payloads_;
};

}  // namespace

Aligner::Aligner(const ontology::Ontology& left,
                 const ontology::Ontology& right, AlignmentConfig config)
    : left_(left), right_(right), config_(config),
      matcher_factory_(IdentityMatcherFactory()) {
  if (config_.instance_threshold < 0.0) {
    config_.instance_threshold = config_.theta;
  }
}

AlignmentResult Aligner::Run() { return RunInternal(nullptr); }

AlignmentResult Aligner::Resume(AlignmentResult checkpoint) {
  return RunInternal(&checkpoint);
}

AlignmentResult Aligner::Realign(RealignSeed seed) {
  return RunInternal(nullptr, &seed);
}

AlignmentResult Aligner::RunInternal(AlignmentResult* checkpoint,
                                     RealignSeed* seed) {
  // Every duration below comes from one clock: an obs::Span, which times
  // itself even with no trace recorder attached. `pass_timings`, the
  // iteration records, and --trace-json therefore always agree.
  const size_t obs_slot = obs_.main_slot();
  obs::Span total_span(obs_.trace, obs_slot, "run", "align");
  // Started after `run` ends and declared before the run's state, so it
  // times that state's destruction: the passes with their per-instance
  // slots, the matchers' indexes, the worker scratch.
  std::optional<obs::Span> teardown_span;
  obs::MetricId m_changed = 0;
  obs::MetricId m_gained = 0;
  obs::MetricId m_dropped = 0;
  obs::MetricId m_stable = 0;
  obs::MetricId m_score_delta = 0;
  if (obs_.metrics != nullptr) {
    m_changed = obs_.metrics->Counter("convergence.changed");
    m_gained = obs_.metrics->Counter("convergence.gained");
    m_dropped = obs_.metrics->Counter("convergence.dropped");
    m_stable = obs_.metrics->Counter("convergence.stable");
    m_score_delta = obs_.metrics->Histogram(
        "convergence.score_delta",
        std::vector<double>(std::begin(kScoreDeltaBounds),
                            std::end(kScoreDeltaBounds)));
  }
  AlignmentResult result;

  // Literal matchers, one per direction (§5.3).
  std::unique_ptr<LiteralMatcher> matcher_l2r = matcher_factory_();
  std::unique_ptr<LiteralMatcher> matcher_r2l = matcher_factory_();
  matcher_l2r->IndexTarget(right_);
  matcher_r2l->IndexTarget(left_);

  util::ThreadPool* pool = external_pool_;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (pool == nullptr && config_.num_threads > 0) {
    owned_pool = std::make_unique<util::ThreadPool>(config_.num_threads);
    pool = owned_pool.get();
  }

  // The pipeline: one context carrying the per-iteration state and the
  // per-worker scratch, three passes scheduled over fixed shards.
  const size_t worker_slots =
      pool != nullptr && pool->num_threads() > 0 ? pool->num_threads() : 1;
  IterationContext ctx(worker_slots);
  ctx.left = &left_;
  ctx.right = &right_;
  ctx.config = &config_;
  ctx.matcher_l2r = matcher_l2r.get();
  ctx.matcher_r2l = matcher_r2l.get();
  ctx.obs = obs_;

  InstancePass instance_pass;
  RelationPass relation_pass;
  ClassPass class_pass;
  result.pass_timings = {PassTimings{"instance"}, PassTimings{"relation"},
                         PassTimings{"class"}};
  PassTimings& instance_times = result.pass_timings[kInstancePass];
  PassTimings& relation_times = result.pass_timings[kRelationPass];
  PassTimings& class_times = result.pass_timings[kClassPass];

  // The shard gate for the cancellable passes; the class pass reports
  // progress through the observer but ignores its verdict (it always
  // completes, keeping the result consistent).
  std::function<bool(const ShardProgress&)> cancellable_gate;
  std::function<bool(const ShardProgress&)> reporting_gate;
  if (shard_observer_) {
    cancellable_gate = shard_observer_;
    reporting_gate = [this](const ShardProgress& progress) {
      shard_observer_(progress);
      return true;
    };
  }

  // Periodic background checkpointing: piggyback on the scheduler's
  // serialized gate so every shard boundary can capture the pass's
  // completed state once the cadence elapses — which is why the
  // cancellable passes get a gate here even without a shard observer.
  const uint64_t io_retries_before = util::IoRetryCount();
  size_t shards_recovered = 0;
  std::unique_ptr<CheckpointWriter> ckpt_writer;
  PassCheckpointer checkpointer;
  if (!config_.checkpoint_dir.empty() && config_.checkpoint_interval > 0.0) {
    ckpt_writer = std::make_unique<CheckpointWriter>(
        CheckpointWriter::Options{config_.checkpoint_dir,
                                  config_.checkpoint_interval},
        left_, right_, config_, matcher_name_);
    const std::function<bool(const ShardProgress&)> inner = cancellable_gate;
    cancellable_gate = [&checkpointer, inner](const ShardProgress& progress) {
      checkpointer.OnShard(progress);
      return inner ? inner(progress) : true;
    };
  }

  // Semi-naive bookkeeping (core/worklist.h): the tracker diffs same-parity
  // fixpoint states (k vs k-2, matching the passes' two-generation slot
  // retention — the float attractor may be an exact 2-cycle), the worklist
  // carries the resulting dirty sets into the passes. Starts inactive — the
  // first iteration of any run (cold, resumed, or exhaustive) computes
  // everything; seeded re-alignments activate it below. `ctx.worklist`
  // stays bound for the whole run; the passes engage reuse only when
  // config_.semi_naive, the relevant set is active, and their retained
  // slots are complete.
  SemiNaiveTracker tracker(left_, right_);
  SemiNaiveWorklist worklist;
  ctx.worklist = &worklist;
  obs::MetricId m_dirty_instances = 0;
  obs::MetricId m_dirty_relations = 0;
  obs::MetricId m_changed_terms = 0;
  obs::MetricId m_changed_rels = 0;
  if (obs_.metrics != nullptr) {
    m_dirty_instances = obs_.metrics->Counter("seminaive.dirty_instances");
    m_dirty_relations = obs_.metrics->Counter("seminaive.dirty_relations");
    m_changed_terms = obs_.metrics->Counter("seminaive.changed_terms");
    m_changed_rels = obs_.metrics->Counter("seminaive.changed_relations");
  }

  InstanceEquivalences previous;  // empty: first iteration has no equalities
  RelationScores rel_scores;
  // Two-back (same-parity) states feeding the tracker's diffs. On a cold
  // start they hold the empty store / θ-bootstrap: the diff against empty
  // marks everything (sound), and the bootstrap table is incomparable, so
  // the instance worklist first activates at iteration 3 and reuse first
  // engages at iteration 4 — once every retained slot's inputs really are
  // two comparable states apart.
  InstanceEquivalences prev_prev;
  RelationScores prev_prev_scores = RelationScores::Bootstrap(config_.theta);
  int start_iteration = 1;
  const bool seeded = seed != nullptr;
  bool finished = false;  // checkpoint already converged / exhausted the cap
  std::optional<PartialIterationState> resume_partial;
  if (seeded) {
    // Incremental re-alignment: the completed base run's tables are the
    // previous-iteration state, and the first instance pass recomputes only
    // the delta's structural cone. The base run converged, so its tables
    // stand in for *both* parities of history: the first iterations' diffs
    // then measure only what the delta actually moved.
    obs::Span seed_span(obs_.trace, obs_slot, "phase", "realign.seed");
    previous = std::move(seed->instances);
    rel_scores = std::move(seed->relations);
    prev_prev = previous;
    prev_prev_scores = rel_scores;
    if (config_.semi_naive) {
      instance_pass.SeedResults(left_, previous);
      tracker.SeedRealignInstanceWorklist(
          previous, matcher_r2l.get(), seed->left_touched_terms,
          seed->right_touched_terms, &worklist);
      if (obs_.metrics != nullptr) {
        obs_.metrics->Add(m_dirty_instances, obs_slot,
                          worklist.num_dirty_instances);
      }
      PARIS_LOG(kInfo) << "realign: " << worklist.num_dirty_instances << " of "
                       << left_.instances().size()
                       << " instances in the delta cone";
    }
  } else if (checkpoint != nullptr) {
    // Adopt the checkpoint's state exactly as iteration k left it; the loop
    // below continues at k+1 as if it had never stopped.
    start_iteration = static_cast<int>(checkpoint->iterations.size()) + 1;
    finished = checkpoint->converged_at > 0;
    result.iterations = std::move(checkpoint->iterations);
    result.converged_at = checkpoint->converged_at;
    previous = std::move(checkpoint->instances);
    rel_scores = std::move(checkpoint->relations);
    if (checkpoint->partial.has_value() && !finished &&
        checkpoint->partial->iteration == start_iteration) {
      resume_partial = std::move(checkpoint->partial);
    }
  } else {
    previous.Finalize();
    rel_scores = config_.use_relation_name_prior
                     ? NamePriorBootstrap(left_, right_, config_)
                     : RelationScores::Bootstrap(config_.theta);
  }
  if (!seeded) prev_prev.Finalize();  // empty two-back state, diffable

  for (int iteration = start_iteration;
       !finished && iteration <= config_.max_iterations; ++iteration) {
    IterationRecord record;
    record.index = iteration;
    ctx.iteration = iteration;
    ctx.previous = &previous;
    ctx.rel_scores = &rel_scores;
    PartialIterationState* adopt =
        resume_partial.has_value() && resume_partial->iteration == iteration
            ? &*resume_partial
            : nullptr;

    // Step 1: instance pass from the previous iteration's state. A resumed
    // iteration that was cancelled during its *relation* pass already has
    // the instance pass's (blended) output — adopt it outright.
    obs::Span iteration_span(obs_.trace, obs_slot, "iteration", "iteration",
                             iteration);
    obs::Span instance_span(obs_.trace, obs_slot, "pass", "instance",
                            iteration);
    if (adopt != nullptr && adopt->pass == kRelationPass) {
      ctx.current = std::move(adopt->instances);
    } else {
      obs::Span prepare_span(obs_.trace, obs_slot, "phase",
                             "instance.prepare", iteration);
      const size_t num_shards = instance_pass.Prepare(ctx);
      const std::vector<uint8_t> cached =
          AdoptShards(instance_pass, adopt, kInstancePass, num_shards, ctx);
      for (uint8_t done : cached) shards_recovered += done;
      instance_times.prepare_seconds += prepare_span.End();
      checkpointer.Bind(ckpt_writer.get(), &instance_pass, kInstancePass,
                        iteration, num_shards,
                        cached.empty() ? nullptr : &cached, &result, &previous,
                        &rel_scores, /*partial_instances=*/nullptr);
      obs::Span shards_span(obs_.trace, obs_slot, "phase", "instance.shards",
                            iteration);
      const ShardRunOutcome outcome =
          RunPassShards(instance_pass, num_shards, ctx, pool,
                        cancellable_gate, cached.empty() ? nullptr : &cached);
      instance_times.shard_seconds += shards_span.End();
      instance_times.shards_run += outcome.num_completed;
      if (!outcome.all_completed()) {
        // Mid-pass cancel: checkpoint the completed shards and wrap up from
        // the last completed iteration.
        result.partial.emplace(CapturePartial(instance_pass, kInstancePass,
                                              iteration, num_shards, outcome));
        break;
      }
      obs::Span merge_span(obs_.trace, obs_slot, "phase", "instance.merge",
                           iteration);
      instance_pass.Merge(ctx);
      if (config_.dampening > 0.0 && iteration > 1) {
        // Progressively increasing dampening factor (§5.1's convergence
        // device): λ grows toward `dampening` as iterations accumulate.
        const double lambda =
            config_.dampening * (1.0 - 1.0 / static_cast<double>(iteration));
        ctx.current =
            BlendEquivalences(previous, ctx.current, lambda,
                              config_.instance_threshold,
                              config_.max_candidates_per_instance);
      }
      instance_times.merge_seconds += merge_span.End();
      if (outcome.stopped) {
        // The cancel landed on the pass's final shard: the instance pass is
        // complete, so checkpoint its merged output and resume straight
        // into the relation pass.
        result.partial.emplace();
        result.partial->iteration = iteration;
        result.partial->pass = kRelationPass;
        result.partial->instances = std::move(ctx.current);
        break;
      }
    }
    record.seconds_instances = instance_span.End();
    // The serial work between the passes: the semi-naive diff, the relation
    // worklist, the change fraction and the convergence telemetry.
    obs::Span instance_bookkeeping_span(obs_.trace, obs_slot, "phase",
                                        "instance.bookkeeping", iteration);
    if (config_.semi_naive) {
      // Diff the same-parity equivalence stores (two-back vs fresh): drives
      // this iteration's relation worklist — whose pass reuses two-back
      // slots — and, joined with the same-parity score diff after the
      // relation pass, the next instance worklist.
      tracker.ObserveInstances(prev_prev, ctx.current);
      tracker.SeedRelationWorklist(&worklist);
      if (obs_.metrics != nullptr) {
        obs_.metrics->Add(m_dirty_relations, obs_slot,
                          worklist.num_dirty_relations);
        obs_.metrics->Add(m_changed_terms, obs_slot,
                          tracker.num_changed_left_terms() +
                              tracker.num_changed_right_terms());
      }
    }
    record.num_left_aligned = ctx.current.num_left_aligned();
    record.change_fraction = ctx.current.MaxAssignmentChangeFraction(previous);
    // Convergence telemetry: what this iteration moved, per entity and per
    // instance-pass shard. Recomputing the layout here (instead of asking
    // the pass) keeps the adopted-instance-pass resume path covered too.
    record.telemetry = ComputeConvergenceTelemetry(
        left_.instances(),
        ShardLayout::Make(left_.instances().size(), config_.num_shards),
        previous, ctx.current);
    if (obs_.metrics != nullptr) {
      obs_.metrics->Add(m_changed, obs_slot, record.telemetry.changed);
      obs_.metrics->Add(m_gained, obs_slot, record.telemetry.gained);
      obs_.metrics->Add(m_dropped, obs_slot, record.telemetry.dropped);
      obs_.metrics->Add(m_stable, obs_slot, record.telemetry.stable);
      obs_.metrics->MergeCounts(m_score_delta, obs_slot,
                                record.telemetry.score_delta_counts);
    }
    instance_bookkeeping_span.End();

    // Step 2: relation pass from the fresh equivalences.
    obs::Span relation_span(obs_.trace, obs_slot, "pass", "relation",
                            iteration);
    obs::Span rel_prepare_span(obs_.trace, obs_slot, "phase",
                               "relation.prepare", iteration);
    const size_t num_shards = relation_pass.Prepare(ctx);
    const std::vector<uint8_t> cached =
        AdoptShards(relation_pass, adopt, kRelationPass, num_shards, ctx);
    for (uint8_t done : cached) shards_recovered += done;
    relation_times.prepare_seconds += rel_prepare_span.End();
    checkpointer.Bind(ckpt_writer.get(), &relation_pass, kRelationPass,
                      iteration, num_shards, cached.empty() ? nullptr : &cached,
                      &result, &previous, &rel_scores,
                      /*partial_instances=*/&ctx.current);
    obs::Span rel_shards_span(obs_.trace, obs_slot, "phase",
                              "relation.shards", iteration);
    const ShardRunOutcome outcome =
        RunPassShards(relation_pass, num_shards, ctx, pool, cancellable_gate,
                      cached.empty() ? nullptr : &cached);
    relation_times.shard_seconds += rel_shards_span.End();
    relation_times.shards_run += outcome.num_completed;
    if (!outcome.all_completed()) {
      result.partial.emplace(CapturePartial(relation_pass, kRelationPass,
                                            iteration, num_shards, outcome));
      result.partial->instances = std::move(ctx.current);
      break;
    }
    obs::Span rel_merge_span(obs_.trace, obs_slot, "phase", "relation.merge",
                             iteration);
    relation_pass.Merge(ctx);
    relation_times.merge_seconds += rel_merge_span.End();
    record.seconds_relations = relation_span.End();
    // The serial work after the passes: the semi-naive score diff, the next
    // instance worklist, the history record and the convergence tests.
    obs::Span relation_bookkeeping_span(obs_.trace, obs_slot, "phase",
                                        "relation.bookkeeping", iteration);
    if (config_.semi_naive) {
      // Diff same-parity score tables (incomparable while the two-back
      // table is the θ-bootstrap — the next instance pass then stays
      // exhaustive).
      tracker.ObserveScores(prev_prev_scores, ctx.fresh_scores);
    }
    prev_prev_scores = std::move(rel_scores);
    rel_scores = std::move(ctx.fresh_scores);
    if (config_.semi_naive) {
      tracker.SeedInstanceWorklist(&worklist);
      if (obs_.metrics != nullptr) {
        obs_.metrics->Add(m_dirty_instances, obs_slot,
                          worklist.num_dirty_instances);
        obs_.metrics->Add(m_changed_rels, obs_slot,
                          tracker.num_changed_relations());
      }
    }
    resume_partial.reset();  // fully consumed once its iteration completes

    if (config_.record_history) {
      record.instances = ctx.current;
      record.relations = rel_scores;
    }
    // A cold run must complete two iterations before the change fraction
    // means anything (iteration 1 compares against the empty store); a
    // seeded re-alignment starts from a converged state, so iteration 1's
    // fraction is already a real measurement.
    bool converged = (iteration > 1 || seeded) &&
                     record.change_fraction < config_.convergence_threshold;
    // Drain-stop: two *consecutive* states are bit-identical, so every
    // further iteration reproduces this state byte-for-byte — stopping now
    // leaves the final tables identical to an exhaustive run at any larger
    // cap. (A period-2 lock never triggers this; those runs keep iterating
    // at near-zero marginal cost so the output stays dependent on the cap's
    // parity, exactly like the exhaustive baseline.)
    bool exact_fixpoint = false;
    if (!converged && config_.semi_naive) {
      exact_fixpoint = tracker.ExactFixpoint(previous, ctx.current,
                                             prev_prev_scores, rel_scores);
    }
    converged = converged || exact_fixpoint;
    prev_prev = std::move(previous);
    previous = std::move(ctx.current);
    relation_bookkeeping_span.End();

    PARIS_LOG(kInfo) << "iteration " << iteration << ": aligned "
                     << record.num_left_aligned << " instances, change "
                     << record.change_fraction << ", "
                     << record.seconds_instances + record.seconds_relations
                     << "s";
    if (exact_fixpoint) {
      PARIS_LOG(kInfo) << "iteration " << iteration
                       << ": exact fixpoint, stopping";
    }
    result.iterations.push_back(std::move(record));

    const bool keep_going =
        !iteration_observer_ || iteration_observer_(result.iterations.back());
    if (converged) {
      result.converged_at = iteration;
      break;
    }
    // Cooperative stop at the iteration boundary: the iteration observer
    // declined to continue, or a shard-level cancel landed on the relation
    // pass's final shard (the iteration still completed). Falls through to
    // the class pass so the partial result stays consistent and resumable.
    if (!keep_going || outcome.stopped) break;
  }

  // Final step: class pass from the last completed assignment (§4.3 —
  // computed only after the instance equivalences). Runs even after a
  // mid-iteration cancel: the interrupted iteration lives in
  // `result.partial`, while the tables below all reflect `previous`.
  ctx.iteration = static_cast<int>(result.iterations.size());
  ctx.previous = &previous;
  obs::Span class_span(obs_.trace, obs_slot, "pass", "class", ctx.iteration);
  obs::Span class_prepare_span(obs_.trace, obs_slot, "phase", "class.prepare",
                               ctx.iteration);
  const size_t class_shards = class_pass.Prepare(ctx);
  class_times.prepare_seconds += class_prepare_span.End();
  obs::Span class_shards_span(obs_.trace, obs_slot, "phase", "class.shards",
                              ctx.iteration);
  const ShardRunOutcome class_outcome =
      RunPassShards(class_pass, class_shards, ctx, pool, reporting_gate);
  class_times.shard_seconds += class_shards_span.End();
  class_times.shards_run += class_outcome.num_completed;
  obs::Span class_merge_span(obs_.trace, obs_slot, "phase", "class.merge",
                             ctx.iteration);
  class_pass.Merge(ctx);
  class_times.merge_seconds += class_merge_span.End();
  result.classes = std::move(ctx.classes);
  result.seconds_classes = class_span.End();

  result.instances = std::move(previous);
  result.relations = std::move(rel_scores);
  // Drain the checkpointer (joins its background write) before reading its
  // final count; a run that ends normally keeps its last checkpoint on disk
  // for post-mortems, and the next run in the directory supersedes it.
  uint64_t checkpoints_written = 0;
  if (ckpt_writer != nullptr) {
    ckpt_writer->Drain();
    checkpoints_written = ckpt_writer->checkpoints_written();
  }
  result.seconds_total = total_span.End();
  if (obs_.metrics != nullptr) {
    obs_.metrics->SetGauge(obs_.metrics->Gauge("run.iterations"),
                           static_cast<int64_t>(result.iterations.size()));
    obs_.metrics->SetGauge(obs_.metrics->Gauge("run.converged_at"),
                           result.converged_at);
    obs_.metrics->SetGauge(
        obs_.metrics->Gauge("run.instances_aligned"),
        static_cast<int64_t>(result.instances.num_left_aligned()));
    // Durability counters (src/obs/README.md): zero in an undisturbed,
    // uncheckpointed run, so enabling observability still never changes
    // any deterministic output.
    obs_.metrics->Add(obs_.metrics->Counter("durability.checkpoints_written"),
                      obs_slot, checkpoints_written);
    obs_.metrics->Add(obs_.metrics->Counter("durability.shards_recovered"),
                      obs_slot, static_cast<uint64_t>(shards_recovered));
    obs_.metrics->Add(obs_.metrics->Counter("durability.io_retries"), obs_slot,
                      util::IoRetryCount() - io_retries_before);
  }
  teardown_span.emplace(obs_.trace, obs_slot, "phase", "run.teardown");
  return result;
}

}  // namespace paris::core
