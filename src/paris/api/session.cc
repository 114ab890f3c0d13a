#include "paris/api/session.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ostream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "paris/core/checkpoint.h"
#include "paris/core/result_io.h"
#include "paris/core/result_snapshot.h"
#include "paris/core/telemetry.h"
#include "paris/obs/metrics.h"
#include "paris/obs/trace.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/turtle.h"
#include "paris/util/flags.h"

namespace paris::api {

namespace {

// Prefixes an error with the file it concerns, so every facade failure
// reports the failing path uniformly. Skipped when the underlying layer
// already named it.
util::Status Annotate(const std::string& context, const util::Status& status) {
  if (status.ok()) return status;
  if (status.message().find(context) != std::string::npos) return status;
  return util::Status(status.code(), context + ": " + status.message());
}

// printf-style formatting into a std::string (the stats report reproduces
// the historical printf output byte for byte, so iostream formatting is
// not an option).
template <typename... Args>
std::string StrFormat(const char* format, Args... args) {
  const int size = std::snprintf(nullptr, 0, format, args...);
  std::string out(static_cast<size_t>(size), '\0');
  std::snprintf(out.data(), out.size() + 1, format, args...);
  return out;
}

// Files ending in .ttl/.turtle are parsed as Turtle, everything else as
// N-Triples.
util::Status ParseRdfFile(const std::string& path, rdf::TripleSink* sink) {
  const bool turtle =
      path.size() >= 4 &&
      (path.rfind(".ttl") == path.size() - 4 ||
       (path.size() >= 7 && path.rfind(".turtle") == path.size() - 7));
  return turtle ? rdf::TurtleParser::ParseFile(path, sink)
                : rdf::NTriplesParser::ParseFile(path, sink);
}

}  // namespace

Session::Session() : Session(Options()) {}

Session::Session(Options options) : options_(std::move(options)) {
  // Sized for the worker pool `workers()` would create: slots [0, threads)
  // for the pool workers plus a main slot — matching how the instrumented
  // layers hand out slot ids (obs/hooks.h).
  const size_t worker_slots =
      options_.config.num_threads > 0 ? options_.config.num_threads : 1;
  if (options_.trace) {
    trace_ = std::make_unique<obs::TraceRecorder>(worker_slots);
  }
  if (options_.metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>(worker_slots);
  }
}

Session::~Session() = default;

util::ThreadPool* Session::workers() {
  if (thread_pool_ == nullptr && options_.config.num_threads > 0) {
    thread_pool_ =
        std::make_unique<util::ThreadPool>(options_.config.num_threads);
  }
  return thread_pool_.get();
}

util::Status Session::LoadFromFiles(const std::string& left_path,
                                    const std::string& right_path) {
  if (loaded()) {
    return util::FailedPreconditionError(
        "session already has ontologies loaded");
  }
  auto pool = std::make_unique<rdf::TermPool>();

  ontology::OntologyBuilder left_builder(pool.get(), "left");
  {
    obs::Span span(trace_.get(), hooks().main_slot(), "io", "rdf.parse.left");
    auto status = ParseRdfFile(left_path, &left_builder);
    if (!status.ok()) return Annotate(left_path, status);
  }
  auto left = left_builder.Build(workers(), hooks());
  if (!left.ok()) return Annotate("left ontology", left.status());

  ontology::OntologyBuilder right_builder(pool.get(), "right");
  {
    obs::Span span(trace_.get(), hooks().main_slot(), "io",
                   "rdf.parse.right");
    auto status = ParseRdfFile(right_path, &right_builder);
    if (!status.ok()) return Annotate(right_path, status);
  }
  auto right = right_builder.Build(workers(), hooks());
  if (!right.ok()) return Annotate("right ontology", right.status());

  pool_ = std::move(pool);
  left_.emplace(std::move(left).value());
  right_.emplace(std::move(right).value());
  return util::OkStatus();
}

util::Status Session::LoadFromSnapshot(const std::string& path) {
  if (loaded()) {
    return util::FailedPreconditionError(
        "session already has ontologies loaded");
  }
  // The loader leaves a pool unspecified on failure, so commit the pool to
  // the session only once the load succeeded.
  auto pool = std::make_unique<rdf::TermPool>();
  obs::Span span(trace_.get(), hooks().main_slot(), "io", "snapshot.load");
  auto snapshot = ontology::LoadAlignmentSnapshot(path, pool.get(),
                                                  options_.snapshot_load_mode);
  if (!snapshot.ok()) return Annotate(path, snapshot.status());
  pool_ = std::move(pool);
  left_.emplace(std::move(snapshot->left));
  right_.emplace(std::move(snapshot->right));
  return util::OkStatus();
}

util::Status Session::SaveSnapshot(const std::string& path) const {
  if (!loaded()) {
    return util::FailedPreconditionError("no ontologies loaded");
  }
  obs::Span span(trace_.get(), hooks().main_slot(), "io", "snapshot.save");
  return Annotate(path, ontology::SaveAlignmentSnapshot(path, *left_, *right_));
}

util::Status Session::Align(const RunCallbacks& callbacks) {
  return RunAligner(callbacks, /*resume_path=*/"");
}

util::Status Session::Resume(const std::string& result_snapshot_path,
                             const RunCallbacks& callbacks) {
  return RunAligner(callbacks, result_snapshot_path);
}

util::StatusOr<std::unique_ptr<core::Aligner>> Session::MakeAligner(
    const RunCallbacks& callbacks, std::atomic<bool>* cancelled) {
  const MatcherRegistry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : MatcherRegistry::Default();
  auto factory = registry.Resolve(options_.matcher);
  if (!factory.ok()) return factory.status();

  auto aligner =
      std::make_unique<core::Aligner>(*left_, *right_, options_.config);
  aligner->set_literal_matcher_factory(std::move(factory).value());
  aligner->set_matcher_name(options_.matcher);
  aligner->set_thread_pool(workers());
  aligner->set_observability(hooks());

  // `cancelled` is written from the run thread (iteration observer) and
  // from pool workers (shard observer); the runs never overlap, but the
  // atomic keeps the flag race-free without leaning on the pool's
  // synchronization. The callbacks are copied into the observers: the
  // aligner outlives this call (the caller runs it next), the caller's
  // RunCallbacks may not.
  aligner->set_iteration_observer(
      [callbacks, cancelled, this](const core::IterationRecord& record) {
        if (callbacks.on_iteration) {
          IterationProgress progress;
          progress.iteration = record.index;
          progress.max_iterations = options_.config.max_iterations;
          progress.num_aligned = record.num_left_aligned;
          progress.change_fraction = record.change_fraction;
          progress.seconds =
              record.seconds_instances + record.seconds_relations;
          progress.num_changed = record.telemetry.num_changed();
          callbacks.on_iteration(progress);
        }
        if (callbacks.cancellation && callbacks.cancellation->cancelled()) {
          cancelled->store(true, std::memory_order_relaxed);
          return false;
        }
        return true;
      });
  // Shard-granular progress + cancellation: polled after every completed
  // shard, so a cancel takes effect mid-pass instead of waiting out the
  // instance pass (minutes at YAGO scale). The aligner checkpoints the
  // completed shards; Resume picks them up.
  if (callbacks.on_shard || callbacks.cancellation) {
    aligner->set_shard_observer(
        [callbacks, cancelled](const core::ShardProgress& shard) {
          if (callbacks.on_shard) {
            ShardProgress progress;
            progress.pass = shard.pass;
            progress.iteration = shard.iteration;
            progress.shard = shard.shard;
            progress.num_shards = shard.num_shards;
            progress.num_completed = shard.num_completed;
            callbacks.on_shard(progress);
          }
          if (callbacks.cancellation && callbacks.cancellation->cancelled()) {
            cancelled->store(true, std::memory_order_relaxed);
            return false;
          }
          return true;
        });
  }
  return aligner;
}

util::Status Session::RunAligner(const RunCallbacks& callbacks,
                                 const std::string& resume_path) {
  if (!loaded()) {
    return util::FailedPreconditionError(
        "no ontologies loaded; call LoadFromFiles or LoadFromSnapshot first");
  }
  if (has_result()) {
    return util::FailedPreconditionError(
        "session already has an alignment result; one Session runs one "
        "alignment — create a new Session to re-run, or stage a delta and "
        "Realign to update this one");
  }
  std::atomic<bool> cancelled{false};
  auto made = MakeAligner(callbacks, &cancelled);
  if (!made.ok()) return made.status();
  core::Aligner& aligner = **made;

  size_t resumed = 0;
  if (resume_path.empty()) {
    // Crash recovery: adopt the newest usable periodic checkpoint, if the
    // caller opted in and a previous run left one behind. Anything short of
    // a clean load (no directory, no manifest, corrupt or incompatible
    // files) degrades to a cold start — the checkpoint loader has already
    // logged why.
    std::optional<core::AlignmentResult> adopted;
    if (options_.auto_resume && !options_.config.checkpoint_dir.empty()) {
      obs::Span span(trace_.get(), hooks().main_slot(), "io",
                     "checkpoint.load");
      auto checkpoint = core::LoadLatestCheckpoint(
          options_.config.checkpoint_dir, *left_, *right_, aligner.config(),
          options_.matcher);
      if (checkpoint.ok()) adopted.emplace(std::move(checkpoint).value());
    }
    if (adopted.has_value()) {
      resumed = adopted->iterations.size();
      result_.emplace(aligner.Resume(std::move(*adopted)));
    } else {
      result_.emplace(aligner.Run());
    }
  } else {
    auto checkpoint = [&] {
      obs::Span span(trace_.get(), hooks().main_slot(), "io", "result.load");
      return core::LoadAlignmentResult(resume_path, *left_, *right_,
                                       aligner.config(), options_.matcher,
                                       options_.snapshot_load_mode);
    }();
    if (!checkpoint.ok()) return Annotate(resume_path, checkpoint.status());
    resumed = checkpoint->iterations.size();
    result_.emplace(aligner.Resume(std::move(checkpoint).value()));
  }
  return FinishRun(aligner, resumed, cancelled.load(std::memory_order_relaxed));
}

util::Status Session::FinishRun(const core::Aligner& aligner, size_t resumed,
                                bool cancelled) {
  resolved_config_ = aligner.config();
  resumed_iterations_ = resumed;
  // A cancellation that raced the natural end of the run (the converging
  // iteration, or the iteration cap) stopped nothing: the result is the
  // complete one, so report success, not kCancelled.
  const bool finished_naturally =
      result_->converged_at > 0 ||
      result_->iterations.size() >=
          static_cast<size_t>(resolved_config_.max_iterations);
  cancelled_ = cancelled && !finished_naturally;
  if (cancelled_) {
    std::string detail;
    if (result_->partial.has_value()) {
      detail = " (iteration " + std::to_string(result_->partial->iteration) +
               " checkpointed after " +
               std::to_string(result_->partial->shards.size()) + " of " +
               std::to_string(result_->partial->num_shards) + " " +
               (result_->partial->pass == core::kInstancePass ? "instance"
                                                              : "relation") +
               "-pass shards)";
    }
    return util::CancelledError(
        "alignment cancelled after iteration " +
        std::to_string(result_->iterations.size()) + detail +
        "; the partial result is retained and can be saved with SaveResult");
  }
  return util::OkStatus();
}

util::Status Session::ApplyDelta(DeltaSide side,
                                 std::vector<rdf::ParsedTriple> triples) {
  if (!loaded()) {
    return util::FailedPreconditionError(
        "no ontologies loaded; call LoadFromFiles or LoadFromSnapshot first");
  }
  staged_deltas_.push_back({side, std::move(triples)});
  return util::OkStatus();
}

util::Status Session::ApplyDelta(DeltaSide side,
                                 const std::string& delta_path) {
  if (!loaded()) {
    return util::FailedPreconditionError(
        "no ontologies loaded; call LoadFromFiles or LoadFromSnapshot first");
  }
  rdf::VectorTripleSink sink;
  {
    obs::Span span(trace_.get(), hooks().main_slot(), "io", "rdf.parse.delta");
    auto status = ParseRdfFile(delta_path, &sink);
    if (!status.ok()) return Annotate(delta_path, status);
  }
  staged_deltas_.push_back({side, sink.triples()});
  return util::OkStatus();
}

util::Status Session::Realign(const RunCallbacks& callbacks) {
  return RealignInternal(/*realign_from=*/"", callbacks);
}

util::Status Session::Realign(const std::string& realign_from,
                              const RunCallbacks& callbacks) {
  if (realign_from.empty()) {
    return util::InvalidArgumentError("empty result snapshot path");
  }
  return RealignInternal(realign_from, callbacks);
}

util::Status Session::RealignInternal(const std::string& realign_from,
                                      const RunCallbacks& callbacks) {
  if (!loaded()) {
    return util::FailedPreconditionError(
        "no ontologies loaded; call LoadFromFiles or LoadFromSnapshot first");
  }
  if (staged_deltas_.empty()) {
    return util::FailedPreconditionError(
        "no delta staged; call ApplyDelta before Realign");
  }
  std::atomic<bool> cancelled{false};
  auto made = MakeAligner(callbacks, &cancelled);
  if (!made.ok()) return made.status();
  core::Aligner& aligner = **made;

  // Resolve the base result BEFORE merging any delta: a result snapshot's
  // compatibility key fingerprints the pre-delta ontology pair (the run it
  // captures aligned those stores), so the load must see them unmodified.
  core::AlignmentResult base;
  if (!realign_from.empty()) {
    auto loaded_result = [&] {
      obs::Span span(trace_.get(), hooks().main_slot(), "io", "result.load");
      return core::LoadAlignmentResult(realign_from, *left_, *right_,
                                       aligner.config(), options_.matcher,
                                       options_.snapshot_load_mode);
    }();
    if (!loaded_result.ok()) {
      return Annotate(realign_from, loaded_result.status());
    }
    base = std::move(loaded_result).value();
    result_.reset();
  } else {
    if (!has_result()) {
      return util::FailedPreconditionError(
          "nothing to realign from; run Align first or pass a result "
          "snapshot path");
    }
    base = std::move(*result_);
    result_.reset();
  }

  core::RealignSeed seed;
  for (size_t i = 0; i < staged_deltas_.size(); ++i) {
    StagedDelta& delta = staged_deltas_[i];
    ontology::Ontology& onto =
        delta.side == DeltaSide::kLeft ? *left_ : *right_;
    auto summary = [&] {
      obs::Span span(trace_.get(), hooks().main_slot(), "io", "delta.merge");
      return onto.ApplyDelta(delta.triples, workers(), hooks());
    }();
    if (!summary.ok()) {
      // Batches merged before the failing one stay merged (Ontology's
      // ApplyDelta is all-or-nothing per batch, so the stores are
      // consistent); drop the failing and later batches and put the base
      // result back so the session stays usable.
      staged_deltas_.clear();
      result_.emplace(std::move(base));
      return Annotate("delta batch " + std::to_string(i + 1),
                      summary.status());
    }
    std::vector<rdf::TermId>& touched = delta.side == DeltaSide::kLeft
                                            ? seed.left_touched_terms
                                            : seed.right_touched_terms;
    touched.insert(touched.end(), summary->touched_terms.begin(),
                   summary->touched_terms.end());
  }
  staged_deltas_.clear();
  for (auto* touched : {&seed.left_touched_terms, &seed.right_touched_terms}) {
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  seed.instances = std::move(base.instances);
  seed.relations = std::move(base.relations);

  result_.emplace(aligner.Realign(std::move(seed)));
  return FinishRun(aligner, /*resumed=*/0,
                   cancelled.load(std::memory_order_relaxed));
}

util::Status Session::SaveResult(const std::string& path) const {
  if (!has_result()) {
    return util::FailedPreconditionError("no alignment result to save");
  }
  obs::Span span(trace_.get(), hooks().main_slot(), "io", "result.save");
  return Annotate(path,
                  core::SaveAlignmentResult(path, *result_, *left_, *right_,
                                            resolved_config_,
                                            options_.matcher));
}

util::StatusOr<std::vector<rdf::Triple>> Session::Query(
    DeltaSide side, const storage::TriplePattern& pattern,
    size_t limit) const {
  if (!loaded()) {
    return util::FailedPreconditionError("no ontologies loaded to query");
  }
  const ontology::Ontology& onto =
      side == DeltaSide::kLeft ? *left_ : *right_;
  return onto.store().Collect(pattern, limit);
}

namespace {

// The id of a `#<id>` token, or -1 when the digits are malformed.
long long RawId(std::string_view token) {
  long long raw = -1;
  if (!util::ParseFullInt64(std::string(token.substr(1)), &raw)) return -1;
  return raw;
}

}  // namespace

util::StatusOr<rdf::TermId> Session::ResolveTerm(std::string_view token) const {
  if (!loaded()) {
    return util::FailedPreconditionError("no ontologies loaded to resolve");
  }
  // Both sides share one pool, so one lookup covers each.
  const rdf::TermPool& pool = left_->pool();
  if (token.starts_with('#')) {
    const long long raw = RawId(token);
    if (raw < 0 || static_cast<size_t>(raw) >= pool.size()) {
      return util::InvalidArgumentError("bad raw term id '" +
                                        std::string(token) + "'");
    }
    return static_cast<rdf::TermId>(raw);
  }
  const auto id = pool.Find(token, rdf::TermKind::kIri);
  if (!id.has_value()) {
    return util::NotFoundError("unknown term '" + std::string(token) + "'");
  }
  return *id;
}

util::StatusOr<rdf::RelId> Session::ResolveRelation(
    DeltaSide side, std::string_view token) const {
  if (!loaded()) {
    return util::FailedPreconditionError("no ontologies loaded to resolve");
  }
  const ontology::Ontology& onto = side == DeltaSide::kLeft ? *left_ : *right_;
  const bool inverse = token.starts_with('-');
  const std::string_view name = inverse ? token.substr(1) : token;
  std::optional<rdf::RelId> rel;
  if (name.starts_with('#')) {
    const long long raw = RawId(name);
    if (raw < 1 || static_cast<size_t>(raw) > onto.store().num_relations()) {
      return util::InvalidArgumentError("bad raw relation id '" +
                                        std::string(token) + "'");
    }
    rel = static_cast<rdf::RelId>(raw);
  } else if (const auto id = onto.pool().Find(name, rdf::TermKind::kIri)) {
    rel = onto.store().FindRelation(*id);
  }
  if (!rel.has_value()) {
    return util::NotFoundError(
        "unknown relation '" + std::string(name) + "' in the " +
        (side == DeltaSide::kLeft ? "left" : "right") + " ontology");
  }
  return inverse ? rdf::Inverse(*rel) : *rel;
}

util::StatusOr<storage::TriplePattern> Session::ParsePattern(
    DeltaSide side, std::string_view subject, std::string_view relation,
    std::string_view object) const {
  storage::TriplePattern pattern;
  const std::string_view tokens[3] = {subject, relation, object};
  for (size_t i = 0; i < 3; ++i) {
    if (tokens[i] == "?") continue;
    if (tokens[i] == "_") {
      pattern.slots[i] = storage::TriplePattern::Slot::kIgnored;
    } else if (i == 1) {
      auto rel = ResolveRelation(side, tokens[i]);
      if (!rel.ok()) return rel.status();
      pattern.BindRel(*rel);
    } else {
      auto id = ResolveTerm(tokens[i]);
      if (!id.ok()) return id.status();
      i == 0 ? pattern.BindSubject(*id) : pattern.BindObject(*id);
    }
  }
  return pattern;
}

util::Status Session::Export(const std::string& prefix) const {
  if (!has_result()) {
    return util::FailedPreconditionError("no alignment result to export");
  }
  return core::WriteAlignmentFiles(*result_, *left_, *right_, prefix);
}

util::Status Session::WriteInstanceAlignment(std::ostream& out) const {
  if (!has_result()) {
    return util::FailedPreconditionError("no alignment result to write");
  }
  core::WriteInstanceAlignment(result_->instances, *left_, *right_, out);
  return util::OkStatus();
}

util::Status Session::PrintStats(std::ostream& out) const {
  if (!loaded()) {
    return util::FailedPreconditionError("no ontologies loaded");
  }
  for (const ontology::Ontology* onto : {&*left_, &*right_}) {
    out << StrFormat(
        "%s: %zu instances, %zu classes, %zu relations, %zu triples\n",
        onto->name().c_str(), onto->instances().size(),
        onto->classes().size(), onto->num_relations(), onto->num_triples());
    out << "  relation functionalities (fun / fun⁻¹):\n";
    for (rdf::RelId r = 1;
         r <= static_cast<rdf::RelId>(onto->num_relations()); ++r) {
      out << StrFormat("    %-32s %.3f / %.3f  (%zu facts)\n",
                       onto->RelationName(r).c_str(), onto->Fun(r),
                       onto->FunInverse(r), onto->store().PairCount(r));
    }
  }
  return util::OkStatus();
}

util::Status Session::WriteTrace(std::ostream& out) const {
  if (trace_ == nullptr) {
    return util::FailedPreconditionError(
        "tracing disabled; construct the Session with "
        "Options::set_trace(true)");
  }
  trace_->WriteJson(out);
  return util::OkStatus();
}

util::StatusOr<obs::MetricsSnapshot> Session::Metrics() const {
  if (metrics_ == nullptr) {
    return util::FailedPreconditionError(
        "metrics disabled; construct the Session with "
        "Options::set_metrics(true)");
  }
  return metrics_->Snapshot();
}

util::Status Session::WriteMetricsJson(std::ostream& out) const {
  if (metrics_ == nullptr) {
    return util::FailedPreconditionError(
        "metrics disabled; construct the Session with "
        "Options::set_metrics(true)");
  }
  std::ostringstream registry_json;
  metrics_->WriteJson(registry_json);
  std::string body = std::move(registry_json).str();
  // The registry snapshot is a closed JSON object; re-open it to append the
  // per-iteration convergence telemetry as one more section.
  body.pop_back();
  out << body << ",\"iterations\":[";
  if (has_result()) {
    for (size_t i = 0; i < result_->iterations.size(); ++i) {
      const core::IterationRecord& record = result_->iterations[i];
      const core::ConvergenceTelemetry& t = record.telemetry;
      if (i > 0) out << ",";
      out << "{\"iteration\":" << record.index
          << ",\"num_aligned\":" << record.num_left_aligned
          << ",\"change_fraction\":"
          << StrFormat("%g", record.change_fraction)
          << ",\"changed\":" << t.changed << ",\"gained\":" << t.gained
          << ",\"dropped\":" << t.dropped << ",\"stable\":" << t.stable
          << ",\"score_delta\":{\"bounds\":[";
      for (size_t b = 0; b < std::size(core::kScoreDeltaBounds); ++b) {
        if (b > 0) out << ",";
        out << StrFormat("%g", core::kScoreDeltaBounds[b]);
      }
      out << "],\"counts\":[";
      for (size_t c = 0; c < t.score_delta_counts.size(); ++c) {
        if (c > 0) out << ",";
        out << t.score_delta_counts[c];
      }
      out << "]},\"shard_changed\":[";
      for (size_t s = 0; s < t.shard_changed.size(); ++s) {
        if (s > 0) out << ",";
        out << t.shard_changed[s];
      }
      out << "]}";
    }
  }
  out << "]}\n";
  return util::OkStatus();
}

RunSummary Session::summary() const {
  RunSummary summary;
  if (!has_result()) return summary;
  summary.instances_aligned = result_->instances.num_left_aligned();
  summary.relation_scores = result_->relations.size();
  summary.class_scores = result_->classes.entries().size();
  summary.iterations = result_->iterations.size();
  summary.resumed_iterations = resumed_iterations_;
  summary.seconds = result_->seconds_total;
  summary.converged = result_->converged_at > 0;
  summary.cancelled = cancelled_;
  return summary;
}

}  // namespace paris::api
