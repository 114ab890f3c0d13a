// Tests for paris::obs (trace recorder, metrics registry) and the
// observability instrumentation of the pass pipeline: alignment output must
// be byte-identical with observability on vs off across thread counts,
// metrics must be deterministic across thread AND shard counts, the
// exported trace JSON must be structurally sound with full shard coverage,
// and the convergence telemetry must satisfy its counting invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "exact_dump.h"
#include "paris/api/session.h"
#include "paris/core/aligner.h"
#include "paris/core/pass.h"
#include "paris/core/telemetry.h"
#include "paris/obs/hooks.h"
#include "paris/obs/metrics.h"
#include "paris/obs/trace.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/synth/profiles.h"
#include "paris/util/logging.h"

namespace paris {
namespace {

using core::AlignmentConfig;
using core::AlignmentResult;
using testutil::ExactDump;

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// TraceRecorder / Span
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsSpansAndExportsChromeJson) {
  obs::TraceRecorder recorder(2);  // workers 0,1 + main slot 2
  EXPECT_EQ(recorder.num_slots(), 3u);
  EXPECT_EQ(recorder.main_slot(), 2u);
  {
    obs::Span run(&recorder, recorder.main_slot(), "run", "align");
    obs::Span shard(&recorder, 0, "shard", "instance", /*iteration=*/1,
                    /*shard=*/5);
  }
  EXPECT_EQ(recorder.num_events(), 2u);

  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  // One thread_name metadata event per slot.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 3u);
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-0\""), std::string::npos);
  // Both spans as complete events; the shard span carries its scope args.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_NE(json.find("\"iteration\":1"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":5"), std::string::npos);
  EXPECT_EQ(json[json.size() - 2], '}');  // closes, newline-terminated
}

// The storage build chain (TripleStore::Finalize → ColumnarIndex::Build)
// reports its sub-phases as "io" spans.
TEST(TraceTest, IndexBuildEmitsIoSpans) {
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  const rdf::RelId rel = store.InternRelation(pool.InternIri("r"));
  store.Add(pool.InternIri("a"), rel, pool.InternIri("b"));
  obs::TraceRecorder recorder(1);
  store.Finalize(nullptr, {&recorder, nullptr});
  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();
  for (const char* name :
       {"index.build", "index.bucket_by_owner", "index.sort_dedup",
        "index.pack_columns", "index.pack_pairs"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
}

TEST(TraceTest, OntologyBuildEmitsIoSpans) {
  rdf::TermPool pool;
  ontology::OntologyBuilder builder(&pool, "left");
  builder.AddType("a", "C");
  builder.AddSubClassOf("C", "D");
  builder.AddFact("a", "r", "b");
  builder.AddLiteralFact("a", "name", "A");
  obs::TraceRecorder recorder(1);
  ASSERT_TRUE(builder.Build(nullptr, {&recorder, nullptr}).ok());
  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();
  for (const char* name :
       {"ontology.type_index", "ontology.facts", "index.build",
        "ontology.repack", "ontology.functionality"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
}

TEST(TraceTest, NullRecorderSpanStillTimes) {
  obs::Span span(nullptr, 0, "bench", "timer");
  const double first = span.End();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.End(), first);  // idempotent
  EXPECT_EQ(span.elapsed_seconds(), first);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersMergeAcrossSlots) {
  obs::MetricsRegistry registry(2);
  const obs::MetricId id = registry.Counter("pass.items");
  EXPECT_EQ(registry.Counter("pass.items"), id);  // idempotent by name
  registry.Add(id, 0, 3);
  registry.Add(id, 1, 4);
  registry.Add(id, registry.main_slot(), 5);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "pass.items");
  EXPECT_EQ(snapshot.counters[0].value, 12u);
}

TEST(MetricsTest, HistogramBucketsAndMergeCounts) {
  obs::MetricsRegistry registry(1);
  const obs::MetricId id = registry.Histogram("h", {1.0, 2.0});
  registry.Observe(id, 0, 0.5);   // <= 1.0
  registry.Observe(id, 0, 1.5);   // <= 2.0
  registry.Observe(id, 0, 99.0);  // overflow
  registry.MergeCounts(id, registry.main_slot(), {10, 0, 1});
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(snapshot.histograms[0].counts,
            (std::vector<uint64_t>{11, 1, 2}));
}

TEST(MetricsTest, GaugesAndSortedJson) {
  obs::MetricsRegistry registry(1);
  registry.SetGauge(registry.Gauge("z.last"), -7);
  registry.Add(registry.Counter("b"), 0, 2);
  registry.Add(registry.Counter("a"), 0, 1);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(out.str(),
            "{\"counters\":{\"a\":1,\"b\":2},\"gauges\":{\"z.last\":-7},"
            "\"histograms\":{}}");
  // Equal registries snapshot equal.
  EXPECT_EQ(registry.Snapshot(), registry.Snapshot());
}

// ---------------------------------------------------------------------------
// Instrumented pipeline
// ---------------------------------------------------------------------------

class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::ProfileOptions options;
    options.scale = 0.5;
    auto pair = synth::MakeOaeiRestaurantPair(options);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    pair_ = std::move(pair).value();
  }

  static AlignmentConfig FixedWorkConfig(size_t threads, size_t shards = 0) {
    AlignmentConfig config;
    config.max_iterations = 3;
    config.convergence_threshold = 0.0;
    config.record_history = false;
    config.num_threads = threads;
    config.num_shards = shards;
    return config;
  }

  AlignmentResult Run(const AlignmentConfig& config, obs::Hooks hooks = {}) {
    core::Aligner aligner(*pair_.left, *pair_.right, config);
    aligner.set_observability(hooks);
    return aligner.Run();
  }

  const ontology::Ontology& left() const { return *pair_.left; }
  const ontology::Ontology& right() const { return *pair_.right; }

  synth::OntologyPair pair_;
};

// The subsystem's prime directive: observability never changes the output.
TEST_F(ObsPipelineTest, OutputByteIdenticalWithObservabilityOnAcrossThreads) {
  const std::string reference =
      ExactDump(Run(FixedWorkConfig(0)), left(), right());
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    obs::TraceRecorder trace(threads == 0 ? 1 : threads);
    obs::MetricsRegistry metrics(threads == 0 ? 1 : threads);
    const AlignmentResult result =
        Run(FixedWorkConfig(threads), {&trace, &metrics});
    EXPECT_EQ(ExactDump(result, left(), right()), reference)
        << "threads=" << threads;
    EXPECT_GT(trace.num_events(), 0u) << "threads=" << threads;
  }
}

// Metrics restrict themselves to integer counts merged in slot order, so
// the snapshot is identical across thread AND shard counts.
TEST_F(ObsPipelineTest, MetricsDeterministicAcrossThreadAndShardCounts) {
  std::string reference;
  for (size_t shards : {size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{0}, size_t{4}}) {
      obs::MetricsRegistry metrics(threads == 0 ? 1 : threads);
      Run(FixedWorkConfig(threads, shards), {nullptr, &metrics});
      std::ostringstream out;
      metrics.WriteJson(out);
      if (reference.empty()) {
        reference = out.str();
        EXPECT_NE(reference.find("\"instance.entities_scored\":"),
                  std::string::npos);
        EXPECT_NE(reference.find("\"instance.neighbor_facts_visited\":"),
                  std::string::npos);
        EXPECT_NE(reference.find("\"instance.neighbor_facts_skipped\":"),
                  std::string::npos);
        EXPECT_NE(reference.find("\"instance.keys_created\":"),
                  std::string::npos);
        EXPECT_NE(reference.find("\"convergence.score_delta\""),
                  std::string::npos);
        EXPECT_NE(reference.find("\"run.iterations\":3"), std::string::npos);
      } else {
        EXPECT_EQ(out.str(), reference)
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

// Structural trace checks: every (iteration, pass) gets a span per shard,
// every iteration gets an iteration span, the run gets a run span.
TEST_F(ObsPipelineTest, TraceCoversEveryIterationPassAndShard) {
  const size_t threads = 2;
  AlignmentConfig config = FixedWorkConfig(threads, 4);
  obs::TraceRecorder trace(threads);
  core::Aligner aligner(left(), right(), config);
  aligner.set_observability({&trace, nullptr});
  // Probe the folded shard counts the layout actually produced.
  size_t instance_shards = 0, relation_shards = 0, class_shards = 0;
  aligner.set_shard_observer([&](const core::ShardProgress& progress) {
    if (std::string(progress.pass) == "instance") {
      instance_shards = progress.num_shards;
    } else if (std::string(progress.pass) == "relation") {
      relation_shards = progress.num_shards;
    } else {
      class_shards = progress.num_shards;
    }
    return true;
  });
  const AlignmentResult result = aligner.Run();
  ASSERT_EQ(result.iterations.size(), 3u);
  ASSERT_GT(instance_shards, 0u);
  ASSERT_GT(relation_shards, 0u);
  ASSERT_GT(class_shards, 0u);

  std::ostringstream out;
  trace.WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"run\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"iteration\""), 3u);
  // Pass spans: (instance + relation) per iteration + one class pass.
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"pass\""), 7u);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"shard\",\"name\":\"instance\""),
            3 * instance_shards);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"shard\",\"name\":\"relation\""),
            3 * relation_shards);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"shard\",\"name\":\"class\""),
            class_shards);
  // Serial bookends are traced per pass phase.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"instance.prepare\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"class.merge\""), 1u);
  // So is the serial bookkeeping after each pass; only a Realign seeds.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"instance.bookkeeping\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"relation.bookkeeping\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"realign.seed\""), 0u);
}

// A Realign traces its seeding once, before iteration 1, and the serial
// bookkeeping after each pass once per iteration.
TEST_F(ObsPipelineTest, RealignTracesSeedingAndBookkeeping) {
  const AlignmentConfig config = FixedWorkConfig(0);
  const AlignmentResult base = Run(config);
  core::RealignSeed seed;
  seed.instances = base.instances;
  seed.relations = base.relations;
  seed.left_touched_terms = {left().instances().front()};
  obs::TraceRecorder trace(1);
  core::Aligner aligner(left(), right(), config);
  aligner.set_observability({&trace, nullptr});
  const AlignmentResult result = aligner.Realign(std::move(seed));
  ASSERT_FALSE(result.iterations.empty());

  std::ostringstream out;
  trace.WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"realign.seed\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"instance.bookkeeping\""),
            result.iterations.size());
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"relation.bookkeeping\""),
            result.iterations.size());
}

// The per-iteration convergence telemetry counts every left instance
// exactly once, and its per-shard / per-delta breakdowns tie out.
TEST_F(ObsPipelineTest, ConvergenceTelemetryInvariants) {
  AlignmentConfig config = FixedWorkConfig(4, 8);
  const AlignmentResult result = Run(config);
  ASSERT_EQ(result.iterations.size(), 3u);
  bool any_changed = false;
  for (const core::IterationRecord& record : result.iterations) {
    const core::ConvergenceTelemetry& t = record.telemetry;
    EXPECT_EQ(t.num_changed(), t.changed + t.gained + t.dropped);
    EXPECT_EQ(std::accumulate(t.shard_changed.begin(), t.shard_changed.end(),
                              uint64_t{0}),
              t.num_changed())
        << "iteration " << record.index;
    ASSERT_EQ(t.score_delta_counts.size(), core::kScoreDeltaBuckets);
    EXPECT_EQ(std::accumulate(t.score_delta_counts.begin(),
                              t.score_delta_counts.end(), uint64_t{0}),
              t.stable + t.changed)
        << "iteration " << record.index;
    any_changed = any_changed || t.num_changed() > 0;
  }
  // Iteration 1 starts from an empty assignment: everything it aligns is a
  // gain.
  EXPECT_TRUE(any_changed);
  EXPECT_EQ(result.iterations[0].telemetry.gained,
            result.iterations[0].num_left_aligned);
}

// ---------------------------------------------------------------------------
// Session facade
// ---------------------------------------------------------------------------

TEST_F(ObsPipelineTest, SessionExportsTraceAndMetrics) {
  const std::string snapshot_path =
      ::testing::TempDir() + "/obs_session.snap";
  ASSERT_TRUE(
      ontology::SaveAlignmentSnapshot(snapshot_path, left(), right()).ok());

  api::Session::Options options;
  options.config = FixedWorkConfig(2, 8);
  options.trace = true;
  options.metrics = true;
  api::Session session(options);
  ASSERT_TRUE(session.LoadFromSnapshot(snapshot_path).ok());
  size_t last_num_changed = 0;
  api::RunCallbacks callbacks;
  callbacks.on_iteration = [&](const api::IterationProgress& progress) {
    last_num_changed = progress.num_changed;
  };
  ASSERT_TRUE(session.Align(callbacks).ok());

  std::ostringstream trace_out;
  ASSERT_TRUE(session.WriteTrace(trace_out).ok());
  const std::string trace_json = trace_out.str();
  EXPECT_EQ(trace_json.find("{\"displayTimeUnit\""), 0u);
  // Loading went through the facade, so the IO span is on the timeline
  // alongside the run.
  EXPECT_NE(trace_json.find("\"name\":\"snapshot.load\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"cat\":\"shard\""), std::string::npos);

  auto metrics = session.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_FALSE(metrics->counters.empty());

  std::ostringstream metrics_out;
  ASSERT_TRUE(session.WriteMetricsJson(metrics_out).ok());
  const std::string metrics_json = metrics_out.str();
  EXPECT_NE(metrics_json.find("\"iterations\":[{\"iteration\":1"),
            std::string::npos);
  EXPECT_NE(metrics_json.find("\"shard_changed\":["), std::string::npos);
  // The last iteration's telemetry reached the progress callback too.
  const auto& last = session.result().iterations.back();
  EXPECT_EQ(last_num_changed, last.telemetry.num_changed());

  std::remove(snapshot_path.c_str());
}

// The snapshot open and a realign sit under named spans: the trailer check,
// the term pool and one section per side under `snapshot.load`, in both
// load modes; the aligner's construction and teardown around a Realign,
// and the destruction of each run's state after its `align` span.
TEST_F(ObsPipelineTest, SessionSpansCoverTheOpenAndTheRealign) {
  const std::string snapshot_path = ::testing::TempDir() + "/obs_open.snap";
  ASSERT_TRUE(
      ontology::SaveAlignmentSnapshot(snapshot_path, left(), right()).ok());
  std::vector<rdf::ParsedTriple> delta(1);
  delta[0].subject = std::string(left().pool().lexical(left().instances()[0]));
  delta[0].predicate = left().RelationName(1);
  delta[0].object = std::string(left().pool().lexical(left().instances()[1]));
  for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                          ontology::SnapshotLoadMode::kMmap}) {
    api::Session session(api::Session::Options()
                             .set_snapshot_load_mode(mode)
                             .set_trace(true));
    ASSERT_TRUE(session.LoadFromSnapshot(snapshot_path).ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(
        session.ApplyDelta(api::Session::DeltaSide::kLeft, delta).ok());
    ASSERT_TRUE(session.Realign().ok());
    std::ostringstream out;
    ASSERT_TRUE(session.WriteTrace(out).ok());
    const std::string json = out.str();
    const auto count = [&json](const std::string& name) {
      return CountOccurrences(json, "\"name\":\"" + name + "\"");
    };
    EXPECT_EQ(count("snapshot.load"), 1u);
    EXPECT_EQ(count("snapshot.verify"), 1u);
    EXPECT_EQ(count("snapshot.terms"), 1u);
    EXPECT_EQ(count("snapshot.ontology"), 2u);
    EXPECT_EQ(count("aligner.build"), 1u);
    EXPECT_EQ(count("aligner.teardown"), 1u);
    EXPECT_EQ(count("align"), 2u);  // Align, then Realign
    EXPECT_EQ(count("run.teardown"), 2u);
  }
  std::remove(snapshot_path.c_str());
}

TEST(ObsSessionTest, ObservabilityAccessorsRequireOptIn) {
  api::Session session;  // defaults: trace/metrics off
  std::ostringstream out;
  EXPECT_EQ(session.WriteTrace(out).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Metrics().status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.WriteMetricsJson(out).code(),
            util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(LoggingTest, SinkCapturesPrefixedLines) {
  std::vector<std::string> lines;
  util::SetLogSink([&](util::LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  const util::LogLevel saved = util::GetLogLevel();
  util::SetLogLevel(util::LogLevel::kInfo);
  PARIS_LOG(kDebug) << "filtered out";
  PARIS_LOG(kWarning) << "kept " << 42;
  util::SetLogLevel(saved);
  util::SetLogSink(nullptr);  // restore stderr
  PARIS_LOG(kDebug) << "after restore";  // must not reach `lines`

  ASSERT_EQ(lines.size(), 1u);
  // Prefix: [<level> <monotonic seconds> t<dense thread id>] <message>
  EXPECT_EQ(lines[0].find("[W "), 0u);
  EXPECT_NE(lines[0].find(" t"), std::string::npos);
  EXPECT_NE(lines[0].find("] kept 42"), std::string::npos);
}

TEST(LoggingTest, LogLevelFromName) {
  EXPECT_EQ(util::LogLevelFromName("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::LogLevelFromName("warning"), util::LogLevel::kWarning);
  EXPECT_EQ(util::LogLevelFromName("none"), util::LogLevel::kNone);
  EXPECT_EQ(util::LogLevelFromName("verbose"), std::nullopt);
}

}  // namespace
}  // namespace paris
