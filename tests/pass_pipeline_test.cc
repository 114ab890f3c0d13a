// Tests for the shard-granular pass pipeline (core/pass.h): shard-count
// invariance of the results, shard-level progress reporting, mid-iteration
// cancellation checkpoints, and byte-identical resumption from them across
// thread counts and snapshot load modes.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exact_dump.h"
#include "paris/api/dataset.h"
#include "paris/api/session.h"
#include "paris/core/aligner.h"
#include "paris/core/pass.h"
#include "paris/core/result_snapshot.h"
#include "paris/obs/metrics.h"
#include "paris/obs/trace.h"
#include "paris/ontology/ontology.h"
#include "paris/synth/profiles.h"

namespace paris {
namespace {

using core::AlignmentConfig;
using core::AlignmentResult;
using storage::SnapshotLoadMode;
using testutil::ExactDump;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class PassPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::ProfileOptions options;
    options.scale = 0.5;
    auto pair = synth::MakeOaeiRestaurantPair(options);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    pair_ = std::move(pair).value();
  }

  // Fixed-work config: disabled convergence so every run does exactly
  // `max_iterations` iterations of real work.
  static AlignmentConfig FixedWorkConfig(int max_iterations, size_t threads,
                                         size_t shards = 0) {
    AlignmentConfig config;
    config.max_iterations = max_iterations;
    config.convergence_threshold = 0.0;
    config.record_history = false;
    config.num_threads = threads;
    config.num_shards = shards;
    return config;
  }

  AlignmentResult Run(const AlignmentConfig& config) {
    return core::Aligner(*pair_.left, *pair_.right, config).Run();
  }

  const ontology::Ontology& left() const { return *pair_.left; }
  const ontology::Ontology& right() const { return *pair_.right; }

  synth::OntologyPair pair_;
};

// The pipeline's headline invariant: results are byte-identical across
// shard counts (1 shard = the old monolithic sweep) and thread counts,
// including the relation table's canonical entry order.
TEST_F(PassPipelineTest, ResultsInvariantAcrossShardAndThreadCounts) {
  const AlignmentResult reference = Run(FixedWorkConfig(3, 0, 0));
  const std::string reference_tables = ExactDump(reference, left(), right());
  ASSERT_GT(reference.instances.num_left_aligned(), 0u);

  for (size_t shards : {size_t{1}, size_t{3}, size_t{17}, size_t{1000}}) {
    for (size_t threads : {size_t{0}, size_t{4}}) {
      const AlignmentResult result = Run(FixedWorkConfig(3, threads, shards));
      EXPECT_EQ(ExactDump(result, left(), right()), reference_tables)
          << "shards=" << shards << " threads=" << threads;
      const auto& expect_entries = reference.relations.Entries();
      const auto& got_entries = result.relations.Entries();
      ASSERT_EQ(got_entries.size(), expect_entries.size());
      for (size_t i = 0; i < expect_entries.size(); ++i) {
        EXPECT_EQ(got_entries[i].sub, expect_entries[i].sub);
        EXPECT_EQ(got_entries[i].super, expect_entries[i].super);
        EXPECT_EQ(got_entries[i].score, expect_entries[i].score);
      }
    }
  }
}

// Attaching the observability hooks (src/obs/) must not perturb the
// pipeline: same tables as the unobserved reference run, at any thread
// count, while the recorders actually collect.
TEST_F(PassPipelineTest, ResultsUnchangedWithObservabilityAttached) {
  const std::string reference =
      ExactDump(Run(FixedWorkConfig(3, 0, 8)), left(), right());
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    const size_t worker_slots = threads == 0 ? 1 : threads;
    obs::TraceRecorder trace(worker_slots);
    obs::MetricsRegistry metrics(worker_slots);
    core::Aligner aligner(left(), right(), FixedWorkConfig(3, threads, 8));
    aligner.set_observability({&trace, &metrics});
    EXPECT_EQ(ExactDump(aligner.Run(), left(), right()), reference)
        << "threads=" << threads;
    EXPECT_GT(trace.num_events(), 0u);
  }
}

// The shard observer sees every pass: per iteration one full instance and
// one full relation pass, plus the final class pass, each counting up to
// its shard total.
TEST_F(PassPipelineTest, ShardObserverReportsEveryPass) {
  AlignmentConfig config = FixedWorkConfig(2, 0, 8);
  core::Aligner aligner(left(), right(), config);
  struct Event {
    std::string pass;
    int iteration;
    size_t num_shards;
    size_t num_completed;
  };
  std::vector<Event> events;
  aligner.set_shard_observer([&](const core::ShardProgress& progress) {
    events.push_back(Event{progress.pass, progress.iteration,
                           progress.num_shards, progress.num_completed});
    return true;
  });
  const AlignmentResult result = aligner.Run();
  ASSERT_EQ(result.iterations.size(), 2u);

  size_t instance_full = 0;
  size_t relation_full = 0;
  size_t class_full = 0;
  for (const Event& e : events) {
    ASSERT_GT(e.num_shards, 0u);
    ASSERT_LE(e.num_completed, e.num_shards);
    if (e.num_completed == e.num_shards) {
      if (e.pass == "instance") ++instance_full;
      if (e.pass == "relation") ++relation_full;
      if (e.pass == "class") ++class_full;
    }
  }
  EXPECT_EQ(instance_full, 2u);  // one per iteration
  EXPECT_EQ(relation_full, 2u);
  EXPECT_EQ(class_full, 1u);  // the final pass

  // Pass phase timings are accumulated for the bench harness.
  ASSERT_EQ(result.pass_timings.size(), 3u);
  EXPECT_EQ(result.pass_timings[0].pass, "instance");
  EXPECT_GT(result.pass_timings[0].shards_run, 0u);
  EXPECT_EQ(result.pass_timings[2].pass, "class");
  EXPECT_GT(result.pass_timings[2].shards_run, 0u);
}

// Cancelling after K completed shards of a pass must yield a checkpoint
// that resumes byte-identically to the uninterrupted run, for any K, across
// worker-thread counts and both snapshot load modes — the acceptance
// criterion of the mid-iteration-checkpoint feature.
TEST_F(PassPipelineTest, CancelAtInstanceShardBoundariesResumesByteIdentical) {
  constexpr int kMaxIterations = 4;
  const AlignmentConfig base = FixedWorkConfig(kMaxIterations, 0, 8);

  // Reference run; its observer also probes the instance pass's actual
  // shard count (the ceil-based layout may fold 8 requested shards into
  // fewer).
  size_t kShards = 0;
  core::Aligner cold_aligner(left(), right(), base);
  cold_aligner.set_shard_observer([&](const core::ShardProgress& progress) {
    if (std::string_view(progress.pass) == "instance") {
      kShards = progress.num_shards;
    }
    return true;
  });
  const AlignmentResult cold = cold_aligner.Run();
  ASSERT_EQ(cold.iterations.size(), static_cast<size_t>(kMaxIterations));
  ASSERT_GT(kShards, 2u);
  const std::string reference = ExactDump(cold, left(), right());

  struct Cut {
    int iteration;
    size_t cancel_at;  // cancel once this many instance shards completed
  };
  for (const Cut cut :
       {Cut{1, 1}, Cut{2, 1}, Cut{2, kShards / 2}, Cut{2, kShards}}) {
    core::Aligner aligner(left(), right(), base);
    aligner.set_shard_observer([&](const core::ShardProgress& progress) {
      return !(std::string_view(progress.pass) == "instance" &&
               progress.iteration == cut.iteration &&
               progress.num_completed >= cut.cancel_at);
    });
    const AlignmentResult cancelled = aligner.Run();
    const std::string label = "iteration " + std::to_string(cut.iteration) +
                              " cancel_at " + std::to_string(cut.cancel_at);

    // The run stopped before the interrupted iteration completed, with the
    // finished work checkpointed on the side.
    ASSERT_EQ(cancelled.iterations.size(),
              static_cast<size_t>(cut.iteration - 1))
        << label;
    ASSERT_TRUE(cancelled.partial.has_value()) << label;
    if (cut.cancel_at < kShards) {
      EXPECT_EQ(cancelled.partial->pass, core::kInstancePass) << label;
      EXPECT_EQ(cancelled.partial->num_shards, kShards) << label;
      EXPECT_EQ(cancelled.partial->shards.size(), cut.cancel_at) << label;
    } else {
      // The cancel landed on the pass's last shard: the instance pass is
      // complete and the checkpoint records its merged output instead.
      EXPECT_EQ(cancelled.partial->pass, core::kRelationPass) << label;
      EXPECT_GT(cancelled.partial->instances.num_left_aligned(), 0u) << label;
    }
    EXPECT_EQ(cancelled.partial->iteration, cut.iteration) << label;

    const std::string path = TempPath("cancel_instance.result");
    ASSERT_TRUE(core::SaveAlignmentResult(path, cancelled, left(), right(),
                                          base, "identity")
                    .ok())
        << label;
    for (const auto mode :
         {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
      for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
        AlignmentConfig config = base;
        config.num_threads = threads;
        auto loaded = core::LoadAlignmentResult(path, left(), right(), config,
                                                "identity", mode);
        ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
        ASSERT_TRUE(loaded->partial.has_value()) << label;
        core::Aligner resume_aligner(left(), right(), config);
        const AlignmentResult resumed =
            resume_aligner.Resume(std::move(loaded).value());
        EXPECT_EQ(resumed.iterations.size(),
                  static_cast<size_t>(kMaxIterations))
            << label;
        EXPECT_EQ(ExactDump(resumed, left(), right()), reference)
            << label << " mode="
            << (mode == SnapshotLoadMode::kMmap ? "mmap" : "stream")
            << " threads=" << threads;
      }
    }
    std::remove(path.c_str());
  }
}

// Same for a cancel inside the relation pass: the checkpoint additionally
// carries the iteration's completed instance equivalences, and resume skips
// the instance pass entirely.
TEST_F(PassPipelineTest, CancelAtRelationShardBoundariesResumesByteIdentical) {
  constexpr int kMaxIterations = 3;
  const AlignmentConfig base = FixedWorkConfig(kMaxIterations, 0, 4);
  const AlignmentResult cold = Run(base);
  const std::string reference = ExactDump(cold, left(), right());

  core::Aligner aligner(left(), right(), base);
  size_t relation_shards_seen = 0;
  aligner.set_shard_observer([&](const core::ShardProgress& progress) {
    if (std::string_view(progress.pass) == "relation" &&
        progress.iteration == 2) {
      relation_shards_seen = progress.num_shards;
      return progress.num_completed < 1;
    }
    return true;
  });
  const AlignmentResult cancelled = aligner.Run();
  ASSERT_EQ(cancelled.iterations.size(), 1u);
  ASSERT_TRUE(cancelled.partial.has_value());
  EXPECT_EQ(cancelled.partial->pass, core::kRelationPass);
  EXPECT_EQ(cancelled.partial->iteration, 2);
  EXPECT_EQ(cancelled.partial->shards.size(), 1u);
  EXPECT_GT(cancelled.partial->instances.num_left_aligned(), 0u);
  ASSERT_GT(relation_shards_seen, 1u);

  const std::string path = TempPath("cancel_relation.result");
  ASSERT_TRUE(core::SaveAlignmentResult(path, cancelled, left(), right(),
                                        base, "identity")
                  .ok());
  for (const auto mode : {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
    for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
      AlignmentConfig config = base;
      config.num_threads = threads;
      auto loaded = core::LoadAlignmentResult(path, left(), right(), config,
                                              "identity", mode);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      core::Aligner resume_aligner(left(), right(), config);

      // The resumed run must not re-run the instance pass of the
      // interrupted iteration, and must recompute only the relation shards
      // that were not checkpointed.
      size_t resumed_instance_events = 0;
      size_t resumed_relation_events = 0;
      resume_aligner.set_shard_observer(
          [&](const core::ShardProgress& progress) {
            if (progress.iteration == 2) {
              if (std::string_view(progress.pass) == "instance") {
                ++resumed_instance_events;
              }
              if (std::string_view(progress.pass) == "relation") {
                ++resumed_relation_events;
              }
            }
            return true;
          });
      const AlignmentResult resumed =
          resume_aligner.Resume(std::move(loaded).value());
      EXPECT_EQ(resumed_instance_events, 0u) << "threads=" << threads;
      EXPECT_EQ(resumed_relation_events, relation_shards_seen - 1)
          << "threads=" << threads;
      EXPECT_EQ(ExactDump(resumed, left(), right()), reference)
          << "mode=" << (mode == SnapshotLoadMode::kMmap ? "mmap" : "stream")
          << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

// A checkpoint saved under one shard count still resumes byte-identically
// under another: the cached shards are discarded (layout mismatch) and the
// pass recomputes.
TEST_F(PassPipelineTest, ResumeUnderDifferentShardCountRecomputes) {
  const AlignmentConfig base = FixedWorkConfig(3, 0, 8);
  const std::string reference = ExactDump(Run(base), left(), right());

  core::Aligner aligner(left(), right(), base);
  aligner.set_shard_observer([&](const core::ShardProgress& progress) {
    return !(std::string_view(progress.pass) == "instance" &&
             progress.iteration == 2 && progress.num_completed >= 3);
  });
  const AlignmentResult cancelled = aligner.Run();
  ASSERT_TRUE(cancelled.partial.has_value());
  const std::string path = TempPath("cancel_reshard.result");
  ASSERT_TRUE(core::SaveAlignmentResult(path, cancelled, left(), right(),
                                        base, "identity")
                  .ok());

  AlignmentConfig resharded = base;
  resharded.num_shards = 5;  // different layout: cached shards unusable
  auto loaded = core::LoadAlignmentResult(path, left(), right(), resharded,
                                          "identity");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::Aligner resume_aligner(left(), right(), resharded);
  const AlignmentResult resumed =
      resume_aligner.Resume(std::move(loaded).value());
  EXPECT_EQ(ExactDump(resumed, left(), right()), reference);
  std::remove(path.c_str());
}

// The partial section is covered by the snapshot checksum and its own
// structural validation.
TEST_F(PassPipelineTest, PartialCheckpointRoundTripsAndRejectsCorruption) {
  const AlignmentConfig base = FixedWorkConfig(3, 0, 8);
  core::Aligner aligner(left(), right(), base);
  aligner.set_shard_observer([&](const core::ShardProgress& progress) {
    return !(std::string_view(progress.pass) == "instance" &&
             progress.iteration == 2 && progress.num_completed >= 3);
  });
  const AlignmentResult cancelled = aligner.Run();
  ASSERT_TRUE(cancelled.partial.has_value());

  const std::string path = TempPath("partial_roundtrip.result");
  ASSERT_TRUE(core::SaveAlignmentResult(path, cancelled, left(), right(),
                                        base, "identity")
                  .ok());
  for (const auto mode : {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
    auto loaded = core::LoadAlignmentResult(path, left(), right(), base,
                                            "identity", mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->partial.has_value());
    EXPECT_EQ(loaded->partial->iteration, cancelled.partial->iteration);
    EXPECT_EQ(loaded->partial->pass, cancelled.partial->pass);
    EXPECT_EQ(loaded->partial->num_shards, cancelled.partial->num_shards);
    EXPECT_EQ(loaded->partial->shards, cancelled.partial->shards);
    EXPECT_EQ(loaded->partial->payloads, cancelled.partial->payloads);
  }

  // Corruption anywhere in the partial section (here: the tail, where the
  // shard payloads live) is caught by the checksum in both modes.
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 20] = static_cast<char>(bytes[bytes.size() - 20] ^ 0x5a);
  const std::string bad_path = TempPath("partial_corrupt.result");
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  for (const auto mode : {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
    auto loaded = core::LoadAlignmentResult(bad_path, left(), right(), base,
                                            "identity", mode);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// ---------------------------------------------------------------------------
// API-level: cross-thread cancellation at shard granularity (TSan target)
// ---------------------------------------------------------------------------

class PassPipelineApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::DatasetSpec spec;
    spec.profile = "restaurant";
    spec.output_prefix = TempPath("pipeline_rest");
    spec.scale = 0.5;
    auto summary = api::GenerateDataset(spec);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    left_path_ = new std::string(summary->left_path);
    right_path_ = new std::string(summary->right_path);
  }

  static api::Session::Options FixedWorkOptions(int max_iterations,
                                                size_t threads) {
    api::Session::Options options;
    options.config.max_iterations = max_iterations;
    options.config.convergence_threshold = 0.0;
    options.config.num_threads = threads;
    options.config.num_shards = 8;
    return options;
  }

  static const std::string& left_path() { return *left_path_; }
  static const std::string& right_path() { return *right_path_; }

 private:
  static std::string* left_path_;
  static std::string* right_path_;
};

std::string* PassPipelineApiTest::left_path_ = nullptr;
std::string* PassPipelineApiTest::right_path_ = nullptr;

// Cancels from another thread while worker threads are deep inside the
// instance pass of iteration 2: the run stops at a shard boundary with a
// consistent mid-iteration checkpoint, and resuming reproduces the
// uninterrupted run byte-for-byte. Runs under TSan in CI.
TEST_F(PassPipelineApiTest, CrossThreadShardCancelResumesByteIdentical) {
  const std::string cold_prefix = TempPath("pipeline_cold");
  {
    api::Session cold(FixedWorkOptions(3, 4));
    ASSERT_TRUE(cold.LoadFromFiles(left_path(), right_path()).ok());
    ASSERT_TRUE(cold.Align().ok());
    ASSERT_TRUE(cold.Export(cold_prefix).ok());
  }

  api::Session session(FixedWorkOptions(3, 4));
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());

  auto token = std::make_shared<api::CancellationToken>();
  std::mutex mutex;
  std::condition_variable cv;
  bool cancel_point_reached = false;
  std::thread canceller([&] {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return cancel_point_reached; });
    }
    token->Cancel();
    {
      std::lock_guard<std::mutex> lock(mutex);
      cv.notify_all();
    }
  });

  std::atomic<size_t> shard_events{0};
  api::RunCallbacks callbacks;
  callbacks.cancellation = token;
  callbacks.on_shard = [&](const api::ShardProgress& progress) {
    shard_events.fetch_add(1, std::memory_order_relaxed);
    if (std::string_view(progress.pass) == "instance" &&
        progress.iteration == 2 && progress.num_completed == 2) {
      // Hand off to the canceller and block until the token is flipped, so
      // the cancel deterministically lands inside iteration 2's instance
      // pass (in-flight shards on other workers may still finish — the
      // checkpoint records whatever completed).
      std::unique_lock<std::mutex> lock(mutex);
      cancel_point_reached = true;
      cv.notify_all();
      cv.wait(lock, [&] { return token->cancelled(); });
    }
  };
  const util::Status status = session.Align(callbacks);
  canceller.join();
  ASSERT_EQ(status.code(), util::StatusCode::kCancelled);
  ASSERT_TRUE(session.has_result());
  EXPECT_TRUE(session.summary().cancelled);
  EXPECT_GT(shard_events.load(), 0u);
  // The cancel landed mid-run: fewer than the full 3 iterations completed.
  EXPECT_LT(session.summary().iterations, 3u);

  const std::string checkpoint = TempPath("pipeline_cancel.result");
  ASSERT_TRUE(session.SaveResult(checkpoint).ok());

  api::Session warm(FixedWorkOptions(3, 4));
  ASSERT_TRUE(warm.LoadFromFiles(left_path(), right_path()).ok());
  ASSERT_TRUE(warm.Resume(checkpoint).ok());
  const std::string warm_prefix = TempPath("pipeline_warm");
  ASSERT_TRUE(warm.Export(warm_prefix).ok());

  for (const char* table : {"_instances.tsv", "_relations.tsv",
                            "_classes.tsv"}) {
    EXPECT_EQ(ReadFile(cold_prefix + table), ReadFile(warm_prefix + table))
        << table;
  }
}

}  // namespace
}  // namespace paris
