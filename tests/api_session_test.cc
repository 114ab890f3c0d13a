#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "paris/api/dataset.h"
#include "paris/api/matcher_registry.h"
#include "paris/api/session.h"
#include "paris/core/literal_match.h"
#include "paris/core/result_snapshot.h"
#include "paris/storage/snapshot.h"
#include "paris/util/status.h"

namespace paris {
namespace {

using api::CancellationToken;
using api::MatcherRegistry;
using api::RunCallbacks;
using api::Session;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A structurally minimal snapshot file of the given family whose format
// version is wrong but whose checksum trailer is valid — so the version
// check (not the corruption check) is what rejects it.
std::string MakeWrongVersionSnapshot(const char (&magic)[8]) {
  const uint32_t bogus_version = 0xEE;  // little-endian on every target
  std::string bytes(magic, sizeof(magic));
  bytes.append(reinterpret_cast<const char*>(&bogus_version),
               sizeof(bogus_version));
  const uint64_t checksum =
      storage::ChecksumOf(storage::ChecksumKind::kFnv1a,
                          bytes.data() + sizeof(magic), sizeof(bogus_version));
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

// Generates the restaurant pair once per process; every test loads from
// these files (or a snapshot of them).
class ApiSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::DatasetSpec spec;
    spec.profile = "restaurant";
    spec.output_prefix = TempPath("api_rest");
    spec.scale = 0.5;
    auto summary = api::GenerateDataset(spec);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    left_path_ = new std::string(summary->left_path);
    right_path_ = new std::string(summary->right_path);
  }

  static Session::Options FixedWorkOptions(int max_iterations) {
    Session::Options options;
    options.config.max_iterations = max_iterations;
    // Disable convergence so runs do a predictable number of iterations.
    options.config.convergence_threshold = 0.0;
    return options;
  }

  static const std::string& left_path() { return *left_path_; }
  static const std::string& right_path() { return *right_path_; }

 private:
  static std::string* left_path_;
  static std::string* right_path_;
};

std::string* ApiSessionTest::left_path_ = nullptr;
std::string* ApiSessionTest::right_path_ = nullptr;

TEST_F(ApiSessionTest, FullLifecycle) {
  Session session(FixedWorkOptions(3));
  EXPECT_FALSE(session.loaded());
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
  EXPECT_TRUE(session.loaded());
  EXPECT_FALSE(session.has_result());

  std::vector<int> iterations;
  RunCallbacks callbacks;
  callbacks.on_iteration = [&](const api::IterationProgress& progress) {
    iterations.push_back(progress.iteration);
    EXPECT_EQ(progress.max_iterations, 3);
    EXPECT_GT(progress.num_aligned, 0u);
  };
  ASSERT_TRUE(session.Align(callbacks).ok());
  EXPECT_TRUE(session.has_result());
  EXPECT_EQ(iterations, (std::vector<int>{1, 2, 3}));

  const api::RunSummary summary = session.summary();
  EXPECT_EQ(summary.iterations, 3u);
  EXPECT_GT(summary.instances_aligned, 0u);
  EXPECT_GT(summary.relation_scores, 0u);
  EXPECT_FALSE(summary.cancelled);

  const std::string prefix = TempPath("api_run");
  ASSERT_TRUE(session.Export(prefix).ok());
  EXPECT_FALSE(ReadFile(prefix + "_instances.tsv").empty());
  std::ostringstream instance_out;
  ASSERT_TRUE(session.WriteInstanceAlignment(instance_out).ok());
  EXPECT_FALSE(instance_out.str().empty());
  std::ostringstream stats_out;
  ASSERT_TRUE(session.PrintStats(stats_out).ok());
  EXPECT_NE(stats_out.str().find("relation functionalities"),
            std::string::npos);
}

TEST_F(ApiSessionTest, LoadFromFilesNonexistentReportsPath) {
  Session session;
  auto status = session.LoadFromFiles(TempPath("no_such_file.nt"),
                                      right_path());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("no_such_file.nt"), std::string::npos);
  EXPECT_FALSE(session.loaded());
  // The session stays usable after a failed load.
  EXPECT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
}

// std::ifstream opens a directory and reads nothing from it, which once
// loaded an empty ontology; both inputs and deltas must reject it.
TEST_F(ApiSessionTest, DirectoryInputsAreRejected) {
  const std::string dir = TempPath("api_dir_input.nt");
  std::filesystem::create_directories(dir);
  Session session(FixedWorkOptions(1));
  const auto load = session.LoadFromFiles(dir, dir);
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load.ToString();
  EXPECT_NE(load.message().find(dir), std::string::npos);
  EXPECT_FALSE(session.loaded());

  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
  ASSERT_TRUE(session.Align().ok());
  const size_t left_triples = session.left().num_triples();
  const size_t left_instances = session.left().instances().size();
  const auto delta = session.ApplyDelta(Session::DeltaSide::kLeft, dir);
  EXPECT_EQ(delta.code(), StatusCode::kInvalidArgument) << delta.ToString();
  EXPECT_EQ(session.num_staged_deltas(), 0u);
  EXPECT_EQ(session.Realign().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.left().num_triples(), left_triples);
  EXPECT_EQ(session.left().instances().size(), left_instances);
  std::filesystem::remove(dir);
}

TEST_F(ApiSessionTest, MethodsBeforeLoadFailCleanly) {
  Session session;
  EXPECT_EQ(session.Align().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.SaveSnapshot(TempPath("x.snap")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.SaveResult(TempPath("x.result")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Export(TempPath("x")).code(),
            StatusCode::kFailedPrecondition);
  std::ostringstream out;
  EXPECT_EQ(session.PrintStats(out).code(), StatusCode::kFailedPrecondition);
}

TEST_F(ApiSessionTest, DoubleLoadAndDoubleAlignRejected) {
  Session session(FixedWorkOptions(1));
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
  EXPECT_EQ(session.LoadFromFiles(left_path(), right_path()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Align().ok());
  auto again = session.Align();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(again.message().find("new Session"), std::string::npos);
}

TEST_F(ApiSessionTest, SnapshotRoundTripMatchesFileLoad) {
  const std::string snap = TempPath("api_pair.snap");
  {
    Session session(FixedWorkOptions(2));
    ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
    ASSERT_TRUE(session.SaveSnapshot(snap).ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(session.Export(TempPath("api_files")).ok());
  }
  {
    Session session(FixedWorkOptions(2));
    ASSERT_TRUE(session.LoadFromSnapshot(snap).ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(session.Export(TempPath("api_snap")).ok());
  }
  EXPECT_EQ(ReadFile(TempPath("api_files_instances.tsv")),
            ReadFile(TempPath("api_snap_instances.tsv")));
  EXPECT_EQ(ReadFile(TempPath("api_files_relations.tsv")),
            ReadFile(TempPath("api_snap_relations.tsv")));
  EXPECT_EQ(ReadFile(TempPath("api_files_classes.tsv")),
            ReadFile(TempPath("api_snap_classes.tsv")));
}

TEST_F(ApiSessionTest, LoadFromSnapshotRejectsVersionMismatch) {
  const std::string bad = TempPath("api_version_bad.snap");
  WriteFile(bad, MakeWrongVersionSnapshot(storage::kSnapshotMagic));

  Session session;
  auto status = session.LoadFromSnapshot(bad);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(bad), std::string::npos);
  EXPECT_NE(status.message().find("version"), std::string::npos);
  EXPECT_FALSE(session.loaded());
}

TEST_F(ApiSessionTest, LoadFromSnapshotRejectsTruncation) {
  const std::string snap = TempPath("api_trunc.snap");
  {
    Session session;
    ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
    ASSERT_TRUE(session.SaveSnapshot(snap).ok());
  }
  std::string bytes = ReadFile(snap);
  const std::string bad = TempPath("api_trunc_bad.snap");
  WriteFile(bad, bytes.substr(0, bytes.size() / 2));

  Session session;
  auto status = session.LoadFromSnapshot(bad);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(bad), std::string::npos);
  EXPECT_FALSE(session.loaded());
}

TEST_F(ApiSessionTest, ResumeContinuesToIdenticalResult) {
  const std::string checkpoint = TempPath("api_k1.result");
  {
    Session session(FixedWorkOptions(1));
    ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(session.SaveResult(checkpoint).ok());
  }
  {
    Session cold(FixedWorkOptions(3));
    ASSERT_TRUE(cold.LoadFromFiles(left_path(), right_path()).ok());
    ASSERT_TRUE(cold.Align().ok());
    ASSERT_TRUE(cold.Export(TempPath("api_cold")).ok());
  }
  {
    Session warm(FixedWorkOptions(3));
    ASSERT_TRUE(warm.LoadFromFiles(left_path(), right_path()).ok());
    std::vector<int> iterations;
    RunCallbacks callbacks;
    callbacks.on_iteration = [&](const api::IterationProgress& progress) {
      iterations.push_back(progress.iteration);
    };
    ASSERT_TRUE(warm.Resume(checkpoint, callbacks).ok());
    // The checkpoint covered iteration 1; the resumed run does 2 and 3.
    EXPECT_EQ(iterations, (std::vector<int>{2, 3}));
    EXPECT_EQ(warm.summary().resumed_iterations, 1u);
    EXPECT_EQ(warm.summary().iterations, 3u);
    ASSERT_TRUE(warm.Export(TempPath("api_warm")).ok());
  }
  EXPECT_EQ(ReadFile(TempPath("api_cold_instances.tsv")),
            ReadFile(TempPath("api_warm_instances.tsv")));
  EXPECT_EQ(ReadFile(TempPath("api_cold_relations.tsv")),
            ReadFile(TempPath("api_warm_relations.tsv")));
  EXPECT_EQ(ReadFile(TempPath("api_cold_classes.tsv")),
            ReadFile(TempPath("api_warm_classes.tsv")));
}

TEST_F(ApiSessionTest, ResumeWithMismatchedConfigFails) {
  const std::string checkpoint = TempPath("api_mismatch.result");
  {
    Session session(FixedWorkOptions(1));
    ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(session.SaveResult(checkpoint).ok());
  }
  Session::Options options = FixedWorkOptions(3);
  options.config.theta = 0.3;
  Session session(options);
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
  auto status = session.Resume(checkpoint);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find(checkpoint), std::string::npos);
  EXPECT_NE(status.message().find("theta"), std::string::npos);
  EXPECT_FALSE(session.has_result());
  // A failed resume does not burn the session: a fresh Align still works.
  EXPECT_TRUE(session.Align().ok());
}

TEST_F(ApiSessionTest, ResumeRejectsResultSnapshotVersionMismatch) {
  const std::string bad = TempPath("api_rsver_bad.result");
  WriteFile(bad, MakeWrongVersionSnapshot(core::kResultSnapshotMagic));

  Session session(FixedWorkOptions(3));
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
  auto status = session.Resume(bad);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(bad), std::string::npos);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

// Cancels from another thread while the run is between iterations: the
// callback signals the main thread, which flips the token; the run then
// stops at the iteration boundary with a consistent partial result. Runs
// under TSan in CI.
TEST_F(ApiSessionTest, CancellationMidRunKeepsPartialResult) {
  Session session(FixedWorkOptions(10));
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());

  auto token = std::make_shared<CancellationToken>();
  std::mutex mutex;
  std::condition_variable cv;
  bool first_iteration_done = false;
  bool cancel_requested = false;

  RunCallbacks callbacks;
  callbacks.cancellation = token;
  callbacks.on_iteration = [&](const api::IterationProgress&) {
    std::unique_lock<std::mutex> lock(mutex);
    first_iteration_done = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_requested; });
  };

  util::Status align_status;
  std::thread runner([&] { align_status = session.Align(callbacks); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return first_iteration_done; });
    token->Cancel();
    cancel_requested = true;
    cv.notify_all();
  }
  runner.join();

  EXPECT_EQ(align_status.code(), StatusCode::kCancelled);
  // The partial result is consistent: one completed iteration, exportable,
  // and resumable to the same tables as an uninterrupted run.
  ASSERT_TRUE(session.has_result());
  EXPECT_TRUE(session.summary().cancelled);
  EXPECT_EQ(session.summary().iterations, 1u);
  const std::string checkpoint = TempPath("api_cancel.result");
  ASSERT_TRUE(session.SaveResult(checkpoint).ok());

  Session cold(FixedWorkOptions(3));
  ASSERT_TRUE(cold.LoadFromFiles(left_path(), right_path()).ok());
  ASSERT_TRUE(cold.Align().ok());
  ASSERT_TRUE(cold.Export(TempPath("api_cancel_cold")).ok());

  Session::Options warm_options = FixedWorkOptions(3);
  warm_options.config.max_iterations = 3;
  Session warm(warm_options);
  ASSERT_TRUE(warm.LoadFromFiles(left_path(), right_path()).ok());
  ASSERT_TRUE(warm.Resume(checkpoint).ok());
  ASSERT_TRUE(warm.Export(TempPath("api_cancel_warm")).ok());
  EXPECT_EQ(ReadFile(TempPath("api_cancel_cold_instances.tsv")),
            ReadFile(TempPath("api_cancel_warm_instances.tsv")));
}

// A cancel that lands on the converging iteration stopped nothing — the
// run must report success (converged, not cancelled), never the
// contradictory converged+cancelled state.
TEST_F(ApiSessionTest, CancelOnConvergingIterationReportsConverged) {
  Session::Options options;
  options.config.max_iterations = 10;  // default 1% convergence threshold
  Session session(options);
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());

  auto token = std::make_shared<CancellationToken>();
  RunCallbacks callbacks;
  callbacks.cancellation = token;
  callbacks.on_iteration = [&](const api::IterationProgress& progress) {
    // The restaurant pair converges (change fraction hits the threshold);
    // cancelling exactly then must not mark the complete run cancelled.
    if (progress.iteration > 1 && progress.change_fraction < 0.01) {
      token->Cancel();
    }
  };
  EXPECT_TRUE(session.Align(callbacks).ok());
  EXPECT_TRUE(session.summary().converged);
  EXPECT_FALSE(session.summary().cancelled);
}

TEST_F(ApiSessionTest, UnknownMatcherFailsAlign) {
  Session::Options options;
  options.matcher = "bogus";
  Session session(options);
  ASSERT_TRUE(session.LoadFromFiles(left_path(), right_path()).ok());
  auto status = session.Align();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
  EXPECT_NE(status.message().find("identity"), std::string::npos);
}

TEST(MatcherRegistryTest, BuiltInsAndCustomRegistration) {
  const MatcherRegistry& builtins = MatcherRegistry::Default();
  for (const char* name : {"identity", "normalized", "fuzzy"}) {
    EXPECT_TRUE(builtins.Contains(name)) << name;
    EXPECT_TRUE(builtins.Resolve(name).ok()) << name;
  }
  EXPECT_EQ(builtins.Resolve("nope").status().code(), StatusCode::kNotFound);

  // A private registry with a custom matcher plugs into a Session without
  // any call-site changes.
  MatcherRegistry registry;
  ASSERT_TRUE(
      registry.Register("custom", core::NormalizingMatcherFactory()).ok());
  EXPECT_EQ(registry.Register("custom", core::IdentityMatcherFactory()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"custom"}));

  api::DatasetSpec spec;
  spec.profile = "restaurant";
  spec.output_prefix = ::testing::TempDir() + "/registry_rest";
  spec.scale = 0.25;
  auto summary = api::GenerateDataset(spec);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  Session::Options options;
  options.matcher = "custom";
  options.registry = &registry;
  Session session(options);
  ASSERT_TRUE(
      session.LoadFromFiles(summary->left_path, summary->right_path).ok());
  EXPECT_TRUE(session.Align().ok());
  EXPECT_GT(session.summary().instances_aligned, 0u);
}

TEST(GenerateDatasetTest, UnknownProfileIsInvalidArgument) {
  api::DatasetSpec spec;
  spec.profile = "nope";
  spec.output_prefix = ::testing::TempDir() + "/nope";
  auto summary = api::GenerateDataset(spec);
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(summary.status().message().find("nope"), std::string::npos);
}

}  // namespace
}  // namespace paris
