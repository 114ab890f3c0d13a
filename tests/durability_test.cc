// Crash-safety and fault-injection coverage: AtomicFileWriter's
// all-or-nothing contract, the transient-errno retry policy, the fault
// matrix over every registered injection point, and the background
// checkpoint write → journal → auto-resume cycle.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "paris/api/dataset.h"
#include "paris/api/session.h"
#include "paris/core/aligner.h"
#include "paris/core/checkpoint.h"
#include "paris/core/result_io.h"
#include "paris/core/result_snapshot.h"
#include "paris/ontology/ontology.h"
#include "paris/storage/snapshot.h"
#include "paris/synth/profiles.h"
#include "paris/util/fault_injection.h"
#include "paris/util/fs.h"
#include "paris/util/status.h"

namespace paris {
namespace {

using core::AlignmentConfig;
using core::AlignmentResult;
using storage::SnapshotLoadMode;
using util::FaultInjector;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Checkpoint directories must start empty: TempDir() is stable across runs
// of this binary, and a MANIFEST journal left by a previous run would shift
// sequence numbers and supply stale-but-loadable checkpoints.
std::string FreshDir(const std::string& name) {
  const std::string path = TempPath(name);
  std::filesystem::remove_all(path);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).is_open();
}

// Disarms the global injector on every exit path so a failing assertion in
// one cell of the fault matrix cannot poison later tests.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    FaultInjector::Global().Reset();
    const util::Status status = FaultInjector::Global().Arm(spec);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// AtomicFileWriter: all-or-nothing replacement under injected failures
// ---------------------------------------------------------------------------

TEST(AtomicWriteTest, CommitReplacesFileAndRemovesTmp) {
  const std::string path = TempPath("atomic_basic.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ReadFile(path), "first");
  ASSERT_TRUE(util::WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadFile(path), "second");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

// The satellite regression for the old truncate-in-place writers: a save
// that dies mid-write (any failure before the rename) must leave the
// previous file byte-identical and loadable, with no tmp debris.
TEST(AtomicWriteTest, FailedCommitPreservesPreviousContents) {
  const std::string path = TempPath("atomic_preserve.txt");
  const std::string old_bytes(100000, 'x');
  ASSERT_TRUE(util::WriteFileAtomic(path, old_bytes).ok());
  for (const char* spec :
       {"atomic_write.open:1:enospc", "atomic_write.write:1:enospc",
        "atomic_write.write:1:short", "atomic_write.fsync_file:1:enospc",
        "atomic_write.rename:1:enospc"}) {
    SCOPED_TRACE(spec);
    FaultGuard guard(spec);
    EXPECT_FALSE(util::WriteFileAtomic(path, "replacement").ok());
    EXPECT_EQ(ReadFile(path), old_bytes);
    EXPECT_FALSE(FileExists(path + ".tmp"));
  }
  std::remove(path.c_str());
}

// A directory-fsync failure happens after the rename: the new file is
// complete and in place (never torn), the caller just cannot count on the
// rename having reached the disk — so Commit still reports the error.
TEST(AtomicWriteTest, FsyncDirFailureReportsButFileIsComplete) {
  const std::string path = TempPath("atomic_fsync_dir.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "old").ok());
  FaultGuard guard("atomic_write.fsync_dir:1:enospc");
  EXPECT_FALSE(util::WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(ReadFile(path), "new");
  std::remove(path.c_str());
}

// Injected EINTR at every atomic-write stage is absorbed by the bounded
// retry policy: the write succeeds and the retry is counted.
TEST(AtomicWriteTest, TransientFaultsAreRetriedNotFatal) {
  const std::string path = TempPath("atomic_transient.txt");
  for (const char* point :
       {"atomic_write.open", "atomic_write.write", "atomic_write.fsync_file",
        "atomic_write.rename", "atomic_write.fsync_dir"}) {
    SCOPED_TRACE(point);
    FaultGuard guard(std::string(point) + ":1:eintr");
    const uint64_t retries_before = util::IoRetryCount();
    EXPECT_TRUE(util::WriteFileAtomic(path, "payload").ok());
    EXPECT_EQ(ReadFile(path), "payload");
    EXPECT_GT(util::IoRetryCount(), retries_before);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault matrix and checkpointing over a real alignment workload
// ---------------------------------------------------------------------------

class DurabilityWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::ProfileOptions options;
    options.scale = 0.5;
    auto pair = synth::MakeOaeiRestaurantPair(options);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    pair_ = std::move(pair).value();
    config_ = FixedWorkConfig(2, 0);
    result_ = Run(config_);
    ref_path_ = TempPath("durability_ref.result");
    ASSERT_TRUE(core::SaveAlignmentResult(ref_path_, result_, left(), right(),
                                          config_, "identity")
                    .ok());
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::remove(ref_path_.c_str());
  }

  static AlignmentConfig FixedWorkConfig(int max_iterations, size_t threads) {
    AlignmentConfig config;
    config.max_iterations = max_iterations;
    config.convergence_threshold = 0.0;
    config.record_history = false;
    config.num_threads = threads;
    return config;
  }

  AlignmentResult Run(const AlignmentConfig& config) {
    return core::Aligner(*pair_.left, *pair_.right, config).Run();
  }

  std::string Tables(const AlignmentResult& result) const {
    std::ostringstream out;
    core::WriteInstanceAlignment(result.instances, left(), right(), out);
    core::WriteRelationAlignment(result.relations, left(), right(), out);
    core::WriteClassAlignment(result.classes, left(), right(), out);
    return out.str();
  }

  // A complete-result view, as the checkpointer would capture between
  // passes.
  static core::ResultSnapshotView ViewOf(const AlignmentResult& result) {
    core::ResultSnapshotView view;
    view.iterations = result.iterations;
    view.converged_at = result.converged_at;
    view.seconds_classes = result.seconds_classes;
    view.seconds_total = result.seconds_total;
    view.instances = &result.instances;
    view.relations = &result.relations;
    view.classes = &result.classes;
    return view;
  }

  util::StatusOr<AlignmentResult> LoadRef(SnapshotLoadMode mode) const {
    return core::LoadAlignmentResult(ref_path_, left(), right(), config_,
                                     "identity", mode);
  }

  const ontology::Ontology& left() const { return *pair_.left; }
  const ontology::Ontology& right() const { return *pair_.right; }

  synth::OntologyPair pair_;
  AlignmentConfig config_;
  AlignmentResult result_;
  std::string ref_path_;
};

// The satellite fault matrix: every registered fault point crossed with
// every non-aborting fault kind, driven through one full checkpoint-write /
// journal / snapshot-load cycle. Nothing may crash, the writer must settle
// into a coherent state, transient faults must be absorbed by the retry
// policy, and after the fault clears the world must still be intact: the
// reference snapshot loads and the checkpoint directory either resumes to
// the exact result or reports kNotFound — never a corrupt adoption.
// ("abort" is exercised process-externally by tests/crash_recovery_test.sh.)
TEST_F(DurabilityWorkloadTest, EveryFaultPointSurvivesEveryFaultKind) {
  int cell = 0;
  for (std::string_view point : util::RegisteredFaultPoints()) {
    // net.* points never fire under this file-IO workload; their matrix
    // lives in service_test.cc (NetFaultMatrixCoversRegisteredPoints).
    if (point.rfind("net.", 0) == 0) continue;
    for (const char* kind : {"enospc", "eintr", "short", "bitflip"}) {
      SCOPED_TRACE(std::string(point) + ":1:" + kind);
      FaultGuard guard(std::string(point) + ":1:" + std::string(kind));
      const uint64_t retries_before = util::IoRetryCount();
      const bool transient = std::string_view(kind) == "eintr";
      const std::string dir =
          FreshDir("fault_matrix_" + std::to_string(cell++));
      {
        core::CheckpointWriter writer({dir, 0.0}, left(), right(), config_,
                                      "identity");
        writer.Submit(ViewOf(result_));
        writer.Drain();
        // Either the checkpoint was durably journaled or the failure
        // disabled checkpointing — never a half-state.
        EXPECT_EQ(writer.checkpoints_written() == 1, !writer.disabled());
        if (transient) EXPECT_FALSE(writer.disabled());
      }
      const auto stream_load = LoadRef(SnapshotLoadMode::kStream);
      const auto mmap_load = LoadRef(SnapshotLoadMode::kMmap);
      if (transient) {
        EXPECT_TRUE(stream_load.ok()) << stream_load.status().ToString();
        EXPECT_TRUE(mmap_load.ok()) << mmap_load.status().ToString();
        EXPECT_GT(util::IoRetryCount(), retries_before);
      }

      FaultInjector::Global().Reset();
      EXPECT_TRUE(LoadRef(SnapshotLoadMode::kAuto).ok());
      auto latest = core::LoadLatestCheckpoint(dir, left(), right(), config_,
                                               "identity");
      if (latest.ok()) {
        EXPECT_EQ(Tables(*latest), Tables(result_));
      } else {
        EXPECT_EQ(latest.status().code(), StatusCode::kNotFound)
            << latest.status().ToString();
      }
    }
  }
}

// Satellite regression: a result save that fails partway through must leave
// the previously saved snapshot byte-identical and loadable.
TEST_F(DurabilityWorkloadTest, FailedResultSaveLeavesPreviousSnapshotUsable) {
  const std::string before = ReadFile(ref_path_);
  const AlignmentResult other = Run(FixedWorkConfig(1, 0));
  for (const char* spec :
       {"atomic_write.write:1:short", "atomic_write.write:1:bitflip",
        "atomic_write.fsync_file:1:enospc", "atomic_write.rename:1:enospc"}) {
    SCOPED_TRACE(spec);
    FaultGuard guard(spec);
    const util::Status status = core::SaveAlignmentResult(
        ref_path_, other, left(), right(), config_, "identity");
    if (status.ok()) {
      // bitflip is silent at write time; the damage must surface at load.
      FaultInjector::Global().Reset();
      auto loaded = LoadRef(SnapshotLoadMode::kAuto);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
      // Restore the reference file for the next spec.
      ASSERT_TRUE(util::WriteFileAtomic(ref_path_, before).ok());
    } else {
      EXPECT_EQ(ReadFile(ref_path_), before);
      EXPECT_FALSE(FileExists(ref_path_ + ".tmp"));
      FaultInjector::Global().Reset();
      EXPECT_TRUE(LoadRef(SnapshotLoadMode::kAuto).ok());
    }
  }
}

TEST_F(DurabilityWorkloadTest, CheckpointWriterJournalsAndGarbageCollects) {
  const std::string dir = FreshDir("ckpt_journal");
  core::CheckpointWriter writer({dir, 0.0}, left(), right(), config_,
                                "identity");
  // A fresh writer with interval 0 is immediately due; subsequent captures
  // are throttled by the self-limiting cadence, so the loop below submits
  // directly (Submit itself only requires not-busy, which Drain ensures).
  EXPECT_TRUE(writer.Due());
  for (int i = 0; i < 3; ++i) {
    writer.Submit(ViewOf(result_));
    writer.Drain();
  }
  EXPECT_EQ(writer.checkpoints_written(), 3u);
  EXPECT_FALSE(writer.disabled());
  EXPECT_TRUE(FileExists(dir + "/MANIFEST"));
  // Only the last two checkpoint files are kept; the journal remembers all.
  EXPECT_FALSE(FileExists(dir + "/ckpt-000001.result"));
  EXPECT_TRUE(FileExists(dir + "/ckpt-000002.result"));
  EXPECT_TRUE(FileExists(dir + "/ckpt-000003.result"));

  auto latest =
      core::LoadLatestCheckpoint(dir, left(), right(), config_, "identity");
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(Tables(*latest), Tables(result_));

  // A new writer in the same directory continues the sequence instead of
  // reusing (and clobbering) journaled numbers.
  core::CheckpointWriter successor({dir, 0.0}, left(), right(), config_,
                                   "identity");
  successor.Submit(ViewOf(result_));
  successor.Drain();
  EXPECT_TRUE(FileExists(dir + "/ckpt-000004.result"));
}

TEST_F(DurabilityWorkloadTest, LoadLatestCheckpointSkipsCorruptEntries) {
  const std::string dir = FreshDir("ckpt_corrupt");
  core::CheckpointWriter writer({dir, 0.0}, left(), right(), config_,
                                "identity");
  writer.Submit(ViewOf(result_));
  writer.Drain();
  writer.Submit(ViewOf(result_));
  writer.Drain();
  ASSERT_EQ(writer.checkpoints_written(), 2u);

  // A torn final append (crash mid-journal-write) and a malformed line must
  // not take the journal down.
  {
    std::ofstream manifest(dir + "/MANIFEST",
                           std::ios::binary | std::ios::app);
    manifest << "not a manifest line\n999\ttorn-entr";
  }
  // Corrupt the newest checkpoint: the loader must fall back to its
  // predecessor, not fail and not adopt damaged state.
  const std::string newest = dir + "/ckpt-000002.result";
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto latest =
      core::LoadLatestCheckpoint(dir, left(), right(), config_, "identity");
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(Tables(*latest), Tables(result_));

  // With every entry corrupt there is nothing to adopt: kNotFound, so the
  // caller recomputes from scratch.
  const std::string older = dir + "/ckpt-000001.result";
  {
    std::ofstream out(older, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  auto none =
      core::LoadLatestCheckpoint(dir, left(), right(), config_, "identity");
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

TEST_F(DurabilityWorkloadTest, PermanentWriteFailureDisablesCheckpointing) {
  const std::string dir = FreshDir("ckpt_disabled");
  FaultGuard guard("atomic_write.open:1:enospc");  // sticky: disk stays full
  core::CheckpointWriter writer({dir, 0.0}, left(), right(), config_,
                                "identity");
  writer.Submit(ViewOf(result_));
  writer.Drain();
  EXPECT_TRUE(writer.disabled());
  EXPECT_EQ(writer.checkpoints_written(), 0u);
  EXPECT_FALSE(writer.Due());
  // Further submits are dropped silently; the run itself never fails.
  writer.Submit(ViewOf(result_));
  writer.Drain();
  EXPECT_EQ(writer.checkpoints_written(), 0u);
}

// A run that ends before its first capture still leaves the (empty)
// journal, which readers treat like a missing one.
TEST_F(DurabilityWorkloadTest, CheckpointWriterStartsAnEmptyJournal) {
  const std::string dir = FreshDir("ckpt_empty");
  {
    core::CheckpointWriter writer({dir, 3600.0}, left(), right(), config_,
                                  "identity");
    EXPECT_FALSE(writer.Due());
  }
  EXPECT_TRUE(FileExists(dir + "/MANIFEST"));
  EXPECT_EQ(ReadFile(dir + "/MANIFEST"), "");
  auto latest =
      core::LoadLatestCheckpoint(dir, left(), right(), config_, "identity");
  EXPECT_EQ(latest.status().code(), util::StatusCode::kNotFound);
}

// The tentpole acceptance at library level: a run that checkpoints on a
// tight cadence produces the same tables as an undisturbed run, and
// resuming from its newest mid-run checkpoint — across thread counts —
// reconverges to byte-identical tables.
TEST_F(DurabilityWorkloadTest, CheckpointedRunAndResumeAreByteIdentical) {
  const AlignmentResult cold = Run(FixedWorkConfig(3, 0));
  const std::string reference = Tables(cold);

  AlignmentConfig ckpt_config = FixedWorkConfig(3, 0);
  ckpt_config.checkpoint_dir = FreshDir("ckpt_run");
  ckpt_config.checkpoint_interval = 1e-9;  // capture at every eligible shard
  core::Aligner aligner(left(), right(), ckpt_config);
  const AlignmentResult checkpointed = aligner.Run();
  EXPECT_EQ(Tables(checkpointed), reference);
  EXPECT_TRUE(FileExists(ckpt_config.checkpoint_dir + "/MANIFEST"));

  for (size_t threads : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE(threads);
    core::Aligner resumer(left(), right(), FixedWorkConfig(3, threads));
    // Checkpoints carry the *resolved* config (what the run actually used),
    // so the load-time key check takes Aligner::config(), as Session does.
    auto latest = core::LoadLatestCheckpoint(ckpt_config.checkpoint_dir,
                                             left(), right(), resumer.config(),
                                             "identity");
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    const AlignmentResult resumed = resumer.Resume(std::move(latest).value());
    EXPECT_EQ(Tables(resumed), reference);
  }
}

// ---------------------------------------------------------------------------
// Session-level auto-resume
// ---------------------------------------------------------------------------

TEST(DurabilitySessionTest, AutoResumeMatchesColdRunAndDegradesGracefully) {
  api::DatasetSpec spec;
  spec.profile = "restaurant";
  spec.output_prefix = TempPath("durability_sess");
  spec.scale = 0.5;
  auto dataset = api::GenerateDataset(spec);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  api::Session::Options base;
  base.config.max_iterations = 3;
  base.config.convergence_threshold = 0.0;

  const auto run = [&](const api::Session::Options& options) -> std::string {
    api::Session session(options);
    EXPECT_TRUE(
        session.LoadFromFiles(dataset->left_path, dataset->right_path).ok());
    const util::Status status = session.Align();
    EXPECT_TRUE(status.ok()) << status.ToString();
    std::ostringstream out;
    EXPECT_TRUE(session.WriteInstanceAlignment(out).ok());
    return out.str();
  };

  const std::string reference = run(base);
  ASSERT_FALSE(reference.empty());

  // First run writes checkpoints; it must not perturb the result.
  const std::string dir = FreshDir("sess_ckpts");
  api::Session::Options checkpointed = base;
  checkpointed.set_checkpointing(dir, 1e-9);
  EXPECT_EQ(run(checkpointed), reference);

  // Second run adopts the newest checkpoint and reconverges identically.
  api::Session::Options resuming = base;
  resuming.set_checkpointing(dir, 1e-9);
  resuming.set_auto_resume(true);
  EXPECT_EQ(run(resuming), reference);

  // No usable checkpoint: auto-resume degrades to a cold start, never an
  // error.
  api::Session::Options degraded = base;
  degraded.set_checkpointing(FreshDir("sess_ckpts_empty"), 0.0);
  degraded.set_auto_resume(true);
  EXPECT_EQ(run(degraded), reference);
}

}  // namespace
}  // namespace paris
