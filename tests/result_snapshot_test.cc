#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exact_dump.h"
#include "paris/core/aligner.h"
#include "paris/core/result_io.h"
#include "paris/core/result_snapshot.h"
#include "paris/ontology/ontology.h"
#include "paris/storage/snapshot.h"
#include "paris/synth/profiles.h"

namespace paris {
namespace {

using core::AlignmentConfig;
using core::AlignmentResult;
using storage::SnapshotLoadMode;

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

// The three TSV tables as one string: "byte-identical output" in the sense
// of `paris_align --output`.
std::string Tables(const AlignmentResult& result,
                   const ontology::Ontology& left,
                   const ontology::Ontology& right) {
  std::ostringstream out;
  core::WriteInstanceAlignment(result.instances, left, right, out);
  core::WriteRelationAlignment(result.relations, left, right, out);
  core::WriteClassAlignment(result.classes, left, right, out);
  return out.str();
}

// A small but non-trivial alignment workload (noisy restaurant pair): a few
// hundred instances, several relations, classes, and multiple fixpoint
// iterations of real work.
class ResultSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::ProfileOptions options;
    options.scale = 0.5;
    auto pair = synth::MakeOaeiRestaurantPair(options);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    pair_ = std::move(pair).value();
  }

  // Forces a fixed number of full-work iterations so a checkpoint at k < max
  // genuinely resumes mid-run.
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

  const ontology::Ontology& left() const { return *pair_.left; }
  const ontology::Ontology& right() const { return *pair_.right; }

  synth::OntologyPair pair_;
};

TEST_F(ResultSnapshotTest, RoundTripReproducesResult) {
  const AlignmentConfig config = FixedWorkConfig(2, 0);
  const AlignmentResult result = Run(config);
  ASSERT_GT(result.instances.num_left_aligned(), 0u);
  ASSERT_GT(result.relations.size(), 0u);
  ASSERT_GT(result.classes.entries().size(), 0u);

  const std::string path = TempPath("round_trip.result");
  ASSERT_TRUE(core::SaveAlignmentResult(path, result, left(), right(), config,
                                        "identity")
                  .ok());
  for (const auto mode : {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
    auto loaded = core::LoadAlignmentResult(path, left(), right(), config,
                                            "identity", mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->iterations.size(), result.iterations.size());
    EXPECT_EQ(loaded->converged_at, result.converged_at);
    EXPECT_EQ(testutil::ExactDump(*loaded, left(), right()),
              testutil::ExactDump(result, left(), right()));
    EXPECT_EQ(Tables(*loaded, left(), right()),
              Tables(result, left(), right()));
  }
  std::remove(path.c_str());
}

TEST_F(ResultSnapshotTest, SavingIsDeterministic) {
  const AlignmentConfig config = FixedWorkConfig(2, 0);
  const AlignmentResult result = Run(config);
  const std::string p1 = TempPath("det1.result");
  const std::string p2 = TempPath("det2.result");
  ASSERT_TRUE(core::SaveAlignmentResult(p1, result, left(), right(), config,
                                        "identity")
                  .ok());
  ASSERT_TRUE(core::SaveAlignmentResult(p2, result, left(), right(), config,
                                        "identity")
                  .ok());
  EXPECT_EQ(ReadFile(p1), ReadFile(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// The acceptance criterion of the resumable-runs feature: restarting at
// iteration k yields byte-identical final tables to an uninterrupted run,
// across worker-thread counts and both snapshot load modes.
TEST_F(ResultSnapshotTest, ResumeMatchesColdAcrossThreadsAndModes) {
  constexpr int kMaxIterations = 4;
  constexpr int kCheckpointAt = 2;
  const AlignmentResult cold = Run(FixedWorkConfig(kMaxIterations, 0));
  ASSERT_EQ(cold.iterations.size(), static_cast<size_t>(kMaxIterations));
  const std::string reference = Tables(cold, left(), right());

  const AlignmentConfig partial = FixedWorkConfig(kCheckpointAt, 0);
  const AlignmentResult checkpoint = Run(partial);
  const std::string path = TempPath("resume.result");
  ASSERT_TRUE(core::SaveAlignmentResult(path, checkpoint, left(), right(),
                                        partial, "identity")
                  .ok());

  for (const auto mode : {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
    for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
      const AlignmentConfig config = FixedWorkConfig(kMaxIterations, threads);
      auto loaded = core::LoadAlignmentResult(path, left(), right(), config,
                                              "identity", mode);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      core::Aligner aligner(left(), right(), config);
      const AlignmentResult resumed =
          aligner.Resume(std::move(loaded).value());
      EXPECT_EQ(resumed.iterations.size(),
                static_cast<size_t>(kMaxIterations));
      EXPECT_EQ(resumed.converged_at, cold.converged_at);
      EXPECT_EQ(Tables(resumed, left(), right()), reference)
          << "mode=" << (mode == SnapshotLoadMode::kMmap ? "mmap" : "stream")
          << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST_F(ResultSnapshotTest, ResumeFromConvergedCheckpointSkipsLoop) {
  AlignmentConfig config;
  config.max_iterations = 10;
  config.record_history = false;
  const AlignmentResult cold = Run(config);
  ASSERT_GT(cold.converged_at, 0);

  const std::string path = TempPath("converged.result");
  ASSERT_TRUE(core::SaveAlignmentResult(path, cold, left(), right(), config,
                                        "identity")
                  .ok());
  auto loaded =
      core::LoadAlignmentResult(path, left(), right(), config, "identity");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::Aligner aligner(left(), right(), config);
  const AlignmentResult resumed = aligner.Resume(std::move(loaded).value());
  EXPECT_EQ(resumed.iterations.size(), cold.iterations.size());
  EXPECT_EQ(resumed.converged_at, cold.converged_at);
  EXPECT_EQ(Tables(resumed, left(), right()), Tables(cold, left(), right()));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Failure modes: corruption, truncation, version and key mismatches
// ---------------------------------------------------------------------------

class ResultSnapshotCorruptionTest : public ResultSnapshotTest {
 protected:
  void SetUp() override {
    ResultSnapshotTest::SetUp();
    config_ = FixedWorkConfig(2, 0);
    const AlignmentResult result = Run(config_);
    path_ = TempPath("corruption_base.result");
    ASSERT_TRUE(core::SaveAlignmentResult(path_, result, left(), right(),
                                          config_, "identity")
                    .ok());
    bytes_ = ReadFile(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Rewrites the FNV-1a trailer so a deliberate mutation is *not* caught by
  // the checksum — for testing the checks that must fire before/after it.
  static std::string WithFixedTrailer(std::string bytes) {
    const size_t body = bytes.size() - sizeof(storage::kSnapshotMagic) -
                        sizeof(uint64_t);
    const uint64_t checksum =
        storage::FnvHash(bytes.data() + sizeof(storage::kSnapshotMagic), body);
    for (int i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
          static_cast<char>(checksum >> (8 * i));
    }
    return bytes;
  }

  // Damage must be classified, not just rejected: kInvalidArgument means
  // "wrong kind of file" (magic/version region), kDataLoss means "right
  // file, corrupt bytes" — the code crash recovery is allowed to fall back
  // to recomputation on. The modes differ inside the 12-byte header: the
  // mmap path verifies the whole-file checksum before reading anything
  // past the magic, the streaming path reads magic and version first.
  void ExpectLoadFails(const std::string& path, const std::string& label,
                       util::StatusCode want_stream,
                       util::StatusCode want_mmap) {
    for (const auto mode :
         {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
      auto loaded = core::LoadAlignmentResult(path, left(), right(), config_,
                                              "identity", mode);
      const char* mode_name =
          mode == SnapshotLoadMode::kMmap ? "mmap" : "stream";
      ASSERT_FALSE(loaded.ok())
          << label << " was not rejected by " << mode_name;
      // Damaged bytes are corruption, never a run-setup verdict — even when
      // the flipped byte lives in the run-key section (the streaming loader
      // verifies the trailer before trusting a key mismatch).
      EXPECT_EQ(loaded.status().code(),
                mode == SnapshotLoadMode::kMmap ? want_mmap : want_stream)
          << label << " via " << mode_name << ": "
          << loaded.status().ToString();
    }
  }

  AlignmentConfig config_;
  std::string path_;
  std::string bytes_;
};

TEST_F(ResultSnapshotCorruptionTest, RejectsByteFlipsEverywhere) {
  const std::string bad_path = TempPath("flip.result");
  for (size_t offset = 0; offset < bytes_.size();
       offset += 1 + bytes_.size() / 23) {
    std::string mutated = bytes_;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5a);
    WriteFile(bad_path, mutated);
    ExpectLoadFails(bad_path, "byte flip at offset " + std::to_string(offset),
                    offset < 12 ? util::StatusCode::kInvalidArgument
                                : util::StatusCode::kDataLoss,
                    offset < 8 ? util::StatusCode::kInvalidArgument
                               : util::StatusCode::kDataLoss);
  }
  std::remove(bad_path.c_str());
}

TEST_F(ResultSnapshotCorruptionTest, RejectsTruncation) {
  const std::string bad_path = TempPath("trunc.result");
  for (size_t keep : {size_t{0}, size_t{4}, size_t{12}, bytes_.size() / 3,
                      bytes_.size() / 2, bytes_.size() - 1}) {
    WriteFile(bad_path, bytes_.substr(0, keep));
    // A file cut inside the magic is "not a result snapshot"; cut anywhere
    // after the header it is a torn write — data loss.
    const util::StatusCode want = keep < 12
                                      ? util::StatusCode::kInvalidArgument
                                      : util::StatusCode::kDataLoss;
    ExpectLoadFails(bad_path, "truncation to " + std::to_string(keep), want,
                    want);
  }
  std::remove(bad_path.c_str());
}

TEST_F(ResultSnapshotCorruptionTest, RejectsVersionMismatch) {
  // Bump the version field and re-seal the checksum, so the version check
  // itself (not the corruption detection) must reject the file.
  std::string mutated = bytes_;
  mutated[sizeof(storage::kSnapshotMagic)] =
      static_cast<char>(core::kResultSnapshotVersion + 1);
  const std::string bad_path = TempPath("version.result");
  WriteFile(bad_path, WithFixedTrailer(std::move(mutated)));
  for (const auto mode : {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
    auto loaded = core::LoadAlignmentResult(bad_path, left(), right(),
                                            config_, "identity", mode);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("unsupported result snapshot "
                                             "version"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(bad_path.c_str());
}

TEST_F(ResultSnapshotCorruptionTest, RejectsOntologySnapshotFile) {
  // An *ontology* snapshot (different magic) must be rejected up front.
  std::string mutated = bytes_;
  std::memcpy(mutated.data(), storage::kSnapshotMagic,
              sizeof(storage::kSnapshotMagic));
  const std::string bad_path = TempPath("wrong_magic.result");
  WriteFile(bad_path, mutated);
  ExpectLoadFails(bad_path, "wrong magic", util::StatusCode::kInvalidArgument,
                  util::StatusCode::kInvalidArgument);

  EXPECT_FALSE(core::LoadAlignmentResult(TempPath("does_not_exist.result"),
                                         left(), right(), config_, "identity")
                   .ok());
}

TEST_F(ResultSnapshotCorruptionTest, RejectsDifferentRunSetup) {
  const auto expect_key_rejected = [&](const AlignmentConfig& config,
                                       const std::string& matcher,
                                       const std::string& label) {
    auto loaded =
        core::LoadAlignmentResult(path_, left(), right(), config, matcher);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition)
        << label << ": " << loaded.status().ToString();
  };

  AlignmentConfig theta = config_;
  theta.theta = 0.25;
  expect_key_rejected(theta, "identity", "different theta");

  AlignmentConfig negative = config_;
  negative.use_negative_evidence = true;
  expect_key_rejected(negative, "identity", "negative evidence toggled");

  AlignmentConfig sample = config_;
  sample.class_instance_sample = 7;
  expect_key_rejected(sample, "identity", "different class sample");

  expect_key_rejected(config_, "fuzzy", "different matcher");

  // A cap below the checkpoint's completed iterations cannot be honored.
  AlignmentConfig fewer = config_;
  fewer.max_iterations = 1;
  expect_key_rejected(fewer, "identity", "lowered iteration cap");

  // A raised iteration cap or different thread count is NOT a different run.
  AlignmentConfig more = config_;
  more.max_iterations = 9;
  more.num_threads = 4;
  more.record_history = true;
  EXPECT_TRUE(core::LoadAlignmentResult(path_, left(), right(), more,
                                        "identity")
                  .ok());

  // A different ontology pair must be rejected via the fingerprint.
  synth::ProfileOptions options;
  options.scale = 0.5;
  options.seed = 43;
  auto other = synth::MakeOaeiRestaurantPair(options);
  ASSERT_TRUE(other.ok());
  auto loaded = core::LoadAlignmentResult(path_, *other->left, *other->right,
                                          config_, "identity");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace paris
