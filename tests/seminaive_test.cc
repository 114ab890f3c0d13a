#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "paris/core/aligner.h"
#include "paris/core/result_io.h"
#include "paris/obs/metrics.h"
#include "paris/synth/profiles.h"

namespace paris::core {
namespace {

// All three alignment tables as one string — the byte-identity currency of
// these tests (same serialization the CLI exports).
std::string Tables(const AlignmentResult& result,
                   const ontology::Ontology& left,
                   const ontology::Ontology& right) {
  std::ostringstream out;
  WriteInstanceAlignment(result.instances, left, right, out);
  WriteRelationAlignment(result.relations, left, right, out);
  WriteClassAlignment(result.classes, left, right, out);
  return out.str();
}

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

class SemiNaiveTest : public ::testing::Test {
 protected:
  // The restaurant pair locks into its fixpoint attractor within ~20
  // iterations at scale 1, which makes it the cheapest profile that
  // exercises the full semi-naive lifecycle: exhaustive early iterations,
  // shrinking worklists, then a fully drained (all-reused) tail.
  static void SetUpTestSuite() {
    synth::ProfileOptions options;
    auto pair = synth::MakeOaeiRestaurantPair(options);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    pair_ = new synth::OntologyPair(std::move(pair).value());
  }

  static const synth::OntologyPair& pair() { return *pair_; }

  static AlignmentConfig FixedWork(int iterations, bool semi_naive) {
    AlignmentConfig config;
    config.max_iterations = iterations;
    config.convergence_threshold = 0.0;  // run exactly `iterations`
    config.record_history = false;
    config.semi_naive = semi_naive;
    return config;
  }

  static std::string RunTables(const AlignmentConfig& config) {
    Aligner aligner(*pair().left, *pair().right, config);
    AlignmentResult result = aligner.Run();
    return Tables(result, *pair().left, *pair().right);
  }

 private:
  static synth::OntologyPair* pair_;
};

synth::OntologyPair* SemiNaiveTest::pair_ = nullptr;

// Mid-convergence the semi-naive worklist is partially drained; the reused
// slots must reproduce the exhaustive trajectory bit for bit. Both parities
// of the iteration cap are checked because reuse spans two generations
// (iteration k reuses slots from k-2).
TEST_F(SemiNaiveTest, MatchesExhaustiveMidConvergence) {
  for (int cap : {5, 8, 9}) {
    EXPECT_EQ(RunTables(FixedWork(cap, true)),
              RunTables(FixedWork(cap, false)))
        << "cap " << cap;
  }
}

// Past the attractor lock the semi-naive run recomputes (almost) nothing;
// its output must still equal the exhaustive run's — at an even and an odd
// cap, since a period-2 attractor makes the final state cap-parity
// dependent.
TEST_F(SemiNaiveTest, MatchesExhaustiveAfterConvergence) {
  for (int cap : {40, 41}) {
    EXPECT_EQ(RunTables(FixedWork(cap, true)),
              RunTables(FixedWork(cap, false)))
        << "cap " << cap;
  }
}

// The determinism contract: thread count and shard count shape scheduling,
// never results. The semi-naive path must uphold it both mid-convergence
// and in the converged (fully reused) regime.
TEST_F(SemiNaiveTest, ByteIdenticalAcrossThreadsAndShards) {
  for (int cap : {8, 40}) {
    std::string reference;
    for (size_t threads : {0, 1, 4}) {
      for (size_t shards : {7, 64}) {
        AlignmentConfig config = FixedWork(cap, true);
        config.num_threads = threads;
        config.num_shards = shards;
        const std::string tables = RunTables(config);
        if (reference.empty()) {
          reference = tables;
        } else {
          EXPECT_EQ(tables, reference) << "cap " << cap << " threads "
                                       << threads << " shards " << shards;
        }
      }
    }
  }
}

// Reuse must actually engage (otherwise the pass silently degraded to
// exhaustive), and when the attractor is an exact period-1 fixpoint — which
// the scale-1 restaurant pair reaches around iteration 30 — the drain-stop
// must end the run early even with the change-fraction criterion disabled.
// MatchesExhaustiveAfterConvergence (above) is what proves the early stop
// loses nothing: the stopped run's tables equal exhaustive ones at cap 40.
TEST_F(SemiNaiveTest, ReuseEngagesAndExactFixpointStops) {
  AlignmentConfig config = FixedWork(60, true);
  obs::MetricsRegistry metrics(1);
  Aligner aligner(*pair().left, *pair().right, config);
  obs::Hooks hooks;
  hooks.metrics = &metrics;
  aligner.set_observability(hooks);
  const AlignmentResult result = aligner.Run();

  const auto snap = metrics.Snapshot();
  EXPECT_GT(CounterValue(snap, "instance.entities_reused"), 0u);
  EXPECT_GT(CounterValue(snap, "relation.relations_reused"), 0u);
  EXPECT_GT(result.converged_at, 1);
  EXPECT_LT(result.converged_at, 60);
  EXPECT_EQ(result.iterations.size(), size_t(result.converged_at));
}

// The scale-2 restaurant pair locks into a period-2 attractor instead: the
// exact-fixpoint stop must NOT fire (the final state depends on the cap's
// parity), but the worklist still drains completely — the locked tail
// recomputes nothing, which is where the converged-iteration speedup
// comes from — and total scoring work stays well under exhaustive.
TEST_F(SemiNaiveTest, PeriodTwoAttractorDrainsWithoutStopping) {
  synth::ProfileOptions options;
  options.scale = 2.0;
  auto pair2 = synth::MakeOaeiRestaurantPair(options);
  ASSERT_TRUE(pair2.ok()) << pair2.status().ToString();

  uint64_t scored[2];
  std::string tables[2];
  uint64_t last_iteration_scored = ~0ull;
  for (bool semi_naive : {false, true}) {
    obs::MetricsRegistry metrics(1);
    Aligner aligner(*pair2->left, *pair2->right, FixedWork(40, semi_naive));
    obs::Hooks hooks;
    hooks.metrics = &metrics;
    aligner.set_observability(hooks);
    uint64_t prev_scored = 0;
    aligner.set_iteration_observer([&](const IterationRecord&) {
      const uint64_t total =
          CounterValue(metrics.Snapshot(), "instance.entities_scored");
      if (semi_naive) last_iteration_scored = total - prev_scored;
      prev_scored = total;
      return true;
    });
    const AlignmentResult result = aligner.Run();
    scored[semi_naive] =
        CounterValue(metrics.Snapshot(), "instance.entities_scored");
    tables[semi_naive] = Tables(result, *pair2->left, *pair2->right);
    if (semi_naive) {
      EXPECT_EQ(result.converged_at, -1);  // period 2: no exact fixpoint
    }
  }
  EXPECT_EQ(last_iteration_scored, 0u);  // fully drained tail
  EXPECT_LT(scored[1], (scored[0] * 3) / 4);
  // The drained tail hands the retained stores out again; they must be
  // exactly what recomputation builds.
  EXPECT_EQ(tables[1], tables[0]);
}

}  // namespace
}  // namespace paris::core
