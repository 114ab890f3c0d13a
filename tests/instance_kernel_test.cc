// The instance kernel against a brute-force reference. Every iteration's
// left rows are recomputed from the previous iteration's record by a plain
// loop over facts, equivalents and neighbour facts with a std::map
// accumulator — no threshold bound, no run directory, no dense slots — and
// must equal the kernel's rows bit for bit, under negative evidence, full
// equalities, a literal matcher with p < 1 and several threads. The pairs
// hold literal hubs, a hub above max_neighbor_fanout, two relations
// between one (y', x') and inverse relations on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "paris/core/aligner.h"
#include "paris/core/instance_align.h"
#include "paris/obs/metrics.h"
#include "paris/ontology/ontology.h"
#include "paris/util/random.h"

namespace paris::core {
namespace {

using ontology::Ontology;
using ontology::OntologyBuilder;

constexpr size_t kFanout = 40;
constexpr double kKeep = 0.93;

// One seeded world of `n` people described twice, under each side's own
// relation names, each statement kept with probability 0.93 per side
// (noisier pairs leave negative evidence no row to check after iteration
// 1):
//  * name: a near-unique literal, sometimes misspelt on the right;
//  * city: one of five literals (hubs of about n/5, within the fanout);
//  * member: the literal "yes" for almost everyone (a hub above kFanout);
//  * knows: three random people each (inverse runs on both sides);
//  * friend: one person, stated on the right as r:friend and, for most
//    pairs, also as r:colleague — two relations between one (y', x').
//    (r:colleague ⊆ l:friend then becomes a counterpart of Eq. (14), which
//    penalizes every pair lacking it; with half of the pairs lacking it,
//    negative evidence leaves no row to compare.)
class KernelPair {
 public:
  KernelPair(uint64_t seed, size_t n) {
    util::Rng rng(seed);
    OntologyBuilder bl(&pool_, "left");
    OntologyBuilder br(&pool_, "right");
    auto person = [](const char* side, size_t i) {
      return std::string(side) + ":p" + std::to_string(i);
    };
    for (size_t i = 0; i < n; ++i) {
      const std::string l = person("l", i);
      const std::string r = person("r", i);
      const std::string name = "name" + std::to_string(i * 7919 % 1000);
      if (rng.Bernoulli(kKeep)) bl.AddLiteralFact(l, "l:name", name);
      if (rng.Bernoulli(kKeep)) {
        br.AddLiteralFact(r, "r:label",
                          rng.Bernoulli(0.05) ? name + "x" : name);
      }
      const std::string city = "city" + std::to_string(i % 5);
      if (rng.Bernoulli(kKeep)) bl.AddLiteralFact(l, "l:city", city);
      if (rng.Bernoulli(kKeep)) br.AddLiteralFact(r, "r:town", city);
      if (rng.Bernoulli(0.95)) bl.AddLiteralFact(l, "l:member", "yes");
      if (rng.Bernoulli(0.95)) br.AddLiteralFact(r, "r:member", "yes");
      for (int k = 0; k < 3; ++k) {
        const auto j = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
        if (rng.Bernoulli(kKeep)) bl.AddFact(l, "l:knows", person("l", j));
        if (rng.Bernoulli(kKeep)) {
          br.AddFact(r, "r:acquainted", person("r", j));
        }
      }
      const size_t f = (i * 7 + 3) % n;
      if (rng.Bernoulli(kKeep)) bl.AddFact(l, "l:friend", person("l", f));
      if (rng.Bernoulli(kKeep)) {
        br.AddFact(r, "r:friend", person("r", f));
        if (rng.Bernoulli(0.9)) br.AddFact(r, "r:colleague", person("r", f));
      }
    }
    auto left = bl.Build();
    auto right = br.Build();
    EXPECT_TRUE(left.ok() && right.ok());
    left_ = std::make_unique<Ontology>(std::move(left).value());
    right_ = std::make_unique<Ontology>(std::move(right).value());
  }

  const Ontology& left() const { return *left_; }
  const Ontology& right() const { return *right_; }

 private:
  rdf::TermPool pool_;
  std::unique_ptr<Ontology> left_;
  std::unique_ptr<Ontology> right_;
};

// One iteration's left rows by brute force, and the work a kernel without
// any pruning does for them.
struct Reference {
  std::map<rdf::TermId, std::vector<Candidate>> rows;  // non-empty rows
  uint64_t visits = 0;  // neighbour facts of every y' within the fanout
  uint64_t keys = 0;    // distinct (x, x') given at least one factor
  // Summed by CheckAgainstReference: rows compared after iteration 1,
  // where negative evidence and the previous equivalences come in.
  uint64_t later_rows = 0;
};

using Counterparts = std::map<rdf::RelId, std::pair<rdf::RelId, double>>;

Reference Recompute(const Ontology& left, const Ontology& right,
                    const AlignmentConfig& config,
                    const LiteralMatcher& matcher,
                    const InstanceEquivalences& previous,
                    const RelationScores& scores) {
  FactorCoefficientTable table;
  table.Build(left, right, scores, config.functionality_variant);
  DirectionalContext l2r;
  l2r.source = &left;
  l2r.target = &right;
  l2r.matcher = &matcher;
  l2r.equiv = &previous;
  l2r.use_full = config.use_full_equalities;

  // Eq. (14)'s counterparts: the first entry of a relation wins unless a
  // later one scores strictly higher.
  Counterparts right_sub_left;
  Counterparts left_sub_right;
  auto update = [](Counterparts& best, rdf::RelId key, rdf::RelId value,
                   double score) {
    auto [it, fresh] = best.emplace(key, std::make_pair(value, score));
    if (!fresh && score > it->second.second) it->second = {value, score};
  };
  if (config.use_negative_evidence) {
    for (const RelationAlignmentEntry& e : scores.Entries()) {
      if (e.score <= config.theta) continue;
      if (e.sub_is_left) {
        update(left_sub_right, e.sub, e.super, e.score);
        update(left_sub_right, rdf::Inverse(e.sub), rdf::Inverse(e.super),
               e.score);
      } else {
        update(right_sub_left, e.super, e.sub, e.score);
        update(right_sub_left, rdf::Inverse(e.super), rdf::Inverse(e.sub),
               e.score);
      }
    }
  }
  const auto variant = config.functionality_variant;

  Reference ref;
  for (const rdf::TermId x : left.instances()) {
    std::vector<std::pair<rdf::RelId, std::vector<Candidate>>> facts;
    for (const rdf::Fact& f : left.FactsAbout(x)) {
      std::vector<Candidate> equivalents;
      l2r.AppendEquivalents(f.other, &equivalents);
      if (equivalents.empty() && !config.use_negative_evidence) continue;
      if (config.use_negative_evidence) {
        std::sort(equivalents.begin(), equivalents.end(),
                  [](const Candidate& a, const Candidate& b) {
                    return a.other < b.other;
                  });
      }
      facts.emplace_back(f.rel, std::move(equivalents));
    }
    std::map<rdf::TermId, double> products;
    for (const auto& [rel, equivalents] : facts) {
      const FactorCoefficients* row = table.Row(rel);
      for (const Candidate& y : equivalents) {
        const auto neighbours = right.FactsAbout(y.other);
        if (neighbours.size() > config.max_neighbor_fanout) continue;
        ref.visits += neighbours.size();
        for (const rdf::Fact& nf : neighbours) {
          const FactorCoefficients& c = row[nf.rel];
          if (c.skip || !right.IsInstanceTerm(nf.other)) continue;
          const double factor = (1.0 - c.a * y.prob) * (1.0 - c.b * y.prob);
          if (factor >= 1.0) continue;
          auto [it, fresh] = products.emplace(nf.other, factor);
          if (!fresh) it->second *= factor;
        }
      }
    }
    ref.keys += products.size();

    auto inner = [&](const std::vector<Candidate>& equivalents,
                     rdf::TermId x_prime, rdf::RelId r_prime) {
      double product = 1.0;
      for (const rdf::Fact& cf : right.FactsAbout(x_prime, r_prime)) {
        double p = 0.0;
        for (const Candidate& c : equivalents) {
          if (c.other == cf.other) {
            p = c.prob;
            break;
          }
        }
        product *= (1.0 - p);
      }
      return product;
    };
    std::vector<Candidate> row;
    for (const auto& [x_prime, product] : products) {
      double score = 1.0 - product;
      if (config.use_negative_evidence) {
        double negative = 1.0;
        for (const auto& [rel, equivalents] : facts) {
          if (auto rl = right_sub_left.find(rel); rl != right_sub_left.end()) {
            const auto [r_prime, s] = rl->second;
            const double fun_r = left.functionality().Global(rel, variant);
            negative *= (1.0 - fun_r * s * inner(equivalents, x_prime, r_prime));
          }
          if (auto lr = left_sub_right.find(rel); lr != left_sub_right.end()) {
            const auto [r_prime, s] = lr->second;
            const double fun_rp =
                right.functionality().Global(r_prime, variant);
            negative *=
                (1.0 - fun_rp * s * inner(equivalents, x_prime, r_prime));
          }
        }
        score *= negative;
      }
      if (score >= config.instance_threshold) row.push_back({x_prime, score});
    }
    if (row.empty()) continue;
    std::sort(row.begin(), row.end(), [](const Candidate& a,
                                         const Candidate& b) {
      return a.prob != b.prob ? a.prob > b.prob : a.other < b.other;
    });
    if (row.size() > config.max_candidates_per_instance) {
      row.resize(config.max_candidates_per_instance);
    }
    ref.rows.emplace(x, std::move(row));
  }
  return ref;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct KernelRun {
  AlignmentResult result;
  obs::MetricsSnapshot metrics;
};

KernelRun RunKernel(const KernelPair& pair, const AlignmentConfig& config,
                    const LiteralMatcherFactory& factory) {
  obs::MetricsRegistry metrics(std::max<size_t>(config.num_threads, 1));
  Aligner aligner(pair.left(), pair.right(), config);
  aligner.set_literal_matcher_factory(factory);
  aligner.set_observability({nullptr, &metrics});
  KernelRun run{aligner.Run(), {}};
  run.metrics = metrics.Snapshot();
  return run;
}

uint64_t CounterOf(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

// Checks every iteration of `run` against the reference recomputed from
// its previous record; returns the summed reference work.
Reference CheckAgainstReference(const KernelPair& pair,
                                const AlignmentConfig& run_config,
                                const LiteralMatcherFactory& factory,
                                const AlignmentResult& result) {
  AlignmentConfig config = run_config;
  if (config.instance_threshold < 0.0) {
    config.instance_threshold = config.theta;
  }
  std::unique_ptr<LiteralMatcher> matcher = factory();
  matcher->IndexTarget(pair.right());
  InstanceEquivalences empty;
  empty.Finalize();
  const RelationScores bootstrap = RelationScores::Bootstrap(config.theta);
  Reference total;
  EXPECT_FALSE(result.iterations.empty());
  for (size_t k = 0; k < result.iterations.size(); ++k) {
    const IterationRecord* before = k == 0 ? nullptr : &result.iterations[k - 1];
    const Reference ref = Recompute(
        pair.left(), pair.right(), config, *matcher,
        before == nullptr ? empty : before->instances,
        before == nullptr ? bootstrap : before->relations);
    total.visits += ref.visits;
    total.keys += ref.keys;
    const InstanceEquivalences& got = result.iterations[k].instances;
    size_t rows = 0;
    for (const rdf::TermId x : pair.left().instances()) {
      const auto row = got.LeftToRight(x);
      const auto it = ref.rows.find(x);
      if (it == ref.rows.end()) {
        EXPECT_TRUE(row.empty()) << "iteration " << k + 1 << " x=" << x;
        continue;
      }
      ++rows;
      const std::vector<Candidate>& want = it->second;
      EXPECT_EQ(row.size(), want.size()) << "iteration " << k + 1 << " x=" << x;
      if (row.size() != want.size()) continue;
      for (size_t c = 0; c < want.size(); ++c) {
        EXPECT_EQ(row[c].other, want[c].other)
            << "iteration " << k + 1 << " x=" << x << " #" << c;
        EXPECT_TRUE(SameBits(row[c].prob, want[c].prob))
            << "iteration " << k + 1 << " x=" << x << " #" << c << ": "
            << row[c].prob << " vs " << want[c].prob;
      }
    }
    EXPECT_EQ(rows, ref.rows.size()) << "iteration " << k + 1;
    if (k > 0) total.later_rows += rows;
  }
  return total;
}

struct KernelCase {
  const char* name;
  bool negative = false;
  bool full = false;
  size_t threads = 0;
  bool fuzzy = false;
};

class InstanceKernelTest
    : public ::testing::TestWithParam<std::tuple<KernelCase, uint64_t>> {
 protected:
  static AlignmentConfig ConfigFor(const KernelCase& c) {
    AlignmentConfig config;
    config.max_iterations = 4;
    config.semi_naive = false;  // every instance scored every iteration
    config.max_neighbor_fanout = kFanout;
    config.use_negative_evidence = c.negative;
    // At θ = 0.1 the iteration-1 equivalences (about 0.2) let Eq. (14)
    // wipe out every pair in iteration 2, leaving no row to compare; with
    // stronger ones from θ = 0.5, pairs survive above τ = 0.1.
    if (c.negative) {
      config.theta = 0.5;
      config.instance_threshold = 0.1;
    }
    config.use_full_equalities = c.full;
    config.num_threads = c.threads;
    config.num_shards = c.threads == 0 ? 0 : 5;
    return config;
  }
  static LiteralMatcherFactory FactoryFor(const KernelCase& c) {
    return c.fuzzy ? FuzzyMatcherFactory(0.7) : IdentityMatcherFactory();
  }
};

TEST_P(InstanceKernelTest, RowsEqualTheReferenceEveryIteration) {
  const auto& [kernel_case, seed] = GetParam();
  const KernelPair pair(seed, 150);
  ASSERT_GT(pair.right().FactsAbout(*pair.right().pool().Find(
                "yes", rdf::TermKind::kLiteral)).size(),
            kFanout);
  const AlignmentConfig config = ConfigFor(kernel_case);
  const LiteralMatcherFactory factory = FactoryFor(kernel_case);
  const KernelRun run = RunKernel(pair, config, factory);
  ASSERT_GE(run.result.iterations.size(), 2u);
  const Reference work =
      CheckAgainstReference(pair, config, factory, run.result);

  EXPECT_GT(work.later_rows, 0u) << "no row compared after iteration 1";

  // The kernel's facts read and passed over add up to the reference's
  // visits; it creates no key the reference lacks, and prunes some.
  const uint64_t visited =
      CounterOf(run.metrics, "instance.neighbor_facts_visited");
  const uint64_t skipped =
      CounterOf(run.metrics, "instance.neighbor_facts_skipped");
  EXPECT_EQ(visited + skipped, work.visits);
  EXPECT_GT(skipped, 0u);
  const uint64_t keys = CounterOf(run.metrics, "instance.keys_created");
  EXPECT_LT(keys, work.keys);
  EXPECT_GT(keys, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InstanceKernelTest,
    ::testing::Combine(
        ::testing::Values(KernelCase{"positive"},
                          KernelCase{"negative", true},
                          KernelCase{"full", false, true},
                          KernelCase{"full_negative", true, true},
                          KernelCase{"threads3", false, false, 3},
                          KernelCase{"threads3_negative", true, false, 3},
                          KernelCase{"fuzzy", false, false, 0, true}),
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

class InstanceKernelThresholdTest : public InstanceKernelTest {};

// τ at a stored probability keeps that candidate, one ulp above drops it,
// and in both runs every row equals the reference's.
TEST_P(InstanceKernelThresholdTest, ThresholdAtAStoredProbability) {
  const auto& [kernel_case, seed] = GetParam();
  const KernelPair pair(seed, 150);
  AlignmentConfig config = ConfigFor(kernel_case);
  config.max_iterations = 3;
  const LiteralMatcherFactory factory = FactoryFor(kernel_case);
  const AlignmentResult base = RunKernel(pair, config, factory).result;
  ASSERT_FALSE(base.iterations.empty());

  // Iteration 1 depends on τ only through its filter, so each probability
  // it stored must survive at τ = s and fall one ulp above.
  std::vector<std::pair<rdf::TermId, Candidate>> stored;
  base.iterations[0].instances.ForEachMaxOfLeft(
      [&](rdf::TermId x, const Candidate&) {
        for (const Candidate& c : base.iterations[0].instances.LeftToRight(x)) {
          stored.emplace_back(x, c);
        }
      });
  ASSERT_GE(stored.size(), 3u);
  std::sort(stored.begin(), stored.end(), [](const auto& a, const auto& b) {
    return a.second.prob < b.second.prob;
  });
  // The lowest, a middle one and the highest below 1.
  std::vector<std::pair<rdf::TermId, Candidate>> picks = {
      stored.front(), stored[stored.size() / 2]};
  for (auto it = stored.rbegin(); it != stored.rend(); ++it) {
    if (it->second.prob < 1.0) {
      picks.push_back(*it);
      break;
    }
  }
  for (const auto& [x, candidate] : picks) {
    const double s = candidate.prob;
    for (const double tau : {s, std::nextafter(s, 2.0)}) {
      AlignmentConfig at = config;
      at.instance_threshold = tau;
      const AlignmentResult result = RunKernel(pair, at, factory).result;
      ASSERT_FALSE(result.iterations.empty());
      const auto row = result.iterations[0].instances.LeftToRight(x);
      const bool kept =
          std::any_of(row.begin(), row.end(), [&](const Candidate& c) {
            return c.other == candidate.other && SameBits(c.prob, s);
          });
      EXPECT_EQ(kept, tau == s) << "s=" << s << " tau=" << tau;
      CheckAgainstReference(pair, at, factory, result);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InstanceKernelThresholdTest,
    ::testing::Combine(::testing::Values(KernelCase{"positive"},
                                         KernelCase{"negative", true}),
                       ::testing::Values(uint64_t{1}, uint64_t{2})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace paris::core
