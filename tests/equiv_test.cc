#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "paris/core/equiv.h"
#include "paris/storage/snapshot.h"

namespace paris::core {
namespace {

using rdf::TermId;
using Row = std::vector<Candidate>;

TEST(EquivTest, EmptyStoreFinalizes) {
  InstanceEquivalences eq;
  eq.Finalize();
  EXPECT_TRUE(eq.finalized());
  EXPECT_EQ(eq.num_left_aligned(), 0u);
  EXPECT_TRUE(eq.LeftToRight(1).empty());
  EXPECT_TRUE(eq.RightToLeft(1).empty());
  EXPECT_EQ(eq.MaxOfLeft(1), nullptr);
  EXPECT_EQ(eq.MaxOfRight(1), nullptr);
}

TEST(EquivTest, SetAndLookup) {
  InstanceEquivalences eq;
  eq.Set(1, Row{{10, 0.9}, {11, 0.5}});
  eq.Finalize();
  auto span = eq.LeftToRight(1);
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].other, 10u);
  EXPECT_DOUBLE_EQ(span[0].prob, 0.9);
  ASSERT_NE(eq.MaxOfLeft(1), nullptr);
  EXPECT_EQ(eq.MaxOfLeft(1)->other, 10u);
}

TEST(EquivTest, EmptyCandidateListIgnored) {
  InstanceEquivalences eq;
  eq.Set(1, Row{});
  eq.Finalize();
  EXPECT_EQ(eq.num_left_aligned(), 0u);
}

TEST(EquivTest, TransposeBuilt) {
  InstanceEquivalences eq;
  eq.Set(1, Row{{10, 0.9}});
  eq.Set(2, Row{{10, 0.95}, {11, 0.2}});
  eq.Finalize();
  auto back = eq.RightToLeft(10);
  ASSERT_EQ(back.size(), 2u);
  // Sorted by descending probability.
  EXPECT_EQ(back[0].other, 2u);
  EXPECT_DOUBLE_EQ(back[0].prob, 0.95);
  EXPECT_EQ(back[1].other, 1u);
  // Maximal assignment of right entity 10 is left entity 2.
  ASSERT_NE(eq.MaxOfRight(10), nullptr);
  EXPECT_EQ(eq.MaxOfRight(10)->other, 2u);
  ASSERT_NE(eq.MaxOfRight(11), nullptr);
  EXPECT_EQ(eq.MaxOfRight(11)->other, 2u);
}

TEST(EquivTest, TieBreakDeterministic) {
  InstanceEquivalences eq;
  // Equal probabilities: smallest id wins (ties broken "arbitrarily" but
  // deterministically, §4.2).
  eq.Set(1, Row{{10, 0.7}, {12, 0.7}});
  eq.Finalize();
  EXPECT_EQ(eq.MaxOfLeft(1)->other, 10u);
}

TEST(EquivTest, ChangeFractionEmptyToEmpty) {
  InstanceEquivalences a, b;
  a.Finalize();
  b.Finalize();
  EXPECT_DOUBLE_EQ(b.MaxAssignmentChangeFraction(a), 0.0);
}

TEST(EquivTest, ChangeFractionFirstIterationIsOne) {
  InstanceEquivalences prev;
  prev.Finalize();
  InstanceEquivalences cur;
  cur.Set(1, Row{{10, 0.9}});
  cur.Set(2, Row{{11, 0.9}});
  cur.Finalize();
  EXPECT_DOUBLE_EQ(cur.MaxAssignmentChangeFraction(prev), 1.0);
}

TEST(EquivTest, ChangeFractionStable) {
  InstanceEquivalences prev;
  prev.Set(1, Row{{10, 0.5}});
  prev.Finalize();
  InstanceEquivalences cur;
  cur.Set(1, Row{{10, 0.99}});  // same target, different prob → unchanged
  cur.Finalize();
  EXPECT_DOUBLE_EQ(cur.MaxAssignmentChangeFraction(prev), 0.0);
}

TEST(EquivTest, ChangeFractionPartial) {
  InstanceEquivalences prev;
  prev.Set(1, Row{{10, 0.5}});
  prev.Set(2, Row{{11, 0.5}});
  prev.Finalize();
  InstanceEquivalences cur;
  cur.Set(1, Row{{10, 0.5}});  // unchanged
  cur.Set(2, Row{{12, 0.5}});  // changed target
  cur.Set(3, Row{{13, 0.5}});  // new
  cur.Finalize();
  // Universe = {1,2,3}; changed = {2,3} → 2/3.
  EXPECT_NEAR(cur.MaxAssignmentChangeFraction(prev), 2.0 / 3.0, 1e-12);
}

TEST(EquivTest, ChangeFractionCountsDisappeared) {
  InstanceEquivalences prev;
  prev.Set(1, Row{{10, 0.5}});
  prev.Set(2, Row{{11, 0.5}});
  prev.Finalize();
  InstanceEquivalences cur;
  cur.Set(1, Row{{10, 0.5}});
  cur.Finalize();
  // Universe = {1, 2}; entity 2 lost its assignment → 1/2.
  EXPECT_DOUBLE_EQ(cur.MaxAssignmentChangeFraction(prev), 0.5);
}

// ---------------------------------------------------------------------------
// The flat store against a brute-force reference
// ---------------------------------------------------------------------------

bool Better(const Candidate& a, const Candidate& b) {
  return a.prob != b.prob ? a.prob > b.prob : a.other < b.other;
}

// What a store must answer, computed with ordered maps: the last non-empty
// Set per left term, and the transpose with every row in the total order.
struct Reference {
  std::map<TermId, Row> left;
  std::map<TermId, Row> right;

  void Set(TermId term, const Row& row) {
    if (!row.empty()) left[term] = row;
  }
  void Finalize() {
    right.clear();
    for (const auto& [term, row] : left) {
      for (const Candidate& c : row) right[c.other].push_back({term, c.prob});
    }
    for (auto& [term, row] : right) std::sort(row.begin(), row.end(), Better);
  }
};

// A store and its reference fed the same seeded Set sequence over a sparse
// id space: empty lists, terms set twice, and keys in no particular order.
struct RandomStore {
  InstanceEquivalences store;
  Reference reference;
};

Row RandomRow(std::mt19937& rng, TermId max_id) {
  std::uniform_int_distribution<int> length(0, 4);
  std::uniform_int_distribution<TermId> id(0, max_id);
  // Probabilities from a small grid, so equal probabilities (the id
  // tie-break) occur often.
  std::uniform_int_distribution<int> grid(1, 8);
  Row row;
  const int n = length(rng);
  for (int i = 0; i < n; ++i) {
    const TermId other = id(rng);
    const auto same = [other](const Candidate& c) { return c.other == other; };
    if (std::none_of(row.begin(), row.end(), same)) {
      row.push_back({other, grid(rng) / 8.0});
    }
  }
  std::sort(row.begin(), row.end(), Better);
  return row;
}

void FeedRandom(uint32_t seed, int num_sets, TermId max_id, RandomStore* out) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<TermId> id(0, max_id);
  std::vector<TermId> used;
  for (int i = 0; i < num_sets; ++i) {
    // One Set in four rewrites a term already set: the later list wins.
    const TermId term = !used.empty() && rng() % 4 == 0
                            ? used[rng() % used.size()]
                            : id(rng);
    used.push_back(term);
    const Row row = RandomRow(rng, max_id);
    out->store.Set(term, row);
    out->reference.Set(term, row);
  }
}

void Finalize(RandomStore* s) {
  s->store.Finalize();
  s->reference.Finalize();
}

void ExpectRow(std::span<const Candidate> got, const Row* want,
               const std::string& where) {
  if (want == nullptr) {
    EXPECT_TRUE(got.empty()) << where;
    return;
  }
  EXPECT_EQ(Row(got.begin(), got.end()), *want) << where;
}

const Row* Lookup(const std::map<TermId, Row>& rows, TermId term) {
  const auto it = rows.find(term);
  return it == rows.end() ? nullptr : &it->second;
}

void ExpectMatchesReference(const RandomStore& s, TermId max_id) {
  const InstanceEquivalences& eq = s.store;
  const Reference& ref = s.reference;
  EXPECT_EQ(eq.num_left_aligned(), ref.left.size());
  // Every id, including ids above every key on either side.
  for (TermId t = 0; t <= max_id + 70; ++t) {
    const std::string where = "term " + std::to_string(t);
    const Row* left = Lookup(ref.left, t);
    const Row* right = Lookup(ref.right, t);
    ExpectRow(eq.LeftToRight(t), left, "left " + where);
    ExpectRow(eq.RightToLeft(t), right, "right " + where);
    const Candidate* max_left = eq.MaxOfLeft(t);
    const Candidate* max_right = eq.MaxOfRight(t);
    ASSERT_EQ(max_left != nullptr, left != nullptr) << where;
    ASSERT_EQ(max_right != nullptr, right != nullptr) << where;
    if (left != nullptr) {
      EXPECT_EQ(*max_left, left->front()) << where;
    }
    if (right != nullptr) {
      EXPECT_EQ(*max_right, right->front()) << where;
    }
  }
  // The ordered walks visit (term, best) in ascending term order.
  using Walk = std::vector<std::pair<TermId, Candidate>>;
  Walk walked_left, walked_right, want_left, want_right;
  eq.ForEachMaxOfLeft([&](TermId t, const Candidate& best) {
    walked_left.emplace_back(t, best);
  });
  eq.ForEachMaxOfRight([&](TermId t, const Candidate& best) {
    walked_right.emplace_back(t, best);
  });
  for (const auto& [t, row] : ref.left) want_left.emplace_back(t, row.front());
  for (const auto& [t, row] : ref.right) {
    want_right.emplace_back(t, row.front());
  }
  EXPECT_EQ(walked_left, want_left);
  EXPECT_EQ(walked_right, want_right);
}

std::vector<TermId> ReferenceDiff(const std::map<TermId, Row>& a,
                                  const std::map<TermId, Row>& b) {
  std::vector<TermId> out;
  for (const auto& [t, row] : a) {
    const Row* other = Lookup(b, t);
    if (other == nullptr || *other != row) out.push_back(t);
  }
  for (const auto& [t, row] : b) {
    if (!a.contains(t)) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double ReferenceChangeFraction(const Reference& cur, const Reference& prev) {
  size_t universe = 0;
  size_t changed = 0;
  for (const auto& [t, row] : cur.left) {
    ++universe;
    const Row* before = Lookup(prev.left, t);
    if (before == nullptr || before->front().other != row.front().other) {
      ++changed;
    }
  }
  for (const auto& [t, row] : prev.left) {
    if (!cur.left.contains(t)) {
      ++universe;
      ++changed;
    }
  }
  return universe == 0 ? 0.0 : double(changed) / double(universe);
}

TEST(EquivReferenceTest, LookupsAndWalksMatchReference) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TermId max_id = 40 + 37 * seed;  // sparse: ~1 key per 3 ids
    RandomStore s;
    FeedRandom(seed, static_cast<int>(max_id / 3), max_id, &s);
    Finalize(&s);
    ExpectMatchesReference(s, max_id);
  }
}

TEST(EquivReferenceTest, DiffsAndChangeFractionMatchReference) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TermId max_id = 200;
    // Two stores sharing a prefix of Set calls, so they share some rows
    // exactly and differ in others (rewritten, added, or only in one).
    RandomStore a;
    RandomStore b;
    FeedRandom(seed, 40, max_id, &a);
    FeedRandom(seed, 40, max_id, &b);
    FeedRandom(seed + 1000, 15, max_id, &a);
    FeedRandom(seed + 2000, 15, max_id, &b);
    Finalize(&a);
    Finalize(&b);
    ExpectMatchesReference(a, max_id);
    ExpectMatchesReference(b, max_id);

    std::vector<TermId> left_diff;
    std::vector<TermId> right_diff;
    a.store.DiffLeftTerms(b.store, &left_diff);
    a.store.DiffRightTerms(b.store, &right_diff);
    EXPECT_EQ(left_diff, ReferenceDiff(a.reference.left, b.reference.left));
    EXPECT_EQ(right_diff, ReferenceDiff(a.reference.right, b.reference.right));
    EXPECT_EQ(a.store.MaxAssignmentChangeFraction(b.store),
              ReferenceChangeFraction(a.reference, b.reference));
    EXPECT_EQ(b.store.MaxAssignmentChangeFraction(a.store),
              ReferenceChangeFraction(b.reference, a.reference));

    // A store diffs empty against itself and against a copy.
    const InstanceEquivalences copy = a.store;
    std::vector<TermId> none;
    a.store.DiffLeftTerms(copy, &none);
    a.store.DiffRightTerms(a.store, &none);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(a.store.MaxAssignmentChangeFraction(copy), 0.0);
  }
}

// Copies share tables; a copy taken before Finalize must not see later Set
// calls on the original, nor the original the copy's.
TEST(EquivReferenceTest, CopyBeforeFinalizeStaysIndependent) {
  InstanceEquivalences original;
  original.Set(5, Row{{50, 0.5}});
  InstanceEquivalences copy = original;
  original.Set(6, Row{{60, 0.6}});
  copy.Set(5, Row{{51, 0.9}});
  original.Finalize();
  copy.Finalize();
  ASSERT_NE(original.MaxOfLeft(5), nullptr);
  EXPECT_EQ(original.MaxOfLeft(5)->other, 50u);
  EXPECT_NE(original.MaxOfLeft(6), nullptr);
  EXPECT_EQ(original.num_left_aligned(), 2u);
  ASSERT_NE(copy.MaxOfLeft(5), nullptr);
  EXPECT_EQ(copy.MaxOfLeft(5)->other, 51u);
  EXPECT_EQ(copy.MaxOfLeft(6), nullptr);
  EXPECT_EQ(copy.num_left_aligned(), 1u);
  EXPECT_TRUE(copy.RightToLeft(50).empty());
  EXPECT_TRUE(original.RightToLeft(51).empty());
}

// The result-snapshot section round-trips every row, streamed and from a
// memory-backed (mmap-style) reader.
TEST(EquivReferenceTest, SnapshotSectionRoundTrips) {
  for (uint32_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TermId max_id = 300;
    RandomStore s;
    FeedRandom(seed, 120, max_id, &s);
    Finalize(&s);

    std::ostringstream raw;
    raw.write(storage::kSnapshotMagic, sizeof(storage::kSnapshotMagic));
    storage::SnapshotWriter writer(raw);
    SaveInstanceEquivalences(s.store, writer);
    const std::string bytes = raw.str();

    std::istringstream in(bytes.substr(sizeof(storage::kSnapshotMagic)));
    storage::SnapshotReader streamed(in);
    storage::SnapshotReader mapped(
        std::as_bytes(std::span(bytes.data(), bytes.size())));
    for (storage::SnapshotReader* reader : {&streamed, &mapped}) {
      auto loaded = LoadInstanceEquivalences(*reader, max_id + 1);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      RandomStore round_trip{std::move(loaded).value(), s.reference};
      ExpectMatchesReference(round_trip, max_id);
    }
  }
}

}  // namespace
}  // namespace paris::core
