// The packed store's read accessors are allocation-free
// (storage/columnar_index.h). This binary replaces the global operator new
// with a counting one and asserts that loops of FactsAbout / ObjectsOf /
// Contains lookups make no heap allocation, on a freshly built store and on
// one whose columns alias an mmap'ed snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/store.h"
#include "paris/synth/profiles.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replacements are kept out of line: inlined at a new-expression,
// free() on the result of operator new draws -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace paris {
namespace {

// One (term, relation) probe per term that has facts: the relation of the
// middle fact of its slice, so every probe hits data.
std::vector<std::pair<rdf::TermId, rdf::RelId>> Probes(
    const rdf::TripleStore& store) {
  std::vector<std::pair<rdf::TermId, rdf::RelId>> probes;
  for (const rdf::TermId t : store.terms()) {
    const auto facts = store.FactsAbout(t);
    if (!facts.empty()) probes.emplace_back(t, facts[facts.size() / 2].rel);
  }
  return probes;
}

// Heap allocations made by three rounds of lookups over every probe. The
// returned checksum keeps the lookups observable.
uint64_t AllocationsPerLookupLoop(const rdf::TripleStore& store,
                                  uint64_t* checksum) {
  const auto probes = Probes(store);
  EXPECT_FALSE(probes.empty());
  const uint64_t before = g_allocations.load();
  for (int round = 0; round < 3; ++round) {
    for (const auto& [term, rel] : probes) {
      *checksum += store.FactsAbout(term).size();
      *checksum += store.FactsAbout(term, rel).size();
      const auto objects = store.ObjectsOf(term, rel);
      *checksum += objects.size();
      *checksum += store.Contains(term, rel, objects.front()) ? 1 : 0;
      *checksum += store.Contains(term, rel, term) ? 1 : 0;
    }
  }
  return g_allocations.load() - before;
}

class LookupAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::ProfileOptions options;
    options.scale = 0.3;
    auto built = synth::MakeYagoDbpediaPair(options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    pair_ = new synth::OntologyPair(std::move(built).value());
  }
  static void TearDownTestSuite() {
    delete pair_;
    pair_ = nullptr;
  }

  static synth::OntologyPair* pair_;
};

synth::OntologyPair* LookupAllocTest::pair_ = nullptr;

TEST_F(LookupAllocTest, CounterSeesAllocations) {
  const uint64_t before = g_allocations.load();
  void* volatile p = ::operator new(64);
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST_F(LookupAllocTest, BuiltStoreLookupsDoNotAllocate) {
  uint64_t checksum = 0;
  EXPECT_EQ(AllocationsPerLookupLoop(pair_->left->store(), &checksum), 0u);
  EXPECT_EQ(AllocationsPerLookupLoop(pair_->right->store(), &checksum), 0u);
  EXPECT_GT(checksum, 0u);
}

TEST_F(LookupAllocTest, MmapLoadedStoreLookupsDoNotAllocate) {
  const std::string path = ::testing::TempDir() + "/lookup_alloc.snap";
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *pair_->left,
                                              *pair_->right)
                  .ok());
  rdf::TermPool pool;
  auto loaded = ontology::LoadAlignmentSnapshot(
      path, &pool, ontology::SnapshotLoadMode::kMmap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->left.store().index().zero_copy());
  uint64_t checksum = 0;
  EXPECT_EQ(AllocationsPerLookupLoop(loaded->left.store(), &checksum), 0u);
  EXPECT_EQ(AllocationsPerLookupLoop(loaded->right.store(), &checksum), 0u);
  EXPECT_GT(checksum, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace paris
