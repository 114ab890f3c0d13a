#include "paris/ontology/functionality.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace paris::ontology {

namespace {

DirectionStats ComputeDirection(std::span<const rdf::TermPair> pairs,
                                bool inverted) {
  DirectionStats stats;
  stats.num_pairs = pairs.size();
  std::unordered_map<rdf::TermId, size_t> first_degree;
  std::unordered_map<rdf::TermId, size_t> second_seen;
  first_degree.reserve(pairs.size());
  for (const auto& p : pairs) {
    const rdf::TermId first = inverted ? p.second : p.first;
    const rdf::TermId second = inverted ? p.first : p.second;
    ++first_degree[first];
    second_seen.emplace(second, 0);
  }
  stats.num_distinct_firsts = first_degree.size();
  stats.num_distinct_seconds = second_seen.size();
  for (const auto& entry : first_degree) {
    const double degree = static_cast<double>(entry.second);
    stats.sum_inverse_degree += 1.0 / degree;
    stats.sum_squared_degree += degree * degree;
  }
  return stats;
}

}  // namespace

double EvaluateFunctionality(const DirectionStats& stats,
                             FunctionalityVariant variant) {
  if (stats.num_pairs == 0) return 0.0;
  double value = 0.0;
  switch (variant) {
    case FunctionalityVariant::kHarmonicMean:
      value = static_cast<double>(stats.num_distinct_firsts) /
              static_cast<double>(stats.num_pairs);
      break;
    case FunctionalityVariant::kStatementPairRatio:
      value = static_cast<double>(stats.num_pairs) / stats.sum_squared_degree;
      break;
    case FunctionalityVariant::kArgumentRatio:
      value = static_cast<double>(stats.num_distinct_firsts) /
              static_cast<double>(stats.num_distinct_seconds);
      break;
    case FunctionalityVariant::kArithmeticMean:
      value = stats.sum_inverse_degree /
              static_cast<double>(stats.num_distinct_firsts);
      break;
  }
  return std::clamp(value, 0.0, 1.0);
}

FunctionalityTable::FunctionalityTable(const rdf::TripleStore& store) {
  assert(store.finalized());
  stats_.resize(2 * store.num_relations());
  for (size_t base = 1; base <= store.num_relations(); ++base) {
    Compute(store, base);
  }
}

void FunctionalityTable::Update(const rdf::TripleStore& store,
                                std::span<const rdf::RelId> relations) {
  assert(store.finalized());
  const size_t known = stats_.size() / 2;
  stats_.resize(2 * store.num_relations());
  for (const rdf::RelId rel : relations) {
    Compute(store, static_cast<size_t>(rdf::BaseRel(rel)));
  }
  for (size_t base = known + 1; base <= store.num_relations(); ++base) {
    Compute(store, base);
  }
}

void FunctionalityTable::Compute(const rdf::TripleStore& store, size_t base) {
  const auto pairs = store.PairsOf(static_cast<rdf::RelId>(base));
  stats_[2 * (base - 1)] = ComputeDirection(pairs, /*inverted=*/false);
  stats_[2 * (base - 1) + 1] = ComputeDirection(pairs, /*inverted=*/true);
}

const DirectionStats& FunctionalityTable::Stats(rdf::RelId rel) const {
  const size_t base = static_cast<size_t>(rdf::BaseRel(rel));
  assert(base >= 1 && 2 * (base - 1) < stats_.size());
  return stats_[2 * (base - 1) + (rdf::IsInverse(rel) ? 1 : 0)];
}

double FunctionalityTable::Global(rdf::RelId rel,
                                  FunctionalityVariant variant) const {
  return EvaluateFunctionality(Stats(rel), variant);
}

double FunctionalityTable::Local(const rdf::TripleStore& store, rdf::RelId rel,
                                 rdf::TermId x) {
  const size_t degree = store.ObjectsOf(x, rel).size();
  if (degree == 0) return 0.0;
  return 1.0 / static_cast<double>(degree);
}

}  // namespace paris::ontology
