#include "paris/ontology/functionality.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace paris::ontology {

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

FunctionalityTable::FunctionalityTable(const rdf::TripleStore& store)
    : stats_(2 * store.num_relations()) {
  assert(store.finalized());
  // The integer sums are exact; the 1/n sum runs in local term order.
  store.index().ForEachRun([&](rdf::RelId rel, uint64_t n) {
    DirectionStats& stats = stats_[Slot(rel)];
    const double degree = static_cast<double>(n);
    stats.num_pairs += n;
    ++stats.num_distinct_firsts;
    stats.sum_inverse_degree += 1.0 / degree;
    stats.sum_squared_degree += degree * degree;
  });
  for (size_t i = 0; i < stats_.size(); ++i) {
    stats_[i].num_distinct_seconds = stats_[i ^ 1].num_distinct_firsts;
  }
}

const DirectionStats& FunctionalityTable::Stats(rdf::RelId rel) const {
  assert(rdf::BaseRel(rel) >= 1 && Slot(rel) < stats_.size());
  return stats_[Slot(rel)];
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
