#ifndef PARIS_ONTOLOGY_FUNCTIONALITY_H_
#define PARIS_ONTOLOGY_FUNCTIONALITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "paris/rdf/store.h"
#include "paris/rdf/triple.h"

namespace paris::ontology {

// The global-functionality definitions discussed in Appendix A of the paper.
// `kHarmonicMean` (alternatives 4/5, which coincide) is the paper's choice
// and this library's default; the others exist for the ablation benchmark.
enum class FunctionalityVariant {
  // fun(r) = #x∃y:r(x,y) / #(x,y):r(x,y)  — harmonic mean of local
  // functionalities (Eq. 2).
  kHarmonicMean = 0,
  // Alternative 1: #(x,y) / #(x,y,y'): volatile to high-degree sources.
  kStatementPairRatio = 1,
  // Alternative 2: #distinct first args / #distinct second args (clamped to
  // [0,1]); the treacherous "likesDish" definition.
  kArgumentRatio = 2,
  // Alternative 3: arithmetic mean of the local functionalities.
  kArithmeticMean = 3,
};

// Degree statistics of one relation direction, sufficient to evaluate every
// variant in O(1).
struct DirectionStats {
  size_t num_pairs = 0;             // #(x,y) : r(x,y)
  size_t num_distinct_firsts = 0;   // #x ∃y : r(x,y)
  size_t num_distinct_seconds = 0;  // #y ∃x : r(x,y)
  double sum_inverse_degree = 0.0;  // Σ_x 1/#y:r(x,y)
  double sum_squared_degree = 0.0;  // Σ_x (#y:r(x,y))² = #(x,y,y')
};

// Precomputed functionalities for every signed relation of one store. Per
// §5.1 of the paper, functionalities are computed once per ontology upfront
// (the no-duplicates-within-one-ontology assumption makes them constant).
class FunctionalityTable {
 public:
  // Computes statistics for every relation of the (finalized) store.
  explicit FunctionalityTable(const rdf::TripleStore& store);

  // Brings the table up to date after `store` gained pairs: recomputes the
  // statistics of `relations` (the relations that gained pairs) and adds
  // those of relations registered since. A relation's statistics depend
  // only on its own pairs, so the result equals a freshly built table.
  void Update(const rdf::TripleStore& store,
              std::span<const rdf::RelId> relations);

  // Global functionality of `rel` (which may be an inverse id) under
  // `variant`. Always in [0, 1]; relations with no pairs report 0.
  double Global(rdf::RelId rel, FunctionalityVariant variant =
                                    FunctionalityVariant::kHarmonicMean) const;

  // Global inverse functionality: fun⁻¹(r) = fun(r⁻¹).
  double GlobalInverse(rdf::RelId rel,
                       FunctionalityVariant variant =
                           FunctionalityVariant::kHarmonicMean) const {
    return Global(rdf::Inverse(rel), variant);
  }

  // The raw statistics of `rel`'s direction.
  const DirectionStats& Stats(rdf::RelId rel) const;

  // Local functionality fun(r, x) = 1 / #y : r(x, y), from the live store.
  static double Local(const rdf::TripleStore& store, rdf::RelId rel,
                      rdf::TermId x);

 private:
  // Fills both directions of one base relation from its pairs.
  void Compute(const rdf::TripleStore& store, size_t base);

  // stats_[2*(base-1)] = forward direction, stats_[2*(base-1)+1] = inverse.
  std::vector<DirectionStats> stats_;
};

// Evaluates a variant from direction statistics (exposed for tests).
double EvaluateFunctionality(const DirectionStats& stats,
                             FunctionalityVariant variant);

}  // namespace paris::ontology

#endif  // PARIS_ONTOLOGY_FUNCTIONALITY_H_
