#ifndef PARIS_EVAL_METRICS_H_
#define PARIS_EVAL_METRICS_H_

#include <cstddef>
#include <functional>

#include "paris/core/class_align.h"
#include "paris/core/equiv.h"
#include "paris/core/relation_scores.h"
#include "paris/synth/derive.h"

namespace paris::eval {

// Precision / recall / F1 with raw counts, evaluated exactly as §6.1 of the
// paper: only the maximal assignment counts, and the probability score is
// ignored.
struct PrecisionRecall {
  size_t predicted = 0;  // left entities with a maximal assignment
  size_t correct = 0;    // ... whose assignment is the gold counterpart
  size_t gold = 0;       // gold pairs (recall denominator)

  double precision() const {
    return predicted == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(predicted);
  }
  double recall() const {
    return gold == 0 ? 0.0
                     : static_cast<double>(correct) /
                           static_cast<double>(gold);
  }
  double f1() const {
    const double p = precision();
    const double r = recall();
    return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

// Scores the maximal assignment of a finalized equivalence store (left
// instance → best candidate) against the derived gold standard. A
// prediction for an instance without a gold counterpart is a false
// positive.
PrecisionRecall EvaluateInstances(const core::InstanceEquivalences& equiv,
                                  const synth::DerivedGold& gold);

// Restricted to left instances for which `include_left` is true (both the
// predictions and the gold denominator are filtered). Used for the paper's
// "entities with more than 10 facts" breakdown (§6.4).
PrecisionRecall EvaluateInstancesFiltered(
    const core::InstanceEquivalences& equiv, const synth::DerivedGold& gold,
    const std::function<bool(rdf::TermId)>& include_left);

// ---- Relations (manual evaluation in the paper; derived gold here) ----

struct AssignmentEval {
  size_t assigned = 0;   // sub items with a maximal assignment ≥ threshold
  size_t correct = 0;    // ... whose assignment is a true containment
  size_t alignable = 0;  // sub items with some true containment (recall den.)

  double precision() const {
    return assigned == 0 ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(assigned);
  }
  double recall() const {
    return alignable == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(alignable);
  }
};

// Evaluates the maximally-assigned super-relation of every (positive)
// relation of one side, as the paper does ("we consider only the maximally
// assigned relation").
AssignmentEval EvaluateRelations(const core::RelationScores& scores,
                                 const synth::DerivedGold& gold,
                                 bool sub_is_left, double threshold);

// Evaluates the maximally-assigned super-class of every class of one side
// (the Table 1 class metric).
AssignmentEval EvaluateClassesMaximal(const core::ClassScores& scores,
                                      const synth::DerivedGold& gold,
                                      bool sub_is_left, double threshold);

// All class-alignment entries of one direction above `threshold`:
// count + precision (the Figure 1 quantity).
struct ClassEntriesEval {
  size_t entries = 0;
  size_t correct = 0;
  size_t aligned_subclasses = 0;  // distinct sub classes (Figure 2 quantity)

  double precision() const {
    return entries == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(entries);
  }
};

ClassEntriesEval EvaluateClassEntries(const core::ClassScores& scores,
                                      const synth::DerivedGold& gold,
                                      bool sub_is_left, double threshold);

}  // namespace paris::eval

#endif  // PARIS_EVAL_METRICS_H_
