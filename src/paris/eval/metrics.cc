#include "paris/eval/metrics.h"

#include <unordered_map>
#include <unordered_set>

namespace paris::eval {

PrecisionRecall EvaluateInstances(const core::InstanceEquivalences& equiv,
                                  const synth::DerivedGold& gold) {
  PrecisionRecall pr;
  pr.gold = gold.num_instance_pairs();
  equiv.ForEachMaxOfLeft([&](rdf::TermId left, const core::Candidate& best) {
    ++pr.predicted;
    if (gold.InstanceMatch(left, best.other)) ++pr.correct;
  });
  return pr;
}

PrecisionRecall EvaluateInstancesFiltered(
    const core::InstanceEquivalences& equiv, const synth::DerivedGold& gold,
    const std::function<bool(rdf::TermId)>& include_left) {
  PrecisionRecall pr;
  for (const auto& [left, right] : gold.left_to_right()) {
    if (include_left(left)) ++pr.gold;
  }
  equiv.ForEachMaxOfLeft([&](rdf::TermId left, const core::Candidate& best) {
    if (!include_left(left)) return;
    ++pr.predicted;
    if (gold.InstanceMatch(left, best.other)) ++pr.correct;
  });
  return pr;
}

AssignmentEval EvaluateRelations(const core::RelationScores& scores,
                                 const synth::DerivedGold& gold,
                                 bool sub_is_left, double threshold) {
  AssignmentEval eval;
  eval.alignable = gold.AlignableRelations(sub_is_left).size();

  // Best super per positive sub relation.
  std::unordered_map<rdf::RelId, core::RelationAlignmentEntry> best;
  for (const core::RelationAlignmentEntry& e : scores.Entries()) {
    if (e.sub_is_left != sub_is_left) continue;
    const rdf::RelId sub = rdf::BaseRel(e.sub);
    // Normalize the entry to a positive sub id (flip super with it).
    core::RelationAlignmentEntry norm = e;
    if (rdf::IsInverse(e.sub)) {
      norm.sub = sub;
      norm.super = rdf::Inverse(e.super);
    }
    auto it = best.find(sub);
    if (it == best.end() || norm.score > it->second.score) {
      best[sub] = norm;
    }
  }
  for (const auto& [sub, entry] : best) {
    if (entry.score < threshold) continue;
    ++eval.assigned;
    if (gold.RelationContained(sub_is_left, entry.sub, entry.super)) {
      ++eval.correct;
    }
  }
  return eval;
}

AssignmentEval EvaluateClassesMaximal(const core::ClassScores& scores,
                                      const synth::DerivedGold& gold,
                                      bool sub_is_left, double threshold) {
  AssignmentEval eval;
  eval.alignable = gold.AlignableClasses(sub_is_left).size();
  std::unordered_map<rdf::TermId, const core::ClassAlignmentEntry*> best;
  for (const core::ClassAlignmentEntry& e : scores.entries()) {
    if (e.sub_is_left != sub_is_left) continue;
    auto it = best.find(e.sub);
    if (it == best.end() || e.score > it->second->score) {
      best[e.sub] = &e;
    }
  }
  for (const auto& [sub, entry] : best) {
    if (entry->score < threshold) continue;
    ++eval.assigned;
    if (gold.ClassContained(sub_is_left, entry->sub, entry->super)) {
      ++eval.correct;
    }
  }
  return eval;
}

ClassEntriesEval EvaluateClassEntries(const core::ClassScores& scores,
                                      const synth::DerivedGold& gold,
                                      bool sub_is_left, double threshold) {
  ClassEntriesEval eval;
  std::unordered_set<rdf::TermId> subs;
  for (const core::ClassAlignmentEntry& e : scores.entries()) {
    if (e.sub_is_left != sub_is_left || e.score < threshold) continue;
    ++eval.entries;
    subs.insert(e.sub);
    if (gold.ClassContained(sub_is_left, e.sub, e.super)) ++eval.correct;
  }
  eval.aligned_subclasses = subs.size();
  return eval;
}

}  // namespace paris::eval
