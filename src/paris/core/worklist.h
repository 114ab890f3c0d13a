#ifndef PARIS_CORE_WORKLIST_H_
#define PARIS_CORE_WORKLIST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "paris/core/equiv.h"
#include "paris/core/literal_match.h"
#include "paris/core/relation_scores.h"
#include "paris/ontology/ontology.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"

namespace paris::core {

// The semi-naive dirty sets of one fixpoint iteration: which left instances
// the instance pass must recompute and which relations the relation pass
// must re-score; everything else reuses its retained output from the
// previous *same-parity* iteration (two back — see SemiNaiveTracker). An
// inactive flag means "recompute everything" (the exhaustive baseline). The
// sets are dense bitmaps over the passes' item spaces — instance index i of
// `Ontology::instances()`, base relation id r at slot r-1 — so skipping
// never perturbs item order: a semi-naive run visits the same shards,
// merges in the same ascending order, and (because a slot is reused only
// when every one of its inputs is bit-identical to the iteration whose
// output it reuses) produces output byte-identical to the exhaustive run.
struct SemiNaiveWorklist {
  bool instances_active = false;
  std::vector<uint8_t> dirty_instances;  // by left-instance position
  size_t num_dirty_instances = 0;

  bool relations_active = false;
  std::vector<uint8_t> dirty_left_rels;   // by base rel id - 1 (left)
  std::vector<uint8_t> dirty_right_rels;  // by base rel id - 1 (right)
  size_t num_dirty_relations = 0;

  void Reset() { *this = SemiNaiveWorklist{}; }

  bool InstanceDirty(size_t index) const {
    return !instances_active || dirty_instances[index] != 0;
  }
  bool LeftRelDirty(rdf::RelId base) const {
    return !relations_active ||
           dirty_left_rels[static_cast<size_t>(base) - 1] != 0;
  }
  bool RightRelDirty(rdf::RelId base) const {
    return !relations_active ||
           dirty_right_rels[static_cast<size_t>(base) - 1] != 0;
  }
};

// Builds the worklists by diffing *same-parity* fixpoint states — iteration
// k against iteration k-2, not k-1. In floating point the attractor of the
// fixpoint is an exact cycle of period 1 or 2 (the maximal-assignment
// oscillation of §5.2 survives in the low mantissa bits long after the
// assignments themselves stabilize), and a consecutive-state diff never
// goes empty against a 2-cycle: comparing two-back drains the worklist on
// both attractor shapes. The passes retain their outputs in two alternating
// generations to match (see InstancePass). Owned by the Aligner; every
// method runs in the serial phase between passes.
//
// The dirty criteria mirror exactly what each pass reads:
//  * An instance pass slot for left instance x depends on x's own packed
//    statements, the equivalence views of x's fact neighbors (through
//    `DirectionalContext::AppendEquivalents`), the target's packed
//    statements, and the score entries whose left-side relation is one of
//    x's fact relations. Within a run the stores are immutable, so x is
//    dirty iff a neighbor's view moved or an incident relation re-scored.
//  * A relation pass item for relation r depends on r's (static) pair
//    sample and the views of the pair components, so r is dirty iff a term
//    with a statement of r moved its view.
// Both criteria over-approximate (a moved neighbor might not change the
// final candidate list), which costs recomputation but never correctness.
class SemiNaiveTracker {
 public:
  SemiNaiveTracker(const ontology::Ontology& left,
                   const ontology::Ontology& right);

  // Forgets all observed diffs (start of a run or resume; worklists seeded
  // from a forgotten state must not survive).
  void Reset();

  // Records which terms' candidate lists differ between the equivalence
  // stores of same-parity iterations (`before` = two iterations back). Both
  // must be finalized.
  void ObserveInstances(const InstanceEquivalences& before,
                        const InstanceEquivalences& after);

  // Records which left base relations' score entries differ between
  // same-parity score tables. A bootstrap table is incomparable: the next
  // SeedInstanceWorklist stays inactive (exhaustive).
  void ObserveScores(const RelationScores& before, const RelationScores& after);

  // True iff two *consecutive* states are bit-identical — the run sits on
  // an exact period-1 fixpoint, so every later iteration reproduces this
  // state byte-for-byte and the fixpoint loop may stop early without
  // changing the final output. False when either score table is a
  // θ-bootstrap (incomparable). A period-2 lock never satisfies this:
  // stopping there would drop the dependence of the exhaustive output on
  // the parity of the iteration cap.
  bool ExactFixpoint(const InstanceEquivalences& prev,
                     const InstanceEquivalences& current,
                     const RelationScores& prev_scores,
                     const RelationScores& current_scores) const;

  // Fills the relation-pass dirty sets of the *current* iteration from the
  // last ObserveInstances. Inactive if no instance diff was observed.
  void SeedRelationWorklist(SemiNaiveWorklist* wl) const;

  // Fills the instance-pass dirty set of the *next* iteration from the last
  // ObserveInstances + ObserveScores. Inactive unless both were observed.
  void SeedInstanceWorklist(SemiNaiveWorklist* wl) const;

  // Fills the first-iteration instance dirty set of an incremental
  // re-alignment from a delta's structural cone: every marked left term and
  // its fact neighbors (their packed statements changed), plus — for each
  // touched right term — the left instances whose expansions reach it (its
  // known counterparts under `base` and, for literals, the left literals
  // `matcher_r2l` maps to it) and their fact neighbors. Global-functionality
  // drift from the delta is deliberately *not* part of the cone: it is
  // second-order in the delta size, and chasing it would mark every member
  // of every touched relation (for a uniform delta, the whole ontology).
  // A seeded re-alignment therefore warm-starts the fixpoint rather than
  // replaying the cold run bit-for-bit; see Aligner::Realign.
  void SeedRealignInstanceWorklist(const InstanceEquivalences& base,
                                   const LiteralMatcher* matcher_r2l,
                                   std::span<const rdf::TermId> left_touched,
                                   std::span<const rdf::TermId> right_touched,
                                   SemiNaiveWorklist* wl) const;

  size_t num_changed_left_terms() const { return changed_left_.size(); }
  size_t num_changed_right_terms() const { return changed_right_.size(); }
  size_t num_changed_relations() const { return changed_left_rels_.size(); }

 private:
  void MarkInstance(rdf::TermId t, SemiNaiveWorklist* wl) const;
  // Marks t and every left instance adjacent to one of t's statements.
  void MarkInstanceAndNeighbors(rdf::TermId t, SemiNaiveWorklist* wl) const;

  const ontology::Ontology& left_;
  const ontology::Ontology& right_;

  bool have_instance_diff_ = false;
  bool have_score_diff_ = false;
  std::vector<rdf::TermId> changed_left_;
  std::vector<rdf::TermId> changed_right_;
  std::vector<rdf::RelId> changed_left_rels_;  // positive base ids
};

}  // namespace paris::core

#endif  // PARIS_CORE_WORKLIST_H_
