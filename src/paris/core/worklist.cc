#include "paris/core/worklist.h"

#include <algorithm>

namespace paris::core {

SemiNaiveTracker::SemiNaiveTracker(const ontology::Ontology& left,
                                   const ontology::Ontology& right)
    : left_(left), right_(right) {}

void SemiNaiveTracker::Reset() {
  have_instance_diff_ = false;
  have_score_diff_ = false;
  changed_left_.clear();
  changed_right_.clear();
  changed_left_rels_.clear();
}

void SemiNaiveTracker::ObserveInstances(const InstanceEquivalences& before,
                                        const InstanceEquivalences& after) {
  changed_left_.clear();
  changed_right_.clear();
  before.DiffLeftTerms(after, &changed_left_);
  before.DiffRightTerms(after, &changed_right_);
  have_instance_diff_ = true;
}

void SemiNaiveTracker::ObserveScores(const RelationScores& before,
                                     const RelationScores& after) {
  changed_left_rels_.clear();
  if (before.bootstrap() || after.bootstrap()) {
    have_score_diff_ = false;
    return;
  }
  before.DiffLeftRelations(after, &changed_left_rels_);
  have_score_diff_ = true;
}

bool SemiNaiveTracker::ExactFixpoint(
    const InstanceEquivalences& prev, const InstanceEquivalences& current,
    const RelationScores& prev_scores,
    const RelationScores& current_scores) const {
  if (prev_scores.bootstrap() || current_scores.bootstrap()) return false;
  std::vector<rdf::TermId> terms;
  prev.DiffLeftTerms(current, &terms);
  if (!terms.empty()) return false;
  prev.DiffRightTerms(current, &terms);
  if (!terms.empty()) return false;
  std::vector<rdf::RelId> rels;
  prev_scores.DiffLeftRelations(current_scores, &rels);
  return rels.empty();
}

void SemiNaiveTracker::SeedRelationWorklist(SemiNaiveWorklist* wl) const {
  wl->relations_active = false;
  wl->num_dirty_relations = 0;
  if (!have_instance_diff_) return;
  wl->dirty_left_rels.assign(left_.num_relations(), 0);
  wl->dirty_right_rels.assign(right_.num_relations(), 0);
  auto mark = [wl](const ontology::Ontology& onto,
                   std::span<const rdf::TermId> terms,
                   std::vector<uint8_t>& bits) {
    for (rdf::TermId t : terms) {
      for (const rdf::Fact& f : onto.FactsAbout(t)) {
        const size_t slot = static_cast<size_t>(rdf::BaseRel(f.rel)) - 1;
        if (bits[slot] == 0) {
          bits[slot] = 1;
          ++wl->num_dirty_relations;
        }
      }
    }
  };
  mark(left_, changed_left_, wl->dirty_left_rels);
  mark(right_, changed_right_, wl->dirty_right_rels);
  wl->relations_active = true;
}

void SemiNaiveTracker::MarkInstance(rdf::TermId t,
                                    SemiNaiveWorklist* wl) const {
  const uint32_t position = left_.InstancePosition(t);
  // A literal, a class or a right-only term.
  if (position == ontology::Ontology::kNoInstance) return;
  if (wl->dirty_instances[position] == 0) {
    wl->dirty_instances[position] = 1;
    ++wl->num_dirty_instances;
  }
}

void SemiNaiveTracker::MarkInstanceAndNeighbors(rdf::TermId t,
                                                SemiNaiveWorklist* wl) const {
  MarkInstance(t, wl);
  for (const rdf::Fact& f : left_.FactsAbout(t)) MarkInstance(f.other, wl);
}

void SemiNaiveTracker::SeedInstanceWorklist(SemiNaiveWorklist* wl) const {
  wl->instances_active = false;
  wl->num_dirty_instances = 0;
  if (!have_instance_diff_ || !have_score_diff_) return;
  wl->dirty_instances.assign(left_.instances().size(), 0);
  // (a) A fact neighbor's equivalence view moved. Inverse statements are
  // materialized, so FactsAbout(t) reaches t's neighbors in both argument
  // positions — adjacency is symmetric and "neighbors of changed terms"
  // covers "instances with a changed neighbor".
  for (rdf::TermId t : changed_left_) {
    for (const rdf::Fact& f : left_.FactsAbout(t)) MarkInstance(f.other, wl);
  }
  // (b) An incident relation re-scored: every member of the relation reads
  // its entries.
  for (rdf::RelId rel : changed_left_rels_) {
    for (const rdf::TermPair& p : left_.store().PairsOf(rel)) {
      MarkInstance(p.first, wl);
      MarkInstance(p.second, wl);
    }
  }
  wl->instances_active = true;
}

void SemiNaiveTracker::SeedRealignInstanceWorklist(
    const InstanceEquivalences& base, const LiteralMatcher* matcher_r2l,
    std::span<const rdf::TermId> left_touched,
    std::span<const rdf::TermId> right_touched, SemiNaiveWorklist* wl) const {
  wl->dirty_instances.assign(left_.instances().size(), 0);
  wl->num_dirty_instances = 0;
  // Left cone: a touched term's packed statements changed; the term itself
  // and every neighbor reads them during expansion.
  for (rdf::TermId t : left_touched) MarkInstanceAndNeighbors(t, wl);
  // Right cone: a touched right term's packed statements changed; the left
  // instances whose expansions reach it are its known counterparts (and the
  // left literals the matcher maps to it), and evidence flows from there to
  // their fact neighbors.
  std::vector<Candidate> scratch;
  for (rdf::TermId z : right_touched) {
    for (const Candidate& c : base.RightToLeft(z)) {
      MarkInstanceAndNeighbors(c.other, wl);
    }
    if (matcher_r2l != nullptr && right_.pool().IsLiteral(z)) {
      scratch.clear();
      matcher_r2l->Match(z, &scratch);
      for (const Candidate& c : scratch) MarkInstanceAndNeighbors(c.other, wl);
    }
  }
  wl->instances_active = true;
}

}  // namespace paris::core
