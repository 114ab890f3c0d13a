#include "paris/core/equiv.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace paris::core {

const InstanceEquivalences::Tables& InstanceEquivalences::tables() const {
  static const Tables kEmpty;
  return tables_ != nullptr ? *tables_ : kEmpty;
}

InstanceEquivalences::Tables& InstanceEquivalences::MutableTables() {
  assert(!finalized_);
  if (tables_ == nullptr) {
    tables_ = std::make_shared<Tables>();
  } else if (tables_.use_count() > 1) {
    tables_ = std::make_shared<Tables>(*tables_);
  }
  return *tables_;
}

void InstanceEquivalences::Set(rdf::TermId left,
                               std::vector<Candidate> candidates) {
  assert(!finalized_);
  if (candidates.empty()) return;
  MutableTables().left_to_right[left] = std::move(candidates);
}

void InstanceEquivalences::Finalize() {
  assert(!finalized_);
  Tables& t = MutableTables();
  // Transpose.
  t.right_to_left.reserve(t.left_to_right.size());
  for (const auto& [left, candidates] : t.left_to_right) {
    for (const Candidate& c : candidates) {
      t.right_to_left[c.other].push_back(Candidate{left, c.prob});
    }
  }
  auto better = [](const Candidate& a, const Candidate& b) {
    return a.prob != b.prob ? a.prob > b.prob : a.other < b.other;
  };
  for (auto& [right, candidates] : t.right_to_left) {
    std::sort(candidates.begin(), candidates.end(), better);
  }
  // Maximal assignments (first element after sorting = deterministic
  // arbitrary tie-break, §4.2).
  t.max_left.reserve(t.left_to_right.size());
  t.max_right.reserve(t.right_to_left.size());
  for (const auto& [left, candidates] : t.left_to_right) {
    t.max_left.emplace(left, candidates.front());
  }
  for (const auto& [right, candidates] : t.right_to_left) {
    t.max_right.emplace(right, candidates.front());
  }
  finalized_ = true;
}

std::span<const Candidate> InstanceEquivalences::LeftToRight(
    rdf::TermId left) const {
  const auto& map = tables().left_to_right;
  auto it = map.find(left);
  if (it == map.end()) return {};
  return {it->second.data(), it->second.size()};
}

std::span<const Candidate> InstanceEquivalences::RightToLeft(
    rdf::TermId right) const {
  assert(finalized_);
  const auto& map = tables().right_to_left;
  auto it = map.find(right);
  if (it == map.end()) return {};
  return {it->second.data(), it->second.size()};
}

const Candidate* InstanceEquivalences::MaxOfLeft(rdf::TermId left) const {
  assert(finalized_);
  const auto& map = tables().max_left;
  auto it = map.find(left);
  return it == map.end() ? nullptr : &it->second;
}

const Candidate* InstanceEquivalences::MaxOfRight(rdf::TermId right) const {
  assert(finalized_);
  const auto& map = tables().max_right;
  auto it = map.find(right);
  return it == map.end() ? nullptr : &it->second;
}

double InstanceEquivalences::MaxAssignmentChangeFraction(
    const InstanceEquivalences& previous) const {
  assert(finalized_ && previous.finalized_);
  size_t universe = 0;
  size_t changed = 0;
  for (const auto& [left, candidate] : tables().max_left) {
    ++universe;
    auto it = previous.tables().max_left.find(left);
    if (it == previous.tables().max_left.end() ||
        it->second.other != candidate.other) {
      ++changed;
    }
  }
  for (const auto& [left, candidate] : previous.tables().max_left) {
    if (!tables().max_left.contains(left)) {
      ++universe;
      ++changed;
    }
  }
  if (universe == 0) return 0.0;
  return static_cast<double>(changed) / static_cast<double>(universe);
}

namespace {

// Keys present in exactly one map, or present in both with different
// candidate vectors (exact element comparison).
void DiffListMaps(
    const std::unordered_map<rdf::TermId, std::vector<Candidate>>& a,
    const std::unordered_map<rdf::TermId, std::vector<Candidate>>& b,
    std::vector<rdf::TermId>* out) {
  for (const auto& [term, candidates] : a) {
    auto it = b.find(term);
    if (it == b.end() || it->second != candidates) out->push_back(term);
  }
  for (const auto& [term, candidates] : b) {
    if (!a.contains(term)) out->push_back(term);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace

void InstanceEquivalences::DiffLeftTerms(const InstanceEquivalences& other,
                                         std::vector<rdf::TermId>* out) const {
  DiffListMaps(tables().left_to_right, other.tables().left_to_right, out);
}

void InstanceEquivalences::DiffRightTerms(const InstanceEquivalences& other,
                                          std::vector<rdf::TermId>* out) const {
  assert(finalized_ && other.finalized_);
  DiffListMaps(tables().right_to_left, other.tables().right_to_left, out);
}

InstanceEquivalences BlendEquivalences(const InstanceEquivalences& previous,
                                       const InstanceEquivalences& fresh,
                                       double lambda, double threshold,
                                       size_t max_candidates) {
  assert(previous.finalized_ && fresh.finalized_);
  InstanceEquivalences out;
  // Union of left keys.
  std::unordered_set<rdf::TermId> lefts;
  for (const auto& [l, cs] : previous.tables().left_to_right) lefts.insert(l);
  for (const auto& [l, cs] : fresh.tables().left_to_right) lefts.insert(l);

  auto better = [](const Candidate& a, const Candidate& b) {
    return a.prob != b.prob ? a.prob > b.prob : a.other < b.other;
  };
  for (rdf::TermId left : lefts) {
    std::unordered_map<rdf::TermId, double> blended;
    for (const Candidate& c : previous.LeftToRight(left)) {
      blended[c.other] += lambda * c.prob;
    }
    for (const Candidate& c : fresh.LeftToRight(left)) {
      blended[c.other] += (1.0 - lambda) * c.prob;
    }
    std::vector<Candidate> candidates;
    for (const auto& [other, prob] : blended) {
      if (prob >= threshold) candidates.push_back(Candidate{other, prob});
    }
    if (candidates.empty()) continue;
    std::sort(candidates.begin(), candidates.end(), better);
    if (candidates.size() > max_candidates) candidates.resize(max_candidates);
    out.Set(left, std::move(candidates));
  }
  out.Finalize();
  return out;
}

}  // namespace paris::core
