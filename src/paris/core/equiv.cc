#include "paris/core/equiv.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

namespace paris::core {

namespace {

// The total order of every row: probability descending, id ascending.
bool Better(const Candidate& a, const Candidate& b) {
  return a.prob != b.prob ? a.prob > b.prob : a.other < b.other;
}

}  // namespace

const InstanceEquivalences::Tables& InstanceEquivalences::EmptyTables() {
  static const Tables kEmpty;
  return kEmpty;
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

void InstanceEquivalences::Rows::Append(rdf::TermId key,
                                        std::span<const Candidate> candidates) {
  keys.push_back(key);
  column.insert(column.end(), candidates.begin(), candidates.end());
  assert(column.size() <= UINT32_MAX);
  offsets.push_back(static_cast<uint32_t>(column.size()));
}

void InstanceEquivalences::Rows::BuildIndex() {
  rdf::TermId max_key = 0;
  bool ascending = true;
  for (size_t row = 0; row < keys.size(); ++row) {
    max_key = std::max(max_key, keys[row]);
    if (row > 0 && keys[row] <= keys[row - 1]) ascending = false;
  }
  row_of.assign(keys.empty() ? 0 : static_cast<size_t>(max_key) + 1, kNoRow);
  for (size_t row = 0; row < keys.size(); ++row) {
    row_of[keys[row]] = static_cast<uint32_t>(row);  // a later Set wins
  }
  if (ascending) return;
  Rows sorted;
  for (size_t term = 0; term < row_of.size(); ++term) {
    if (row_of[term] == kNoRow) continue;
    sorted.Append(static_cast<rdf::TermId>(term), Row(row_of[term]));
    row_of[term] = static_cast<uint32_t>(sorted.keys.size() - 1);
  }
  keys = std::move(sorted.keys);
  offsets = std::move(sorted.offsets);
  column = std::move(sorted.column);
}

void InstanceEquivalences::Set(rdf::TermId left,
                               std::span<const Candidate> candidates) {
  assert(!finalized_);
  if (candidates.empty()) return;
  MutableTables().left.Append(left, candidates);
}

void InstanceEquivalences::Finalize() {
  assert(!finalized_);
  Tables& t = MutableTables();
  Rows& left = t.left;
  left.BuildIndex();

  // Transpose by a counting sort over right ids: `cursor[z]` starts at the
  // first slot of z's row. Left rows are visited in ascending key order,
  // and each right row is then sorted by the total order, so the transpose
  // does not depend on the order of the Set calls.
  Rows& right = t.right;
  rdf::TermId max_right = 0;
  for (const Candidate& c : left.column) {
    max_right = std::max(max_right, c.other);
  }
  std::vector<uint32_t> cursor(
      left.column.empty() ? 0 : static_cast<size_t>(max_right) + 2, 0);
  for (const Candidate& c : left.column) ++cursor[c.other + 1];
  for (size_t z = 1; z < cursor.size(); ++z) cursor[z] += cursor[z - 1];
  right.row_of.assign(cursor.empty() ? 0 : cursor.size() - 1, Rows::kNoRow);
  for (size_t z = 0; z + 1 < cursor.size(); ++z) {
    if (cursor[z + 1] == cursor[z]) continue;
    right.row_of[z] = static_cast<uint32_t>(right.keys.size());
    right.keys.push_back(static_cast<rdf::TermId>(z));
    right.offsets.push_back(cursor[z + 1]);
  }
  right.column.resize(left.column.size());
  for (size_t row = 0; row < left.keys.size(); ++row) {
    for (const Candidate& c : left.Row(row)) {
      right.column[cursor[c.other]++] = Candidate{left.keys[row], c.prob};
    }
  }
  for (size_t row = 0; row < right.keys.size(); ++row) {
    std::sort(right.column.begin() + right.offsets[row],
              right.column.begin() + right.offsets[row + 1], Better);
  }
  finalized_ = true;
}

namespace {

// Merge-joins the ascending keys of two CSR sides: calls `only(key)` for a
// key present on one side and `both(key, row_a, row_b)` for a shared one.
template <typename Rows, typename OnlyFn, typename BothFn>
void JoinRows(const Rows& a, const Rows& b, OnlyFn&& only, BothFn&& both) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.keys.size() || j < b.keys.size()) {
    if (j == b.keys.size() || (i < a.keys.size() && a.keys[i] < b.keys[j])) {
      only(a.keys[i++]);
    } else if (i == a.keys.size() || b.keys[j] < a.keys[i]) {
      only(b.keys[j++]);
    } else {
      both(a.keys[i], a.Row(i), b.Row(j));
      ++i;
      ++j;
    }
  }
}

// Appends every key whose row differs between `a` and `b`, ascending.
template <typename Rows>
void DiffRows(const Rows& a, const Rows& b, std::vector<rdf::TermId>* out) {
  const auto only = [out](rdf::TermId key) { out->push_back(key); };
  const auto both = [out](rdf::TermId key, std::span<const Candidate> row_a,
                          std::span<const Candidate> row_b) {
    if (!std::ranges::equal(row_a, row_b)) out->push_back(key);
  };
  JoinRows(a, b, only, both);
}

}  // namespace

double InstanceEquivalences::MaxAssignmentChangeFraction(
    const InstanceEquivalences& previous) const {
  assert(finalized_ && previous.finalized_);
  size_t universe = 0;
  size_t changed = 0;
  const auto only = [&](rdf::TermId) {
    ++universe;
    ++changed;
  };
  const auto both = [&](rdf::TermId, std::span<const Candidate> row,
                        std::span<const Candidate> previous_row) {
    ++universe;
    if (row.front().other != previous_row.front().other) ++changed;
  };
  JoinRows(tables().left, previous.tables().left, only, both);
  if (universe == 0) return 0.0;
  return static_cast<double>(changed) / static_cast<double>(universe);
}

void InstanceEquivalences::DiffLeftTerms(const InstanceEquivalences& other,
                                         std::vector<rdf::TermId>* out) const {
  assert(finalized_ && other.finalized_);
  if (tables_ == other.tables_) return;  // one shared store
  DiffRows(tables().left, other.tables().left, out);
}

void InstanceEquivalences::DiffRightTerms(const InstanceEquivalences& other,
                                          std::vector<rdf::TermId>* out) const {
  assert(finalized_ && other.finalized_);
  if (tables_ == other.tables_) return;
  DiffRows(tables().right, other.tables().right, out);
}

InstanceEquivalences BlendEquivalences(const InstanceEquivalences& previous,
                                       const InstanceEquivalences& fresh,
                                       double lambda, double threshold,
                                       size_t max_candidates) {
  assert(previous.finalized_ && fresh.finalized_);
  InstanceEquivalences out;
  const std::vector<rdf::TermId>& previous_keys = previous.tables().left.keys;
  const std::vector<rdf::TermId>& fresh_keys = fresh.tables().left.keys;
  std::vector<rdf::TermId> lefts;
  std::ranges::set_union(previous_keys, fresh_keys, std::back_inserter(lefts));
  std::vector<Candidate> candidates;
  for (rdf::TermId left : lefts) {
    std::unordered_map<rdf::TermId, double> blended;
    for (const Candidate& c : previous.LeftToRight(left)) {
      blended[c.other] += lambda * c.prob;
    }
    for (const Candidate& c : fresh.LeftToRight(left)) {
      blended[c.other] += (1.0 - lambda) * c.prob;
    }
    candidates.clear();
    for (const auto& [other, prob] : blended) {
      if (prob >= threshold) candidates.push_back(Candidate{other, prob});
    }
    std::sort(candidates.begin(), candidates.end(), Better);
    if (candidates.size() > max_candidates) candidates.resize(max_candidates);
    out.Set(left, candidates);
  }
  out.Finalize();
  return out;
}

}  // namespace paris::core
