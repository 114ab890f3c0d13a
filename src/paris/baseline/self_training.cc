#include "paris/baseline/self_training.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paris/util/hash.h"

namespace paris::baseline {

namespace {

using rdf::RelId;
using rdf::TermId;

// literal → instances carrying it through some relation, per side.
using ValueIndex = std::unordered_map<TermId, std::vector<TermId>>;

ValueIndex BuildValueIndex(const ontology::Ontology& onto) {
  ValueIndex index;
  for (TermId instance : onto.instances()) {
    for (const rdf::Fact& f : onto.FactsAbout(instance)) {
      if (f.rel > 0 && onto.pool().IsLiteral(f.other)) {
        index[f.other].push_back(instance);
      }
    }
  }
  for (auto& [value, instances] : index) {
    std::sort(instances.begin(), instances.end());
    instances.erase(std::unique(instances.begin(), instances.end()),
                    instances.end());
  }
  return index;
}

// The literal values of `instance` under relation `rel`.
std::vector<TermId> ValuesOf(const ontology::Ontology& onto, TermId instance,
                             RelId rel) {
  std::vector<TermId> values;
  for (const rdf::Fact& f : onto.FactsAbout(instance)) {
    if (f.rel == rel && onto.pool().IsLiteral(f.other)) {
      values.push_back(f.other);
    }
  }
  return values;
}

}  // namespace

core::InstanceEquivalences AlignBySelfTraining(
    const ontology::Ontology& left, const ontology::Ontology& right,
    const SelfTrainingConfig& config) {
  const ValueIndex left_index = BuildValueIndex(left);
  const ValueIndex right_index = BuildValueIndex(right);

  std::unordered_map<TermId, TermId> matched;        // left → right
  std::unordered_set<TermId> taken_right;

  auto try_match = [&](TermId l, TermId r) {
    if (matched.contains(l) || taken_right.contains(r)) return;
    matched.emplace(l, r);
    taken_right.insert(r);
  };

  // ---- 1. Kernel: discriminating shared values -------------------------
  for (const auto& [value, left_instances] : left_index) {
    if (left_instances.size() != 1) continue;
    auto it = right_index.find(value);
    if (it == right_index.end() || it->second.size() != 1) continue;
    try_match(left_instances[0], it->second[0]);
  }

  // ---- 2./3. Self-training rounds ---------------------------------------
  for (int round = 0; round < config.rounds; ++round) {
    // Learn discriminative property pairs from the current matches.
    struct PairStats {
      size_t seen = 0;
      size_t agree = 0;
    };
    std::unordered_map<uint64_t, PairStats> stats;  // (rel_l, rel_r) packed
    for (const auto& [l, r] : matched) {
      // Group each side's literal values by relation.
      std::unordered_map<RelId, std::vector<TermId>> left_values;
      for (const rdf::Fact& f : left.FactsAbout(l)) {
        if (f.rel > 0 && left.pool().IsLiteral(f.other)) {
          left_values[f.rel].push_back(f.other);
        }
      }
      for (const rdf::Fact& g : right.FactsAbout(r)) {
        if (g.rel <= 0 || !right.pool().IsLiteral(g.other)) continue;
        for (const auto& [rel_l, values] : left_values) {
          PairStats& ps = stats[util::PackPair(
              static_cast<uint32_t>(rel_l), static_cast<uint32_t>(g.rel))];
          ++ps.seen;
          if (std::find(values.begin(), values.end(), g.other) !=
              values.end()) {
            ++ps.agree;
          }
        }
      }
    }
    std::vector<std::pair<RelId, RelId>> discriminative;
    for (const auto& [key, ps] : stats) {
      if (ps.seen >= config.min_property_support &&
          static_cast<double>(ps.agree) >=
              config.min_property_agreement * static_cast<double>(ps.seen)) {
        discriminative.emplace_back(
            static_cast<RelId>(util::UnpackFirst(key)),
            static_cast<RelId>(util::UnpackSecond(key)));
      }
    }
    if (discriminative.empty()) break;

    // Expand: unmatched left instances whose value under a discriminative
    // property pair points at exactly one unmatched right instance.
    size_t added = 0;
    for (TermId l : left.instances()) {
      if (matched.contains(l)) continue;
      TermId unique_candidate = rdf::kNullTerm;
      bool ambiguous = false;
      for (const auto& [rel_l, rel_r] : discriminative) {
        for (TermId value : ValuesOf(left, l, rel_l)) {
          auto it = right_index.find(value);
          if (it == right_index.end()) continue;
          for (TermId r : it->second) {
            if (taken_right.contains(r)) continue;
            // r must carry the value under rel_r specifically.
            const auto r_values = ValuesOf(right, r, rel_r);
            if (std::find(r_values.begin(), r_values.end(), value) ==
                r_values.end()) {
              continue;
            }
            if (unique_candidate == rdf::kNullTerm) {
              unique_candidate = r;
            } else if (unique_candidate != r) {
              ambiguous = true;
            }
          }
        }
      }
      if (!ambiguous && unique_candidate != rdf::kNullTerm) {
        try_match(l, unique_candidate);
        ++added;
      }
    }
    if (added == 0) break;
  }

  core::InstanceEquivalences result;
  for (const auto& [l, r] : matched) {
    const core::Candidate match{r, 1.0};
    result.Set(l, {&match, 1});
  }
  result.Finalize();
  return result;
}

}  // namespace paris::baseline
