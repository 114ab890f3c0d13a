#include "paris/baseline/label_match.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "paris/util/string_util.h"

namespace paris::baseline {

namespace {

// label string (possibly normalized) → instances carrying it.
std::unordered_map<std::string, std::vector<rdf::TermId>> LabelIndex(
    const ontology::Ontology& onto,
    const std::vector<std::string>& label_relations, bool normalize) {
  std::unordered_map<std::string, std::vector<rdf::TermId>> index;
  const rdf::TermPool& pool = onto.pool();
  std::vector<rdf::RelId> rels;
  for (const std::string& name : label_relations) {
    const auto name_term = pool.Find(name, rdf::TermKind::kIri);
    if (!name_term.has_value()) continue;
    const auto rel = onto.store().FindRelation(*name_term);
    if (rel.has_value()) rels.push_back(*rel);
  }
  if (rels.empty()) return index;
  for (rdf::TermId instance : onto.instances()) {
    for (const rdf::Fact& f : onto.FactsAbout(instance)) {
      if (!pool.IsLiteral(f.other)) continue;
      if (std::find(rels.begin(), rels.end(), f.rel) == rels.end()) continue;
      std::string key(pool.lexical(f.other));
      if (normalize) key = util::NormalizeAlnum(key);
      index[key].push_back(instance);
    }
  }
  return index;
}

}  // namespace

core::InstanceEquivalences AlignByLabel(const ontology::Ontology& left,
                                        const ontology::Ontology& right,
                                        const LabelMatchConfig& config) {
  core::InstanceEquivalences result;
  const auto right_index =
      LabelIndex(right, config.right_label_relations, config.normalize);
  const auto left_index =
      LabelIndex(left, config.left_label_relations, config.normalize);

  for (const auto& [label, left_instances] : left_index) {
    if (config.require_unique && left_instances.size() != 1) continue;
    auto it = right_index.find(label);
    if (it == right_index.end()) continue;
    const auto& right_instances = it->second;
    if (config.require_unique && right_instances.size() != 1) continue;
    for (rdf::TermId l : left_instances) {
      std::vector<core::Candidate> candidates;
      for (rdf::TermId r : right_instances) {
        candidates.push_back(core::Candidate{r, 1.0});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const core::Candidate& a, const core::Candidate& b) {
                  return a.other < b.other;
                });
      result.Set(l, candidates);
    }
  }
  result.Finalize();
  return result;
}

}  // namespace paris::baseline
