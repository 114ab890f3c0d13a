#include "quality.h"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t begin = 0;
  for (;;) {
    const size_t tab = line.find('\t', begin);
    fields.push_back(line.substr(begin, tab - begin));
    if (tab == std::string::npos) return fields;
    begin = tab + 1;
  }
}

// Data rows of a TSV, split on tabs; comment lines are skipped.
std::vector<std::vector<std::string>> Rows(const std::string& path,
                                           size_t min_fields) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& line : ReadLines(path)) {
    if (line.empty() || line[0] == '#') continue;
    rows.push_back(SplitTabs(line));
    if (rows.back().size() < min_fields) {
      Die("malformed row in " + path + ": " + line);
    }
  }
  return rows;
}

// Relation names carry a "^-1" suffix for the inverse direction.
constexpr char kInverse[] = "^-1";

bool IsInverse(const std::string& name) {
  return name.size() > 3 && name.compare(name.size() - 3, 3, kInverse) == 0;
}

std::string Flip(const std::string& name) {
  return IsInverse(name) ? name.substr(0, name.size() - 3) : name + kInverse;
}

using Triple = std::tuple<std::string, std::string, std::string>;

std::set<Triple> GoldSet(const std::string& path) {
  std::set<Triple> gold;
  for (const auto& row : Rows(path, 3)) gold.emplace(row[0], row[1], row[2]);
  return gold;
}

}  // namespace

Quality EvaluateExport(const std::string& prefix,
                       const std::string& gold_dir) {
  Quality quality;

  std::unordered_map<std::string, std::string> gold_instances;
  for (const auto& row : Rows(gold_dir + "/gold_instances.tsv", 2)) {
    gold_instances.emplace(row[0], row[1]);
  }
  size_t correct = 0;
  const auto instances = Rows(prefix + "_instances.tsv", 3);
  for (const auto& row : instances) {
    const auto it = gold_instances.find(row[0]);
    if (it != gold_instances.end() && it->second == row[1]) ++correct;
  }
  quality.instance_rows = instances.size();
  quality.instance_precision =
      instances.empty() ? 0.0 : double(correct) / double(instances.size());
  quality.instance_recall =
      gold_instances.empty() ? 0.0
                             : double(correct) / double(gold_instances.size());

  // Maximal super-relation per (side, positive sub relation); an inverse
  // sub is normalized by flipping both ends, Pr(r⁻¹ ⊆ s⁻¹) = Pr(r ⊆ s).
  const std::set<Triple> gold_relations =
      GoldSet(gold_dir + "/gold_relations.tsv");
  std::map<std::pair<std::string, std::string>, std::pair<double, std::string>>
      best;
  const auto relations = Rows(prefix + "_relations.tsv", 4);
  for (const auto& row : relations) {
    std::string sub = row[0];
    std::string super = row[1];
    if (IsInverse(sub)) {
      sub = Flip(sub);
      super = Flip(super);
    }
    const double score = std::stod(row[2]);
    const auto key = std::make_pair(row[3], sub);
    const auto it = best.find(key);
    if (it == best.end() || score > it->second.first) {
      best[key] = {score, super};
    }
  }
  size_t assigned = 0;
  correct = 0;
  for (const auto& [key, entry] : best) {
    if (entry.first < kRelationThreshold) continue;
    ++assigned;
    if (gold_relations.contains({key.first, key.second, entry.second})) {
      ++correct;
    }
  }
  quality.relation_rows = relations.size();
  quality.relation_precision =
      assigned == 0 ? 0.0 : double(correct) / double(assigned);

  // Every class entry at or above the threshold, both directions.
  const std::set<Triple> gold_classes = GoldSet(gold_dir + "/gold_classes.tsv");
  const auto classes = Rows(prefix + "_classes.tsv", 4);
  size_t entries = 0;
  correct = 0;
  for (const auto& row : classes) {
    if (std::stod(row[2]) < kClassThreshold) continue;
    ++entries;
    if (gold_classes.contains({row[3], row[0], row[1]})) ++correct;
  }
  quality.class_rows = classes.size();
  quality.class_precision =
      entries == 0 ? 0.0 : double(correct) / double(entries);
  return quality;
}

}  // namespace perfbench
