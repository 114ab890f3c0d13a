#include "paris/core/result_io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "paris/util/fs.h"
#include "paris/util/string_util.h"

namespace paris::core {

namespace {

// The maximal assignment keyed by left IRI: the deterministic output order.
std::map<std::string, const Candidate*> SortedMaxOfLeft(
    const InstanceEquivalences& equiv, const ontology::Ontology& left) {
  std::map<std::string, const Candidate*> sorted;
  equiv.ForEachMaxOfLeft([&](rdf::TermId l, const Candidate& best) {
    sorted.emplace(left.TermName(l), &best);
  });
  return sorted;
}

}  // namespace

void WriteInstanceAlignment(const InstanceEquivalences& equiv,
                            const ontology::Ontology& left,
                            const ontology::Ontology& right,
                            std::ostream& out) {
  out << "# paris instance alignment: left\tright\tprobability\n";
  for (const auto& [name, candidate] : SortedMaxOfLeft(equiv, left)) {
    out << name << "\t" << right.TermName(candidate->other) << "\t"
        << candidate->prob << "\n";
  }
}

void WriteRelationAlignment(const RelationScores& scores,
                            const ontology::Ontology& left,
                            const ontology::Ontology& right,
                            std::ostream& out) {
  out << "# paris relation alignment: sub\tsuper\tscore\tside\n";
  std::vector<std::string> lines;
  for (const auto& e : scores.Entries()) {
    const auto& sub_onto = e.sub_is_left ? left : right;
    const auto& super_onto = e.sub_is_left ? right : left;
    std::ostringstream line;
    line << sub_onto.RelationName(e.sub) << "\t"
         << super_onto.RelationName(e.super) << "\t" << e.score << "\t"
         << (e.sub_is_left ? "L" : "R");
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  for (const auto& line : lines) out << line << "\n";
}

void WriteClassAlignment(const ClassScores& scores,
                         const ontology::Ontology& left,
                         const ontology::Ontology& right, std::ostream& out) {
  out << "# paris class alignment: sub\tsuper\tscore\tside\n";
  std::vector<std::string> lines;
  for (const auto& e : scores.entries()) {
    const auto& sub_onto = e.sub_is_left ? left : right;
    const auto& super_onto = e.sub_is_left ? right : left;
    std::ostringstream line;
    line << sub_onto.TermName(e.sub) << "\t" << super_onto.TermName(e.super)
         << "\t" << e.score << "\t" << (e.sub_is_left ? "L" : "R");
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  for (const auto& line : lines) out << line << "\n";
}

util::Status WriteAlignmentFiles(const AlignmentResult& result,
                                 const ontology::Ontology& left,
                                 const ontology::Ontology& right,
                                 const std::string& prefix) {
  struct Section {
    std::string suffix;
    std::function<void(std::ostream&)> write;
  };
  const std::vector<Section> sections = {
      {"_instances.tsv",
       [&](std::ostream& out) {
         WriteInstanceAlignment(result.instances, left, right, out);
       }},
      {"_relations.tsv",
       [&](std::ostream& out) {
         WriteRelationAlignment(result.relations, left, right, out);
       }},
      {"_classes.tsv",
       [&](std::ostream& out) {
         WriteClassAlignment(result.classes, left, right, out);
       }},
  };
  for (const Section& section : sections) {
    const std::string path = prefix + section.suffix;
    util::AtomicFileWriter out(path);
    section.write(out.stream());
    util::Status status = out.Commit();
    if (!status.ok()) return status;
  }
  return util::OkStatus();
}

namespace {

// Minimal XML escaping for IRIs/attribute content.
std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void WriteOaeiAlignment(const InstanceEquivalences& equiv,
                        const ontology::Ontology& left,
                        const ontology::Ontology& right, std::ostream& out) {
  out << "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
      << "<rdf:RDF xmlns=\"http://knowledgeweb.semanticweb.org/heterogeneity/"
         "alignment\"\n"
      << "         xmlns:rdf=\"http://www.w3.org/1999/02/22-rdf-syntax-ns#\""
         ">\n"
      << "<Alignment>\n"
      << "  <xml>yes</xml>\n  <level>0</level>\n  <type>11</type>\n";
  for (const auto& [name, candidate] : SortedMaxOfLeft(equiv, left)) {
    out << "  <map><Cell>\n"
        << "    <entity1 rdf:resource=\"" << XmlEscape(name) << "\"/>\n"
        << "    <entity2 rdf:resource=\""
        << XmlEscape(right.TermName(candidate->other)) << "\"/>\n"
        << "    <measure rdf:datatype=\"xsd:float\">" << candidate->prob
        << "</measure>\n"
        << "    <relation>=</relation>\n"
        << "  </Cell></map>\n";
  }
  out << "</Alignment>\n</rdf:RDF>\n";
}

util::StatusOr<InstanceEquivalences> ReadInstanceAlignment(
    std::istream& in, const rdf::TermPool& pool) {
  InstanceEquivalences equiv;
  std::unordered_set<rdf::TermId> seen;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = util::Split(trimmed, '\t');
    if (fields.size() != 3) {
      return util::InvalidArgumentError(
          "line " + std::to_string(line_number) + ": expected 3 fields");
    }
    const auto left = pool.Find(fields[0], rdf::TermKind::kIri);
    const auto right = pool.Find(fields[1], rdf::TermKind::kIri);
    if (!left.has_value() || !right.has_value()) {
      return util::NotFoundError("line " + std::to_string(line_number) +
                                 ": unknown IRI");
    }
    // The whole field must parse, to a probability the store may hold:
    // 0 < p ≤ 1, which also rejects NaN.
    char* end = nullptr;
    const std::string prob_str(fields[2]);
    const double prob = std::strtod(prob_str.c_str(), &end);
    if (prob_str.empty() || end != prob_str.c_str() + prob_str.size() ||
        !(prob > 0.0 && prob <= 1.0)) {
      return util::InvalidArgumentError(
          "line " + std::to_string(line_number) + ": bad probability");
    }
    if (!seen.insert(*left).second) {
      return util::InvalidArgumentError(
          "line " + std::to_string(line_number) + ": repeated left IRI");
    }
    const Candidate candidate{*right, prob};
    equiv.Set(*left, {&candidate, 1});
  }
  equiv.Finalize();
  return equiv;
}

}  // namespace paris::core
