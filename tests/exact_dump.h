#ifndef PARIS_TESTS_EXACT_DUMP_H_
#define PARIS_TESTS_EXACT_DUMP_H_

#include <cstdio>
#include <string>

#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"

namespace paris::testutil {

// Every stored bit of an alignment's three tables as text: the currency of
// the identity tests (semi-naive ≡ exhaustive, threads × shards,
// observability on/off, checkpoint and resume, realign). The CLI TSVs hold
// only the maximal assignment at 6 significant digits, so a change to a
// non-maximal candidate or to the low bits of a probability passes them;
// this lists every left row with all its candidates, every transposed right
// row, every relation entry and every class entry, with each probability as
// a hex float (%a).
inline std::string ExactDump(const core::AlignmentResult& result,
                             const ontology::Ontology& left,
                             const ontology::Ontology& right) {
  std::string out;
  const auto prob = [&out](double p) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), " %a", p);
    out += buf;
  };
  const core::InstanceEquivalences& equiv = result.instances;
  out += "# left rows\n";
  equiv.ForEachMaxOfLeft([&](rdf::TermId l, const core::Candidate&) {
    out += left.TermName(l);
    for (const core::Candidate& c : equiv.LeftToRight(l)) {
      out += '\t' + right.TermName(c.other);
      prob(c.prob);
    }
    out += '\n';
  });
  out += "# right rows\n";
  equiv.ForEachMaxOfRight([&](rdf::TermId r, const core::Candidate&) {
    out += right.TermName(r);
    for (const core::Candidate& c : equiv.RightToLeft(r)) {
      out += '\t' + left.TermName(c.other);
      prob(c.prob);
    }
    out += '\n';
  });
  out += "# relations\n";
  for (const core::RelationAlignmentEntry& e : result.relations.Entries()) {
    const ontology::Ontology& sub = e.sub_is_left ? left : right;
    const ontology::Ontology& super = e.sub_is_left ? right : left;
    out += (e.sub_is_left ? "L\t" : "R\t") + sub.RelationName(e.sub) + '\t' +
           super.RelationName(e.super);
    prob(e.score);
    out += '\n';
  }
  out += "# classes\n";
  for (const core::ClassAlignmentEntry& e : result.classes.entries()) {
    const ontology::Ontology& sub = e.sub_is_left ? left : right;
    const ontology::Ontology& super = e.sub_is_left ? right : left;
    out += (e.sub_is_left ? "L\t" : "R\t") + sub.TermName(e.sub) + '\t' +
           super.TermName(e.super);
    prob(e.score);
    out += '\n';
  }
  return out;
}

}  // namespace paris::testutil

#endif  // PARIS_TESTS_EXACT_DUMP_H_
