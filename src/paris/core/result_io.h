#ifndef PARIS_CORE_RESULT_IO_H_
#define PARIS_CORE_RESULT_IO_H_

#include <iosfwd>
#include <string>

#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"
#include "paris/util/status.h"

namespace paris::core {

// Serialization of alignment results as tab-separated values, one record
// per line:
//   instances:  <left-iri> TAB <right-iri> TAB <probability>
//   relations:  <sub-name> TAB <super-name> TAB <score> TAB <L|R>
//               (sub relations may carry the ^-1 inverse marker;
//                L = sub belongs to the left ontology)
//   classes:    <sub-iri> TAB <super-iri> TAB <score> TAB <L|R>
// Lines starting with '#' are comments. The format is deliberately trivial
// so downstream tools (join, awk, pandas) can consume it directly.

// Writes the maximal instance assignment (best counterpart per left
// instance).
void WriteInstanceAlignment(const InstanceEquivalences& equiv,
                            const ontology::Ontology& left,
                            const ontology::Ontology& right,
                            std::ostream& out);

// Writes every stored sub-relation score.
void WriteRelationAlignment(const RelationScores& scores,
                            const ontology::Ontology& left,
                            const ontology::Ontology& right,
                            std::ostream& out);

// Writes every stored sub-class score.
void WriteClassAlignment(const ClassScores& scores,
                         const ontology::Ontology& left,
                         const ontology::Ontology& right, std::ostream& out);

// Writes all three sections to `<prefix>_instances.tsv`,
// `<prefix>_relations.tsv`, `<prefix>_classes.tsv`.
util::Status WriteAlignmentFiles(const AlignmentResult& result,
                                 const ontology::Ontology& left,
                                 const ontology::Ontology& right,
                                 const std::string& prefix);

// Reads an instance alignment back (IRIs resolved through `pool`;
// unknown IRIs are reported as an error). A probability must parse as a
// whole field and lie in (0, 1], and each left IRI may appear once;
// anything else is InvalidArgument. The returned store is finalized.
util::StatusOr<InstanceEquivalences> ReadInstanceAlignment(
    std::istream& in, const rdf::TermPool& pool);

// Writes the maximal instance assignment in the OAEI Alignment Format
// (the RDF/XML interchange format of the Ontology Alignment Evaluation
// Initiative, which the paper benchmarks against in §6.2): one <Cell> per
// pair with entity1/entity2/measure/relation elements.
void WriteOaeiAlignment(const InstanceEquivalences& equiv,
                        const ontology::Ontology& left,
                        const ontology::Ontology& right, std::ostream& out);

}  // namespace paris::core

#endif  // PARIS_CORE_RESULT_IO_H_
