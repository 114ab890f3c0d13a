#include "paris/ontology/ontology.h"

#include <algorithm>
#include <cassert>

#include "paris/ontology/vocab.h"

namespace paris::ontology {

namespace {

// Transitive closure of a sparse DAG given as an edge list; returns, for
// each node that has outgoing edges, the set of all (strictly) reachable
// nodes. Tolerates cycles (nodes in a cycle simply reach each other).
class ReachabilityCloser {
 public:
  explicit ReachabilityCloser(const std::vector<rdf::TermPair>& edges) {
    for (const auto& e : edges) {
      if (e.first == e.second) continue;
      direct_[e.first].push_back(e.second);
    }
  }

  // All nodes reachable from `node` (excluding `node` itself unless it lies
  // on a cycle through itself).
  const std::vector<rdf::TermId>& Reachable(rdf::TermId node) {
    auto memo_it = memo_.find(node);
    if (memo_it != memo_.end()) return memo_it->second;
    // Iterative DFS; handles cycles without memo poisoning by computing the
    // full reachable set for `node` directly.
    std::vector<rdf::TermId> result;
    std::unordered_set<rdf::TermId> visited;
    std::vector<rdf::TermId> stack;
    auto push_targets = [&](rdf::TermId n) {
      auto it = direct_.find(n);
      if (it == direct_.end()) return;
      for (rdf::TermId t : it->second) {
        if (visited.insert(t).second) stack.push_back(t);
      }
    };
    push_targets(node);
    while (!stack.empty()) {
      const rdf::TermId n = stack.back();
      stack.pop_back();
      result.push_back(n);
      push_targets(n);
    }
    std::sort(result.begin(), result.end());
    return memo_.emplace(node, std::move(result)).first->second;
  }

 private:
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> direct_;
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> memo_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Ontology accessors
// ---------------------------------------------------------------------------

void Ontology::RepackTypeIndexes() {
  packed_classes_of_.Repack(classes_of_);
  packed_instances_of_.Repack(instances_of_);
}

bool Ontology::AddInstance(rdf::TermId t) {
  if (static_cast<size_t>(t) >= instance_position_.size()) {
    instance_position_.resize(
        std::max(static_cast<size_t>(t) + 1, pool().size()), kNoInstance);
  }
  uint32_t& position = instance_position_[t];
  if (position != kNoInstance) return false;
  position = static_cast<uint32_t>(instances_.size());
  instances_.push_back(t);
  return true;
}

std::span<const rdf::TermId> Ontology::SuperClassesOf(rdf::TermId cls) const {
  auto it = superclasses_.find(cls);
  if (it == superclasses_.end()) return {};
  return {it->second.data(), it->second.size()};
}

bool Ontology::IsSubClassOf(rdf::TermId sub, rdf::TermId super) const {
  if (sub == super) return true;
  auto supers = SuperClassesOf(sub);
  return std::binary_search(supers.begin(), supers.end(), super);
}

// ---------------------------------------------------------------------------
// OntologyBuilder
// ---------------------------------------------------------------------------

void OntologyBuilder::AddFact(std::string_view subject,
                              std::string_view relation,
                              std::string_view object_iri) {
  facts_.push_back(RawFact{pool_->InternIri(subject),
                           pool_->InternIri(relation),
                           pool_->InternIri(object_iri)});
}

void OntologyBuilder::AddLiteralFact(std::string_view subject,
                                     std::string_view relation,
                                     std::string_view literal) {
  facts_.push_back(RawFact{pool_->InternIri(subject),
                           pool_->InternIri(relation),
                           pool_->InternLiteral(literal)});
}

void OntologyBuilder::AddType(std::string_view instance,
                              std::string_view cls) {
  type_edges_.push_back(
      rdf::TermPair{pool_->InternIri(instance), pool_->InternIri(cls)});
}

void OntologyBuilder::AddSubClassOf(std::string_view sub,
                                    std::string_view super) {
  subclass_edges_.push_back(
      rdf::TermPair{pool_->InternIri(sub), pool_->InternIri(super)});
}

void OntologyBuilder::AddSubPropertyOf(std::string_view sub,
                                       std::string_view super) {
  subprop_edges_.push_back(
      rdf::TermPair{pool_->InternIri(sub), pool_->InternIri(super)});
}

void OntologyBuilder::OnTriple(const rdf::ParsedTriple& t) {
  const bool schema_predicate = IsTypePredicate(t.predicate) ||
                                IsSubClassOfPredicate(t.predicate) ||
                                IsSubPropertyOfPredicate(t.predicate);
  if (schema_predicate && t.object_is_literal) {
    if (first_error_.ok()) {
      first_error_ = util::InvalidArgumentError(
          "literal object in schema statement: " + t.predicate + "(" +
          t.subject + ", \"" + t.object + "\")");
    }
    return;
  }
  if (IsTypePredicate(t.predicate)) {
    AddType(t.subject, t.object);
  } else if (IsSubClassOfPredicate(t.predicate)) {
    AddSubClassOf(t.subject, t.object);
  } else if (IsSubPropertyOfPredicate(t.predicate)) {
    AddSubPropertyOf(t.subject, t.object);
  } else if (t.object_is_literal) {
    AddLiteralFact(t.subject, t.predicate, t.object);
  } else {
    AddFact(t.subject, t.predicate, t.object);
  }
}

util::StatusOr<Ontology> OntologyBuilder::Build(util::ThreadPool* pool,
                                                obs::Hooks hooks) {
  if (!first_error_.ok()) return first_error_;
  Ontology onto(pool_);
  onto.name_ = name_;

  // 1. Sub-property closure: every fact of r is also a fact of each
  //    super-property of r (§3: "ontologies are available in their deductive
  //    closure").
  ReachabilityCloser prop_closer(subprop_edges_);

  // 2. Class partition. A resource is a class iff it appears as the object
  //    of rdf:type or as an argument of rdfs:subClassOf.
  auto add_class = [&](rdf::TermId c) -> util::Status {
    if (pool_->IsLiteral(c)) {
      return util::InvalidArgumentError(
          "literal used as a class: " + std::string(pool_->lexical(c)));
    }
    if (onto.class_set_.insert(c).second) onto.classes_.push_back(c);
    return util::OkStatus();
  };
  for (const auto& e : type_edges_) {
    if (pool_->IsLiteral(e.first)) {
      return util::InvalidArgumentError(
          "literal used as an instance in rdf:type: " +
          std::string(pool_->lexical(e.first)));
    }
    util::Status s = add_class(e.second);
    if (!s.ok()) return s;
  }
  for (const auto& e : subclass_edges_) {
    util::Status s = add_class(e.first);
    if (!s.ok()) return s;
    s = add_class(e.second);
    if (!s.ok()) return s;
  }

  // 3. Sub-class closure.
  ReachabilityCloser class_closer(subclass_edges_);
  for (rdf::TermId c : onto.classes_) {
    const auto& reachable = class_closer.Reachable(c);
    if (!reachable.empty()) onto.superclasses_[c] = reachable;
  }

  // 4. Closed type index.
  for (const auto& e : type_edges_) {
    onto.AddInstance(e.first);
    std::vector<rdf::TermId>& classes = onto.classes_of_[e.first];
    classes.push_back(e.second);
    const auto supers = onto.SuperClassesOf(e.second);
    classes.insert(classes.end(), supers.begin(), supers.end());
  }
  for (auto& [instance, classes] : onto.classes_of_) {
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
    for (rdf::TermId c : classes) onto.instances_of_[c].push_back(instance);
  }
  for (auto& [cls, members] : onto.instances_of_) {
    std::sort(members.begin(), members.end());
  }

  // 5. Regular facts (with sub-property closure applied). Fact arguments
  //    that are IRIs and not classes become instances.
  for (const RawFact& f : facts_) {
    if (pool_->IsLiteral(f.subject)) {
      return util::InvalidArgumentError(
          "literal used as a statement subject: " +
          std::string(pool_->lexical(f.subject)));
    }
    const rdf::RelId rel = onto.store_.InternRelation(f.relation_name);
    onto.store_.Add(f.subject, rel, f.object);
    for (rdf::TermId super_name : prop_closer.Reachable(f.relation_name)) {
      const rdf::RelId super_rel = onto.store_.InternRelation(super_name);
      onto.store_.Add(f.subject, super_rel, f.object);
    }
    if (!onto.class_set_.contains(f.subject)) onto.AddInstance(f.subject);
    if (!pool_->IsLiteral(f.object) && !onto.class_set_.contains(f.object)) {
      onto.AddInstance(f.object);
    }
  }

  onto.store_.Finalize(pool, hooks);
  onto.RepackTypeIndexes();
  {
    obs::Span span(hooks.trace, hooks.main_slot(), "io",
                   "ontology.functionality");
    onto.functionality_ = std::make_unique<FunctionalityTable>(onto.store_);
  }
  return onto;
}

util::StatusOr<Ontology::DeltaSummary> Ontology::ApplyDelta(
    std::span<const rdf::ParsedTriple> triples, util::ThreadPool* thread_pool,
    obs::Hooks hooks) {
  rdf::TermPool& terms = pool();
  // Phase 1: validate (and intern) everything before mutating any index, so
  // a rejected delta leaves the ontology unchanged (pool growth aside).
  struct TypeEdge {
    rdf::TermId instance;
    rdf::TermId cls;
  };
  struct FactEdge {
    rdf::TermId subject;
    rdf::TermId relation_name;
    rdf::TermId object;
  };
  std::vector<TypeEdge> type_edges;
  std::vector<FactEdge> fact_edges;
  for (const rdf::ParsedTriple& t : triples) {
    if (IsSubClassOfPredicate(t.predicate) ||
        IsSubPropertyOfPredicate(t.predicate)) {
      return util::InvalidArgumentError(
          "schema statement in delta (rebuild the ontology instead): " +
          t.predicate + "(" + t.subject + ", " + t.object + ")");
    }
    if (IsTypePredicate(t.predicate)) {
      if (t.object_is_literal) {
        return util::InvalidArgumentError(
            "literal object in delta rdf:type: " + t.subject);
      }
      const rdf::TermId instance = terms.InternIri(t.subject);
      const rdf::TermId cls = terms.InternIri(t.object);
      if (class_set_.contains(instance)) {
        return util::InvalidArgumentError(
            "delta types an existing class as an instance: " + t.subject);
      }
      if (IsInstanceTerm(cls)) {
        return util::InvalidArgumentError(
            "delta uses an existing instance as a class: " + t.object);
      }
      type_edges.push_back({instance, cls});
    } else {
      const rdf::TermId subject = terms.InternIri(t.subject);
      const rdf::TermId object = t.object_is_literal
                                     ? terms.InternLiteral(t.object)
                                     : terms.InternIri(t.object);
      fact_edges.push_back({subject, terms.InternIri(t.predicate), object});
    }
  }

  DeltaSummary summary;
  auto add_instance = [&](rdf::TermId t) {
    if (AddInstance(t)) summary.new_instances.push_back(t);
  };

  // Phase 2: type edges — close under the existing subclass hierarchy and
  // keep both directions of the type index consistent (and sorted).
  for (const TypeEdge& e : type_edges) {
    if (class_set_.insert(e.cls).second) classes_.push_back(e.cls);
    add_instance(e.instance);
    std::vector<rdf::TermId>& classes = classes_of_[e.instance];
    std::vector<rdf::TermId> added;
    added.push_back(e.cls);
    const auto supers = SuperClassesOf(e.cls);
    added.insert(added.end(), supers.begin(), supers.end());
    bool any_new = false;
    for (rdf::TermId c : added) {
      if (!std::binary_search(classes.begin(), classes.end(), c)) {
        std::vector<rdf::TermId>& members = instances_of_[c];
        auto at = std::lower_bound(members.begin(), members.end(), e.instance);
        if (at == members.end() || *at != e.instance) {
          members.insert(at, e.instance);
        }
        classes.push_back(c);
        any_new = true;
      }
    }
    if (any_new) {
      std::sort(classes.begin(), classes.end());
      classes.erase(std::unique(classes.begin(), classes.end()),
                    classes.end());
      summary.touched_terms.push_back(e.instance);
    }
  }

  // Phase 3: regular facts, staged into the store then spliced in place.
  for (const FactEdge& f : fact_edges) {
    store_.Add(f.subject, store_.InternRelation(f.relation_name), f.object);
    if (!class_set_.contains(f.subject)) add_instance(f.subject);
    if (!terms.IsLiteral(f.object) && !class_set_.contains(f.object)) {
      add_instance(f.object);
    }
  }
  rdf::TripleStore::DeltaMergeResult merged =
      store_.MergeDelta(thread_pool, hooks);
  summary.num_new_statements = merged.num_new_statements;
  summary.touched_terms.insert(summary.touched_terms.end(),
                               merged.touched_terms.begin(),
                               merged.touched_terms.end());
  std::sort(summary.touched_terms.begin(), summary.touched_terms.end());
  summary.touched_terms.erase(
      std::unique(summary.touched_terms.begin(), summary.touched_terms.end()),
      summary.touched_terms.end());
  std::sort(summary.new_instances.begin(), summary.new_instances.end());
  // Only phase 2 changes the type maps.
  if (!type_edges.empty()) RepackTypeIndexes();

  // Added pairs change the degree statistics of the touched relations. The
  // merge rebuilt the whole relation directory, and one pass over it
  // recounts every relation at a fraction of that cost.
  {
    obs::Span span(hooks.trace, hooks.main_slot(), "io",
                   "ontology.functionality");
    *functionality_ = FunctionalityTable(store_);
  }
  return summary;
}

util::StatusOr<Ontology> LoadOntologyFromNTriples(rdf::TermPool* pool,
                                                  std::string name,
                                                  std::string_view document) {
  OntologyBuilder builder(pool, std::move(name));
  util::Status s = rdf::NTriplesParser::ParseDocument(document, &builder);
  if (!s.ok()) return s;
  return builder.Build();
}

}  // namespace paris::ontology
