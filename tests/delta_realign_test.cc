#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "paris/api/dataset.h"
#include "paris/api/session.h"
#include "paris/ontology/ontology.h"
#include "paris/rdf/ntriples.h"
#include "paris/util/status.h"

namespace paris {
namespace {

using api::Session;
using rdf::ParsedTriple;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ParsedTriple Fact(const std::string& s, const std::string& p,
                  const std::string& o) {
  ParsedTriple t;
  t.subject = s;
  t.predicate = p;
  t.object = o;
  return t;
}

ParsedTriple LiteralFact(const std::string& s, const std::string& p,
                         const std::string& o) {
  ParsedTriple t = Fact(s, p, o);
  t.object_is_literal = true;
  return t;
}

// ---- Ontology::ApplyDelta unit coverage ----------------------------------

class OntologyDeltaTest : public ::testing::Test {
 protected:
  rdf::TermPool pool_;
  std::unique_ptr<ontology::Ontology> onto_;

  void Build() {
    ontology::OntologyBuilder b(&pool_, "left");
    b.AddType("l:a", "l:Person");
    b.AddLiteralFact("l:a", "l:email", "a@example.org");
    b.AddFact("l:a", "l:knows", "l:b");
    b.AddType("l:b", "l:Person");
    auto built = b.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    onto_ = std::make_unique<ontology::Ontology>(std::move(built).value());
  }
};

TEST_F(OntologyDeltaTest, MergesFactsAndReportsTouchedState) {
  Build();
  const size_t base_triples = onto_->num_triples();

  std::vector<ParsedTriple> delta = {
      Fact("l:b", "l:knows", "l:c"),  // new instance l:c
      LiteralFact("l:c", "l:email", "c@example.org"),
      Fact("l:a", "l:knows", "l:b"),  // duplicate: dropped
      Fact("l:c", "l:likes", "l:a"),  // new relation
  };
  auto summary = onto_->ApplyDelta(delta);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->num_new_statements, 3u);
  EXPECT_EQ(summary->new_instances.size(), 1u);
  EXPECT_FALSE(summary->touched_terms.empty());
  EXPECT_FALSE(summary->touched_relations.empty());
  EXPECT_EQ(onto_->num_triples(), base_triples + 3);
  // Touched terms come out sorted (canonical worklist order).
  EXPECT_TRUE(std::is_sorted(summary->touched_terms.begin(),
                             summary->touched_terms.end()));
  // Only the touched relations' functionalities were recomputed; the table
  // must equal one built fresh over the merged store.
  const ontology::FunctionalityTable fresh(onto_->store());
  for (rdf::RelId base = 1;
       base <= static_cast<rdf::RelId>(onto_->num_relations()); ++base) {
    for (const rdf::RelId rel : {base, rdf::Inverse(base)}) {
      const ontology::DirectionStats& got = onto_->functionality().Stats(rel);
      const ontology::DirectionStats& want = fresh.Stats(rel);
      EXPECT_EQ(got.num_pairs, want.num_pairs) << rel;
      EXPECT_EQ(got.num_distinct_firsts, want.num_distinct_firsts) << rel;
      EXPECT_EQ(got.num_distinct_seconds, want.num_distinct_seconds) << rel;
      EXPECT_EQ(got.sum_inverse_degree, want.sum_inverse_degree) << rel;
      EXPECT_EQ(got.sum_squared_degree, want.sum_squared_degree) << rel;
    }
  }
}

// The store's term dictionary and the instance positions are dense arrays
// over the shared pool, which grows past them (another ontology's ingest,
// ApplyDelta's own interning). Ids past their end read as absent until a
// delta adds them.
TEST_F(OntologyDeltaTest, DenseLookupsFollowPoolGrowth) {
  Build();
  const rdf::TermId unseen = pool_.InternIri("l:unseen");
  EXPECT_FALSE(onto_->IsInstanceTerm(unseen));
  EXPECT_EQ(onto_->InstancePosition(unseen), ontology::Ontology::kNoInstance);
  EXPECT_FALSE(onto_->store().ContainsTerm(unseen));
  EXPECT_TRUE(onto_->FactsAbout(unseen).empty());
  for (size_t i = 0; i < onto_->instances().size(); ++i) {
    EXPECT_EQ(onto_->InstancePosition(onto_->instances()[i]), i);
  }

  std::vector<ParsedTriple> delta = {
      Fact("l:b", "l:knows", "l:unseen"),
      Fact("l:d", "l:knows", "l:a"),  // l:d is interned by the delta
  };
  ASSERT_TRUE(onto_->ApplyDelta(delta).ok());
  const rdf::TermId d = *pool_.Find("l:d", rdf::TermKind::kIri);
  for (const rdf::TermId t : {unseen, d}) {
    ASSERT_TRUE(onto_->IsInstanceTerm(t));
    EXPECT_EQ(onto_->instances()[onto_->InstancePosition(t)], t);
    EXPECT_TRUE(onto_->store().ContainsTerm(t));
    EXPECT_FALSE(onto_->FactsAbout(t).empty());
  }
}

TEST_F(OntologyDeltaTest, SchemaDeltaRejectedAtomically) {
  Build();
  const size_t base_triples = onto_->num_triples();
  std::vector<ParsedTriple> delta = {
      Fact("l:b", "l:knows", "l:c"),
      Fact("l:Person", "rdfs:subClassOf", "l:Agent"),
  };
  auto summary = onto_->ApplyDelta(delta);
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  // All-or-nothing: the acceptable first statement was not merged either.
  EXPECT_EQ(onto_->num_triples(), base_triples);
}

// ---- Session ApplyDelta + Realign ----------------------------------------

// One generated restaurant pair, split into base + delta, shared by every
// test: the base files are what sessions load, the delta file is what they
// stage, and the full files are the post-delta ground truth.
class DeltaRealignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::DatasetSpec spec;
    spec.profile = "restaurant";
    spec.output_prefix = TempPath("delta_rest");
    spec.scale = 0.5;
    spec.delta_fraction = 0.02;
    auto split = api::GenerateDataset(spec);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    ASSERT_GT(split->delta_triples, 0u);
    split_ = new api::DatasetSummary(std::move(split).value());

    spec.output_prefix = TempPath("full_rest");
    spec.delta_fraction = 0.0;
    auto full = api::GenerateDataset(spec);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    full_ = new api::DatasetSummary(std::move(full).value());
  }

  static const api::DatasetSummary& split() { return *split_; }
  static const api::DatasetSummary& full() { return *full_; }

  static Session::Options FixedWorkOptions(int max_iterations) {
    Session::Options options;
    options.config.max_iterations = max_iterations;
    options.config.convergence_threshold = 0.0;
    return options;
  }

  // All three exported tables as one string — the byte-identity currency
  // of these tests. Each call exports to a fresh prefix.
  static std::string Tables(const Session& session) {
    static int counter = 0;
    const std::string prefix = TempPath("tables_" + std::to_string(counter++));
    EXPECT_TRUE(session.Export(prefix).ok());
    std::string all;
    for (const char* table : {"_instances.tsv", "_relations.tsv",
                              "_classes.tsv"}) {
      std::ifstream in(prefix + table, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      all += buffer.str();
    }
    return all;
  }

 private:
  static api::DatasetSummary* split_;
  static api::DatasetSummary* full_;
};

api::DatasetSummary* DeltaRealignTest::split_ = nullptr;
api::DatasetSummary* DeltaRealignTest::full_ = nullptr;

TEST_F(DeltaRealignTest, RealignFromOwnResult) {
  Session session(FixedWorkOptions(4));
  ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                  .ok());
  ASSERT_TRUE(session.Align().ok());
  const std::string base_tables = Tables(session);

  ASSERT_TRUE(
      session.ApplyDelta(Session::DeltaSide::kLeft, split().delta_path).ok());
  EXPECT_EQ(session.num_staged_deltas(), 1u);
  ASSERT_TRUE(session.Realign().ok());
  EXPECT_EQ(session.num_staged_deltas(), 0u);
  EXPECT_TRUE(session.has_result());
  EXPECT_NE(Tables(session), base_tables);

  // The result was replaced: a second delta-free Realign must refuse.
  EXPECT_EQ(session.Realign().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeltaRealignTest, RealignFromSavedResultMatchesInMemoryPath) {
  const std::string saved = TempPath("delta_base_result.bin");
  std::string via_memory;
  {
    Session session(FixedWorkOptions(4));
    ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                    .ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(session.SaveResult(saved).ok());
    ASSERT_TRUE(session.ApplyDelta(Session::DeltaSide::kLeft,
                                   split().delta_path)
                    .ok());
    ASSERT_TRUE(session.Realign().ok());
    via_memory = Tables(session);
  }
  {
    Session session(FixedWorkOptions(4));
    ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                    .ok());
    ASSERT_TRUE(session.ApplyDelta(Session::DeltaSide::kLeft,
                                   split().delta_path)
                    .ok());
    ASSERT_TRUE(session.Realign(saved).ok());
    EXPECT_EQ(Tables(session), via_memory);
  }
}

// The redesigned surface's determinism contract extends to the incremental
// path: realign output is byte-identical across thread and shard counts.
TEST_F(DeltaRealignTest, RealignByteIdenticalAcrossThreadsAndShards) {
  const std::string saved = TempPath("delta_det_result.bin");
  {
    Session session(FixedWorkOptions(3));
    ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                    .ok());
    ASSERT_TRUE(session.Align().ok());
    ASSERT_TRUE(session.SaveResult(saved).ok());
  }
  std::string reference;
  for (size_t threads : {0, 1, 4}) {
    for (size_t shards : {7, 64}) {
      Session::Options options = FixedWorkOptions(3);
      options.config.num_threads = threads;
      options.config.num_shards = shards;
      Session session(options);
      ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                      .ok());
      ASSERT_TRUE(session.ApplyDelta(Session::DeltaSide::kLeft,
                                     split().delta_path)
                      .ok());
      ASSERT_TRUE(session.Realign(saved).ok());
      const std::string tables = Tables(session);
      if (reference.empty()) {
        reference = tables;
      } else {
        EXPECT_EQ(tables, reference)
            << "threads " << threads << " shards " << shards;
      }
    }
  }
}

// Realign lands on a fixpoint of the post-delta pair. It is not a bit-replay
// of a cold run over base+delta (different trajectory), but the maximal
// instance assignment must agree on all but borderline-tie pairs.
TEST_F(DeltaRealignTest, RealignAgreesWithColdRunOnMergedOntology) {
  auto assignment = [](const std::string& tables) {
    std::vector<std::string> pairs;
    std::istringstream in(tables);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t second_tab = line.find('\t', line.find('\t') + 1);
      if (second_tab == std::string::npos) break;  // end of instance table
      pairs.push_back(line.substr(0, second_tab));
    }
    return pairs;
  };

  Session cold(FixedWorkOptions(4));
  ASSERT_TRUE(cold.LoadFromFiles(full().left_path, full().right_path).ok());
  ASSERT_TRUE(cold.Align().ok());
  const std::vector<std::string> cold_pairs = assignment(Tables(cold));

  Session incremental(FixedWorkOptions(4));
  ASSERT_TRUE(
      incremental.LoadFromFiles(split().left_path, split().right_path).ok());
  ASSERT_TRUE(incremental.Align().ok());
  ASSERT_TRUE(incremental
                  .ApplyDelta(Session::DeltaSide::kLeft, split().delta_path)
                  .ok());
  ASSERT_TRUE(incremental.Realign().ok());
  const std::vector<std::string> inc_pairs = assignment(Tables(incremental));

  ASSERT_FALSE(cold_pairs.empty());
  size_t common = 0;
  {
    std::vector<std::string> a = cold_pairs, b = inc_pairs;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<std::string> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(both));
    common = both.size();
  }
  EXPECT_GE(common * 100, cold_pairs.size() * 95)
      << "agreement " << common << "/" << cold_pairs.size();
}

TEST_F(DeltaRealignTest, ErrorPaths) {
  Session session(FixedWorkOptions(2));
  // Staging before load refuses.
  EXPECT_EQ(session.ApplyDelta(Session::DeltaSide::kLeft, split().delta_path)
                .code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                  .ok());
  // Realign with nothing staged refuses.
  ASSERT_TRUE(session.Align().ok());
  EXPECT_EQ(session.Realign().code(), StatusCode::kFailedPrecondition);

  // A missing delta file surfaces its path.
  auto missing =
      session.ApplyDelta(Session::DeltaSide::kLeft, TempPath("no_delta.nt"));
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.ToString().find("no_delta.nt"), std::string::npos);

  // A schema statement in a staged delta fails the Realign, drops the
  // staged batches, and keeps the base result usable.
  const std::string bad_path = TempPath("bad_delta.nt");
  {
    std::ofstream out(bad_path);
    out << "<d:X> <rdfs:subClassOf> <d:Y> .\n";
  }
  ASSERT_TRUE(session.ApplyDelta(Session::DeltaSide::kLeft, bad_path).ok());
  auto failed = session.Realign();
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.num_staged_deltas(), 0u);
  EXPECT_TRUE(session.has_result());
  std::ostringstream still_usable;
  EXPECT_TRUE(session.WriteInstanceAlignment(still_usable).ok());
  EXPECT_FALSE(still_usable.str().empty());
}

// In-memory staging: both sides, several batches, merged in staging order.
TEST_F(DeltaRealignTest, StagesInMemoryTriplesOnBothSides) {
  Session session(FixedWorkOptions(3));
  ASSERT_TRUE(session.LoadFromFiles(split().left_path, split().right_path)
                  .ok());
  ASSERT_TRUE(session.Align().ok());

  std::vector<ParsedTriple> left_delta = {
      LiteralFact("r1:restaurant_new", "r1:name", "brand new place"),
  };
  std::vector<ParsedTriple> right_delta = {
      LiteralFact("r2:restaurant_new", "r2:title", "brand new place"),
  };
  ASSERT_TRUE(session
                  .ApplyDelta(Session::DeltaSide::kLeft,
                              std::move(left_delta))
                  .ok());
  ASSERT_TRUE(session
                  .ApplyDelta(Session::DeltaSide::kRight,
                              std::move(right_delta))
                  .ok());
  EXPECT_EQ(session.num_staged_deltas(), 2u);
  ASSERT_TRUE(session.Realign().ok());
  // Both new entities exist and carry the shared name, so the realigned
  // assignment pairs them up.
  std::ostringstream out;
  ASSERT_TRUE(session.WriteInstanceAlignment(out).ok());
  EXPECT_NE(out.str().find("r1:restaurant_new\tr2:restaurant_new"),
            std::string::npos);
}

}  // namespace
}  // namespace paris
