#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fifo_writer.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"

namespace paris::rdf {
namespace {

// ---------------------------------------------------------------------------
// TermPool
// ---------------------------------------------------------------------------

TEST(TermPoolTest, InternReturnsStableIds) {
  TermPool pool;
  const TermId a = pool.InternIri("ex:a");
  const TermId b = pool.InternIri("ex:b");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.InternIri("ex:a"), a);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(TermPoolTest, IriAndLiteralAreDistinct) {
  TermPool pool;
  const TermId iri = pool.InternIri("London");
  const TermId lit = pool.InternLiteral("London");
  EXPECT_NE(iri, lit);
  EXPECT_FALSE(pool.IsLiteral(iri));
  EXPECT_TRUE(pool.IsLiteral(lit));
  EXPECT_EQ(pool.lexical(iri), "London");
  EXPECT_EQ(pool.lexical(lit), "London");
}

TEST(TermPoolTest, FindWithoutInterning) {
  TermPool pool;
  EXPECT_FALSE(pool.Find("ex:a", TermKind::kIri).has_value());
  const TermId a = pool.InternIri("ex:a");
  auto found = pool.Find("ex:a", TermKind::kIri);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, a);
  EXPECT_FALSE(pool.Find("ex:a", TermKind::kLiteral).has_value());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TermPoolTest, ManyTermsKeepLexicalStable) {
  TermPool pool;
  std::vector<TermId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(pool.InternIri("term" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.lexical(ids[static_cast<size_t>(i)]),
              "term" + std::to_string(i));
  }
}

// The flat pool against a std::map reference: seeded random Intern / Find
// sequences through a dozen table growths, over names shared by both kinds,
// the empty string, names with embedded NUL bytes and names longer than one
// 64 KiB lexical block. Ids must be dense in first-intern order.
TEST(TermPoolTest, MatchesMapReferenceThroughGrowth) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    const auto random_name = [&rng]() -> std::string {
      switch (rng() % 16) {
        case 0:
          return "";
        case 1:
          return std::string(1 + rng() % 3, '\0') + std::to_string(rng() % 50);
        case 2:
          return std::string((64 << 10) + 1 + rng() % 4, 'x');
        default:
          return "t" + std::to_string(rng() % 20000);
      }
    };
    TermPool pool;
    std::map<std::pair<TermKind, std::string>, TermId> reference;
    std::vector<std::pair<TermKind, std::string>> first_interned;
    for (int step = 0; step < 60000; ++step) {
      const TermKind kind = rng() % 2 == 0 ? TermKind::kIri : TermKind::kLiteral;
      std::string name = random_name();
      const auto it = reference.find({kind, name});
      if (rng() % 3 == 0) {
        const auto found = pool.Find(name, kind);
        ASSERT_EQ(found.has_value(), it != reference.end())
            << "seed " << seed << " step " << step;
        if (found.has_value()) {
          EXPECT_EQ(*found, it->second);
        }
        continue;
      }
      const TermId id = pool.Intern(name, kind);
      if (it != reference.end()) {
        ASSERT_EQ(id, it->second) << "seed " << seed << " step " << step;
      } else {
        ASSERT_EQ(id, first_interned.size()) << "seed " << seed;
        reference.emplace(std::make_pair(kind, name), id);
        first_interned.emplace_back(kind, std::move(name));
      }
    }
    ASSERT_EQ(pool.size(), first_interned.size());
    ASSERT_GT(pool.size(), 20000u);  // the table grew from 16 to 2^16 slots
    for (TermId id = 0; id < pool.size(); ++id) {
      const auto& [kind, name] = first_interned[id];
      EXPECT_EQ(pool.kind(id), kind);
      EXPECT_EQ(pool.lexical(id), name);
      EXPECT_EQ(pool.Find(name, kind), std::optional<TermId>(id));
    }
    EXPECT_FALSE(pool.Find("never interned", TermKind::kIri).has_value());
  }
}

TEST(TermPoolTest, EarlyViewsSurviveLaterInterning) {
  TermPool pool;
  std::vector<std::string> names;
  std::vector<std::string_view> views;
  for (int i = 0; i < 100; ++i) {
    names.push_back("e" + std::to_string(i));  // short: inline in a string
    views.push_back(pool.lexical(pool.InternIri(names.back())));
  }
  names.push_back(std::string(100000, 'L'));
  views.push_back(pool.lexical(pool.InternLiteral(names.back())));
  for (int i = 0; i < 100000; ++i) {
    pool.InternLiteral("later" + std::to_string(i));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(views[i], names[i]);
    EXPECT_EQ(views[i].data(), pool.lexical(static_cast<TermId>(i)).data());
  }
}

TEST(TermPoolTest, InternsViewsOfItsOwnBytes) {
  TermPool pool;
  constexpr TermId kIris = 1000;
  for (TermId i = 0; i < kIris; ++i) pool.InternIri("iri" + std::to_string(i));
  // Each intern may grow the table and the per-id arrays while its argument
  // views the pool's own lexical bytes.
  for (TermId id = 0; id < kIris; ++id) {
    const TermId literal = pool.InternLiteral(pool.lexical(id));
    EXPECT_EQ(literal, kIris + id);
    EXPECT_EQ(pool.lexical(literal), pool.lexical(id));
    EXPECT_TRUE(pool.IsLiteral(literal));
  }
  EXPECT_EQ(pool.InternIri(pool.lexical(kIris + 5)), 5u);
  EXPECT_EQ(pool.size(), 2 * kIris);
}

// ---------------------------------------------------------------------------
// Signed relations
// ---------------------------------------------------------------------------

TEST(RelIdTest, InverseEncoding) {
  EXPECT_EQ(Inverse(3), -3);
  EXPECT_EQ(Inverse(-3), 3);
  EXPECT_TRUE(IsInverse(-1));
  EXPECT_FALSE(IsInverse(1));
  EXPECT_EQ(BaseRel(-7), 7);
  EXPECT_EQ(BaseRel(7), 7);
}

// ---------------------------------------------------------------------------
// TripleStore
// ---------------------------------------------------------------------------

class TripleStoreTest : public ::testing::Test {
 protected:
  TripleStoreTest() : store_(&pool_) {
    alice_ = pool_.InternIri("ex:alice");
    bob_ = pool_.InternIri("ex:bob");
    carol_ = pool_.InternIri("ex:carol");
    knows_ = store_.InternRelation(pool_.InternIri("ex:knows"));
    likes_ = store_.InternRelation(pool_.InternIri("ex:likes"));
  }

  TermPool pool_;
  TripleStore store_;
  TermId alice_, bob_, carol_;
  RelId knows_, likes_;
};

TEST_F(TripleStoreTest, AddAndFactsAbout) {
  store_.Add(alice_, knows_, bob_);
  store_.Finalize();
  auto facts = store_.FactsAbout(alice_);
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].rel, knows_);
  EXPECT_EQ(facts[0].other, bob_);
  // The inverse statement is materialized on bob.
  auto bob_facts = store_.FactsAbout(bob_);
  ASSERT_EQ(bob_facts.size(), 1u);
  EXPECT_EQ(bob_facts[0].rel, Inverse(knows_));
  EXPECT_EQ(bob_facts[0].other, alice_);
}

TEST_F(TripleStoreTest, AddWithInverseRelNormalizes) {
  // Add(bob, knows⁻¹, alice) must equal Add(alice, knows, bob).
  store_.Add(bob_, Inverse(knows_), alice_);
  store_.Finalize();
  EXPECT_TRUE(store_.Contains(alice_, knows_, bob_));
  EXPECT_TRUE(store_.Contains(bob_, Inverse(knows_), alice_));
  EXPECT_EQ(store_.num_triples(), 1u);
}

TEST_F(TripleStoreTest, FinalizeDeduplicates) {
  store_.Add(alice_, knows_, bob_);
  store_.Add(alice_, knows_, bob_);
  store_.Add(alice_, knows_, bob_);
  store_.Finalize();
  EXPECT_EQ(store_.num_triples(), 1u);
  EXPECT_EQ(store_.FactsAbout(alice_).size(), 1u);
}

TEST_F(TripleStoreTest, FactsSortedByRelationThenOther) {
  store_.Add(alice_, likes_, carol_);
  store_.Add(alice_, knows_, carol_);
  store_.Add(alice_, knows_, bob_);
  store_.Finalize();
  auto facts = store_.FactsAbout(alice_);
  ASSERT_EQ(facts.size(), 3u);
  EXPECT_TRUE(facts[0].rel <= facts[1].rel && facts[1].rel <= facts[2].rel);
  EXPECT_EQ(facts[0].rel, knows_);
  EXPECT_EQ(facts[0].other, bob_);
}

TEST_F(TripleStoreTest, PairsOfAndForEachPair) {
  store_.Add(alice_, knows_, bob_);
  store_.Add(alice_, knows_, carol_);
  store_.Finalize();
  EXPECT_EQ(store_.PairCount(knows_), 2u);
  EXPECT_EQ(store_.PairCount(Inverse(knows_)), 2u);

  // Inverse iteration swaps the pair.
  std::vector<std::pair<TermId, TermId>> inv_pairs;
  store_.ForEachPair(Inverse(knows_), 0, [&](TermId x, TermId y) {
    inv_pairs.emplace_back(x, y);
  });
  ASSERT_EQ(inv_pairs.size(), 2u);
  for (const auto& [x, y] : inv_pairs) {
    EXPECT_EQ(y, alice_);
  }
}

TEST_F(TripleStoreTest, ForEachPairHonorsLimit) {
  for (int i = 0; i < 10; ++i) {
    store_.Add(alice_, knows_, pool_.InternIri("ex:p" + std::to_string(i)));
  }
  store_.Finalize();
  size_t count = 0;
  store_.ForEachPair(knows_, 3, [&](TermId, TermId) { ++count; });
  EXPECT_EQ(count, 3u);
}

TEST_F(TripleStoreTest, ObjectsOfFiltersByRelation) {
  store_.Add(alice_, knows_, bob_);
  store_.Add(alice_, likes_, carol_);
  store_.Finalize();
  auto objs = store_.ObjectsOf(alice_, knows_);
  ASSERT_EQ(objs.size(), 1u);
  EXPECT_EQ(objs[0], bob_);
}

TEST_F(TripleStoreTest, UnknownTermHasNoFacts) {
  store_.Finalize();
  const TermId stranger = pool_.InternIri("ex:stranger");
  EXPECT_TRUE(store_.FactsAbout(stranger).empty());
  EXPECT_FALSE(store_.ContainsTerm(stranger));
}

TEST_F(TripleStoreTest, RelationDebugName) {
  store_.Finalize();
  EXPECT_EQ(store_.RelationDebugName(knows_), "ex:knows");
  EXPECT_EQ(store_.RelationDebugName(Inverse(knows_)), "ex:knows^-1");
}

TEST_F(TripleStoreTest, LiteralObjects) {
  const TermId name = pool_.InternLiteral("Alice");
  store_.Add(alice_, likes_, name);
  store_.Finalize();
  // The literal's adjacency points back at the subject.
  auto facts = store_.FactsAbout(name);
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].rel, Inverse(likes_));
  EXPECT_EQ(facts[0].other, alice_);
}

// ---------------------------------------------------------------------------
// N-Triples parser
// ---------------------------------------------------------------------------

TEST(NTriplesTest, ParsesResourceTriple) {
  ParsedTriple t;
  bool is_triple = false;
  auto s = NTriplesParser::ParseLine("<ex:a> <ex:knows> <ex:b> .", &t,
                                     &is_triple);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(is_triple);
  EXPECT_EQ(t.subject, "ex:a");
  EXPECT_EQ(t.predicate, "ex:knows");
  EXPECT_EQ(t.object, "ex:b");
  EXPECT_FALSE(t.object_is_literal);
}

TEST(NTriplesTest, ParsesLiteralWithEscapes) {
  ParsedTriple t;
  bool is_triple = false;
  auto s = NTriplesParser::ParseLine(
      R"(<ex:a> <ex:label> "say \"hi\"\n" .)", &t, &is_triple);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(is_triple);
  EXPECT_TRUE(t.object_is_literal);
  EXPECT_EQ(t.object, "say \"hi\"\n");
}

TEST(NTriplesTest, ParsesTypedLiteral) {
  ParsedTriple t;
  bool is_triple = false;
  auto s = NTriplesParser::ParseLine(
      "<ex:a> <ex:age> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .", &t,
      &is_triple);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(t.object, "42");
  EXPECT_EQ(t.datatype, "http://www.w3.org/2001/XMLSchema#int");
}

TEST(NTriplesTest, ParsesLanguageTag) {
  ParsedTriple t;
  bool is_triple = false;
  auto s = NTriplesParser::ParseLine("<ex:a> <ex:label> \"Londres\"@fr .",
                                     &t, &is_triple);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(t.language, "fr");
  EXPECT_EQ(t.object, "Londres");
}

TEST(NTriplesTest, ParsesUnicodeEscape) {
  ParsedTriple t;
  bool is_triple = false;
  auto s = NTriplesParser::ParseLine(
      R"(<ex:a> <ex:label> "café" .)", &t, &is_triple);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(t.object, "caf\xc3\xa9");
}

TEST(NTriplesTest, SkipsCommentsAndBlankLines) {
  ParsedTriple t;
  bool is_triple = true;
  ASSERT_TRUE(NTriplesParser::ParseLine("", &t, &is_triple).ok());
  EXPECT_FALSE(is_triple);
  ASSERT_TRUE(NTriplesParser::ParseLine("# comment", &t, &is_triple).ok());
  EXPECT_FALSE(is_triple);
  ASSERT_TRUE(NTriplesParser::ParseLine("   ", &t, &is_triple).ok());
  EXPECT_FALSE(is_triple);
}

TEST(NTriplesTest, RejectsBlankNodes) {
  ParsedTriple t;
  bool is_triple = false;
  EXPECT_FALSE(
      NTriplesParser::ParseLine("_:b1 <ex:p> <ex:o> .", &t, &is_triple).ok());
  EXPECT_FALSE(
      NTriplesParser::ParseLine("<ex:s> <ex:p> _:b1 .", &t, &is_triple).ok());
}

TEST(NTriplesTest, RejectsMalformedLines) {
  ParsedTriple t;
  bool is_triple = false;
  EXPECT_FALSE(NTriplesParser::ParseLine("<ex:a> <ex:b>", &t, &is_triple).ok());
  EXPECT_FALSE(
      NTriplesParser::ParseLine("<ex:a> <ex:b> <ex:c>", &t, &is_triple).ok());
  EXPECT_FALSE(NTriplesParser::ParseLine("<ex:a> <ex:b> \"unterminated .",
                                         &t, &is_triple)
                   .ok());
  EXPECT_FALSE(NTriplesParser::ParseLine(
                   "<ex:a> <ex:b> <ex:c> . trailing", &t, &is_triple)
                   .ok());
}

TEST(NTriplesTest, DocumentReportsLineNumber) {
  VectorTripleSink sink;
  const std::string doc =
      "<ex:a> <ex:p> <ex:b> .\n"
      "garbage line\n";
  auto s = NTriplesParser::ParseDocument(doc, &sink);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s.ToString();
  EXPECT_EQ(sink.triples().size(), 1u);
}

TEST(NTriplesTest, DocumentParsesAll) {
  VectorTripleSink sink;
  const std::string doc =
      "# header\n"
      "<ex:a> <ex:p> <ex:b> .\n"
      "\n"
      "<ex:b> <ex:label> \"B\" .\n";
  auto s = NTriplesParser::ParseDocument(doc, &sink);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.triples().size(), 2u);
}

TEST(NTriplesTest, WriterRoundTrip) {
  const std::string doc =
      "<ex:a> <ex:p> <ex:b> .\n"
      "<ex:a> <ex:label> \"line\\nbreak \\\"q\\\"\" .\n"
      "<ex:a> <ex:age> \"42\"^^<xsd:int> .\n"
      "<ex:a> <ex:name> \"Bob\"@en .\n";
  VectorTripleSink sink;
  ASSERT_TRUE(NTriplesParser::ParseDocument(doc, &sink).ok());
  std::ostringstream out;
  NTriplesWriter::WriteTriples(sink.triples(), out);
  VectorTripleSink sink2;
  ASSERT_TRUE(NTriplesParser::ParseDocument(out.str(), &sink2).ok());
  ASSERT_EQ(sink.triples().size(), 4u);
  EXPECT_EQ(sink.triples(), sink2.triples());
}

// Parses `line` into a fresh triple.
ParsedTriple ParseFresh(std::string_view line, bool* is_triple) {
  ParsedTriple t;
  const util::Status s = NTriplesParser::ParseLine(line, &t, is_triple);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return t;
}

// The document parser hands every line the same triple, so ParseLine must
// reset all six fields: a typed literal's datatype must not survive into a
// language-tagged one, nor either into an IRI object.
TEST(NTriplesTest, ReusedTripleEqualsFreshParse) {
  const std::string_view lines[] = {
      "<ex:a> <ex:age> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .",
      "<ex:b> <ex:label> \"Londres\"@fr .",
      "<ex:c> <ex:knows> <ex:d> .",
      "# a comment line",
      "<ex:e> <ex:label> \"plain\" .",
  };
  ParsedTriple reused;
  for (const std::string_view line : lines) {
    bool reused_is_triple = false;
    ASSERT_TRUE(
        NTriplesParser::ParseLine(line, &reused, &reused_is_triple).ok());
    bool fresh_is_triple = false;
    const ParsedTriple fresh = ParseFresh(line, &fresh_is_triple);
    EXPECT_EQ(reused_is_triple, fresh_is_triple) << line;
    EXPECT_EQ(reused, fresh) << line << "\n  reused: "
                             << NTriplesWriter::FormatTriple(reused);
  }
}

// Escapes at every position of a run, pinned to their decoded fields.
TEST(NTriplesTest, EscapeRunsDecodeToPinnedFields) {
  struct Case {
    std::string_view line;
    std::string_view subject, predicate, object;
    bool literal;
  };
  const Case cases[] = {
      // IRIs: escape at the start, in the middle, at the end, adjacent.
      {R"(<\u0041b> <a\u0042c> <ab\u0043> .)", "Ab", "aBc", "abC", false},
      {R"(<\u0041\u0042> <p> <\U0001F600> .)", "AB", "p", "\xF0\x9F\x98\x80",
       false},
      // Literals: escape at the start, in the middle, at the end.
      {R"(<s> <p> "\tx" .)", "s", "p", "\tx", true},
      {R"(<s> <p> "x\ny" .)", "s", "p", "x\ny", true},
      {R"(<s> <p> "xy\\" .)", "s", "p", "xy\\", true},
      // Adjacent escapes, and \" just before the closing quote.
      {R"(<s> <p> "a\\\"\n\tb" .)", "s", "p", "a\\\"\n\tb", true},
      {R"(<s> <p> "say \"hi\"" .)", "s", "p", "say \"hi\"", true},
      // An empty literal, and one made only of escapes.
      {R"(<s> <p> "" .)", "s", "p", "", true},
      {R"(<s> <p> "\u00E9\t\\\"\r" .)", "s", "p", "\xC3\xA9\t\\\"\r", true},
  };
  for (const Case& c : cases) {
    bool is_triple = false;
    const ParsedTriple t = ParseFresh(c.line, &is_triple);
    EXPECT_TRUE(is_triple) << c.line;
    EXPECT_EQ(t.subject, c.subject) << c.line;
    EXPECT_EQ(t.predicate, c.predicate) << c.line;
    EXPECT_EQ(t.object, c.object) << c.line;
    EXPECT_EQ(t.object_is_literal, c.literal) << c.line;
    EXPECT_TRUE(t.datatype.empty()) << c.line;
    EXPECT_TRUE(t.language.empty()) << c.line;
  }
}

TEST(NTriplesTest, UnicodeEscapesMustNameScalarValues) {
  bool is_triple = false;
  EXPECT_EQ(ParseFresh(R"(<s> <p> "\U0010FFFF" .)", &is_triple).object,
            "\xF4\x8F\xBF\xBF");
  EXPECT_EQ(ParseFresh(R"(<s> <p> "\u00E9" .)", &is_triple).object,
            "\xC3\xA9");
  EXPECT_EQ(ParseFresh(R"(<s> <p> "\uD7FF\uE000" .)", &is_triple).object,
            "\xED\x9F\xBF\xEE\x80\x80");
  for (const std::string_view line :
       {R"(<s> <p> "x\U00110000y" .)", R"(<s> <p> "\uD800" .)",
        R"(<s> <p> "\uDFFF" .)", R"(<s> <p> "\U00200000" .)",
        R"(<s\uDBFF> <p> <o> .)", R"(<s> <p> "\UFFFFFFFF" .)"}) {
    ParsedTriple t;
    const util::Status s = NTriplesParser::ParseLine(line, &t, &is_triple);
    EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument) << line;
    EXPECT_NE(s.message().find("no Unicode scalar value"), std::string::npos)
        << s.ToString();
  }
  // The column names the escape's first hex digit, as the other \u errors do.
  VectorTripleSink sink;
  const util::Status s = NTriplesParser::ParseDocument(
      "<ex:s> <ex:p> <ex:o> .\n<ex:s> <ex:p> \"x\\U00110000y\" .\n", &sink);
  EXPECT_EQ(s.message(),
            "line 2: \\u escape names no Unicode scalar value at column 19 "
            "in: <ex:s> <ex:p> \"x\\U00110000y\" .");
}

// Each malformed line keeps the line and column its error named before the
// run scan: the scan stops where the byte loop met the terminator, a
// backslash or the end of the line.
TEST(NTriplesTest, MalformedLineKeepsLineAndColumn) {
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"<ex:a> <ex:p> <ex:b> .\n\n<ex:a> <ex:p> \"abc\n",
       "line 3: unterminated token at column 19 in: <ex:a> <ex:p> \"abc"},
      {"<ex:a> <ex:p> \"ab\\qcd\" .\r\n",
       "line 1: unknown escape at column 20 in: <ex:a> <ex:p> \"ab\\qcd\" ."},
      {"# c\n<ex:a> <ex:p> \"ab\\",
       "line 2: dangling escape at column 19 in: <ex:a> <ex:p> \"ab\\"},
      {"<ex:a> <ex:p",
       "line 1: unterminated token at column 13 in: <ex:a> <ex:p"},
      {"<ex:a> <ex:p> <ex:b> . x\r\n",
       "line 1: trailing content after '.' at column 24 in: "
       "<ex:a> <ex:p> <ex:b> . x"},
      {"<ex:a> <ex:p> \"\\u00",
       "line 1: truncated \\u escape at column 18 in: <ex:a> <ex:p> \"\\u00"},
      {"<ex:a> <ex:p> \"\\u00G9\" .",
       "line 1: bad hex digit in \\u escape at column 18 in: "
       "<ex:a> <ex:p> \"\\u00G9\" ."},
      {"<ex:a> <ex:p> \"x\"^^<ex:t .",
       "line 1: unterminated token at column 27 in: <ex:a> <ex:p> "
       "\"x\"^^<ex:t ."},
  };
  for (const auto& [doc, message] : cases) {
    VectorTripleSink sink;
    const util::Status s = NTriplesParser::ParseDocument(doc, &sink);
    EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument) << doc;
    EXPECT_EQ(s.message(), message);
  }
}

// ParseFile reads the bytes ParseDocument is given: CRLF line ends,
// comments, blank lines and a missing final newline.
TEST(NTriplesTest, ParseFileEqualsParseDocument) {
  const std::string doc =
      "# header\r\n"
      "<ex:a> <ex:p> <ex:b> .\r\n"
      "\r\n"
      "   \n"
      "<ex:b> <ex:label> \"B \\u00E9\"@en .\n"
      "  # indented comment\n"
      "<ex:b> <ex:age> \"7\"^^<xsd:int> .";
  const std::string path = ::testing::TempDir() + "/rdf_test_parse_file.nt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc;
  }
  VectorTripleSink from_file;
  VectorTripleSink from_text;
  const util::Status s = NTriplesParser::ParseFile(path, &from_file);
  std::remove(path.c_str());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(NTriplesParser::ParseDocument(doc, &from_text).ok());
  ASSERT_EQ(from_text.triples().size(), 3u);
  EXPECT_EQ(from_file.triples(), from_text.triples());
}

TEST(NTriplesTest, ParseFileRejectsDirectory) {
  const std::string dir = ::testing::TempDir() + "/rdf_test_dir.nt";
  std::filesystem::create_directories(dir);
  VectorTripleSink sink;
  const util::Status s = NTriplesParser::ParseFile(dir, &sink);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find(dir), std::string::npos) << s.ToString();
  EXPECT_TRUE(sink.triples().empty());
  std::filesystem::remove(dir);
}

// A pipe has no size up front: the read runs to EOF, through more than one
// 64 KiB read.
TEST(NTriplesTest, ParseFileReadsFifoToEof) {
  std::string doc;
  for (int i = 0; i < 4000; ++i) {
    doc += "<ex:s" + std::to_string(i) + "> <ex:label> \"value number " +
           std::to_string(i) + "\" .\n";
  }
  ASSERT_GT(doc.size(), size_t{2} << 16);
  testing_util::FifoWriter fifo(::testing::TempDir() + "/rdf_test.fifo", doc);
  ASSERT_TRUE(fifo.created());
  VectorTripleSink from_fifo;
  const util::Status s = NTriplesParser::ParseFile(fifo.path(), &from_fifo);
  ASSERT_TRUE(s.ok()) << s.ToString();
  VectorTripleSink from_text;
  ASSERT_TRUE(NTriplesParser::ParseDocument(doc, &from_text).ok());
  ASSERT_EQ(from_text.triples().size(), 4000u);
  EXPECT_EQ(from_fifo.triples(), from_text.triples());
}

}  // namespace
}  // namespace paris::rdf
