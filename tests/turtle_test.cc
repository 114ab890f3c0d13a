#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "fifo_writer.h"
#include "paris/ontology/ontology.h"
#include "paris/rdf/turtle.h"

namespace paris::rdf {
namespace {

std::vector<ParsedTriple> Parse(std::string_view doc) {
  VectorTripleSink sink;
  util::Status s = TurtleParser::ParseDocument(doc, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return sink.triples();
}

TEST(TurtleTest, BasicTripleWithPrefix) {
  auto triples = Parse(
      "@prefix ex: <http://example.org/> .\n"
      "ex:alice ex:knows ex:bob .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "http://example.org/alice");
  EXPECT_EQ(triples[0].predicate, "http://example.org/knows");
  EXPECT_EQ(triples[0].object, "http://example.org/bob");
  EXPECT_FALSE(triples[0].object_is_literal);
}

TEST(TurtleTest, SparqlStylePrefix) {
  auto triples = Parse(
      "PREFIX ex: <http://e.org/>\n"
      "ex:a ex:p ex:b .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "http://e.org/a");
}

TEST(TurtleTest, AKeywordIsRdfType) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "ex:elvis a ex:Singer .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].predicate, "rdf:type");
}

TEST(TurtleTest, PredicateAndObjectLists) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "ex:elvis a ex:Singer ;\n"
      "    ex:name \"Elvis\" , \"The King\"@en ;\n"
      "    ex:born \"1935\"^^<http://www.w3.org/2001/XMLSchema#int> .\n");
  ASSERT_EQ(triples.size(), 4u);
  EXPECT_EQ(triples[0].predicate, "rdf:type");
  EXPECT_EQ(triples[1].object, "Elvis");
  EXPECT_TRUE(triples[1].object_is_literal);
  EXPECT_EQ(triples[2].object, "The King");
  EXPECT_EQ(triples[2].language, "en");
  EXPECT_EQ(triples[3].object, "1935");
  EXPECT_EQ(triples[3].datatype, "http://www.w3.org/2001/XMLSchema#int");
}

TEST(TurtleTest, TrailingSemicolonBeforeDot) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "ex:a ex:p ex:b ;\n"
      "     ex:q ex:c ;\n"
      ".\n");
  EXPECT_EQ(triples.size(), 2u);
}

TEST(TurtleTest, NumericAndBooleanAbbreviations) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "ex:x ex:age 42 ; ex:height 1.82 ; ex:active true .\n");
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[0].object, "42");
  EXPECT_NE(triples[0].datatype.find("integer"), std::string::npos);
  EXPECT_EQ(triples[1].object, "1.82");
  EXPECT_NE(triples[1].datatype.find("decimal"), std::string::npos);
  EXPECT_EQ(triples[2].object, "true");
  EXPECT_NE(triples[2].datatype.find("boolean"), std::string::npos);
}

TEST(TurtleTest, LongStrings) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "ex:x ex:bio \"\"\"line one\nline \"two\" end\"\"\" .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].object, "line one\nline \"two\" end");
}

TEST(TurtleTest, EscapesAndComments) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> . # a comment\n"
      "# full-line comment\n"
      "ex:x ex:label \"tab\\there \\u00e9\" .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].object, "tab\there \xc3\xa9");
}

TEST(TurtleTest, PrefixedDatatype) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
      "ex:x ex:born \"1935\"^^xsd:date .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].datatype, "http://www.w3.org/2001/XMLSchema#date");
}

TEST(TurtleTest, DotInsideLocalName) {
  auto triples = Parse(
      "@prefix ex: <http://e.org/> .\n"
      "ex:v1.2 ex:p ex:b .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "http://e.org/v1.2");
}

TEST(TurtleTest, ErrorsCarryLineNumbers) {
  VectorTripleSink sink;
  auto s = TurtleParser::ParseDocument(
      "@prefix ex: <http://e.org/> .\n"
      "ex:a ex:p [ ] .\n",
      &sink);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s.ToString();
}

TEST(TurtleTest, RejectsUndeclaredPrefix) {
  VectorTripleSink sink;
  auto s = TurtleParser::ParseDocument("foo:a foo:b foo:c .\n", &sink);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("undeclared prefix"), std::string::npos);
}

TEST(TurtleTest, RejectsBlankNodesAndCollections) {
  VectorTripleSink sink;
  EXPECT_FALSE(
      TurtleParser::ParseDocument("_:b <p:x> <p:y> .\n", &sink).ok());
  EXPECT_FALSE(TurtleParser::ParseDocument(
                   "@prefix e: <u:> . e:a e:p ( e:b e:c ) .\n", &sink)
                   .ok());
  EXPECT_FALSE(
      TurtleParser::ParseDocument("@base <http://x/> .\n", &sink).ok());
}

TEST(TurtleTest, RejectsUnterminatedConstructs) {
  VectorTripleSink sink;
  EXPECT_FALSE(TurtleParser::ParseDocument("<u:a> <u:b> \"open .\n", &sink)
                   .ok());
  EXPECT_FALSE(TurtleParser::ParseDocument("<u:a <u:b> <u:c> .\n", &sink)
                   .ok());
  EXPECT_FALSE(
      TurtleParser::ParseDocument("<u:a> <u:b> <u:c>\n", &sink).ok());
}

TEST(TurtleTest, FeedsOntologyBuilder) {
  rdf::TermPool pool;
  ontology::OntologyBuilder builder(&pool, "turtle");
  const char* doc =
      "@prefix ex: <http://e.org/> .\n"
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
      "ex:elvis a ex:Singer ;\n"
      "    rdfs:label \"Elvis Presley\" ;\n"
      "    ex:bornIn ex:tupelo .\n"
      "ex:Singer rdfs:subClassOf ex:Person .\n";
  ASSERT_TRUE(TurtleParser::ParseDocument(doc, &builder).ok());
  auto onto = builder.Build();
  ASSERT_TRUE(onto.ok()) << onto.status().ToString();
  EXPECT_EQ(onto->classes().size(), 2u);
  EXPECT_EQ(onto->num_triples(), 2u);  // label + bornIn
  const auto elvis = pool.Find("http://e.org/elvis", TermKind::kIri);
  ASSERT_TRUE(elvis.has_value());
  EXPECT_EQ(onto->ClassesOf(*elvis).size(), 2u);  // Singer + Person (closure)
}

TEST(TurtleTest, UnicodeEscapesMustNameScalarValues) {
  auto triples = Parse(
      "<u:s> <u:p> \"\\U0010FFFF\" , \"\\u00E9\" .\n"
      "<u:s\\u0041> <u:p> <u:\\U0001F600> .\n");
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[0].object, "\xF4\x8F\xBF\xBF");
  EXPECT_EQ(triples[1].object, "\xC3\xA9");
  EXPECT_EQ(triples[2].subject, "u:sA");
  EXPECT_EQ(triples[2].object, "u:\xF0\x9F\x98\x80");
  for (const char* body : {"\"x\\U00110000y\"", "\"\\uD800\"", "\"\\uDFFF\"",
                           "\"\\U00200000\"", "<u:\\uDBFF>"}) {
    VectorTripleSink sink;
    const util::Status s = TurtleParser::ParseDocument(
        std::string("<u:s> <u:p> <u:o> .\n<u:s> <u:p> ") + body + " .\n",
        &sink);
    EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument) << body;
    EXPECT_EQ(s.message(),
              "line 2: unicode escape names no Unicode scalar value")
        << body;
  }
}

TEST(TurtleTest, ParseFileRejectsDirectory) {
  const std::string dir = ::testing::TempDir() + "/turtle_test_dir.ttl";
  std::filesystem::create_directories(dir);
  VectorTripleSink sink;
  const util::Status s = TurtleParser::ParseFile(dir, &sink);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find(dir), std::string::npos) << s.ToString();
  EXPECT_TRUE(sink.triples().empty());
  std::filesystem::remove(dir);
}

// A pipe has no size up front: the read runs to EOF, through more than one
// 64 KiB read.
TEST(TurtleTest, ParseFileReadsFifoToEof) {
  std::string doc = "@prefix ex: <http://e.org/> .\n";
  for (int i = 0; i < 4000; ++i) {
    doc += "ex:s" + std::to_string(i) + " ex:label \"value number " +
           std::to_string(i) + "\" ; a ex:Thing .\n";
  }
  ASSERT_GT(doc.size(), size_t{2} << 16);
  testing_util::FifoWriter fifo(::testing::TempDir() + "/turtle_test.fifo",
                                doc);
  ASSERT_TRUE(fifo.created());
  VectorTripleSink from_fifo;
  const util::Status s = TurtleParser::ParseFile(fifo.path(), &from_fifo);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const std::vector<ParsedTriple> from_text = Parse(doc);
  ASSERT_EQ(from_text.size(), 8000u);
  EXPECT_EQ(from_fifo.triples(), from_text);
}

}  // namespace
}  // namespace paris::rdf
