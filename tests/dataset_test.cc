#include "data/dataset.h"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>
#include "test_util.h"

namespace scholar {
namespace {

constexpr char kAMinerSample[] =
    "#* Foundations of Databases\n"
    "#@ Serge Abiteboul;Richard Hull\n"
    "#t 1995\n"
    "#c Addison-Wesley\n"
    "#index 100\n"
    "\n"
    "#* A Relational Model of Data\n"
    "#@ E. F. Codd\n"
    "#t 1970\n"
    "#c CACM\n"
    "#index 200\n"
    "\n"
    "#* System R\n"
    "#@ Jim Gray;E. F. Codd\n"
    "#t 1976\n"
    "#c SIGMOD\n"
    "#index 300\n"
    "#% 200\n"
    "#% 999\n";

TEST(AMinerReadTest, ParsesRecordsAndCitations) {
  std::stringstream in(kAMinerSample);
  Corpus corpus = ReadAMinerCorpus(&in, "sample").value();
  ASSERT_EQ(corpus.num_articles(), 3u);
  EXPECT_EQ(corpus.name, "sample");
  // Reference to missing #index 999 dropped; 300 -> 200 kept.
  EXPECT_EQ(corpus.num_citations(), 1u);
  EXPECT_TRUE(corpus.graph.HasEdge(2, 1));
  EXPECT_EQ(corpus.graph.year(0), 1995);
  EXPECT_EQ(corpus.graph.year(1), 1970);
  EXPECT_EQ(corpus.titles[1], "A Relational Model of Data");
  EXPECT_EQ(corpus.external_ids[2], 300u);
}

TEST(AMinerReadTest, VenuesAreInterned) {
  std::stringstream in(kAMinerSample);
  Corpus corpus = ReadAMinerCorpus(&in, "sample").value();
  ASSERT_EQ(corpus.venue_names.size(), 3u);
  EXPECT_EQ(corpus.venue_names[corpus.venues[1]], "CACM");
}

TEST(AMinerReadTest, AuthorsAreSharedAcrossPapers) {
  std::stringstream in(kAMinerSample);
  Corpus corpus = ReadAMinerCorpus(&in, "sample").value();
  ASSERT_TRUE(corpus.has_authors());
  // Codd appears on papers 1 and 2 under one author id.
  auto a1 = corpus.authors.AuthorsOf(1);
  auto a2 = corpus.authors.AuthorsOf(2);
  ASSERT_EQ(a1.size(), 1u);
  ASSERT_EQ(a2.size(), 2u);
  EXPECT_EQ(corpus.authors.PaperCount(a1[0]), 2u);
}

TEST(AMinerReadTest, RecordWithoutIndexIsCorruption) {
  std::stringstream in("#* orphan title\n#t 2000\n\n");
  EXPECT_TRUE(ReadAMinerCorpus(&in, "x").status().IsCorruption());
}

TEST(AMinerReadTest, DuplicateIndexIsCorruption) {
  std::stringstream in("#t 2000\n#index 5\n\n#t 2001\n#index 5\n\n");
  EXPECT_TRUE(ReadAMinerCorpus(&in, "x").status().IsCorruption());
}

TEST(AMinerReadTest, EmptyInputIsCorruption) {
  std::stringstream in("");
  EXPECT_TRUE(ReadAMinerCorpus(&in, "x").status().IsCorruption());
}

TEST(AMinerReadTest, MissingYearFallsBackToCorpusMinimum) {
  std::stringstream in(
      "#t 1990\n#index 1\n\n"
      "#index 2\n\n");
  Corpus corpus = ReadAMinerCorpus(&in, "x").value();
  EXPECT_EQ(corpus.graph.year(1), 1990);
}

TEST(AMinerReadTest, NewIndexStartsNewRecordWithoutBlankLine) {
  std::stringstream in(
      "#index 1\n#t 1990\n"
      "#index 2\n#t 1991\n");
  Corpus corpus = ReadAMinerCorpus(&in, "x").value();
  EXPECT_EQ(corpus.num_articles(), 2u);
}

TEST(AMinerRoundTripTest, WriteThenReadPreservesStructure) {
  std::stringstream in(kAMinerSample);
  Corpus corpus = ReadAMinerCorpus(&in, "sample").value();
  std::stringstream buffer;
  ASSERT_TRUE(WriteAMinerCorpus(corpus, &buffer).ok());
  Corpus back = ReadAMinerCorpus(&buffer, "sample").value();
  EXPECT_EQ(back.graph, corpus.graph);
  EXPECT_EQ(back.external_ids, corpus.external_ids);
  EXPECT_EQ(back.titles, corpus.titles);
  EXPECT_EQ(back.venues, corpus.venues);
  EXPECT_EQ(back.authors.num_links(), corpus.authors.num_links());
}

// /dev/full accepts open() and buffered writes but fails the flush, so a
// writer that returns before closing its file reports success.
constexpr char kFullDevice[] = "/dev/full";

TEST(AMinerWriteFileTest, FailedFinalFlushIsIOError) {
  if (!std::filesystem::exists(kFullDevice)) GTEST_SKIP() << "no /dev/full";
  std::stringstream in(kAMinerSample);
  Corpus corpus = ReadAMinerCorpus(&in, "sample").value();
  const Status status = WriteAMinerCorpusFile(corpus, kFullDevice);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(status.message(), "short write: /dev/full");
}

constexpr char kArticlesTsv[] =
    "0\t1995\tVLDB\talice;bob\n"
    "1\t1998\tSIGMOD\tbob\n"
    "2\t2001\t\t\n";
constexpr char kCitationsTsv[] = "1\t0\n2\t0\n2\t1\n";

TEST(TsvReadTest, ParsesArticlesAndCitations) {
  std::stringstream articles(kArticlesTsv), citations(kCitationsTsv);
  Corpus corpus = ReadTsvCorpus(&articles, &citations, "tsv").value();
  ASSERT_EQ(corpus.num_articles(), 3u);
  EXPECT_EQ(corpus.num_citations(), 3u);
  EXPECT_EQ(corpus.graph.year(2), 2001);
  EXPECT_TRUE(corpus.graph.HasEdge(2, 1));
  EXPECT_EQ(corpus.venues[2], -1);
  EXPECT_EQ(corpus.venue_names[corpus.venues[0]], "VLDB");
  // bob authored papers 0 and 1.
  auto bob_papers =
      corpus.authors.PapersOf(corpus.authors.AuthorsOf(1)[0]);
  EXPECT_EQ(bob_papers.size(), 2u);
}

TEST(TsvReadTest, RejectsNonDenseIds) {
  std::stringstream articles("0\t1990\t\t\n5\t1991\t\t\n");
  std::stringstream citations("");
  EXPECT_TRUE(
      ReadTsvCorpus(&articles, &citations, "x").status().IsCorruption());
}

TEST(TsvReadTest, RejectsDuplicateIds) {
  std::stringstream articles("0\t1990\t\t\n0\t1991\t\t\n");
  std::stringstream citations("");
  EXPECT_TRUE(
      ReadTsvCorpus(&articles, &citations, "x").status().IsCorruption());
}

TEST(TsvReadTest, RejectsOutOfRangeCitation) {
  std::stringstream articles("0\t1990\t\t\n1\t1991\t\t\n");
  std::stringstream citations("1\t7\n");
  EXPECT_TRUE(
      ReadTsvCorpus(&articles, &citations, "x").status().IsCorruption());
}

TEST(TsvRoundTripTest, WriteThenRead) {
  std::stringstream articles(kArticlesTsv), citations(kCitationsTsv);
  Corpus corpus = ReadTsvCorpus(&articles, &citations, "tsv").value();
  std::stringstream a_out, c_out;
  ASSERT_TRUE(WriteTsvCorpus(corpus, &a_out, &c_out).ok());
  Corpus back = ReadTsvCorpus(&a_out, &c_out, "tsv").value();
  EXPECT_EQ(back.graph, corpus.graph);
  EXPECT_EQ(back.venues, corpus.venues);
  EXPECT_EQ(back.authors.num_links(), corpus.authors.num_links());
}

TEST(TsvWriteFileTest, FailedFinalFlushIsIOError) {
  if (!std::filesystem::exists(kFullDevice)) GTEST_SKIP() << "no /dev/full";
  std::stringstream articles(kArticlesTsv), citations(kCitationsTsv);
  Corpus corpus = ReadTsvCorpus(&articles, &citations, "tsv").value();
  Status status = WriteTsvCorpusFiles(corpus, kFullDevice, kFullDevice);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  // The citations file alone failing is caught too.
  const std::string ok_path = ::testing::TempDir() + "/tsv_full_articles.tsv";
  status = WriteTsvCorpusFiles(corpus, ok_path, kFullDevice);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(status.message(), "short write: /dev/full");
}

TEST(CorpusConsistencyTest, DetectsSizeMismatch) {
  Corpus corpus;
  corpus.graph = testing_util::MakeTinyGraph();
  corpus.venues = {0, 0};  // wrong size (graph has 5 nodes)
  corpus.venue_names = {"v"};
  EXPECT_TRUE(corpus.ConsistencyCheck().IsCorruption());
}

TEST(CorpusConsistencyTest, DetectsBadVenueIndex) {
  Corpus corpus;
  corpus.graph = testing_util::MakeTinyGraph();
  corpus.venues = {0, 0, 0, 0, 7};  // venue 7 does not exist
  corpus.venue_names = {"v"};
  EXPECT_TRUE(corpus.ConsistencyCheck().IsCorruption());
}

TEST(CorpusConsistencyTest, EmptyOptionalFieldsAreFine) {
  Corpus corpus;
  corpus.graph = testing_util::MakeTinyGraph();
  EXPECT_TRUE(corpus.ConsistencyCheck().ok());
  EXPECT_FALSE(corpus.has_ground_truth());
  EXPECT_FALSE(corpus.has_authors());
}

}  // namespace
}  // namespace scholar
