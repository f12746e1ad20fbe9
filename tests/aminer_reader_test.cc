// Differential tests of ReadAMinerCorpus against the reader it replaced
// (aminer_oracle.h): on every input both must return the same Status, code
// and message, or Corpus values equal field by field, and log the same
// warnings.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "aminer_oracle.h"
#include "data/dataset.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace scholar {
namespace {

/// Captured log lines without their "[W file:line] " prefix, so the two
/// readers' warnings compare by text.
std::vector<std::string> LogMessages(const std::string& captured) {
  std::vector<std::string> out;
  std::istringstream lines(captured);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t close = line.find("] ");
    out.push_back(close == std::string::npos ? line : line.substr(close + 2));
  }
  return out;
}

struct Outcome {
  Result<Corpus> corpus = Status::OK();
  std::vector<std::string> log;
};

Outcome Read(bool oracle, const std::string& bytes) {
  std::istringstream in(bytes);
  Outcome out;
  testing::internal::CaptureStderr();
  out.corpus = oracle ? testing_util::OracleReadAMinerCorpus(&in, "diff")
                      : ReadAMinerCorpus(&in, "diff");
  out.log = LogMessages(testing::internal::GetCapturedStderr());
  return out;
}

void ExpectCorpusEq(const Corpus& want, const Corpus& got) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.graph, want.graph);
  EXPECT_EQ(got.graph.in_offsets(), want.graph.in_offsets());
  EXPECT_EQ(got.graph.in_neighbors(), want.graph.in_neighbors());
  EXPECT_EQ(got.graph.min_year(), want.graph.min_year());
  EXPECT_EQ(got.graph.max_year(), want.graph.max_year());
  EXPECT_EQ(got.external_ids, want.external_ids);
  EXPECT_EQ(got.venues, want.venues);
  EXPECT_EQ(got.venue_names, want.venue_names);
  EXPECT_EQ(got.titles, want.titles);
  EXPECT_TRUE(got.authors == want.authors);
  EXPECT_EQ(got.authors.num_authors(), want.authors.num_authors());
  EXPECT_EQ(got.true_impact, want.true_impact);
}

void ExpectSameAsOracle(const std::string& bytes, const std::string& label) {
  SCOPED_TRACE(label);
  const Outcome want = Read(/*oracle=*/true, bytes);
  const Outcome got = Read(/*oracle=*/false, bytes);
  EXPECT_EQ(got.log, want.log);
  ASSERT_EQ(got.corpus.ok(), want.corpus.ok())
      << "oracle: " << want.corpus.status().ToString()
      << "\nreader: " << got.corpus.status().ToString();
  if (!want.corpus.ok()) {
    EXPECT_EQ(got.corpus.status().code(), want.corpus.status().code());
    EXPECT_EQ(got.corpus.status().message(), want.corpus.status().message());
    return;
  }
  ExpectCorpusEq(want.corpus.value(), got.corpus.value());
}

std::string FileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(AMinerDifferentialTest, FuzzCorpusFiles) {
  const std::filesystem::path root(SCHOLAR_AMINER_FUZZ_CORPUS);
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"seed", "regression"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 30u) << "fuzz corpus not found under " << root;
  for (const auto& file : files) {
    ExpectSameAsOracle(FileBytes(file), file.filename().string());
  }
}

/// AMiner text of a synthetic corpus with titles and, when `sparse_ids`,
/// huge scattered external ids, its records in shuffled order.
std::string ShuffledText(size_t articles, uint64_t seed, bool sparse_ids) {
  Corpus corpus =
      GenerateSyntheticCorpus(AMinerLikeProfile(articles, seed), "synthetic")
          .value();
  Rng rng(seed * 31 + 7);
  corpus.titles.resize(corpus.num_articles());
  for (size_t i = 0; i < corpus.titles.size(); ++i) {
    // Every fifth title is absent; the rest carry inner runs of spaces and
    // tabs, which the reader keeps.
    if (i % 5 != 0) {
      corpus.titles[i] = "Paper  " + std::to_string(rng.NextBounded(1000)) +
                         "\ton ranking";
    }
  }
  if (sparse_ids) {
    corpus.external_ids.resize(corpus.num_articles());
    for (size_t i = 0; i < corpus.external_ids.size(); ++i) {
      corpus.external_ids[i] =
          (uint64_t{1} << 40) + i * 7919 + rng.NextBounded(7);
    }
  }
  std::ostringstream text;
  EXPECT_TRUE(WriteAMinerCorpus(corpus, &text).ok());
  const std::string all = std::move(text).str();
  std::vector<std::string_view> records;
  for (std::string_view rest(all); !rest.empty();) {
    const size_t end = rest.find("\n\n");
    const size_t len = end == std::string_view::npos ? rest.size() : end + 2;
    records.push_back(rest.substr(0, len));
    rest.remove_prefix(len);
  }
  rng.Shuffle(&records);
  std::string out;
  for (std::string_view r : records) out += r;
  return out;
}

TEST(AMinerDifferentialTest, ShuffledSyntheticCorpora) {
  for (size_t articles : {1, 2, 60, 2500}) {
    for (uint64_t seed : {1, 2, 3}) {
      for (bool sparse_ids : {false, true}) {
        ExpectSameAsOracle(ShuffledText(articles, seed, sparse_ids),
                           "articles=" + std::to_string(articles) +
                               " seed=" + std::to_string(seed) +
                               " sparse_ids=" + std::to_string(sparse_ids));
      }
    }
  }
}

TEST(AMinerDifferentialTest, TextLongerThanOneReadBlock) {
  const std::string text = ShuffledText(9000, 4, false);
  ASSERT_GT(text.size(), size_t{1} << 20);
  ExpectSameAsOracle(text, "9000 articles");
}

TEST(AMinerDifferentialTest, DuplicateIndexAmongManyRecords) {
  std::string text = ShuffledText(300, 5, true);
  // Repeat one record's #index in a later record: the scan succeeds, then
  // the first repeat in record order is reported.
  const size_t first = text.find("#index ");
  const size_t eol = text.find('\n', first);
  const std::string index_line = text.substr(first, eol - first);
  text += "#t 2000\n" + index_line + "\n\n";
  ExpectSameAsOracle(text, "duplicate");
}

TEST(AMinerDifferentialTest, MostlyDistinctNamesSharedAcrossKinds) {
  // Far more distinct names than a count-sized name table expects, so the
  // table grows several times; venue names reuse author names, which must
  // still get ids of their own kind.
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += "#@ n" + std::to_string(3 * i) + ";n" + std::to_string(3 * i + 1) +
            ";n" + std::to_string(i / 2) + "\n#c n" + std::to_string(i % 37) +
            "\n#index " + std::to_string(i) + "\n#% " +
            std::to_string(i / 3) + "\n\n";
  }
  ExpectSameAsOracle(text, "distinct names");
}

TEST(AMinerDifferentialTest, CrlfTextReadsLikeLf) {
  const std::string lf = ShuffledText(200, 6, false);
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  ExpectSameAsOracle(crlf, "crlf");
  std::istringstream a(lf), b(crlf);
  const Corpus from_lf = ReadAMinerCorpus(&a, "x").value();
  const Corpus from_crlf = ReadAMinerCorpus(&b, "x").value();
  ExpectCorpusEq(from_lf, from_crlf);
}

TEST(AMinerReadFileTest, FileReadsLikeStream) {
  const std::string text = ShuffledText(500, 7, true);
  const std::string path = ::testing::TempDir() + "aminer_reader_test.aminer";
  std::ofstream(path, std::ios::binary) << text;
  std::istringstream in(text);
  Corpus from_stream = ReadAMinerCorpus(&in, path).value();
  Corpus from_file = ReadAMinerCorpusFile(path).value();
  ExpectCorpusEq(from_stream, from_file);
  std::filesystem::remove(path);
}

TEST(AMinerReadFileTest, MissingFileIsIOError) {
  const std::string path = ::testing::TempDir() + "aminer_reader_absent";
  const Status status = ReadAMinerCorpusFile(path).status();
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(status.message(), "cannot open: " + path);
}

TEST(AMinerReadFileTest, DirectoryIsIOErrorNotCorruption) {
  const Status status = ReadAMinerCorpusFile(::testing::TempDir()).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(AMinerReadFileTest, EmptyCharacterDeviceHasNoRecords) {
  const Status status = ReadAMinerCorpusFile("/dev/null").status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(status.message(), "no AMiner records found");
}

/// A stream buffer that hands out `text` and then fails the next read.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("device error"); }

 private:
  std::string text_;
};

TEST(AMinerReadStreamTest, ReadErrorIsIOError) {
  FailingBuf buf("#t 2000\n#index 1\n\n");
  std::istream in(&buf);
  const Status status = ReadAMinerCorpus(&in, "failing").status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

}  // namespace
}  // namespace scholar
