#include <gtest/gtest.h>

#include "src/apps/mapreduce.h"
#include "src/apps/workloads.h"

namespace liteapp {
namespace {

TEST(WordCountCoreTest, CountsWords) {
  const char text[] = "a b a c a b";
  WordCounts counts = CountWords(text, sizeof(text) - 1);
  EXPECT_EQ(counts["a"], 3u);
  EXPECT_EQ(counts["b"], 2u);
  EXPECT_EQ(counts["c"], 1u);
}

TEST(WordCountCoreTest, HandlesLeadingTrailingSpaces) {
  const char text[] = "   x  y   ";
  WordCounts counts = CountWords(text, sizeof(text) - 1);
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts["x"], 1u);
}

TEST(WordCountCoreTest, EmptyInput) {
  WordCounts counts = CountWords("", 0);
  EXPECT_TRUE(counts.empty());
}

TEST(WordCountCoreTest, MergeAddsCounts) {
  WordCounts a{{"x", 2}, {"y", 1}};
  WordCounts b{{"x", 3}, {"z", 4}};
  MergeCounts(&a, b);
  EXPECT_EQ(a["x"], 5u);
  EXPECT_EQ(a["y"], 1u);
  EXPECT_EQ(a["z"], 4u);
}

TEST(WordCountCoreTest, SerializeRoundTrip) {
  WordCounts counts{{"alpha", 10}, {"beta", 20}, {"gamma", 30}};
  auto blob = SerializeCounts(counts);
  WordCounts back = DeserializeCounts(blob.data(), blob.size());
  EXPECT_EQ(back, counts);
}

TEST(WordCountCoreTest, DeserializeGarbageIsSafe) {
  std::vector<uint8_t> junk = {1, 2, 3};
  WordCounts back = DeserializeCounts(junk.data(), junk.size());
  EXPECT_TRUE(back.empty() || back.size() <= 1);
}

TEST(WordCountCoreTest, PartitionIsStableAndInRange) {
  for (const std::string& word : {"a", "hello", "zzz", "longerword"}) {
    uint32_t p = PartitionOf(word, 7);
    EXPECT_LT(p, 7u);
    EXPECT_EQ(p, PartitionOf(word, 7));
  }
}

TEST(WordCountCoreTest, SplitsNeverCutWords) {
  std::string corpus = GenerateCorpus(10000, 500, 1);
  auto splits = SplitCorpus(corpus.data(), corpus.size(), 7);
  size_t covered = 0;
  for (auto& [off, len] : splits) {
    covered += len;
    if (off + len < corpus.size()) {
      // The boundary character belongs to no word: splits never cut words.
      EXPECT_EQ(corpus[off + len], ' ') << "split cut a word";
    }
  }
  EXPECT_EQ(covered, corpus.size());
}

TEST(CorpusTest, GeneratesRequestedVolume) {
  std::string corpus = GenerateCorpus(50000, 1000, 3);
  EXPECT_GE(corpus.size(), 50000u);
  EXPECT_LT(corpus.size(), 51000u);
}

TEST(CorpusTest, ZipfMakesSomeWordsFrequent) {
  std::string corpus = GenerateCorpus(100000, 5000, 4);
  WordCounts counts = CountWords(corpus.data(), corpus.size());
  uint64_t max_count = 0;
  uint64_t total = 0;
  for (auto& [w, c] : counts) {
    max_count = std::max(max_count, c);
    total += c;
  }
  EXPECT_GT(max_count * 20, total / counts.size() * 100);  // Heavy head.
}

// The three MapReduce systems must produce identical results.
class MrEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { corpus_ = GenerateCorpus(200000, 2000, 7); }
  std::string corpus_;
};

TEST_F(MrEquivalenceTest, PhoenixMatchesDirectCount) {
  WordCounts direct = CountWords(corpus_.data(), corpus_.size());
  MrResult phoenix = PhoenixWordCount(corpus_, 4);
  EXPECT_EQ(phoenix.counts, direct);
  EXPECT_GT(phoenix.total_ns, 0u);
}

TEST_F(MrEquivalenceTest, LiteMrMatchesDirectCount) {
  lt::SimParams p;
  lite::LiteCluster cluster(3, p);
  WordCounts direct = CountWords(corpus_.data(), corpus_.size());
  MrResult lite_mr = LiteMrWordCount(&cluster, corpus_, 2, 2);
  EXPECT_EQ(lite_mr.counts, direct);
  EXPECT_GT(lite_mr.total_ns, 0u);
  EXPECT_GT(lite_mr.map_ns, 0u);
}

TEST_F(MrEquivalenceTest, HadoopLikeMatchesDirectCount) {
  lt::SimParams p;
  lt::Cluster cluster(3, p);
  WordCounts direct = CountWords(corpus_.data(), corpus_.size());
  HadoopCosts costs;
  costs.task_schedule_ns = 1000;
  costs.job_setup_ns = 1000;
  MrResult hadoop = HadoopWordCount(&cluster, corpus_, 2, 2);
  EXPECT_EQ(hadoop.counts, direct);
}

TEST_F(MrEquivalenceTest, HadoopSlowerThanLiteMrWithRealCosts) {
  // With full-cost parameters the Hadoop-like baseline must be well behind
  // LITE-MR on the same workload (paper Fig. 18: 4.3x-5.3x).
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  lite::LiteCluster lite_cluster(3, p);
  MrResult lite_mr = LiteMrWordCount(&lite_cluster, corpus_, 2, 2);

  lt::Cluster tcp_cluster(3, p);
  MrResult hadoop = HadoopWordCount(&tcp_cluster, corpus_, 2, 2);
  EXPECT_GT(hadoop.total_ns, lite_mr.total_ns * 2);
}

}  // namespace
}  // namespace liteapp
