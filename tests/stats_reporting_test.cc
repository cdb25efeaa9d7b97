// Tests of the execution statistics the miners expose (used by the
// ablation benches and by downstream users for capacity planning).

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"

namespace fim {
namespace {

TEST(IstaStatsTest, TracksNodesAndPrunes) {
  const TransactionDatabase db = GenerateRandomDense(20, 15, 0.4, 55);
  MinerOptions options;
  options.min_support = 2;
  MinerStats stats;
  std::size_t count = 0;
  ASSERT_TRUE(MineClosed(db, options,
                         [&count](std::span<const ItemId>, Support) {
                           ++count;
                         },
                         &stats)
                  .ok());
  EXPECT_GT(count, 0u);
  EXPECT_GT(stats.peak_nodes, 0u);
  EXPECT_GT(stats.prune_calls, 0u);
  EXPECT_GT(stats.final_nodes, 0u);
  EXPECT_LE(stats.final_nodes, stats.peak_nodes * 4);  // sanity
}

TEST(IstaStatsTest, ResetBetweenRuns) {
  const TransactionDatabase db = GenerateRandomDense(5, 5, 0.5, 56);
  MinerOptions options;
  options.min_support = 1;
  MinerStats stats;
  stats.prune_calls = 999;  // stale value must be cleared
  ASSERT_TRUE(MineClosed(db, options, [](auto, auto) {}, &stats).ok());
  EXPECT_LT(stats.prune_calls, 999u);
}

TEST(CarpenterStatsTest, CountsNodesAndRepoActivity) {
  const TransactionDatabase db = GenerateRandomDense(12, 10, 0.5, 57);
  MinerOptions options;
  options.min_support = 2;
  for (bool table : {false, true}) {
    options.algorithm =
        table ? Algorithm::kCarpenterTable : Algorithm::kCarpenterLists;
    MinerStats stats;
    std::size_t count = 0;
    ASSERT_TRUE(MineClosed(db, options,
                           [&count](std::span<const ItemId>, Support) {
                             ++count;
                           },
                           &stats)
                    .ok());
    EXPECT_GT(stats.nodes_visited, 0u) << (table ? "table" : "lists");
    // The canonicity test prunes the children an earlier branch owns.
    EXPECT_GT(stats.repo_hits, 0u) << (table ? "table" : "lists");
    EXPECT_EQ(stats.repo_sets, 0u) << "only flat cumulative stores sets";
    // Every reported set corresponds to a visited node.
    EXPECT_LE(count, stats.nodes_visited);
  }
}

TEST(CarpenterStatsTest, RepoHitsOccurOnOverlappingData) {
  // On dense random data, different transaction subsets frequently
  // intersect to the same item set, so the canonicity test must prune at
  // least some branches over a collection of runs.
  std::size_t total_hits = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db = GenerateRandomDense(10, 6, 0.6, seed);
    MinerOptions options;
    options.algorithm = Algorithm::kCarpenterLists;
    options.min_support = 1;
    MinerStats stats;
    ASSERT_TRUE(MineClosed(db, options, [](auto, auto) {}, &stats).ok());
    total_hits += stats.repo_hits;
  }
  EXPECT_GT(total_hits, 0u);
}

}  // namespace
}  // namespace fim
