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

TEST(CarpenterStatsTest, StopsOnceTheRowsLeftCannotReachMinSupport) {
  // Items a = 0, b = 1, c = 2, each of weight 4; at smin 3 none is
  // dropped. The folded rows in size order are r0 = {a} (weight 3),
  // r1 = {b, c} (3) and r2 = {a, b, c} (1), so the rows from r2 on weigh
  // 1. Row steps, one kernel call each:
  //   root {a, b, c}, supp 0: r0 opens {a}; r1 opens {b, c}; at r2,
  //     0 + 1 < 3, so the sweep stops (without the stop, r2 would be
  //     absorbed into a support of 1, still below smin): 2 calls;
  //   {a}, supp 3: r1 holds none of it; r2 is absorbed: 2 calls;
  //   {b, c}, supp 3: r2 is absorbed: 1 call.
  std::vector<std::vector<ItemId>> rows(3, {0});
  rows.insert(rows.end(), 3, {1, 2});
  rows.push_back({0, 1, 2});
  const TransactionDatabase db = TransactionDatabase::FromTransactions(rows);
  MinerOptions options;
  options.algorithm = Algorithm::kCarpenterTable;
  options.min_support = 3;
  MinerStats stats;
  const auto mined = MineClosedCollect(db, options, &stats);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(stats.weighted_transactions, 3u);
  EXPECT_EQ(stats.nodes_visited, 3u);
  EXPECT_EQ(stats.kernel_calls, 5u);
  const std::vector<ClosedItemset> expected = {{{0}, 4}, {{1, 2}, 4}};
  EXPECT_EQ(mined.value(), expected);

  // Without item elimination every row step runs, and the sets agree.
  options.item_elimination = false;
  MinerStats full;
  const auto unbounded = MineClosedCollect(db, options, &full);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(full.kernel_calls, 6u);
  EXPECT_EQ(unbounded.value(), mined.value());
}

}  // namespace
}  // namespace fim
