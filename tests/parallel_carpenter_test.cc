// Tests of multi-threaded Carpenter table: the output, including its
// order, and the work counters must be identical to the sequential run
// on every input.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"
#include "data/profiles.h"

namespace fim {
namespace {

struct Mined {
  std::vector<ClosedItemset> sets;  // NOT canonicalized: order matters
  MinerStats stats;
};

Mined MineWith(const TransactionDatabase& db, Support smin, unsigned threads,
               bool item_elimination = true) {
  MinerOptions options;
  options.algorithm = Algorithm::kCarpenterTable;
  options.min_support = smin;
  options.num_threads = threads;
  options.item_elimination = item_elimination;
  ClosedSetCollector collector;
  Mined mined;
  EXPECT_TRUE(
      MineClosed(db, options, collector.AsCallback(), &mined.stats).ok());
  mined.sets = collector.TakeSets();
  return mined;
}

// Mines `db` at 1, 2, 4 and 8 threads and expects the sets in the same
// order and the same row-enumeration and kernel counters every time.
void ExpectSameAtEveryThreadCount(const TransactionDatabase& db, Support smin,
                                  bool item_elimination,
                                  const std::string& label) {
  const Mined sequential = MineWith(db, smin, 1, item_elimination);
  for (unsigned threads : {2u, 4u, 8u}) {
    const Mined parallel = MineWith(db, smin, threads, item_elimination);
    ASSERT_EQ(sequential.sets, parallel.sets)
        << label << " smin " << smin << " threads " << threads;
    EXPECT_EQ(sequential.stats.nodes_visited, parallel.stats.nodes_visited)
        << label << " smin " << smin << " threads " << threads;
    EXPECT_EQ(sequential.stats.repo_hits, parallel.stats.repo_hits)
        << label << " smin " << smin << " threads " << threads;
    EXPECT_EQ(sequential.stats.kernel_calls, parallel.stats.kernel_calls)
        << label << " smin " << smin << " threads " << threads;
    EXPECT_EQ(sequential.stats.sets_reported, parallel.stats.sets_reported)
        << label << " smin " << smin << " threads " << threads;
  }
}

TEST(ParallelCarpenterTest, IdenticalOutputOrderAndWorkOnRandomData) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(24, 14, 0.4, seed * 613);
    for (Support smin : {1u, 2u, 4u}) {
      ExpectSameAtEveryThreadCount(db, smin, true,
                                   "seed " + std::to_string(seed));
    }
  }
}

TEST(ParallelCarpenterTest, IdenticalOnRepeatedRowsThatFoldIntoWeights) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const TransactionDatabase base =
        GenerateRandomDense(12, 12, 0.45, seed * 557);
    std::vector<std::vector<ItemId>> rows;
    for (std::size_t t = 0; t < base.NumTransactions(); ++t) {
      rows.insert(rows.end(), 1 + (seed + t) % 4, base.transaction(t));
    }
    const TransactionDatabase db =
        TransactionDatabase::FromTransactions(rows, base.NumItems());
    for (Support smin : {2u, 3u, 5u}) {
      ExpectSameAtEveryThreadCount(db, smin, true,
                                   "repeated, seed " + std::to_string(seed));
    }
  }
}

TEST(ParallelCarpenterTest, IdenticalOnStructuredData) {
  const TransactionDatabase db = MakeYeastLike(0.03, 42);
  const Mined sequential = MineWith(db, 10, 1);
  EXPECT_FALSE(sequential.sets.empty());
  ExpectSameAtEveryThreadCount(db, 10, true, "yeast-like");
}

TEST(ParallelCarpenterTest, IdenticalWithoutItemElimination) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(16, 10, 0.45, seed * 97);
    for (Support smin : {1u, 3u}) {
      ExpectSameAtEveryThreadCount(db, smin, false,
                                   "no elimination, seed " +
                                       std::to_string(seed));
    }
  }
}

TEST(ParallelCarpenterTest, MoreThreadsThanTasks) {
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}});
  const Mined sequential = MineWith(db, 1, 1);
  const Mined parallel = MineWith(db, 1, 16);
  EXPECT_EQ(sequential.sets, parallel.sets);
  EXPECT_EQ(sequential.stats.nodes_visited, parallel.stats.nodes_visited);
  EXPECT_EQ(sequential.stats.kernel_calls, parallel.stats.kernel_calls);
}

TEST(ParallelCarpenterTest, EdgeCases) {
  EXPECT_TRUE(MineWith(TransactionDatabase(), 1, 4).sets.empty());
  // Root-only output (all transactions identical): no task at all.
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{1, 2}, {1, 2}});
  const Mined run = MineWith(db, 2, 4);
  ASSERT_EQ(run.sets.size(), 1u);
  EXPECT_EQ(run.sets[0].items, (std::vector<ItemId>{1, 2}));
  EXPECT_EQ(run.sets[0].support, 2u);
  EXPECT_EQ(run.stats.nodes_visited, 1u);
}

}  // namespace
}  // namespace fim
