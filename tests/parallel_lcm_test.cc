// Tests of multi-threaded LCM: output (including order) must be
// identical to the sequential run on every input.

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"
#include "data/profiles.h"
#include "verify/compare.h"

namespace fim {
namespace {

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db, Support smin,
                               unsigned threads) {
  MinerOptions options;
  options.algorithm = Algorithm::kLcm;
  options.min_support = smin;
  options.num_threads = threads;
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosed(db, options, collector.AsCallback()).ok());
  return collector.TakeSets();  // NOT canonicalized: order matters here
}

TEST(ParallelLcmTest, IdenticalOutputAndOrderOnRandomData) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(20, 14, 0.4, seed * 613);
    for (Support smin : {1u, 2u, 4u}) {
      const auto sequential = MineWith(db, smin, 1);
      for (unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = MineWith(db, smin, threads);
        ASSERT_EQ(sequential, parallel)
            << "seed " << seed << " smin " << smin << " threads "
            << threads;
      }
    }
  }
}

TEST(ParallelLcmTest, IdenticalOnStructuredData) {
  const TransactionDatabase db = MakeYeastLike(0.03, 42);
  const auto sequential = MineWith(db, 10, 1);
  const auto parallel = MineWith(db, 10, 4);
  EXPECT_EQ(sequential, parallel);
  EXPECT_FALSE(sequential.empty());
}

TEST(ParallelLcmTest, MoreThreadsThanTasks) {
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}});
  const auto sequential = MineWith(db, 1, 1);
  const auto parallel = MineWith(db, 1, 16);
  EXPECT_EQ(sequential, parallel);
}

TEST(ParallelLcmTest, EdgeCases) {
  EXPECT_TRUE(MineWith(TransactionDatabase(), 1, 4).empty());
  // Root-only output (all transactions identical).
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{1, 2}, {1, 2}});
  const auto result = MineWith(db, 2, 4);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].items, (std::vector<ItemId>{1, 2}));
}

}  // namespace
}  // namespace fim
