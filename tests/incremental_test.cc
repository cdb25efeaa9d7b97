// Tests of online mining with the stream miner in landmark mode: querying
// after every prefix of the stream must match batch mining of that
// prefix.

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"
#include "stream/stream_miner.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

// Landmark mode: every query covers all the transactions seen so far.
StreamMinerOptions Landmark(std::size_t max_items) {
  StreamMinerOptions options;
  options.max_items = max_items;
  return options;
}

TEST(IncrementalTest, MatchesBatchAfterEveryPrefix) {
  const TransactionDatabase db = GenerateRandomDense(12, 10, 0.4, 2024);
  StreamMiner miner(Landmark(db.NumItems()));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(db.NumItems());
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    prefix_db.AddTransaction(db.transaction(k));
    EXPECT_EQ(miner.NumTransactions(), k + 1);
    for (Support smin : {1u, 2u, 3u}) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      auto expected = OracleClosedSets(prefix_db, smin);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "prefix " << (k + 1) << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
}

TEST(IncrementalTest, RejectsBadInput) {
  StreamMiner miner(Landmark(5));
  EXPECT_FALSE(miner.AddTransaction({}).ok());
  EXPECT_EQ(miner.AddTransaction({7}).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(miner.AddTransaction({1, 1, 4}).ok());  // duplicates fine
  EXPECT_EQ(miner.NumTransactions(), 1u);
  EXPECT_FALSE(miner.Query(0, [](auto, auto) {}).ok());
}

TEST(IncrementalTest, QueryBeforeAnyTransaction) {
  StreamMiner miner(Landmark(4));
  auto result = miner.QueryCollect(1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  EXPECT_EQ(miner.NodeCount(), 0u);
}

TEST(IncrementalTest, SupportsRepeatedQueriesWithoutSideEffects) {
  StreamMiner miner(Landmark(6));
  ASSERT_TRUE(miner.AddTransaction({0, 1, 2}).ok());
  ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  auto a = miner.QueryCollect(1);
  auto b = miner.QueryCollect(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  // {1,2} supp 2 plus the two transactions.
  EXPECT_EQ(a.value().size(), 3u);
}

}  // namespace
}  // namespace fim
