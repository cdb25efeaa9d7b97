// Integration tests of the streaming miner on structured data beyond the
// oracle's reach: incremental results must match batch IsTa at sampled
// checkpoints.

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"
#include "stream/stream_miner.h"
#include "verify/compare.h"

namespace fim {
namespace {

// Landmark mode: every query covers all the transactions seen so far.
StreamMinerOptions Landmark(std::size_t max_items) {
  StreamMinerOptions options;
  options.max_items = max_items;
  return options;
}

TEST(StreamingIntegrationTest, MatchesBatchOnMarketBasketCheckpoints) {
  MarketBasketConfig config;
  config.num_items = 40;
  config.num_transactions = 240;
  config.avg_transaction_size = 6.0;
  config.seed = 31;
  const TransactionDatabase db = GenerateMarketBasket(config);

  StreamMiner streaming(Landmark(db.NumItems()));
  TransactionDatabase prefix;
  prefix.SetNumItems(db.NumItems());
  const std::size_t checkpoint_every = 60;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(streaming.AddTransaction(db.transaction(k)).ok());
    prefix.AddTransaction(db.transaction(k));
    if ((k + 1) % checkpoint_every != 0) continue;
    for (Support smin : {2u, 5u, 10u}) {
      auto streamed = streaming.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      MinerOptions options;
      options.min_support = smin;
      options.algorithm = Algorithm::kIsta;
      auto batch = MineClosedCollect(prefix, options);
      ASSERT_TRUE(batch.ok());
      EXPECT_TRUE(SameResults(batch.value(), streamed.value()))
          << "checkpoint " << (k + 1) << " smin " << smin << "\n"
          << DiffResults(batch.value(), streamed.value());
    }
  }
}

TEST(StreamingIntegrationTest, NodeCountGrowsMonotonically) {
  const TransactionDatabase db = GenerateRandomDense(30, 12, 0.3, 77);
  StreamMiner streaming(Landmark(db.NumItems()));
  std::size_t last = 0;
  for (const auto& t : db.transactions()) {
    ASSERT_TRUE(streaming.AddTransaction(t).ok());
    EXPECT_GE(streaming.NodeCount(), last);
    last = streaming.NodeCount();
  }
}

}  // namespace
}  // namespace fim
