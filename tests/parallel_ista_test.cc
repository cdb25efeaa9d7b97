// Tests of multi-threaded IsTa: the threads only recode, so the output
// (including order) and the repository counters must be identical to the
// sequential run on every input and thread count, with and without item
// elimination and threshold pruning. Also the preconditions of the
// tables overload.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

#include "api/miner.h"
#include "data/generators.h"
#include "data/profiles.h"
#include "ista/prefix_tree.h"
#include "verify/compare.h"

namespace fim {
namespace {

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db,
                                    const MinerOptions& options,
                                    MinerStats* stats = nullptr) {
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosed(db, options, collector.AsCallback(), stats).ok());
  return collector.TakeSets();  // NOT canonicalized: order matters here
}

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db, Support smin,
                                    unsigned threads) {
  MinerOptions options;
  options.min_support = smin;
  options.num_threads = threads;
  return MineWith(db, options);
}

TEST(ParallelIstaTest, IdenticalOutputAndOrderOnRandomData) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(24, 12, 0.4, seed * 757);
    for (Support smin : {1u, 2u, 4u}) {
      const auto sequential = MineWith(db, smin, 1);
      for (unsigned threads : {2u, 3u, 4u, 8u}) {
        const auto parallel = MineWith(db, smin, threads);
        ASSERT_EQ(sequential, parallel)
            << "seed " << seed << " smin " << smin << " threads " << threads;
      }
    }
  }
}

TEST(ParallelIstaTest, IdenticalOnMarketBasketData) {
  MarketBasketConfig config;
  config.num_items = 60;
  config.num_transactions = 2000;
  config.avg_transaction_size = 6.0;
  config.num_patterns = 12;
  config.seed = 11;
  const TransactionDatabase db = GenerateMarketBasket(config);
  for (Support smin : {5u, 40u}) {
    MinerOptions options;
    options.min_support = smin;
    MinerStats sequential_stats;
    const auto sequential = MineWith(db, options, &sequential_stats);
    for (unsigned threads : {2u, 4u}) {
      options.num_threads = threads;
      MinerStats stats;
      const auto parallel = MineWith(db, options, &stats);
      ASSERT_EQ(sequential, parallel) << "smin " << smin << " threads "
                                      << threads;
      // One repository at every thread count: the same intersection work.
      EXPECT_EQ(stats.Counters(), sequential_stats.Counters())
          << "smin " << smin << " threads " << threads;
      EXPECT_EQ(stats.merge_calls, 0u);
    }
  }
}

// Three basket shapes at a tenth of their benchmark size: junk-heavy
// baskets that deduplicate weakly, and two pattern-dominated streams
// whose rows fold onto a few thousand weighted transactions.
struct BasketShape {
  const char* name;
  MarketBasketConfig config;
  Support min_support;
};

std::vector<BasketShape> BasketShapes() {
  BasketShape junky{"basket-junky", {}, 30};
  junky.config.num_items = 100;
  junky.config.num_transactions = 300;
  junky.config.avg_transaction_size = 6.0;
  junky.config.num_patterns = 20;
  junky.config.avg_pattern_size = 4;
  junky.config.seed = 7;

  BasketShape patterns{"basket-patterns", {}, 100};
  patterns.config.num_items = 200;
  patterns.config.num_transactions = 20000;
  patterns.config.avg_transaction_size = 1.0;
  patterns.config.num_patterns = 20;
  patterns.config.pattern_probability = 1.0;
  patterns.config.pattern_keep_probability = 0.9;
  patterns.config.avg_pattern_size = 6;
  patterns.config.seed = 7;

  BasketShape large = patterns;
  large.name = "basket-large";
  large.config.num_transactions = 200000;
  large.min_support = 500;
  return {junky, patterns, large};
}

// IsTa mines one repository at every thread count: the threads change
// neither the sets nor their order, nor the work done on the way.
void ExpectThreadInvariant(const TransactionDatabase& db,
                           MinerOptions options, const char* name) {
  options.num_threads = 1;
  MinerStats sequential_stats;
  const auto sequential = MineWith(db, options, &sequential_stats);
  ASSERT_FALSE(sequential.empty()) << name;
  for (unsigned threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    MinerStats stats;
    ASSERT_EQ(sequential, MineWith(db, options, &stats))
        << name << " threads " << threads;
    EXPECT_EQ(stats.isect_steps, sequential_stats.isect_steps)
        << name << " threads " << threads;
    EXPECT_EQ(stats.peak_nodes, sequential_stats.peak_nodes)
        << name << " threads " << threads;
    EXPECT_EQ(stats.prune_calls, sequential_stats.prune_calls)
        << name << " threads " << threads;
    EXPECT_EQ(stats.weighted_transactions,
              sequential_stats.weighted_transactions)
        << name << " threads " << threads;
  }
}

TEST(ParallelIstaTest, SameSetsAndWorkAtEveryThreadCountOnBasketShapes) {
  for (const BasketShape& shape : BasketShapes()) {
    MinerOptions options;
    options.min_support = shape.min_support;
    ExpectThreadInvariant(GenerateMarketBasket(shape.config), options,
                          shape.name);
  }
}

TEST(ParallelIstaTest, SameSetsAndWorkAtEveryThreadCountWhilePruning) {
  const BasketShape junky = BasketShapes().front();
  const TransactionDatabase db = GenerateMarketBasket(junky.config);
  MinerOptions options;
  options.min_support = junky.min_support;
  options.prune_node_threshold = 64;
  MinerStats stats;
  MineWith(db, options, &stats);
  ASSERT_GT(stats.prune_calls, 0u);
  ExpectThreadInvariant(db, options, "basket-junky, pruning");
}

TEST(ParallelIstaTest, IdenticalOnStructuredProfiles) {
  {
    const TransactionDatabase db = MakeYeastLike(0.05, 42);
    const auto sequential = MineWith(db, 12, 1);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, MineWith(db, 12, 4));
  }
  {
    const TransactionDatabase db = MakeWebviewLike(0.1, 45);
    const auto sequential = MineWith(db, 8, 1);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, MineWith(db, 8, 4));
  }
}

TEST(ParallelIstaTest, IdenticalWithoutItemElimination) {
  const TransactionDatabase db = GenerateRandomDense(30, 10, 0.5, 99);
  MinerOptions options;
  options.min_support = 3;
  options.item_elimination = false;
  const auto sequential = MineWith(db, options);
  options.num_threads = 4;
  EXPECT_EQ(sequential, MineWith(db, options));
}

TEST(ParallelIstaTest, IdenticalWithoutDuplicateMerging) {
  // Duplicate-heavy input: the chunks fold the copies on either side of
  // their boundaries, and the fold of the chunks must give the same
  // weights at every thread count.
  std::vector<std::vector<ItemId>> rows;
  for (int copy = 0; copy < 7; ++copy) rows.push_back({0, 1, 2});
  for (int copy = 0; copy < 5; ++copy) rows.push_back({1, 2, 3});
  rows.push_back({0, 3});
  const TransactionDatabase db = TransactionDatabase::FromTransactions(rows);
  MinerOptions options;
  options.min_support = 2;
  const auto sequential = MineWith(db, options);
  for (unsigned threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    ASSERT_EQ(sequential, MineWith(db, options)) << "threads " << threads;
  }
}

TEST(ParallelIstaTest, IdenticalUnderEveryTransactionOrder) {
  // Rows repeat, both adjacent and apart: kNone merges only the adjacent
  // runs, the size orders merge all copies of a row.
  MarketBasketConfig config;
  config.num_items = 30;
  config.num_transactions = 1500;
  config.avg_transaction_size = 4.0;
  config.num_patterns = 6;
  config.seed = 31;
  const TransactionDatabase db = GenerateMarketBasket(config);
  MinerOptions options;
  options.min_support = 10;
  const auto default_order = MineWith(db, options);
  ASSERT_FALSE(default_order.empty());
  for (TransactionOrder order :
       {TransactionOrder::kNone, TransactionOrder::kSizeDescending}) {
    options.transaction_order = order;
    options.num_threads = 1;
    MinerStats sequential_stats;
    const auto sequential = MineWith(db, options, &sequential_stats);
    // The order changes the report order, never the sets.
    EXPECT_TRUE(SameResults(sequential, default_order))
        << DiffResults(sequential, default_order);
    options.num_threads = 4;
    MinerStats stats;
    ASSERT_EQ(sequential, MineWith(db, options, &stats))
        << "order " << static_cast<int>(order);
    EXPECT_EQ(stats.Counters(), sequential_stats.Counters())
        << "order " << static_cast<int>(order);
  }
}

TEST(ParallelIstaTest, ThresholdPruningKeepsOutputExact) {
  // A tiny prune threshold forces a prune every few transactions; the
  // output must not change at any thread count.
  MarketBasketConfig config;
  config.num_items = 40;
  config.num_transactions = 1500;
  config.avg_transaction_size = 5.0;
  config.num_patterns = 8;
  config.seed = 23;
  const TransactionDatabase db = GenerateMarketBasket(config);
  MinerOptions options;
  options.min_support = 30;
  const auto sequential = MineWith(db, options);
  options.prune_node_threshold = 16;
  for (unsigned threads : {1u, 4u}) {
    options.num_threads = threads;
    MinerStats stats;
    ASSERT_EQ(sequential, MineWith(db, options, &stats)) << "threads "
                                                         << threads;
    EXPECT_GT(stats.prune_calls, 0u);
  }
}

TEST(ParallelIstaTest, MoreThreadsThanTransactions) {
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}});
  EXPECT_EQ(MineWith(db, 1, 1), MineWith(db, 1, 16));
}

TEST(ParallelIstaTest, EdgeCases) {
  EXPECT_TRUE(MineWith(TransactionDatabase(), 1, 4).empty());
  const TransactionDatabase single =
      TransactionDatabase::FromTransactions({{3, 5, 7}});
  const auto result = MineWith(single, 1, 8);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].items, (std::vector<ItemId>{3, 5, 7}));
  EXPECT_EQ(result[0].support, 1u);
}

// --- The tables overload ---------------------------------------------------

WeightedTransactions Table(std::vector<ItemId> row, Support weight) {
  WeightedTransactions table;
  table.AddRow(row, weight);
  return table;
}

Status MineTables(const std::vector<WeightedTransactions>& tables,
                  std::size_t num_items,
                  std::vector<ClosedItemset>* sets) {
  std::vector<const WeightedTransactions*> pointers;
  for (const WeightedTransactions& table : tables) pointers.push_back(&table);
  MinerOptions options;
  options.min_support = 1;
  ClosedSetCollector collector;
  const Status status =
      MineClosed(pointers, num_items, options, collector.AsCallback());
  *sets = collector.TakeSets();
  return status;
}

TEST(IstaTablesTest, WeightsPastTheSupportLimitFailLoudly) {
  constexpr Support kHalf = Support{1} << 31;
  std::vector<ClosedItemset> sets;
  // 2^31 + 2^31 + 5 would wrap {0, 1}'s support around to 0.
  const Status status = MineTables(
      {Table({0, 1}, kHalf), Table({0, 1}, kHalf), Table({1}, 5)}, 2, &sets);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  EXPECT_TRUE(sets.empty());
  // Exactly the limit still counts.
  ASSERT_TRUE(
      MineTables({Table({0, 1}, kHalf), Table({0, 1}, kHalf - 1)}, 2, &sets)
          .ok());
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].items, (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(sets[0].support, std::numeric_limits<Support>::max());
}

TEST(IstaTablesTest, ItemIdsAtOrAboveNumItemsAreRejected) {
  std::vector<ClosedItemset> sets;
  const Status status =
      MineTables({Table({0, 1}, 2), Table({1, 3}, 1)}, 3, &sets);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_TRUE(sets.empty());
  // The largest id below num_items is fine.
  ASSERT_TRUE(MineTables({Table({0, 1}, 2), Table({1, 2}, 1)}, 3, &sets).ok());
  EXPECT_EQ(sets.size(), 3u);  // {1}, {0, 1} and {1, 2}
}

// --- Weighted additions ---------------------------------------------------

std::map<std::vector<ItemId>, Support> Collect(const IstaPrefixTree& tree,
                                               Support min_support) {
  std::map<std::vector<ItemId>, Support> out;
  tree.Report(min_support,
              [&out](std::span<const ItemId> items, Support support) {
                out.emplace(std::vector<ItemId>(items.begin(), items.end()),
                            support);
              });
  return out;
}

TEST(IstaMergeTest, WeightedAdditionEqualsRepeatedAddition) {
  IstaPrefixTree repeated(5);
  IstaPrefixTree weighted(5);
  const std::vector<std::vector<ItemId>> rows = {{0, 1, 2}, {1, 2, 4}, {2, 3}};
  const std::vector<Support> weights = {3, 1, 5};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (Support w = 0; w < weights[r]; ++w) repeated.AddTransaction(rows[r]);
    weighted.AddTransaction(rows[r], weights[r]);
  }
  EXPECT_TRUE(repeated.ValidateInvariants().ok());
  EXPECT_TRUE(weighted.ValidateInvariants().ok());
  EXPECT_EQ(weighted.TotalWeight(), 9u);
  EXPECT_EQ(Collect(repeated, 1), Collect(weighted, 1));
}

}  // namespace
}  // namespace fim
