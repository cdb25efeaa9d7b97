// Property tests: on randomized databases, every miner must produce the
// oracle's exact closed-set output, for every minimum support, under every
// ordering policy, with pruning/elimination on or off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "api/miner.h"
#include "data/generators.h"
#include "verify/closedness.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

struct RandomCase {
  std::size_t num_transactions;
  std::size_t num_items;
  double density;
  uint64_t seed;
};

std::vector<RandomCase> MakeCases() {
  std::vector<RandomCase> cases;
  uint64_t seed = 1000;
  for (std::size_t n : {1, 2, 3, 5, 8, 12}) {
    for (std::size_t m : {1, 4, 9, 16}) {
      for (double density : {0.15, 0.4, 0.7, 0.95}) {
        cases.push_back(RandomCase{n, m, density, ++seed});
      }
    }
  }
  return cases;
}

class RandomDbTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomDbTest, AllMinersMatchOracleForAllSupports) {
  const RandomCase c = GetParam();
  const TransactionDatabase db = GenerateRandomDense(
      c.num_transactions, c.num_items, c.density, c.seed);
  for (Support smin = 1; smin <= c.num_transactions + 1; ++smin) {
    auto expected = OracleClosedSets(db, smin);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(VerifyClosedSets(db, expected.value(), smin).ok());
    for (Algorithm algorithm : AllAlgorithms()) {
      MinerOptions options;
      options.algorithm = algorithm;
      options.min_support = smin;
      auto mined = MineClosedCollect(db, options);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      ASSERT_TRUE(SameResults(expected.value(), mined.value()))
          << AlgorithmName(algorithm) << " smin=" << smin << " seed="
          << c.seed << "\n"
          << DiffResults(expected.value(), mined.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomDbTest, ::testing::ValuesIn(MakeCases()),
                         [](const auto& param_info) {
                           const RandomCase& c = param_info.param;
                           char name[96];
                           std::snprintf(name, sizeof(name),
                                         "n%zu_m%zu_d%d_s%llu",
                                         c.num_transactions, c.num_items,
                                         static_cast<int>(c.density * 100),
                                         static_cast<unsigned long long>(
                                             c.seed));
                           return std::string(name);
                         });

// IsTa's default prune schedule prunes from the first transaction on;
// the output must equal that of a run without item elimination, which
// never prunes. (prefix_tree_deep_test prunes after every transaction.)
TEST(IstaPruningTest, AggressivePruningNeverChangesOutput) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(10, 12, 0.45, seed * 77);
    for (Support smin : {1u, 2u, 3u, 5u, 8u}) {
      MinerOptions base;
      base.min_support = smin;
      base.item_elimination = false;  // never prune
      ClosedSetCollector a;
      ASSERT_TRUE(MineClosed(db, base, a.AsCallback()).ok());

      MinerOptions aggressive = base;
      aggressive.item_elimination = true;  // the default schedule
      MinerStats stats;
      ClosedSetCollector b;
      ASSERT_TRUE(MineClosed(db, aggressive, b.AsCallback(), &stats).ok());

      EXPECT_TRUE(SameResults(a.sets(), b.sets()))
          << "seed=" << seed << " smin=" << smin << "\n"
          << DiffResults(a.sets(), b.sets());
      // When everything is filtered up front the miner never runs, so
      // only expect pruning activity when there was output to produce.
      if (smin > 1 && !b.sets().empty()) {
        EXPECT_GT(stats.prune_calls, 0u);
      }
    }
  }
}

// The rows of `db`, the t-th repeated 1 + (seed + t) % 3 times in a row
// (the first row swapped to the middle for even seeds), cut to the
// oracle's limit.
TransactionDatabase WithRepeatedRows(const TransactionDatabase& db,
                                     uint64_t seed) {
  std::vector<std::vector<ItemId>> rows;
  for (std::size_t t = 0; t < db.NumTransactions(); ++t) {
    rows.insert(rows.end(), 1 + (seed + t) % 3, db.transaction(t));
  }
  if (seed % 2 == 0) std::swap(rows.front(), rows[rows.size() / 2]);
  rows.resize(std::min(rows.size(), kOracleMaxTransactions));
  return TransactionDatabase::FromTransactions(rows, db.NumItems());
}

// Item elimination in both Carpenter variants must be a pure optimization:
// with and without it they give the oracle's sets, on distinct random
// rows and on rows repeated next to each other and apart, which fold into
// weighted rows.
TEST(CarpenterEliminationTest, EliminationNeverChangesOutput) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<TransactionDatabase> inputs = {
        GenerateRandomDense(9, 10, 0.5, seed * 131)};
    if (seed <= 15) {
      inputs.push_back(WithRepeatedRows(
          GenerateRandomDense(8, 14, 0.45, seed * 557), seed));
    }
    for (const TransactionDatabase& db : inputs) {
      for (Support smin : {1u, 2u, 3u, 4u, 6u}) {
        auto expected = OracleClosedSets(db, smin);
        ASSERT_TRUE(expected.ok());
        for (bool table : {false, true}) {
          for (bool elimination : {true, false}) {
            MinerOptions options;
            options.algorithm = table ? Algorithm::kCarpenterTable
                                      : Algorithm::kCarpenterLists;
            options.min_support = smin;
            options.item_elimination = elimination;
            auto mined = MineClosedCollect(db, options);
            ASSERT_TRUE(mined.ok());
            EXPECT_TRUE(SameResults(expected.value(), mined.value()))
                << (table ? "table" : "lists") << " elimination "
                << elimination << " seed=" << seed << " rows "
                << db.NumTransactions() << " smin=" << smin << "\n"
                << DiffResults(expected.value(), mined.value());
          }
        }
      }
    }
  }
}

// All item/transaction order policies must give identical results.
TEST(OrderInvarianceTest, OrdersNeverChangeOutput) {
  const TransactionDatabase db = GenerateRandomDense(10, 12, 0.4, 4242);
  const Support smin = 2;
  auto expected = OracleClosedSets(db, smin);
  ASSERT_TRUE(expected.ok());
  for (Algorithm algorithm :
       {Algorithm::kIsta, Algorithm::kCarpenterLists,
        Algorithm::kCarpenterTable, Algorithm::kFlatCumulative}) {
    for (ItemOrder item_order :
         {ItemOrder::kNone, ItemOrder::kFrequencyAscending,
          ItemOrder::kFrequencyDescending}) {
      for (TransactionOrder tx_order :
           {TransactionOrder::kNone, TransactionOrder::kSizeAscending,
            TransactionOrder::kSizeDescending}) {
        MinerOptions options;
        options.algorithm = algorithm;
        options.min_support = smin;
        options.item_order = item_order;
        options.transaction_order = tx_order;
        auto mined = MineClosedCollect(db, options);
        ASSERT_TRUE(mined.ok());
        EXPECT_TRUE(SameResults(expected.value(), mined.value()))
            << AlgorithmName(algorithm) << " item_order="
            << static_cast<int>(item_order) << " tx_order="
            << static_cast<int>(tx_order) << "\n"
            << DiffResults(expected.value(), mined.value());
      }
    }
  }
}

// Structured (market-basket) data round: miners agree with each other on
// inputs too large for the subset oracle; IsTa is the reference.
TEST(StructuredDataTest, MinersAgreeOnMarketBasketData) {
  MarketBasketConfig config;
  config.num_items = 60;
  config.num_transactions = 300;
  config.avg_transaction_size = 8.0;
  config.num_patterns = 10;
  config.seed = 99;
  const TransactionDatabase db = GenerateMarketBasket(config);
  for (Support smin : {5u, 15u, 40u}) {
    MinerOptions reference;
    reference.min_support = smin;
    reference.algorithm = Algorithm::kIsta;
    auto expected = MineClosedCollect(db, reference);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(VerifyClosedSets(db, expected.value(), smin).ok());
    for (Algorithm algorithm : AllAlgorithms()) {
      MinerOptions options;
      options.algorithm = algorithm;
      options.min_support = smin;
      auto mined = MineClosedCollect(db, options);
      ASSERT_TRUE(mined.ok());
      EXPECT_TRUE(SameResults(expected.value(), mined.value()))
          << AlgorithmName(algorithm) << " smin=" << smin << "\n"
          << DiffResults(expected.value(), mined.value());
    }
  }
}

}  // namespace
}  // namespace fim
