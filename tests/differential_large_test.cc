// Differential testing beyond the oracle's reach: medium-sized random
// and structured databases where the exact subset-intersection oracle is
// infeasible. All fast miners must agree pairwise, and the reference
// output must pass the definitional soundness check. This tier exercises
// the IsTa pruning and repository paths on much deeper trees than the
// oracle-sized cases. Two checks need no reference miner, so they also
// see a fault of the input stage that every miner shares: the database
// handed over as folded tables, and with its items renamed.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "api/miner.h"
#include "common/rng.h"
#include "data/expression.h"
#include "data/generators.h"
#include "verify/closedness.h"
#include "verify/compare.h"

namespace fim {
namespace {

// The transactions of `db` cut into `parts` consecutive runs, each
// folded into one table of weighted input rows.
std::vector<WeightedTransactions> FoldedParts(const TransactionDatabase& db,
                                              std::size_t parts) {
  const auto& transactions = db.transactions();
  std::vector<WeightedTransactions> tables;
  for (std::size_t p = 0; p < parts; ++p) {
    const TransactionDatabase part = TransactionDatabase::FromTransactions(
        {transactions.begin() + p * transactions.size() / parts,
         transactions.begin() + (p + 1) * transactions.size() / parts},
        db.NumItems());
    tables.push_back(std::move(FoldRows(part).front()));
  }
  return tables;
}

// For every algorithm: MineClosed over the database cut into one, two and
// three folded tables gives `expected`, the sets of `db` at `smin`; and
// the database with its items renamed by a random permutation gives the
// renamed sets with the same supports.
void CheckInputStage(const TransactionDatabase& db, Support smin,
                     const std::vector<ClosedItemset>& expected,
                     const std::string& label) {
  std::vector<std::vector<WeightedTransactions>> splits;
  for (std::size_t parts : {1u, 2u, 3u}) {
    splits.push_back(FoldedParts(db, parts));
  }
  std::vector<ItemId> rename(db.NumItems());
  std::iota(rename.begin(), rename.end(), 0);
  Rng rng(db.NumTransactions() * 131 + smin);
  for (std::size_t i = rename.size(); i > 1; --i) {
    std::swap(rename[i - 1], rename[rng.Uniform(i)]);
  }
  auto renamed_items = [&rename](std::span<const ItemId> items) {
    std::vector<ItemId> out;
    for (ItemId i : items) out.push_back(rename[i]);
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::vector<ItemId>> renamed_rows;
  for (const auto& t : db.transactions()) {
    renamed_rows.push_back(renamed_items(t));
  }
  const TransactionDatabase renamed =
      TransactionDatabase::FromTransactions(renamed_rows, db.NumItems());
  std::vector<ClosedItemset> renamed_expected = expected;
  for (ClosedItemset& set : renamed_expected) {
    set.items = renamed_items(set.items);
  }

  for (Algorithm algorithm : AllAlgorithms()) {
    MinerOptions options;
    options.algorithm = algorithm;
    options.min_support = smin;
    const std::string name = label + " " + AlgorithmName(algorithm);
    for (const auto& tables : splits) {
      std::vector<const WeightedTransactions*> pointers;
      for (const WeightedTransactions& table : tables) {
        pointers.push_back(&table);
      }
      ClosedSetCollector collector;
      ASSERT_TRUE(MineClosed(pointers, db.NumItems(), options,
                             collector.AsCallback())
                      .ok())
          << name;
      ASSERT_TRUE(SameResults(expected, collector.sets()))
          << name << " over " << tables.size() << " tables\n"
          << DiffResults(expected, collector.sets());
    }
    auto mined = MineClosedCollect(renamed, options);
    ASSERT_TRUE(mined.ok()) << name;
    ASSERT_TRUE(SameResults(renamed_expected, mined.value()))
        << name << " renamed\n"
        << DiffResults(renamed_expected, mined.value());
  }
}

// All miners agree with IsTa, whose output is sound (IsTa's default
// schedule prunes its repository from the first transaction on); with
// `check_input_stage` (at one support per database, to bound the run
// time), also CheckInputStage.
void CheckAllAgree(const TransactionDatabase& db, Support smin,
                   const std::string& label, bool check_input_stage) {
  MinerOptions reference;
  reference.algorithm = Algorithm::kIsta;
  reference.min_support = smin;
  auto expected = MineClosedCollect(db, reference);
  ASSERT_TRUE(expected.ok()) << label;
  ASSERT_TRUE(VerifyClosedSets(db, expected.value(), smin).ok()) << label;

  for (Algorithm algorithm :
       {Algorithm::kCarpenterLists, Algorithm::kCarpenterTable,
        Algorithm::kLcm, Algorithm::kCharm, Algorithm::kFpClose,
        Algorithm::kFlatCumulative}) {
    MinerOptions options;
    options.algorithm = algorithm;
    options.min_support = smin;
    auto mined = MineClosedCollect(db, options);
    ASSERT_TRUE(mined.ok()) << label << " " << AlgorithmName(algorithm);
    ASSERT_TRUE(SameResults(expected.value(), mined.value()))
        << label << " " << AlgorithmName(algorithm) << "\n"
        << DiffResults(expected.value(), mined.value());
  }

  if (check_input_stage) CheckInputStage(db, smin, expected.value(), label);
}

TEST(DifferentialLargeTest, MediumRandomDatabases) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (double density : {0.1, 0.3}) {
      const TransactionDatabase db =
          GenerateRandomDense(40, 30, density, seed * 1009);
      for (Support smin : {2u, 5u, 12u}) {
        CheckAllAgree(db, smin,
                      "random d=" + std::to_string(density) + " seed=" +
                          std::to_string(seed) + " smin=" +
                          std::to_string(smin),
                      smin == 5);
      }
    }
  }
}

TEST(DifferentialLargeTest, ExpressionShapedDatabases) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpressionConfig config;
    config.num_genes = 80;
    config.num_conditions = 50;
    config.num_modules = 6;
    config.genes_per_module = 20;
    config.conditions_per_module = 12;
    config.noise_stddev = 0.12;
    config.seed = seed * 37;
    const ExpressionMatrix matrix = GenerateExpression(config);
    const TransactionDatabase db = Discretize(
        matrix, ExpressionOrientation::kConditionsAsTransactions);
    for (Support smin : {3u, 8u}) {
      CheckAllAgree(db, smin, "expression seed=" + std::to_string(seed),
                    smin == 8);
    }
  }
}

TEST(DifferentialLargeTest, MarketBasketShapedDatabases) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    MarketBasketConfig config;
    config.num_items = 35;
    config.num_transactions = 150;
    config.avg_transaction_size = 7.0;
    config.num_patterns = 6;
    config.seed = seed * 53;
    const TransactionDatabase db = GenerateMarketBasket(config);
    for (Support smin : {3u, 10u}) {
      CheckAllAgree(db, smin, "basket seed=" + std::to_string(seed),
                    smin == 3);
    }
  }
}

TEST(DifferentialLargeTest, RowCountsAroundBitsetWordBoundaries) {
  // LCM keeps one bit per distinct row in 64-bit words: with 63 to 129
  // distinct rows the node databases span one, two and three words, the
  // last one full or partly filled.
  for (std::size_t rows : {63u, 64u, 65u, 127u, 128u, 129u}) {
    const TransactionDatabase db =
        GenerateRandomDense(rows, 16, 0.6, rows * 7919);
    const std::vector<std::vector<ItemId>> all = db.transactions();
    const std::set<std::vector<ItemId>> distinct(all.begin(), all.end());
    ASSERT_EQ(distinct.size(), rows);
    const Support high = static_cast<Support>(rows / 3);
    for (Support smin : {8u, high}) {
      CheckAllAgree(db, smin,
                    "rows=" + std::to_string(rows) +
                        " smin=" + std::to_string(smin),
                    smin == high);
    }
  }
}

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db,
                                    Algorithm algorithm, Support smin,
                                    TransactionOrder order) {
  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = smin;
  options.transaction_order = order;
  auto mined = MineClosedCollect(db, options);
  EXPECT_TRUE(mined.ok()) << AlgorithmName(algorithm);
  return mined.ok() ? std::move(mined).value() : std::vector<ClosedItemset>{};
}

TEST(DifferentialLargeTest, RepeatedAndPermutedRowsKeepTheSets) {
  // Metamorphic checks that need no reference miner: k copies of the
  // database mined at k * smin give the same sets with k times the
  // supports, and reordering the rows changes nothing. The copies come
  // as whole blocks and row by row: under TransactionOrder::kNone only
  // adjacent copies fold into one weighted row, under the size orders
  // every copy does. The miners that take a transaction order run under
  // all three.
  const std::set<Algorithm> ordered = {
      Algorithm::kIsta, Algorithm::kCarpenterLists,
      Algorithm::kCarpenterTable, Algorithm::kFlatCumulative};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(40, 16, 0.35, seed * 613);
    const std::vector<std::vector<ItemId>> rows = db.transactions();
    std::vector<std::vector<ItemId>> shuffled = rows;
    Rng rng(seed);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    const TransactionDatabase permuted =
        TransactionDatabase::FromTransactions(shuffled, db.NumItems());
    std::vector<std::pair<Support, TransactionDatabase>> repeated;
    for (Support k : {2u, 3u}) {
      std::vector<std::vector<ItemId>> blocks;
      std::vector<std::vector<ItemId>> runs;
      for (Support c = 0; c < k; ++c) {
        blocks.insert(blocks.end(), rows.begin(), rows.end());
      }
      for (const auto& t : rows) runs.insert(runs.end(), k, t);
      repeated.emplace_back(
          k, TransactionDatabase::FromTransactions(blocks, db.NumItems()));
      repeated.emplace_back(
          k, TransactionDatabase::FromTransactions(runs, db.NumItems()));
    }
    for (Support smin : {2u, 5u}) {
      for (Algorithm algorithm : AllAlgorithms()) {
        for (TransactionOrder order :
             {TransactionOrder::kSizeAscending, TransactionOrder::kNone,
              TransactionOrder::kSizeDescending}) {
          if (order != TransactionOrder::kSizeAscending &&
              !ordered.contains(algorithm)) {
            continue;
          }
          const std::string label =
              std::string(AlgorithmName(algorithm)) + " seed=" +
              std::to_string(seed) + " smin=" + std::to_string(smin) +
              " order=" + std::to_string(static_cast<int>(order));
          const std::vector<ClosedItemset> base =
              MineWith(db, algorithm, smin, order);
          ASSERT_FALSE(base.empty()) << label;
          for (const auto& [k, copies] : repeated) {
            std::vector<ClosedItemset> scaled = base;
            for (ClosedItemset& set : scaled) set.support *= k;
            const std::vector<ClosedItemset> mined =
                MineWith(copies, algorithm, k * smin, order);
            ASSERT_TRUE(SameResults(scaled, mined))
                << label << " k=" << k << "\n"
                << DiffResults(scaled, mined);
          }
          const std::vector<ClosedItemset> reordered =
              MineWith(permuted, algorithm, smin, order);
          ASSERT_TRUE(SameResults(base, reordered))
              << label << " permuted\n"
              << DiffResults(base, reordered);
        }
      }
    }
  }
}

TEST(DifferentialLargeTest, NestedChainDatabases) {
  // Long chains of nested transactions: worst case for the closedness
  // report (every prefix is closed) and for duplicate pruning.
  std::vector<std::vector<ItemId>> tx;
  std::vector<ItemId> items;
  for (ItemId i = 0; i < 60; ++i) {
    items.push_back(i);
    tx.push_back(items);
    if (i % 3 == 0) tx.push_back(items);  // duplicates interleaved
  }
  const TransactionDatabase db = TransactionDatabase::FromTransactions(tx);
  for (Support smin : {1u, 2u, 10u, 40u}) {
    CheckAllAgree(db, smin, "nested smin=" + std::to_string(smin), smin == 2);
  }
}

}  // namespace
}  // namespace fim
