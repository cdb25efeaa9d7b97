// Dedicated Cobbler tests: the row->column switch-over must produce the
// oracle's exact output wherever the switch happens — never (pure
// Carpenter), at the root (pure column mining), or anywhere in between.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/miner.h"
#include "data/generators.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

std::vector<ClosedItemset> MineWithSwitch(const TransactionDatabase& db,
                                          Support smin,
                                          std::size_t switch_max_items,
                                          std::size_t switch_min_rows,
                                          MinerStats* stats = nullptr) {
  MinerOptions options;
  options.algorithm = Algorithm::kCobbler;
  options.min_support = smin;
  options.switch_max_items = switch_max_items;
  options.switch_min_rows = switch_min_rows;
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosed(db, options, collector.AsCallback(), stats).ok());
  collector.SortCanonical();
  return collector.TakeSets();
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

TEST(CobblerTest, AllSwitchThresholdsMatchOracle) {
  // Distinct random rows, and rows repeated next to each other and
  // apart: the switch test and the conditional rows must count the
  // copies, wherever the switch happens.
  std::size_t switches_below_root = 0;
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    for (const TransactionDatabase& db :
         {GenerateRandomDense(12, 14, 0.45, seed * 907),
          WithRepeatedRows(GenerateRandomDense(8, 14, 0.45, seed * 557),
                           seed)}) {
      for (Support smin : {1u, 2u, 4u}) {
        auto expected = OracleClosedSets(db, smin);
        ASSERT_TRUE(expected.ok());
        // switch_max_items: 0 = never switch; 3/6 = switch mid-recursion
        // once intersections shrink; 1000 = switch at the root.
        for (std::size_t max_items : {0u, 3u, 6u, 1000u}) {
          for (std::size_t min_rows : {1u, 6u}) {
            MinerStats stats;
            const auto mined =
                MineWithSwitch(db, smin, max_items, min_rows, &stats);
            ASSERT_TRUE(SameResults(expected.value(), mined))
                << "seed " << seed << " smin " << smin << " max_items "
                << max_items << " min_rows " << min_rows << "\n"
                << DiffResults(expected.value(), mined);
            if (max_items == 3 || max_items == 6) {
              switches_below_root += stats.column_switches;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(switches_below_root, 0u);
}

TEST(CobblerTest, EliminationOnOffAgree) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(10, 10, 0.5, seed * 311);
    for (Support smin : {2u, 3u}) {
      MinerOptions on;
      on.algorithm = Algorithm::kCobbler;
      on.min_support = smin;
      on.switch_max_items = 4;
      MinerOptions off = on;
      off.item_elimination = false;
      ClosedSetCollector a;
      ClosedSetCollector b;
      ASSERT_TRUE(MineClosed(db, on, a.AsCallback()).ok());
      ASSERT_TRUE(MineClosed(db, off, b.AsCallback()).ok());
      EXPECT_TRUE(SameResults(a.sets(), b.sets()))
          << DiffResults(a.sets(), b.sets());
    }
  }
}

TEST(CobblerTest, StatsReported) {
  const TransactionDatabase db = GenerateRandomDense(12, 10, 0.5, 999);
  MinerOptions options;
  options.algorithm = Algorithm::kCobbler;
  options.min_support = 2;
  options.switch_max_items = 4;
  MinerStats stats;
  ASSERT_TRUE(MineClosed(db, options, [](auto, auto) {}, &stats).ok());
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.repo_hits, 0u);  // children the canonicity test prunes
  EXPECT_EQ(stats.repo_sets, 0u);
}

TEST(CobblerTest, ZeroSupportRejected) {
  MinerOptions options;
  options.algorithm = Algorithm::kCobbler;
  options.min_support = 0;
  EXPECT_FALSE(MineClosed(TransactionDatabase::FromTransactions({{0}}),
                          options, [](auto, auto) {})
                   .ok());
}

}  // namespace
}  // namespace fim
