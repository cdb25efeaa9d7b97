// Hand-crafted behavioural tests of the enumeration-side miners: CHARM's
// tidset-merge properties and FP-close's perfect-extension candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "api/miner.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

std::vector<ClosedItemset> Collect(Algorithm algorithm,
                                   const TransactionDatabase& db,
                                   Support min_support) {
  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = min_support;
  auto mined = MineClosedCollect(db, options);
  EXPECT_TRUE(mined.ok());
  return mined.ok() ? std::move(mined).value() : std::vector<ClosedItemset>{};
}

TEST(CharmDeepTest, IdenticalTidsetsMergeIntoOneClosedSet) {
  // Items 0 and 1 always co-occur: CHARM's property 1 must merge them,
  // reporting {0,1} (and never {0} or {1} alone).
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {0, 1, 3}, {0, 1}});
  const auto sets = Collect(Algorithm::kCharm, db, 1);
  for (const auto& set : sets) {
    const bool has0 = std::binary_search(set.items.begin(), set.items.end(),
                                         ItemId{0});
    const bool has1 = std::binary_search(set.items.begin(), set.items.end(),
                                         ItemId{1});
    EXPECT_EQ(has0, has1) << ItemsToString(set.items);
  }
  auto expected = OracleClosedSets(db, 1);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), sets));
}

TEST(CharmDeepTest, SubsetTidsetAbsorbsSupersetItems) {
  // t(0) = {t1,t2} is a subset of t(1) = {t1,t2,t3}: property 2 says
  // every closed set containing 0 must also contain 1.
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {0, 1}, {1, 2}});
  const auto sets = Collect(Algorithm::kCharm, db, 1);
  for (const auto& set : sets) {
    if (std::binary_search(set.items.begin(), set.items.end(), ItemId{0})) {
      EXPECT_TRUE(std::binary_search(set.items.begin(), set.items.end(),
                                     ItemId{1}))
          << ItemsToString(set.items);
    }
  }
}

TEST(FpCloseDeepTest, PerfectExtensionsFoldIntoCandidates) {
  // Item 2 occurs in every transaction: it is a global perfect extension
  // and must be inside EVERY reported closed set.
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 2}, {1, 2}, {0, 1, 2}});
  const auto sets = Collect(Algorithm::kFpClose, db, 1);
  for (const auto& set : sets) {
    EXPECT_TRUE(
        std::binary_search(set.items.begin(), set.items.end(), ItemId{2}))
        << ItemsToString(set.items);
  }
  auto expected = OracleClosedSets(db, 1);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), sets));
}

TEST(FpCloseDeepTest, SubsumptionFilterRemovesNonClosedCandidates) {
  // A case with many shared prefixes where the raw candidate list
  // contains non-closed sets that the same-support filter must remove.
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}});
  const auto sets = Collect(Algorithm::kFpClose, db, 1);
  // Exactly the four nested prefixes, each closed with distinct support.
  ASSERT_EQ(sets.size(), 4u);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].items.size(), i + 1);
    EXPECT_EQ(sets[i].support, 4u - i);
  }
}

}  // namespace
}  // namespace fim
