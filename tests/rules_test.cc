// Tests of support reconstruction from closed sets and rule generation.

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"
#include "rules/rules.h"

namespace fim {
namespace {

TEST(ClosedSetIndexTest, SupportOfReconstructsExactly) {
  // Mine a random database; the support of EVERY item set over its 8
  // items (counted by definition) must equal the maximum support over
  // closed supersets, and 0 for the infrequent ones (§2.3).
  const TransactionDatabase db = GenerateRandomDense(12, 8, 0.5, 321);
  const Support smin = 2;

  MinerOptions options;
  options.min_support = smin;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const ClosedSetIndex index(closed.value());

  std::size_t frequent = 0;
  for (std::size_t mask = 1; mask < (std::size_t{1} << 8); ++mask) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < 8; ++item) {
      if ((mask >> item) & 1) items.push_back(item);
    }
    const Support support = db.CountSupport(items);
    EXPECT_EQ(index.SupportOf(items), support >= smin ? support : 0)
        << ItemsToString(items);
    if (support >= smin) ++frequent;
  }
  EXPECT_GT(frequent, 0u);
}

TEST(ClosedSetIndexTest, InfrequentSetsReportZero) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {0, 1}, {2}});
  MinerOptions options;
  options.min_support = 2;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const ClosedSetIndex index(closed.value());
  EXPECT_EQ(index.SupportOf(std::vector<ItemId>{2}), 0u);       // infrequent
  EXPECT_EQ(index.SupportOf(std::vector<ItemId>{0, 2}), 0u);    // infrequent
  EXPECT_EQ(index.SupportOf(std::vector<ItemId>{0, 1}), 2u);
  EXPECT_EQ(index.SupportOf(std::vector<ItemId>{1}), 2u);
  EXPECT_EQ(index.SupportOf(std::vector<ItemId>{9}), 0u);  // out of range
}

TEST(ClosedSetIndexTest, EmptyQueryGivesMaxSupport) {
  const ClosedSetIndex index({{{0}, 5}, {{1}, 7}});
  EXPECT_EQ(index.SupportOf(std::vector<ItemId>{}), 7u);
}

TEST(RulesTest, ConfidenceAndLiftComputed) {
  // 10 transactions: {0,1} x 6, {0} x 2, {1} x 1, {2} x 1.
  std::vector<std::vector<ItemId>> tx;
  for (int i = 0; i < 6; ++i) tx.push_back({0, 1});
  tx.push_back({0});
  tx.push_back({0});
  tx.push_back({1});
  tx.push_back({2});
  const TransactionDatabase db = TransactionDatabase::FromTransactions(tx);

  MinerOptions options;
  options.min_support = 2;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const ClosedSetIndex index(closed.value());

  RuleOptions rule_options;
  rule_options.min_confidence = 0.5;
  const auto rules = GenerateRules(index, db.NumTransactions(), rule_options);

  // Expect the rule {0} => {1}: support 6, antecedent support 8,
  // confidence 0.75, lift 0.75 / (7/10).
  bool found = false;
  for (const auto& rule : rules) {
    if (rule.antecedent == std::vector<ItemId>{0} &&
        rule.consequent == std::vector<ItemId>{1}) {
      found = true;
      EXPECT_EQ(rule.support, 6u);
      EXPECT_EQ(rule.antecedent_support, 8u);
      EXPECT_NEAR(rule.confidence, 0.75, 1e-9);
      EXPECT_NEAR(rule.lift, 0.75 / 0.7, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, MinConfidenceFilters) {
  std::vector<std::vector<ItemId>> tx;
  for (int i = 0; i < 5; ++i) tx.push_back({0, 1});
  for (int i = 0; i < 5; ++i) tx.push_back({0});
  const TransactionDatabase db = TransactionDatabase::FromTransactions(tx);
  MinerOptions options;
  options.min_support = 2;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const ClosedSetIndex index(closed.value());

  RuleOptions strict;
  strict.min_confidence = 0.9;
  for (const auto& rule : GenerateRules(index, db.NumTransactions(), strict)) {
    EXPECT_GE(rule.confidence, 0.9);
  }
}

TEST(RulesTest, MaxItemsetSizeRespected) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}});
  MinerOptions options;
  options.min_support = 2;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const ClosedSetIndex index(closed.value());
  RuleOptions small;
  small.max_itemset_size = 4;  // the size-5 closed set spawns no rules
  small.min_confidence = 0.0;
  EXPECT_TRUE(GenerateRules(index, db.NumTransactions(), small).empty());
}

}  // namespace
}  // namespace fim
