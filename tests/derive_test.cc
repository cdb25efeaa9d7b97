// Tests of maximal-set filtering and frequent-set reconstruction (§2.3),
// against the definition: every subset of the item base, counted with
// TransactionDatabase::CountSupport.

#include <gtest/gtest.h>

#include <map>

#include "api/miner.h"
#include "data/generators.h"
#include "rules/derive.h"

namespace fim {
namespace {

using FrequentMap = std::map<std::vector<ItemId>, Support>;

FrequentMap BruteForceFrequent(const TransactionDatabase& db, Support smin) {
  // Enumerate all subsets of the item base (small tests only).
  std::vector<ItemId> used;
  const auto freq = db.ItemFrequencies();
  for (std::size_t i = 0; i < freq.size(); ++i) {
    if (freq[i] > 0) used.push_back(static_cast<ItemId>(i));
  }
  FrequentMap out;
  const std::size_t limit = std::size_t{1} << used.size();
  for (std::size_t mask = 1; mask < limit; ++mask) {
    std::vector<ItemId> items;
    for (std::size_t b = 0; b < used.size(); ++b) {
      if (mask & (std::size_t{1} << b)) items.push_back(used[b]);
    }
    const Support s = db.CountSupport(items);
    if (s >= smin) out.emplace(std::move(items), s);
  }
  return out;
}

TEST(FilterMaximalTest, DropsSubsumedSets) {
  std::vector<ClosedItemset> closed = {
      {{0, 1, 2}, 2}, {{0, 1}, 3}, {{3}, 4}, {{1, 2}, 2},
  };
  const auto maximal = FilterMaximal(closed);
  // {0,1} and {1,2} are inside {0,1,2}; {3} stands alone.
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0].items, (std::vector<ItemId>{0, 1, 2}));
  EXPECT_EQ(maximal[1].items, (std::vector<ItemId>{3}));
}

TEST(FilterMaximalTest, EqualSetsAreNotSubsumedByThemselves) {
  std::vector<ClosedItemset> closed = {{{0, 1}, 2}};
  EXPECT_EQ(FilterMaximal(closed).size(), 1u);
}

TEST(FilterMaximalTest, MaximalPropertyOnRandomData) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db = GenerateRandomDense(10, 8, 0.5, seed * 7);
    MinerOptions options;
    options.min_support = 2;
    auto closed = MineClosedCollect(db, options);
    ASSERT_TRUE(closed.ok());
    const auto maximal = FilterMaximal(closed.value());
    // (a) every maximal set is closed and frequent;
    for (const auto& m : maximal) {
      EXPECT_GE(m.support, 2u);
      // (b) no other maximal set contains it;
      for (const auto& other : maximal) {
        if (&other == &m) continue;
        EXPECT_FALSE(IsSubsetSorted(m.items, other.items) &&
                     m.items != other.items);
      }
    }
    // (c) every closed set is inside some maximal set.
    for (const auto& c : closed.value()) {
      bool contained = false;
      for (const auto& m : maximal) {
        if (IsSubsetSorted(c.items, m.items)) {
          contained = true;
          break;
        }
      }
      EXPECT_TRUE(contained);
    }
  }
}

TEST(ExpandToAllFrequentTest, MatchesBruteForceExactly) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(10, 8, 0.45, seed * 31);
    const Support smin = 2;
    MinerOptions options;
    options.min_support = smin;
    auto closed = MineClosedCollect(db, options);
    ASSERT_TRUE(closed.ok());
    const ClosedSetIndex index(closed.value());
    auto expanded = ExpandToAllFrequent(index);
    ASSERT_TRUE(expanded.ok());

    const FrequentMap expected = BruteForceFrequent(db, smin);
    ASSERT_EQ(expanded.value().size(), expected.size()) << "seed " << seed;
    for (const auto& set : expanded.value()) {
      auto it = expected.find(set.items);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(it->second, set.support);
    }
  }
}

TEST(FrequentMinersTest, ClosedSetsAreExactlyClosureImagesOfFrequentSets) {
  // Every frequent set's support must equal the support of some closed
  // frequent superset, and every closed set must itself be frequent.
  const TransactionDatabase db = GenerateRandomDense(11, 9, 0.45, 777);
  const Support smin = 2;

  MinerOptions options;
  options.min_support = smin;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const auto& closed_sets = closed.value();

  const FrequentMap frequent = BruteForceFrequent(db, smin);

  // (a) every closed set is frequent with matching support;
  for (const auto& set : closed_sets) {
    auto it = frequent.find(set.items);
    ASSERT_NE(it, frequent.end());
    EXPECT_EQ(it->second, set.support);
  }
  // (b) every frequent set has a closed superset with the same support.
  for (const auto& [items, support] : frequent) {
    bool found = false;
    for (const auto& set : closed_sets) {
      if (set.support == support && IsSubsetSorted(items, set.items)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << ItemsToString(items);
  }
  // (c) closed sets are a (usually strict) subset of frequent sets.
  EXPECT_LE(closed_sets.size(), frequent.size());
}

TEST(ExpandToAllFrequentTest, RespectsMaxSets) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}});
  MinerOptions options;
  options.min_support = 1;
  auto closed = MineClosedCollect(db, options);
  ASSERT_TRUE(closed.ok());
  const ClosedSetIndex index(closed.value());
  auto result = ExpandToAllFrequent(index, /*max_sets=*/10);
  ASSERT_FALSE(result.ok());  // 2^6 - 1 = 63 frequent sets > 10
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ExpandToAllFrequentTest, EmptyIndex) {
  const ClosedSetIndex index({});
  auto result = ExpandToAllFrequent(index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

}  // namespace
}  // namespace fim
