// Deep behavioural tests of the IsTa prefix tree: the step-stamp support
// arithmetic (several stored sets intersecting a transaction to the same
// result must count it once, Fig. 2), prefix-support consistency, and
// prune/merge semantics.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ista/prefix_tree.h"

namespace fim {
namespace {

std::map<std::vector<ItemId>, Support> Collect(const IstaPrefixTree& tree,
                                               Support min_support) {
  std::map<std::vector<ItemId>, Support> out;
  tree.Report(min_support,
              [&out](std::span<const ItemId> items, Support support) {
                out.emplace(
                    std::vector<ItemId>(items.begin(), items.end()), support);
              });
  return out;
}

// The reported sets in emission order.
std::vector<std::pair<std::vector<ItemId>, Support>> Emitted(
    const IstaPrefixTree& tree, Support min_support) {
  std::vector<std::pair<std::vector<ItemId>, Support>> out;
  tree.Report(min_support,
              [&out](std::span<const ItemId> items, Support support) {
                out.emplace_back(
                    std::vector<ItemId>(items.begin(), items.end()), support);
              });
  return out;
}

TEST(IstaDeepTest, SameIntersectionFromMultipleSourcesCountsOnce) {
  // {a,b,x} and {a,b,y} both intersect {a,b,z} to {a,b}: without the
  // step stamp the support of {a,b} would be double-counted.
  IstaPrefixTree tree(6);
  tree.AddTransaction(std::vector<ItemId>{0, 1, 3});  // a b x
  tree.AddTransaction(std::vector<ItemId>{0, 1, 4});  // a b y
  tree.AddTransaction(std::vector<ItemId>{0, 1, 5});  // a b z
  const auto sets = Collect(tree, 1);
  ASSERT_TRUE(sets.count({0, 1}));
  EXPECT_EQ(sets.at({0, 1}), 3u);  // in all three transactions, not 4+
  EXPECT_EQ(sets.size(), 4u);      // the three transactions + {a,b}
}

TEST(IstaDeepTest, ManySourcesOneResultStressesStamp) {
  // k stored sets all intersect the final transaction to {0}; the final
  // support of {0} must be exactly k+1.
  const std::size_t k = 20;
  IstaPrefixTree tree(k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    tree.AddTransaction(
        std::vector<ItemId>{0, static_cast<ItemId>(i + 1)});
  }
  tree.AddTransaction(std::vector<ItemId>{0});
  const auto sets = Collect(tree, 1);
  EXPECT_EQ(sets.at({0}), k + 1);
}

TEST(IstaDeepTest, LaterSupersetRaisesEarlierIntersectionSupport) {
  // The intersection {a} is created at step 2; a later transaction
  // containing {a} must keep its count exact.
  IstaPrefixTree tree(4);
  tree.AddTransaction(std::vector<ItemId>{0, 1});  // a b
  tree.AddTransaction(std::vector<ItemId>{0, 2});  // a c   -> {a} supp 2
  tree.AddTransaction(std::vector<ItemId>{0, 3});  // a d
  tree.AddTransaction(std::vector<ItemId>{0});     // a
  const auto sets = Collect(tree, 1);
  EXPECT_EQ(sets.at({0}), 4u);
}

TEST(IstaDeepTest, ClosednessAcrossBranches) {
  // {b} occurs only together with {a} ({a,b} twice): {b} is not closed
  // and must not be reported even though a node for it may exist.
  IstaPrefixTree tree(3);
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{0, 2});
  const auto sets = Collect(tree, 1);
  EXPECT_FALSE(sets.count({1}));     // closure is {0,1}
  EXPECT_FALSE(sets.count({2}));     // closure is {0,2}
  EXPECT_EQ(sets.at({0}), 3u);       // {a} IS closed
  EXPECT_EQ(sets.at({0, 1}), 2u);
  EXPECT_EQ(sets.at({0, 2}), 1u);
  EXPECT_EQ(sets.size(), 3u);
}

TEST(IstaDeepTest, PruneMergesReducedSetsWithMaxSupport) {
  IstaPrefixTree tree(4);
  // Stored sets: {a,b} supp 3, {a,c} supp 1 (via transactions).
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{0, 2});
  // remaining: b and c cannot occur again; with min support 4, both are
  // dropped from every set whose node support cannot reach 4. The
  // reduced sets collapse onto {a} with the max support (= 4, since {a}
  // itself is a node with support 4 already).
  std::vector<Support> remaining = {10, 0, 0, 0};
  tree.Prune(4, remaining);
  const auto sets = Collect(tree, 4);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets.at({0}), 4u);
}

TEST(IstaDeepTest, PruneMergesChildrenOfDroppedItemsBehindKeptSiblings) {
  // Stored: {7} 6, {6,7} 1, {4,7} 2, {3,4,7} 1, {2,3,4,7} 1, {2,4,7} 2,
  // {2,7} 4, {1,7} 1. Dropping 4 moves its children 3 and 2 into 7's
  // child list after 6, 2 and 1 are rebuilt there: 3 must go between 6
  // and 2, and 2 must merge onto the kept {2,7} with the larger support.
  IstaPrefixTree tree(8);
  tree.AddTransaction(std::vector<ItemId>{6, 7});
  tree.AddTransaction(std::vector<ItemId>{2, 3, 4, 7});
  tree.AddTransaction(std::vector<ItemId>{2, 4, 7});
  tree.AddTransaction(std::vector<ItemId>{2, 7});
  tree.AddTransaction(std::vector<ItemId>{2, 7});
  tree.AddTransaction(std::vector<ItemId>{1, 7});
  ASSERT_EQ(tree.NodeCount(), 8u);
  std::vector<Support> remaining(8, 10);
  remaining[4] = 0;  // 2 + 0 < 3: item 4 goes from every set
  tree.Prune(3, remaining);
  ASSERT_TRUE(tree.ValidateInvariants().ok())
      << tree.ValidateInvariants().ToString();
  EXPECT_EQ(tree.NodeCount(), 6u);  // 7; 6, 3, 2, 1 below it; 2 below 3
  const std::vector<std::pair<std::vector<ItemId>, Support>> expected = {
      {{6, 7}, 1}, {{2, 3, 7}, 1}, {{2, 7}, 4}, {{1, 7}, 1}, {{7}, 6}};
  EXPECT_EQ(Emitted(tree, 1), expected);
}

TEST(IstaDeepTest, PruningAfterEveryTransactionNeverChangesTheReport) {
  // Weighted rows drawn with repeats from a small pool go into two trees;
  // one is pruned after every transaction, with `remaining` kept as
  // MineStream keeps it. Every rebuild must leave a valid tree and the
  // reports must match set for set, in emission order.
  bool removed_any = false;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::size_t num_items = 6 + rng.Uniform(10);
    std::vector<std::vector<ItemId>> pool(4 + rng.Uniform(8));
    for (std::vector<ItemId>& row : pool) {
      for (std::size_t i = 0; i < num_items; ++i) {
        if (rng.Bernoulli(0.5)) row.push_back(static_cast<ItemId>(i));
      }
      if (row.empty()) row.push_back(static_cast<ItemId>(num_items - 1));
    }
    std::vector<const std::vector<ItemId>*> rows;
    std::vector<Support> weights;
    for (int r = 0; r < 40; ++r) {
      rows.push_back(&pool[rng.Uniform(pool.size())]);
      weights.push_back(static_cast<Support>(1 + rng.Uniform(3)));
    }
    for (Support smin : {1u, 2u, 5u, 9u, 16u, 30u}) {
      std::vector<Support> remaining(num_items, 0);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        for (ItemId i : *rows[r]) remaining[i] += weights[r];
      }
      IstaPrefixTree pruned(num_items);
      IstaPrefixTree plain(num_items);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        pruned.AddTransaction(*rows[r], weights[r]);
        plain.AddTransaction(*rows[r], weights[r]);
        for (ItemId i : *rows[r]) remaining[i] -= weights[r];
        const std::size_t before = pruned.NodeCount();
        pruned.Prune(smin, remaining);
        removed_any |= pruned.NodeCount() < before;
        const Status valid = pruned.ValidateInvariants();
        ASSERT_TRUE(valid.ok()) << "seed " << seed << " smin " << smin
                                << " row " << r << ": " << valid.ToString();
      }
      EXPECT_EQ(pruned.PruneCount(), rows.size());
      EXPECT_EQ(Emitted(pruned, smin), Emitted(plain, smin))
          << "seed " << seed << " smin " << smin;
    }
  }
  EXPECT_TRUE(removed_any);
}

TEST(IstaDeepTest, PruneOnEmptyTreeIsNoOp) {
  IstaPrefixTree tree(3);
  std::vector<Support> remaining(3, 5);
  tree.Prune(2, remaining);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_TRUE(Collect(tree, 1).empty());
}

TEST(IstaDeepTest, InterleavedPrunesKeepSupportsExact) {
  // Pruning between every pair of transactions must never corrupt the
  // supports of the surviving frequent sets.
  IstaPrefixTree tree(5);
  const std::vector<std::vector<ItemId>> tx = {
      {0, 1, 2}, {0, 1, 3}, {0, 1, 2, 4}, {0, 1}, {0, 1, 2},
  };
  std::vector<Support> remaining(5, 0);
  for (const auto& t : tx) {
    for (ItemId i : t) ++remaining[i];
  }
  for (const auto& t : tx) {
    tree.AddTransaction(t);
    for (ItemId i : t) --remaining[i];
    tree.Prune(3, remaining);
  }
  const auto sets = Collect(tree, 3);
  ASSERT_TRUE(sets.count({0, 1}));
  EXPECT_EQ(sets.at({0, 1}), 5u);
  ASSERT_TRUE(sets.count({0, 1, 2}));
  EXPECT_EQ(sets.at({0, 1, 2}), 3u);
}

TEST(IstaDeepTest, AdversariallyDeepChainsDoNotOverflowTheStack) {
  // One very long transaction creates a repository path with one node per
  // item. Insert, intersect, report and prune all walk that chain
  // end to end; with the recursive formulation each of them would need
  // ~depth stack frames and crash long before this size.
  const std::size_t depth = 60000;
  std::vector<ItemId> items(depth);
  for (std::size_t i = 0; i < depth; ++i) items[i] = static_cast<ItemId>(i);
  const std::vector<ItemId> shorter(items.begin(), items.end() - 1);

  IstaPrefixTree tree(depth);
  tree.AddTransaction(items);    // deep path insert
  tree.AddTransaction(items);    // Isect walks the full chain
  tree.AddTransaction(shorter);  // deep intersection result
  ASSERT_TRUE(tree.ValidateInvariants().ok());

  const auto sets = Collect(tree, 1);  // Report walks the chain
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets.at(items), 2u);
  EXPECT_EQ(sets.at(shorter), 3u);

  std::vector<Support> remaining(depth, 0);
  tree.Prune(2, remaining);  // PruneInto walks the chain
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(Collect(tree, 2), sets);
}

TEST(IstaDeepTest, StepCountSurvivesPrune) {
  IstaPrefixTree tree(3);
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{1, 2});
  std::vector<Support> remaining(3, 1);
  tree.Prune(1, remaining);
  EXPECT_EQ(tree.StepCount(), 2u);
  // Adding more transactions after a prune must keep counting correctly.
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  EXPECT_EQ(tree.StepCount(), 3u);
  const auto sets = Collect(tree, 2);
  EXPECT_EQ(sets.at({0, 1}), 2u);
}

}  // namespace
}  // namespace fim
