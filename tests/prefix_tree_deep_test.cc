// Deep behavioural tests of the IsTa prefix tree: the step-stamp support
// arithmetic (several stored sets intersecting a transaction to the same
// result must count it once, Fig. 2), prefix-support consistency,
// prune/merge semantics, and the item-signature cut and its selection.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "api/miner.h"
#include "common/rng.h"
#include "data/recode.h"
#include "ista/ista.h"
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
  // Weighted rows drawn with repeats from a small pool go into a plain
  // tree that is never pruned, the reference, and into trees of both
  // modes, plain and with item signatures: one is pruned after every
  // transaction, with `remaining` kept as BuildIstaTree keeps it, and one
  // is built by BuildIstaTree on its own prune schedule. Every rebuild
  // must leave a valid tree and the reports must match set for set, in
  // emission order. Seeds 1-30 draw rows over at most 15 items, seeds
  // 31-45 over 65 to 134, where signature bits collide.
  bool removed_any = false;
  std::size_t scheduled_prunes = 0;
  for (uint64_t seed = 1; seed <= 45; ++seed) {
    Rng rng(seed);
    const bool wide = seed > 30;
    const std::size_t num_items =
        wide ? 65 + rng.Uniform(70) : 6 + rng.Uniform(10);
    std::vector<std::vector<ItemId>> pool(4 + rng.Uniform(8));
    for (std::vector<ItemId>& row : pool) {
      for (std::size_t i = 0; i < num_items; ++i) {
        if (rng.Bernoulli(wide ? 0.15 : 0.5)) {
          row.push_back(static_cast<ItemId>(i));
        }
      }
      if (row.empty()) row.push_back(static_cast<ItemId>(num_items - 1));
    }
    WeightedTransactions rows;
    for (int r = 0; r < 40; ++r) {
      rows.AddRow(pool[rng.Uniform(pool.size())],
                  static_cast<Support>(1 + rng.Uniform(3)));
    }
    for (Support smin : {1u, 2u, 5u, 9u, 16u, 30u}) {
      IstaPrefixTree plain(num_items);
      for (std::size_t r = 0; r < rows.NumRows(); ++r) {
        plain.AddTransaction(rows.Row(r), rows.weights[r]);
      }
      const auto expected = Emitted(plain, smin);
      for (const bool signatures : {false, true}) {
        std::vector<Support> remaining(num_items, 0);
        for (std::size_t r = 0; r < rows.NumRows(); ++r) {
          for (ItemId i : rows.Row(r)) remaining[i] += rows.weights[r];
        }
        IstaPrefixTree pruned(num_items, signatures);
        for (std::size_t r = 0; r < rows.NumRows(); ++r) {
          pruned.AddTransaction(rows.Row(r), rows.weights[r]);
          for (ItemId i : rows.Row(r)) remaining[i] -= rows.weights[r];
          const std::size_t before = pruned.NodeCount();
          pruned.Prune(smin, remaining);
          removed_any |= pruned.NodeCount() < before;
          const Status valid = pruned.ValidateInvariants();
          ASSERT_TRUE(valid.ok())
              << "seed " << seed << " smin " << smin << " signatures "
              << signatures << " row " << r << ": " << valid.ToString();
        }
        EXPECT_EQ(pruned.PruneCount(), rows.NumRows());
        EXPECT_EQ(Emitted(pruned, smin), expected)
            << "seed " << seed << " smin " << smin << " signatures "
            << signatures;

        IstaPrefixTree scheduled(num_items, signatures);
        MinerOptions options;
        options.min_support = smin;
        BuildIstaTree(rows, options, nullptr, &scheduled);
        scheduled_prunes += scheduled.PruneCount();
        const Status valid = scheduled.ValidateInvariants();
        ASSERT_TRUE(valid.ok()) << "seed " << seed << " smin " << smin
                                << ": " << valid.ToString();
        EXPECT_EQ(Emitted(scheduled, smin), expected)
            << "seed " << seed << " smin " << smin << " signatures "
            << signatures << " (prune schedule)";
      }
    }
  }
  EXPECT_TRUE(removed_any);
  EXPECT_GT(scheduled_prunes, 0u);
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

// Rows of about `density` * num_items random items each, over the codes
// [0, num_items), with unit weights.
WeightedTransactions RandomRows(uint64_t seed, std::size_t num_rows,
                                std::size_t num_items, double density) {
  Rng rng(seed);
  WeightedTransactions rows;
  std::vector<ItemId> row;
  for (std::size_t r = 0; r < num_rows; ++r) {
    row.clear();
    for (std::size_t i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(density)) row.push_back(static_cast<ItemId>(i));
    }
    if (row.empty()) row.push_back(static_cast<ItemId>(rng.Uniform(num_items)));
    rows.AddRow(row, 1);
  }
  return rows;
}

TEST(IstaSignatureTest, MineIstaPicksTheWalkByRowDensity) {
  // Dense rows (about 38 of 64 items) take the plain walk, though the cut
  // would skip some subtrees there too; sparse rows (about 6 of 64) take
  // the cut. MineIsta's steps are those of a tree of the picked mode.
  struct Case {
    WeightedTransactions rows;
    Support min_support;
    bool sparse;
  };
  const Case cases[] = {{RandomRows(3, 12, 64, 0.6), 1, false},
                        {RandomRows(5, 200, 64, 0.1), 2, true}};
  for (const Case& c : cases) {
    ASSERT_EQ(SparseEnoughForSignatures(c.rows), c.sparse);
    MinerOptions options;
    options.min_support = c.min_support;
    MinerStats stats;
    MineIsta(c.rows, 64, options, [](std::span<const ItemId>, Support) {},
             &stats, nullptr);
    IstaPrefixTree plain(64);
    IstaPrefixTree with_signatures(64, /*signatures=*/true);
    BuildIstaTree(c.rows, options, nullptr, &plain);
    BuildIstaTree(c.rows, options, nullptr, &with_signatures);
    EXPECT_LT(with_signatures.IsectSteps(), plain.IsectSteps());
    EXPECT_EQ(stats.isect_steps, c.sparse ? with_signatures.IsectSteps()
                                          : plain.IsectSteps());
  }
}

TEST(IstaSignatureTest, SelectionBarIsAMeanOfSixteenBits) {
  // A row of items 0..15 sets 16 bits: a mean of 16 is not below the bar.
  WeightedTransactions rows;
  std::vector<ItemId> sixteen(16);
  for (ItemId i = 0; i < 16; ++i) sixteen[i] = i;
  rows.AddRow(sixteen, 1);
  EXPECT_FALSE(SparseEnoughForSignatures(rows));
  // Items 64 and 128 share bit 0: (16 + 1) / 2 rows, whatever the weight.
  rows.AddRow(std::vector<ItemId>{64, 128}, 5);
  EXPECT_TRUE(SparseEnoughForSignatures(rows));
  EXPECT_FALSE(SparseEnoughForSignatures(WeightedTransactions{}));
}

}  // namespace
}  // namespace fim
