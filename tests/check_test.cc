// Tests for the FIM_CHECK/FIM_DCHECK framework and the structural
// validators of the prefix-tree repository and the Carpenter occurrence
// matrix. The corruption tests damage one invariant at a time through a
// test-peer hook and confirm the validator reports that specific
// breakage.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "carpenter/carpenter.h"
#include "common/check.h"
#include "data/transaction_database.h"
#include "ista/prefix_tree.h"

namespace fim {

// Friend of IstaPrefixTree: surgical access to node fields for breaking
// invariants on purpose. Since the tree stores its nodes as a structure
// of arrays, At returns a NodeRef view (reference members into the
// parallel arrays) rather than a reference to a node struct.
struct IstaPrefixTreeTestPeer {
  using NodeRef = IstaPrefixTree::NodeRef;

  static constexpr uint32_t kNil = IstaPrefixTree::kNil;
  static constexpr uint32_t kRoot = IstaPrefixTree::kRoot;

  static NodeRef At(IstaPrefixTree& tree, uint32_t index) {
    return tree.At(index);
  }
  static uint32_t FirstChild(IstaPrefixTree& tree, uint32_t node) {
    return tree.At(node).children;
  }
  static void SetNodeCount(IstaPrefixTree& tree, std::size_t count) {
    tree.node_count_ = count;
  }
  static void SetTransactionFlag(IstaPrefixTree& tree, ItemId item) {
    tree.in_transaction_[item] = 1;
  }
  static void ClearSignatureBit(IstaPrefixTree& tree, uint32_t node,
                                ItemId item) {
    tree.node_sig_[node] &= ~IstaPrefixTree::ItemBit(item);
  }
};

namespace {

using PrefixPeer = IstaPrefixTreeTestPeer;

// ---------------------------------------------------------------------------
// FIM_CHECK / FIM_DCHECK semantics

TEST(CheckDeathTest, FailingCheckAbortsWithConditionAndMessage) {
  EXPECT_DEATH(FIM_CHECK(1 + 1 == 3) << "math is broken: " << 42,
               "FIM_CHECK failed: 1 \\+ 1 == 3 .*math is broken: 42");
}

TEST(CheckDeathTest, FailingCheckOkAbortsWithStatusText) {
  EXPECT_DEATH(FIM_CHECK_OK(Status::Internal("corrupted repository")),
               "FIM_CHECK failed: .*Internal: corrupted repository");
}

TEST(CheckTest, PassingChecksDoNotAbortAndEvaluateOnce) {
  int evaluations = 0;
  FIM_CHECK(++evaluations > 0) << "never printed";
  EXPECT_EQ(evaluations, 1);
  FIM_CHECK_OK(Status::OK());
}

TEST(CheckTest, StreamedOperandsAreNotEvaluatedOnSuccess) {
  int stream_calls = 0;
  auto expensive = [&stream_calls]() {
    ++stream_calls;
    return "expensive";
  };
  FIM_CHECK(true) << expensive();
  EXPECT_EQ(stream_calls, 0);
}

TEST(CheckDeathTest, DcheckFollowsBuildConfiguration) {
  if (FIM_DCHECK_IS_ON()) {
    EXPECT_DEATH(FIM_DCHECK(false) << "debug only", "FIM_CHECK failed");
  } else {
    FIM_DCHECK(false) << "compiled out";  // must not abort
  }
}

TEST(CheckTest, DisabledDcheckDoesNotEvaluateCondition) {
  int evaluations = 0;
  FIM_DCHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, FIM_DCHECK_IS_ON() ? 1 : 0);
}

// ---------------------------------------------------------------------------
// IstaPrefixTree::ValidateInvariants

IstaPrefixTree MakeTree(std::size_t num_items,
                        const std::vector<std::vector<ItemId>>& transactions) {
  IstaPrefixTree tree(num_items);
  for (const auto& t : transactions) tree.AddTransaction(t);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  return tree;
}

TEST(PrefixTreeValidatorTest, AcceptsHealthyTree) {
  IstaPrefixTree tree =
      MakeTree(4, {{0, 1, 2}, {1, 2, 3}, {0, 2}, {2, 3}});
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(PrefixTreeValidatorTest, DetectsSiblingOrderViolation) {
  // Root child list is [1, 0]; duplicating item 0 breaks strict descent.
  IstaPrefixTree tree = MakeTree(3, {{0}, {1}});
  const uint32_t head = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  PrefixPeer::At(tree, head).item = 0;
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not strictly descending"),
            std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsChildCodeBoundViolation) {
  // Path root -> 1 -> 0; raising the leaf's item above its parent breaks
  // the child-code bound.
  IstaPrefixTree tree = MakeTree(3, {{0, 1}});
  const uint32_t parent = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  const uint32_t leaf = PrefixPeer::FirstChild(tree, parent);
  PrefixPeer::At(tree, leaf).item = 2;
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("lower code than parent"),
            std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsStepStampBeyondGlobalStep) {
  IstaPrefixTree tree = MakeTree(3, {{0, 1}});
  const uint32_t node = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  PrefixPeer::At(tree, node).step = 99;
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("step stamp"), std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsSupportMonotonicityViolation) {
  IstaPrefixTree tree = MakeTree(3, {{0, 1}, {0, 1}});
  const uint32_t parent = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  const uint32_t leaf = PrefixPeer::FirstChild(tree, parent);
  PrefixPeer::At(tree, leaf).supp = PrefixPeer::At(tree, parent).supp + 5;
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("support not monotone"), std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsNodeCountMismatch) {
  IstaPrefixTree tree = MakeTree(3, {{0, 1, 2}});
  PrefixPeer::SetNodeCount(tree, tree.NodeCount() + 7);
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("node_count_"), std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsUnreachableNodes) {
  IstaPrefixTree tree = MakeTree(3, {{0, 1}});
  PrefixPeer::At(tree, PrefixPeer::kRoot).children = PrefixPeer::kNil;
  PrefixPeer::SetNodeCount(tree, 0);
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unreachable"), std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsCycle) {
  // Point the leaf's child list back at its parent: the parent becomes
  // reachable twice.
  IstaPrefixTree tree = MakeTree(3, {{0, 1}});
  const uint32_t parent = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  const uint32_t leaf = PrefixPeer::FirstChild(tree, parent);
  PrefixPeer::At(tree, leaf).children = parent;
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("reachable twice"), std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsSignatureMissingAChildItem) {
  // Path root -> 1 -> 0 with signatures: node 1's signature holds item 0's
  // bit. Clearing it would let the walk skip a subtree that holds item 0.
  IstaPrefixTree tree(3, /*signatures=*/true);
  tree.AddTransaction(std::vector<ItemId>{0, 1});
  tree.AddTransaction(std::vector<ItemId>{0, 2});
  ASSERT_TRUE(tree.ValidateInvariants().ok())
      << tree.ValidateInvariants().ToString();
  const uint32_t head = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  ASSERT_EQ(PrefixPeer::At(tree, head).item, 2u);
  const uint32_t one = PrefixPeer::At(tree, head).sibling;
  ASSERT_EQ(PrefixPeer::At(tree, one).item, 1u);
  PrefixPeer::ClearSignatureBit(tree, one, 0);
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("does not cover its child"),
            std::string::npos)
      << status.ToString();
}

TEST(PrefixTreeValidatorTest, DetectsStaleTransactionFlag) {
  IstaPrefixTree tree = MakeTree(3, {{0, 1}});
  PrefixPeer::SetTransactionFlag(tree, 2);
  const Status status = tree.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not cleared"), std::string::npos)
      << status.ToString();
}

#ifdef FIM_ENABLE_DCHECKS
TEST(PrefixTreeValidatorDeathTest, CorruptionTripsWiredDcheckOnMutation) {
  // With dchecks on, the validator wired into AddTransaction (power-of-
  // two steps) must abort the process on a corrupted tree.
  IstaPrefixTree tree = MakeTree(3, {{0, 1}});
  const uint32_t node = PrefixPeer::FirstChild(tree, PrefixPeer::kRoot);
  PrefixPeer::At(tree, node).step = 99;
  // {2} does not touch the corrupted node, so the intersection pass cannot
  // heal its stamp; the validation at step 2 (a power of two) must abort.
  const std::vector<ItemId> t{2};
  EXPECT_DEATH(tree.AddTransaction(t), "step stamp");
}
#endif  // FIM_ENABLE_DCHECKS

// ---------------------------------------------------------------------------
// ValidateCarpenterMatrix

// The rows {0,1,2}, {0,2}, {1,2,3} with unit weights, over items 0..3.
WeightedTransactions MakeRows() {
  WeightedTransactions rows;
  for (const std::vector<ItemId>& row :
       {std::vector<ItemId>{0, 1, 2}, {0, 2}, {1, 2, 3}}) {
    rows.AddRow(row, 1);
  }
  return rows;
}

constexpr std::size_t kItems = 4;

TEST(CarpenterMatrixValidatorTest, AcceptsFreshMatrix) {
  const WeightedTransactions rows = MakeRows();
  const std::vector<Support> matrix = BuildCarpenterMatrix(rows, kItems);
  EXPECT_TRUE(ValidateCarpenterMatrix(rows, kItems, matrix).ok());
  // The unit-weight rows give the matrix of the transaction database.
  EXPECT_EQ(matrix, BuildCarpenterMatrix(TransactionDatabase::FromTransactions(
                        {{0, 1, 2}, {0, 2}, {1, 2, 3}})));
}

TEST(CarpenterMatrixValidatorTest, DetectsSizeMismatch) {
  const WeightedTransactions rows = MakeRows();
  std::vector<Support> matrix = BuildCarpenterMatrix(rows, kItems);
  matrix.pop_back();
  const Status status = ValidateCarpenterMatrix(rows, kItems, matrix);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("size"), std::string::npos)
      << status.ToString();
}

TEST(CarpenterMatrixValidatorTest, DetectsNonZeroEntryForAbsentItem) {
  const WeightedTransactions rows = MakeRows();
  std::vector<Support> matrix = BuildCarpenterMatrix(rows, kItems);
  // Item 3 is not in transaction 0.
  matrix[0 * kItems + 3] = 5;
  const Status status = ValidateCarpenterMatrix(rows, kItems, matrix);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not in the transaction"),
            std::string::npos)
      << status.ToString();
}

TEST(CarpenterMatrixValidatorTest, DetectsZeroEntryForPresentItem) {
  const WeightedTransactions rows = MakeRows();
  std::vector<Support> matrix = BuildCarpenterMatrix(rows, kItems);
  // Item 0 is in transaction 0.
  matrix[0 * kItems + 0] = 0;
  const Status status = ValidateCarpenterMatrix(rows, kItems, matrix);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("zero entry for an item"),
            std::string::npos)
      << status.ToString();
}

TEST(CarpenterMatrixValidatorTest, DetectsBrokenColumnMonotonicity) {
  const WeightedTransactions rows = MakeRows();
  std::vector<Support> matrix = BuildCarpenterMatrix(rows, kItems);
  // Column 2 is [3, 2, 1] (item 2 occurs in every transaction); bumping
  // the middle entry breaks the strictly-decreasing suffix count.
  matrix[1 * kItems + 2] = 7;
  const Status status = ValidateCarpenterMatrix(rows, kItems, matrix);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not a decreasing suffix count"),
            std::string::npos)
      << status.ToString();
}

TEST(CarpenterMatrixValidatorTest, DetectsAMatrixThatCountsRowsNotWeights) {
  WeightedTransactions rows = MakeRows();
  rows.weights[1] = 3;  // {0, 2} stands for three transactions
  const std::vector<Support> weighted = BuildCarpenterMatrix(rows, kItems);
  EXPECT_TRUE(ValidateCarpenterMatrix(rows, kItems, weighted).ok());
  // Column 0 holds the suffix sums [4, 3, 0].
  EXPECT_EQ(weighted[0 * kItems + 0], 4u);
  EXPECT_EQ(weighted[1 * kItems + 0], 3u);

  const std::vector<Support> unweighted =
      BuildCarpenterMatrix(MakeRows(), kItems);
  const Status status = ValidateCarpenterMatrix(rows, kItems, unweighted);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not a decreasing suffix count"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace fim
