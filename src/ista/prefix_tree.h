#ifndef FIM_ISTA_PREFIX_TREE_H_
#define FIM_ISTA_PREFIX_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "obs/memory.h"

namespace fim {

/// The prefix-tree repository of closed item sets at the heart of IsTa
/// (paper §3.3). Each node represents the item set formed by the items on
/// its root path; sibling lists are ordered by descending item code and
/// children carry lower codes than their parent, so every set is stored
/// along exactly one path. `AddTransaction` implements the combined
/// "insert transaction + merge all intersections" recursion of Figure 2,
/// using a per-node step stamp to keep supports correct when several
/// stored sets intersect the new transaction to the same result.
///
/// A tree built with `signatures` keeps, per node, a 64-bit signature of
/// the items below it (bit `item & 63`, exact for up to 64 items and a
/// superset beyond), and the walk skips every child level whose
/// signature shares no bit with the transaction's: such a subtree holds
/// none of its items, so it can create or update nothing. The reported
/// sets, their supports and their order do not depend on the mode; the
/// steps and the bytes do (8 more per node). It pays on sparse rows only
/// (MineIsta, ista.h, decides).
///
/// Item codes must be < num_items; for the performance characteristics of
/// the paper, assign codes ascending by frequency (see recode.h) before
/// feeding transactions.
class IstaPrefixTree {
 public:
  explicit IstaPrefixTree(std::size_t num_items, bool signatures = false);

  // The tree owns bulk node storage; moving is fine, copying is not
  // meaningful for a mining-in-progress structure.
  IstaPrefixTree(const IstaPrefixTree&) = delete;
  IstaPrefixTree& operator=(const IstaPrefixTree&) = delete;
  IstaPrefixTree(IstaPrefixTree&&) = default;
  IstaPrefixTree& operator=(IstaPrefixTree&&) = default;

  /// Processes one transaction of multiplicity `weight` (>= 1): adds it
  /// to the repository and creates or updates every intersection with a
  /// stored set, adding `weight` instead of +1 wherever Figure 2 counts
  /// the transaction (the step-stamp discount is adjusted accordingly).
  /// Equivalent to `weight` consecutive unit additions, in one pass.
  /// `items` must be sorted ascending and duplicate-free, non-empty, all
  /// < num_items.
  void AddTransaction(std::span<const ItemId> items, Support weight = 1);

  /// Reports every stored set with support >= min_support whose support
  /// exceeds the support of all its direct children (the closedness check
  /// of Figure 4). Items are passed to the callback in ascending order.
  void Report(Support min_support, const ClosedSetCallback& callback) const;

  /// Item-elimination pruning (paper §3.2): rebuilds the tree, removing
  /// item i from every stored set whose node support s satisfies
  /// s + remaining[i] < min_support, where remaining[i] is the number of
  /// occurrences of i in the not-yet-processed transactions. Reduced sets
  /// are merged with max support. Never changes the reported frequent
  /// closed sets.
  void Prune(Support min_support, std::span<const Support> remaining);

  /// Number of live nodes (excluding the pseudo-root).
  std::size_t NodeCount() const { return node_count_; }

  /// Size of the item universe this repository was created over.
  std::size_t NumItems() const { return in_transaction_.size(); }

  /// The signature of an item set: bit `i & 63` for every item i.
  static std::uint64_t ItemSignature(std::span<const ItemId> items) {
    std::uint64_t signature = 0;
    for (ItemId i : items) signature |= ItemBit(i);
    return signature;
  }

  /// High-water mark of NodeCount() over the tree's whole history,
  /// including the rebuilds of Prune.
  std::size_t PeakNodeCount() const { return peak_node_count_; }

  /// Number of Prune() rebuilds performed.
  std::size_t PruneCount() const { return prune_count_; }

  /// Repository nodes visited by the intersection walks (Figure 2's
  /// Isect) — the paper's measure of intersection work. Subtrees that a
  /// signature cut skips are not visited and do not count.
  std::uint64_t IsectSteps() const { return isect_steps_; }

  /// Number of transactions processed so far (a weighted addition counts
  /// as one step).
  std::size_t StepCount() const { return step_; }

  /// Total transaction weight processed so far (each AddTransaction adds
  /// its weight).
  uint64_t TotalWeight() const { return total_weight_; }

  /// Exact heap footprint of the repository (capacity bytes of the SoA
  /// arenas), as a breakdown named "prefix-tree": the node columns, the
  /// link arena and, in signature mode, the "node-signatures" column,
  /// each split into "live" (slots of reachable nodes) and "garbage"
  /// (allocated-but-dead slots plus capacity slack — vectors never
  /// shrink, so this is the pruning/growth overhead), plus the
  /// transaction-flag and Isect-stack scratch. The total is the capacity
  /// bytes of those vectors, exactly. O(1).
  obs::MemoryComponent ApproxMemoryUsage() const;

  /// Heap bytes the rebuild of Prune() allocates beside this tree: a copy
  /// whose columns and link arena are reserved for every node slot this
  /// tree has allocated, plus the copy's transaction flags. O(1).
  std::size_t PruneCopyBytes() const;

  /// Exhaustively checks the structural invariants of the repository
  /// (paper §3.3, Figure 2) and returns OK, or an Internal status naming
  /// the first violated invariant:
  ///   - every sibling list is sorted by strictly descending item code;
  ///   - every child carries a strictly lower item code than its parent;
  ///   - item codes are valid (< num_items; kInvalidItem only at the root);
  ///   - no node's step stamp exceeds the global step counter;
  ///   - support never increases from parent to child (a child path is a
  ///     superset item set, so it is contained in no more transactions);
  ///   - no node's support exceeds the total transaction weight processed
  ///     (weighted additions included);
  ///   - in signature mode, every node's signature covers the items of its
  ///     subtree (it holds each child's signature and the child's item
  ///     bit);
  ///   - every allocated node is reachable exactly once (no cycles, no
  ///     leaks) and `NodeCount()` matches;
  ///   - the transaction flag array is fully cleared (quiescent state).
  /// O(nodes). Debug builds run this automatically at mutation points via
  /// FIM_DCHECK; tests and fim-verify call it on demand.
  Status ValidateInvariants() const;

 private:
  friend struct IstaPrefixTreeTestPeer;  // corruption hooks for check_test

  // Node storage is a structure of arrays: one parallel vector per field,
  // indexed by node id, plus a single link arena holding both links of a
  // node in adjacent slots (slot 2n = children of node n, slot 2n+1 = its
  // sibling). The intersection walks touch only item codes, supports and
  // links, so splitting the fields keeps the cache lines they stream over
  // free of the cold step field, and the unified link arena lets an
  // insertion cursor be a stable uint32_t slot index instead of a pointer
  // that vector growth would invalidate. The signature column exists in
  // signature mode only, so a plain tree neither stores nor reads it.

  static constexpr uint32_t kNil = static_cast<uint32_t>(-1);
  static constexpr uint32_t kRoot = 0;

  static std::uint64_t ItemBit(ItemId item) {
    return std::uint64_t{1} << (item & 63);
  }

  /// Link-arena slots of node n. links_[ChildSlot(n)] heads n's child
  /// list; links_[SibSlot(n)] is n's next sibling.
  static uint32_t ChildSlot(uint32_t n) { return 2 * n; }
  static uint32_t SibSlot(uint32_t n) { return 2 * n + 1; }

  /// A view of one node's fields across the parallel arrays, for the
  /// cold paths (validation, the test peer) that want whole-node access.
  /// The references follow vector reallocation rules: do not hold one
  /// across NewNode.
  struct NodeRef {
    uint32_t& step;      // last update step (0 = never)
    ItemId& item;        // item of this node (kInvalidItem for the root)
    Support& supp;       // support of the set on the root path
    uint32_t& sibling;   // next node in the sibling list (descending items)
    uint32_t& children;  // head of the child list
  };
  struct ConstNodeRef {
    const uint32_t& step;
    const ItemId& item;
    const Support& supp;
    const uint32_t& sibling;
    const uint32_t& children;
  };

  NodeRef At(uint32_t index) {
    return NodeRef{node_step_[index], node_item_[index], node_supp_[index],
                   links_[SibSlot(index)], links_[ChildSlot(index)]};
  }
  ConstNodeRef At(uint32_t index) const {
    return ConstNodeRef{node_step_[index], node_item_[index],
                        node_supp_[index], links_[SibSlot(index)],
                        links_[ChildSlot(index)]};
  }

  /// Allocates a node. Node ids and link-arena slot indices are stable
  /// across allocation (they are indices, not pointers); references and
  /// NodeRefs are not.
  uint32_t NewNode(ItemId item, uint32_t step, Support supp);
  /// NewNode for a tree whose mode is known at compile time, so that the
  /// plain walk inlines the plain allocation.
  template <bool kSignatures>
  uint32_t NewNode(ItemId item, uint32_t step, Support supp);

  /// Inserts the transaction as a path (descending item codes), creating
  /// missing nodes with support 0; supports are brought up to date by the
  /// subsequent Isect pass. In signature mode each node on the path gains
  /// the items below it on the path.
  void InsertTransactionPath(std::span<const ItemId> items);

  /// The recursion of Figure 2, run on an explicit stack so adversarially
  /// deep repositories (one node per item of a very long transaction)
  /// cannot overflow the call stack. `node` heads a sibling list of the
  /// current tree level; `ins_slot` indexes the link-arena slot
  /// (children/sibling) where intersection results for the current prefix
  /// are merged. `weight` is the multiplicity of the current transaction.
  /// With kSignatures the walk skips the child levels that hold none of
  /// the transaction's items and keeps the signatures of the result path
  /// current as it creates nodes.
  template <bool kSignatures>
  void Isect(uint32_t node, uint32_t ins_slot, Support weight);

  /// Prune helper: inserts the filtered sets of this tree into the empty
  /// `target`, advancing an insertion slot along each target list instead
  /// of searching it from its head per node, and allocating each sibling
  /// list before its members' subtrees, in list order. Leaves the
  /// target's signatures 0 (Prune computes them). Iterative (explicit
  /// work stack).
  void PruneInto(Support min_support, std::span<const Support> remaining,
                 IstaPrefixTree* target) const;

  /// Finds or creates (with support 0) the child of `parent` carrying
  /// `item`; keeps the sibling list sorted by descending item code.
  uint32_t FindOrCreateChild(uint32_t parent, ItemId item);

  /// One suspended sibling list of the explicit Isect stack. `ins_slot`
  /// indexes the link arena, so it stays valid across node allocation.
  struct IsectFrame {
    uint32_t node;
    uint32_t ins_slot;
  };

  // Structure-of-arrays node storage (see the layout note above).
  std::vector<uint32_t> node_step_;
  std::vector<ItemId> node_item_;
  std::vector<Support> node_supp_;
  std::vector<uint32_t> links_;  // slot 2n: children of n, 2n+1: sibling
  // Signature mode only: bit `item & 63` of every node below node n.
  std::vector<std::uint64_t> node_sig_;
  bool signatures_ = false;
  uint32_t next_index_ = 0;
  std::size_t node_count_ = 0;
  std::size_t peak_node_count_ = 0;
  std::size_t prune_count_ = 0;
  uint64_t isect_steps_ = 0;
  uint32_t step_ = 0;
  uint64_t total_weight_ = 0;            // sum of all transaction weights
  std::vector<uint8_t> in_transaction_;  // flag array `trans` of Figure 2
  ItemId imin_ = 0;                      // minimum item of the transaction
  std::uint64_t transaction_sig_ = 0;    // ItemSignature of the transaction
  std::vector<IsectFrame> isect_stack_;  // reused across AddTransaction
  // Signature mode: the root and the result nodes whose child lists the
  // walk is filling, root first (also the path scratch of
  // InsertTransactionPath), and per Isect frame the length of the result
  // path that the suspended list extends.
  std::vector<uint32_t> result_path_;
  std::vector<uint32_t> frame_depth_;
};

}  // namespace fim

#endif  // FIM_ISTA_PREFIX_TREE_H_
