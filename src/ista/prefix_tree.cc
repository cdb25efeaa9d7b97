#include "ista/prefix_tree.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace fim {

IstaPrefixTree::IstaPrefixTree(std::size_t num_items, bool signatures)
    : signatures_(signatures), in_transaction_(num_items, 0) {
  // Node 0 is the pseudo-root representing the empty set.
  uint32_t root = NewNode(kInvalidItem, 0, 0);
  FIM_CHECK(root == kRoot);
  node_count_ = 0;  // the root does not count
}

template <bool kSignatures>
uint32_t IstaPrefixTree::NewNode(ItemId item, uint32_t step, Support supp) {
  uint32_t index = next_index_++;
  node_step_.push_back(step);
  node_item_.push_back(item);
  node_supp_.push_back(supp);
  links_.push_back(kNil);  // ChildSlot(index)
  links_.push_back(kNil);  // SibSlot(index)
  if constexpr (kSignatures) node_sig_.push_back(0);
  ++node_count_;
  if (node_count_ > peak_node_count_) peak_node_count_ = node_count_;
  return index;
}

uint32_t IstaPrefixTree::NewNode(ItemId item, uint32_t step, Support supp) {
  return signatures_ ? NewNode<true>(item, step, supp)
                     : NewNode<false>(item, step, supp);
}

uint32_t IstaPrefixTree::FindOrCreateChild(uint32_t parent, ItemId item) {
  // Sibling lists are sorted by descending item code. The cursor is a
  // link-arena slot index, so it survives the allocation below.
  uint32_t slot = ChildSlot(parent);
  while (links_[slot] != kNil && node_item_[links_[slot]] > item) {
    slot = SibSlot(links_[slot]);
  }
  const uint32_t found = links_[slot];
  if (found != kNil && node_item_[found] == item) return found;
  const uint32_t node = NewNode(item, 0, 0);
  links_[SibSlot(node)] = found;
  links_[slot] = node;
  return node;
}

void IstaPrefixTree::InsertTransactionPath(std::span<const ItemId> items) {
  uint32_t current = kRoot;
  result_path_.clear();
  for (std::size_t idx = items.size(); idx > 0; --idx) {
    current = FindOrCreateChild(current, items[idx - 1]);
    if (signatures_) result_path_.push_back(current);
  }
  if (!signatures_) return;
  // result_path_[size - 1 - idx] is the path node of items[idx]; each
  // path node gains the bits of the items below it, collected bottom-up.
  std::uint64_t below = 0;
  for (std::size_t idx = 0; idx < items.size(); ++idx) {
    node_sig_[result_path_[items.size() - 1 - idx]] |= below;
    below |= ItemBit(items[idx]);
  }
  node_sig_[kRoot] |= below;
}

void IstaPrefixTree::AddTransaction(std::span<const ItemId> items,
                                    Support weight) {
  FIM_CHECK(!items.empty()) << "transactions must be non-empty";
  FIM_CHECK(weight >= 1) << "transaction weight must be >= 1";
  FIM_DCHECK(std::is_sorted(items.begin(), items.end()) &&
             std::adjacent_find(items.begin(), items.end()) == items.end())
      << "transaction items must be sorted ascending and duplicate-free";
  FIM_DCHECK(items.back() < in_transaction_.size())
      << "item " << items.back() << " out of range (num_items "
      << in_transaction_.size() << ")";
  ++step_;
  total_weight_ += weight;
  for (ItemId i : items) in_transaction_[i] = 1;
  imin_ = items.front();
  InsertTransactionPath(items);
  if (signatures_) {
    transaction_sig_ = ItemSignature(items);
    Isect<true>(links_[ChildSlot(kRoot)], ChildSlot(kRoot), weight);
  } else {
    Isect<false>(links_[ChildSlot(kRoot)], ChildSlot(kRoot), weight);
  }
  for (ItemId i : items) in_transaction_[i] = 0;
  // Full validation is O(nodes); amortize it over power-of-two steps so
  // debug test runs stay roughly O(total work * log steps).
  if (FIM_DCHECK_IS_ON() && (step_ & (step_ - 1)) == 0) {
    FIM_DCHECK_OK(ValidateInvariants());
  }
}

template <bool kSignatures>
void IstaPrefixTree::Isect(uint32_t node, uint32_t ins_slot, Support weight) {
  // The recursion of Figure 2, on an explicit stack: a frame suspends the
  // remainder of a sibling list while the current node's child level is
  // intersected. Insertion cursors are link-arena slot indices, so they
  // stay valid across node allocations. The walk streams over the item,
  // support and link arrays only — the SoA layout keeps the cold step
  // field off those cache lines.
  //
  // With kSignatures a child level is entered only when its signature
  // shares a bit with the transaction's; otherwise the walk goes on with
  // the next sibling, as it would after a descent that found nothing.
  // result_path_ holds the result nodes whose child lists receive the
  // current level's intersections, so a created node can add its item bit
  // to them: upward until one already has it, since a signature holds
  // every bit of its children's.
  isect_stack_.clear();
  isect_stack_.push_back(IsectFrame{node, ins_slot});
  if constexpr (kSignatures) {
    result_path_.assign(1, kRoot);
    frame_depth_.assign(1, 1);
  }
  while (!isect_stack_.empty()) {
    node = isect_stack_.back().node;
    uint32_t ins = isect_stack_.back().ins_slot;
    isect_stack_.pop_back();
    if constexpr (kSignatures) {
      result_path_.resize(frame_depth_.back());
      frame_depth_.pop_back();
    }
    while (node != kNil) {
      ++isect_steps_;
      const ItemId i = node_item_[node];
      if (in_transaction_[i]) {
        // The item is in the intersection: find/create the node that
        // represents the extended intersection in the insertion list.
        while (links_[ins] != kNil && node_item_[links_[ins]] > i) {
          ins = SibSlot(links_[ins]);
        }
        uint32_t d = links_[ins];
        if (d != kNil && node_item_[d] == i) {
          // If this node was already updated for the current transaction,
          // discount it before taking the maximum (Figure 2).
          if (node_step_[d] == step_) node_supp_[d] -= weight;
          if (node_supp_[d] < node_supp_[node]) {
            node_supp_[d] = node_supp_[node];
          }
          node_supp_[d] += weight;
          node_step_[d] = step_;
        } else {
          d = NewNode<kSignatures>(i, step_, node_supp_[node] + weight);
          links_[SibSlot(d)] = links_[ins];
          links_[ins] = d;
          if constexpr (kSignatures) {
            const std::uint64_t bit = ItemBit(i);
            for (std::size_t k = result_path_.size(); k-- > 0;) {
              std::uint64_t& sig = node_sig_[result_path_[k]];
              if ((sig & bit) != 0) break;
              sig |= bit;
            }
          }
        }
        if (i <= imin_) break;  // nothing below the transaction's minimum
        if constexpr (kSignatures) {
          if ((node_sig_[node] & transaction_sig_) == 0) {
            node = links_[SibSlot(node)];
            continue;
          }
        }
        // Descend into the child level; resume the remaining siblings
        // (with the insertion cursor as advanced so far) afterwards.
        isect_stack_.push_back(IsectFrame{links_[SibSlot(node)], ins});
        if constexpr (kSignatures) {
          frame_depth_.push_back(static_cast<uint32_t>(result_path_.size()));
          result_path_.push_back(d);
        }
        const uint32_t child_ins = ChildSlot(d);
        node = links_[ChildSlot(node)];
        ins = child_ins;
      } else {
        if (i <= imin_) break;
        if constexpr (kSignatures) {
          if ((node_sig_[node] & transaction_sig_) == 0) {
            node = links_[SibSlot(node)];
            continue;
          }
          frame_depth_.push_back(static_cast<uint32_t>(result_path_.size()));
        }
        isect_stack_.push_back(IsectFrame{links_[SibSlot(node)], ins});
        node = links_[ChildSlot(node)];
      }
    }
  }
}

void IstaPrefixTree::Report(Support min_support,
                            const ClosedSetCallback& callback) const {
  // Iterative post-order DFS (deep repositories must not overflow the
  // call stack). A frame holds the next unvisited child and the largest
  // child support seen so far (the closedness check of Figure 4).
  struct Frame {
    uint32_t node;
    uint32_t child;
    Support max_child;
  };
  std::vector<Frame> stack;
  std::vector<ItemId> path;       // root path, descending item codes
  std::vector<ItemId> ascending;  // scratch reused across reported sets
  for (uint32_t c = links_[ChildSlot(kRoot)]; c != kNil;
       c = links_[SibSlot(c)]) {
    if (node_supp_[c] < min_support) continue;
    path.push_back(node_item_[c]);
    stack.push_back(Frame{c, links_[ChildSlot(c)], 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.child != kNil) {
        const uint32_t child = frame.child;
        const Support cs = node_supp_[child];
        frame.child = links_[SibSlot(child)];
        if (cs > frame.max_child) frame.max_child = cs;
        if (cs < min_support) continue;
        path.push_back(node_item_[child]);
        stack.push_back(Frame{child, links_[ChildSlot(child)], 0});
        continue;
      }
      if (node_supp_[frame.node] > frame.max_child) {
        // The path is in descending code order; report ascending.
        ascending.assign(path.rbegin(), path.rend());
        callback(ascending, node_supp_[frame.node]);
      }
      path.pop_back();
      stack.pop_back();
    }
  }
}

void IstaPrefixTree::Prune(Support min_support,
                           std::span<const Support> remaining) {
  FIM_DCHECK(remaining.size() == in_transaction_.size())
      << "remaining-occurrence table size " << remaining.size()
      << " != num_items " << in_transaction_.size();
  IstaPrefixTree fresh(in_transaction_.size(), signatures_);
  fresh.step_ = step_;
  fresh.total_weight_ = total_weight_;
  // The rebuilt tree has at most as many nodes as this one
  // (PruneCopyBytes counts these reservations).
  fresh.node_step_.reserve(next_index_);
  fresh.node_item_.reserve(next_index_);
  fresh.node_supp_.reserve(next_index_);
  fresh.links_.reserve(2 * std::size_t{next_index_});
  if (signatures_) fresh.node_sig_.reserve(next_index_);
  PruneInto(min_support, remaining, &fresh);
  if (signatures_) {
    // Exact signatures of the rebuilt tree, children before parents: a
    // node is only ever created into the child list of an existing one,
    // so every child has a higher index than its parent.
    for (uint32_t n = fresh.next_index_; n-- > 0;) {
      std::uint64_t sig = 0;
      for (uint32_t c = fresh.links_[ChildSlot(n)]; c != kNil;
           c = fresh.links_[SibSlot(c)]) {
        sig |= fresh.node_sig_[c] | ItemBit(fresh.node_item_[c]);
      }
      fresh.node_sig_[n] = sig;
    }
  }
  // The rebuilt tree carries on this tree's observability history.
  fresh.peak_node_count_ = std::max(peak_node_count_, fresh.peak_node_count_);
  fresh.prune_count_ = prune_count_ + 1;
  fresh.isect_steps_ = isect_steps_ + fresh.isect_steps_;
  *this = std::move(fresh);
  FIM_DCHECK_OK(ValidateInvariants());
}

std::size_t IstaPrefixTree::PruneCopyBytes() const {
  const std::size_t bytes_per_node =
      sizeof(node_step_[0]) + sizeof(node_item_[0]) + sizeof(node_supp_[0]) +
      2 * sizeof(links_[0]) + (signatures_ ? sizeof(node_sig_[0]) : 0);
  return std::size_t{next_index_} * bytes_per_node +
         in_transaction_.size() * sizeof(in_transaction_[0]);
}

namespace {

// A component of `capacity_bytes` split into its "live" part and the
// rest, "garbage".
obs::MemoryComponent LiveAndGarbage(std::string name,
                                    std::size_t capacity_bytes,
                                    std::size_t live_bytes) {
  obs::MemoryComponent component(std::move(name));
  component.children.emplace_back("live", live_bytes);
  component.children.emplace_back(
      "garbage", capacity_bytes > live_bytes ? capacity_bytes - live_bytes : 0);
  return component;
}

}  // namespace

obs::MemoryComponent IstaPrefixTree::ApproxMemoryUsage() const {
  // Bytes one node occupies in each part, derived from the vectors so a
  // field-type change cannot desynchronize this.
  constexpr std::size_t kColumnBytesPerNode =
      sizeof(node_step_[0]) + sizeof(node_item_[0]) + sizeof(node_supp_[0]);
  constexpr std::size_t kLinkBytesPerNode = 2 * sizeof(links_[0]);
  constexpr std::size_t kSigBytesPerNode = sizeof(node_sig_[0]);
  // Reachable slots: the live nodes plus the pseudo-root (which owns
  // column and link slots like any other node).
  const std::size_t live_nodes = node_count_ + 1;

  obs::MemoryComponent tree("prefix-tree");
  tree.children.push_back(LiveAndGarbage(
      "node-columns",
      node_step_.capacity() * sizeof(node_step_[0]) +
          node_item_.capacity() * sizeof(node_item_[0]) +
          node_supp_.capacity() * sizeof(node_supp_[0]),
      live_nodes * kColumnBytesPerNode));
  tree.children.push_back(
      LiveAndGarbage("link-arena", links_.capacity() * sizeof(links_[0]),
                     live_nodes * kLinkBytesPerNode));
  if (signatures_) {
    tree.children.push_back(LiveAndGarbage(
        "node-signatures", node_sig_.capacity() * sizeof(node_sig_[0]),
        live_nodes * kSigBytesPerNode));
  }
  tree.children.emplace_back(
      "scratch",
      in_transaction_.capacity() * sizeof(in_transaction_[0]) +
          isect_stack_.capacity() * sizeof(isect_stack_[0]) +
          result_path_.capacity() * sizeof(result_path_[0]) +
          frame_depth_.capacity() * sizeof(frame_depth_[0]));
  return tree;
}

namespace {

std::string NodeLabel(uint32_t index, ItemId item) {
  return "node " + std::to_string(index) + " (item " + std::to_string(item) +
         ")";
}

}  // namespace

Status IstaPrefixTree::ValidateInvariants() const {
  const std::size_t num_items = in_transaction_.size();
  if (next_index_ == 0) {
    return Status::Internal("prefix tree: missing pseudo-root");
  }
  if (At(kRoot).item != kInvalidItem) {
    return Status::Internal("prefix tree: root must carry kInvalidItem");
  }
  if (signatures_ && node_sig_.size() != next_index_) {
    return Status::Internal("prefix tree: signature column holds " +
                            std::to_string(node_sig_.size()) +
                            " nodes, not " + std::to_string(next_index_));
  }
  std::vector<uint8_t> visited(next_index_, 0);
  visited[kRoot] = 1;
  // Each stack entry is the head of an unvisited sibling list plus the
  // node that owns that child list.
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  if (At(kRoot).children != kNil) stack.emplace_back(At(kRoot).children, kRoot);
  std::size_t reachable = 0;
  while (!stack.empty()) {
    auto [head, parent] = stack.back();
    stack.pop_back();
    const ConstNodeRef parent_node = At(parent);
    ItemId prev_item = kInvalidItem;  // sentinel: no left sibling yet
    for (uint32_t n = head; n != kNil; n = At(n).sibling) {
      if (n >= next_index_) {
        return Status::Internal("prefix tree: link to unallocated node " +
                                std::to_string(n));
      }
      const ConstNodeRef node = At(n);
      if (visited[n]) {
        return Status::Internal("prefix tree: " + NodeLabel(n, node.item) +
                                " reachable twice (cycle or shared subtree)");
      }
      visited[n] = 1;
      ++reachable;
      if (node.item >= num_items) {
        return Status::Internal("prefix tree: " + NodeLabel(n, node.item) +
                                " has item code >= num_items " +
                                std::to_string(num_items));
      }
      if (prev_item != kInvalidItem && node.item >= prev_item) {
        return Status::Internal(
            "prefix tree: sibling list not strictly descending at " +
            NodeLabel(n, node.item) + " after item " +
            std::to_string(prev_item));
      }
      prev_item = node.item;
      if (parent != kRoot && node.item >= parent_node.item) {
        return Status::Internal("prefix tree: child " +
                                NodeLabel(n, node.item) +
                                " does not carry a lower code than parent " +
                                NodeLabel(parent, parent_node.item));
      }
      if (node.step > step_) {
        return Status::Internal(
            "prefix tree: " + NodeLabel(n, node.item) + " step stamp " +
            std::to_string(node.step) + " exceeds global step " +
            std::to_string(step_));
      }
      if (parent != kRoot && node.supp > parent_node.supp) {
        return Status::Internal(
            "prefix tree: support not monotone: child " +
            NodeLabel(n, node.item) + " support " + std::to_string(node.supp) +
            " > parent " + NodeLabel(parent, parent_node.item) + " support " +
            std::to_string(parent_node.supp));
      }
      if (node.supp > total_weight_) {
        return Status::Internal(
            "prefix tree: " + NodeLabel(n, node.item) + " support " +
            std::to_string(node.supp) + " exceeds total transaction weight " +
            std::to_string(total_weight_));
      }
      if (signatures_) {
        const std::uint64_t covered = node_sig_[n] | ItemBit(node.item);
        if ((node_sig_[parent] & covered) != covered) {
          return Status::Internal(
              "prefix tree: signature of " +
              (parent == kRoot ? std::string("the root")
                               : NodeLabel(parent, parent_node.item)) +
              " does not cover its child " + NodeLabel(n, node.item));
        }
      }
      if (node.children != kNil) stack.emplace_back(node.children, n);
    }
  }
  if (reachable != node_count_) {
    return Status::Internal(
        "prefix tree: node_count_ " + std::to_string(node_count_) +
        " != reachable nodes " + std::to_string(reachable));
  }
  if (reachable + 1 != next_index_) {
    return Status::Internal("prefix tree: " +
                            std::to_string(next_index_ - 1 - reachable) +
                            " allocated nodes are unreachable");
  }
  for (std::size_t i = 0; i < num_items; ++i) {
    if (in_transaction_[i] != 0) {
      return Status::Internal(
          "prefix tree: transaction flag for item " + std::to_string(i) +
          " not cleared outside AddTransaction");
    }
  }
  return Status::OK();
}

void IstaPrefixTree::PruneInto(Support min_support,
                               std::span<const Support> remaining,
                               IstaPrefixTree* target) const {
  // Iterative: a work item is one source sibling list and the target
  // link-arena slot where that list's kept items go (deep repositories
  // must not overflow the call stack). The source list descends, so, as
  // Isect's `ins` cursor, the slot only moves forward along the target
  // list and a list of k kept items is rebuilt in O(k) instead of
  // rescanned from its head per item. A target list also receives the
  // children of dropped nodes, from this source list and from others;
  // those carry lower items than the dropped node, so they start at the
  // slot the dropped node was reached at and step over what is already
  // there. A list's child frames run in list order, so the rebuilt tree
  // lies as Isect and Report read it: each sibling list contiguous,
  // followed by its members' subtrees in list order.
  struct Frame {
    uint32_t node;
    uint32_t ins_slot;
  };
  if (links_[ChildSlot(kRoot)] == kNil) return;
  std::vector<Frame> stack;
  stack.push_back(Frame{links_[ChildSlot(kRoot)], ChildSlot(kRoot)});
  while (!stack.empty()) {
    uint32_t node = stack.back().node;
    uint32_t ins = stack.back().ins_slot;
    stack.pop_back();
    const std::size_t first_child_frame = stack.size();
    for (; node != kNil; node = links_[SibSlot(node)]) {
      const ItemId item = node_item_[node];
      const Support supp = node_supp_[node];
      const uint32_t kids = links_[ChildSlot(node)];
      if (supp + remaining[item] >= min_support) {
        // The item can still contribute to a frequent set: keep it.
        while (target->links_[ins] != kNil &&
               target->node_item_[target->links_[ins]] > item) {
          ins = SibSlot(target->links_[ins]);
        }
        uint32_t kept = target->links_[ins];
        if (kept != kNil && target->node_item_[kept] == item) {
          if (supp > target->node_supp_[kept]) target->node_supp_[kept] = supp;
        } else {
          kept = target->NewNode(item, 0, supp);
          target->links_[SibSlot(kept)] = target->links_[ins];
          target->links_[ins] = kept;
        }
        if (kids != kNil) stack.push_back(Frame{kids, ChildSlot(kept)});
        continue;
      }
      // Drop the item. The reduced set is the filtered path so far, whose
      // node already holds at least this support (supports never grow
      // down a path), so the merge keeps the max without an update. Sets
      // whose items are all dropped reduce to the empty set and vanish
      // (the repository never stores the empty set); they can no longer
      // matter for any frequent set.
      if (kids != kNil) stack.push_back(Frame{kids, ins});
    }
    std::reverse(stack.begin() + first_child_frame, stack.end());
  }
}

}  // namespace fim
