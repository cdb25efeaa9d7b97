#include "enumeration/charm.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "kernels/intersect.h"
#include "obs/memory.h"

namespace fim {

namespace {

struct Node {
  std::vector<ItemId> items;  // sorted ascending
  std::vector<Tid> tids;      // sorted ascending
  Support support = 0;        // the summed weight of the rows in `tids`
};

class CharmMiner {
 public:
  CharmMiner(Support min_support, const WeightedTransactions& rows,
             const ClosedSetCallback& callback, MinerStats* stats)
      : min_support_(min_support),
        rows_(rows),
        callback_(callback),
        stats_(stats) {}

  void Run(std::vector<Node> roots) { Extend(&roots); }

 private:
  // Extends every node of the current level, applying the CHARM
  // properties: when two tidsets are equal or nested, the itemsets can
  // be merged without losing closed sets.
  void Extend(std::vector<Node>* nodes) {
    // Process in order of increasing support (CHARM's heuristic).
    std::sort(nodes->begin(), nodes->end(), [](const Node& a, const Node& b) {
      return a.support < b.support;
    });
    for (std::size_t i = 0; i < nodes->size(); ++i) {
      Node& current = (*nodes)[i];
      if (current.items.empty()) continue;  // merged away
      // First pass: apply properties 1/2 (tidset equal / superset), which
      // only grow `current`'s item set; stash the genuine extensions.
      // Children are materialized afterwards so they inherit ALL merged
      // items — creating them eagerly would lose later property-2 items.
      std::vector<std::pair<std::size_t, Node>> extensions;
      // One scratch intersection per recursion level, reused across the
      // inner loop: pairs that merge or fall below min_support (the
      // common case) never allocate once the scratch is warm.
      std::vector<Tid> inter;
      for (std::size_t j = i + 1; j < nodes->size(); ++j) {
        Node& other = (*nodes)[j];
        if (other.items.empty()) continue;
        kernels::IntersectInto(current.tids, other.tids, &inter);
        if (stats_ != nullptr) {
          ++stats_->extension_checks;
          stats_->CountKernelCall(current.tids.size() + other.tids.size(),
                                  inter.size());
        }
        const bool covers_current = inter.size() == current.tids.size();
        const bool covers_other = inter.size() == other.tids.size();
        if (covers_current && covers_other) {
          // Property 1: identical tidsets -> merge, drop the other branch.
          if (stats_ != nullptr) ++stats_->closure_checks;
          MergeItems(&current.items, other.items);
          other.items.clear();
        } else if (covers_current) {
          // Property 2: t(current) subset of t(other): every closed set
          // containing `current` also contains `other`'s items.
          if (stats_ != nullptr) ++stats_->closure_checks;
          MergeItems(&current.items, other.items);
        } else if (const Support support = rows_.Weight(inter);
                   support >= min_support_) {
          // Properties 3/4: a genuine new candidate below `current`.
          // Copy exact-size out of the scratch so it keeps its capacity.
          extensions.emplace_back(j, Node{{}, inter, support});
        }
      }
      std::vector<Node> children;
      children.reserve(extensions.size());
      for (auto& [j, child] : extensions) {
        child.items = current.items;
        MergeItems(&child.items, (*nodes)[j].items);
        children.push_back(std::move(child));
      }
      if (!children.empty()) Extend(&children);
      ReportIfClosed(current);
    }
  }

  static void MergeItems(std::vector<ItemId>* into,
                         const std::vector<ItemId>& from) {
    std::vector<ItemId> merged;
    merged.reserve(into->size() + from.size());
    std::set_union(into->begin(), into->end(), from.begin(), from.end(),
                   std::back_inserter(merged));
    *into = std::move(merged);
  }

  // Subsumption check: `node` is closed unless an already-reported set
  // with the same tidset-hash has the same support and contains it.
  void ReportIfClosed(const Node& node) {
    const Support support = node.support;
    if (support < min_support_) return;
    std::size_t hash = 0;
    for (Tid t : node.tids) hash += t;  // CHARM's tidset-sum hash
    auto& bucket = reported_[hash];
    for (const auto& existing : bucket) {
      if (stats_ != nullptr) ++stats_->subsume_checks;
      if (existing.second == support &&
          IsSubsetSorted(node.items, existing.first)) {
        return;  // subsumed: not closed
      }
    }
    callback_(node.items, support);
    bucket.emplace_back(node.items, support);
  }

  const Support min_support_;
  const WeightedTransactions& rows_;
  const ClosedSetCallback& callback_;
  MinerStats* stats_;
  std::unordered_map<std::size_t,
                     std::vector<std::pair<std::vector<ItemId>, Support>>>
      reported_;
};

}  // namespace

void MineCharm(WeightedTransactions rows, std::size_t num_items,
               const MinerOptions& options, const ClosedSetCallback& callback,
               MinerStats* stats, obs::Trace* /*trace*/) {
  CharmMiner miner(options.min_support, rows, callback, stats);
  auto tidlists = rows.BuildVertical(num_items);
  std::vector<Node> roots;
  roots.reserve(tidlists.size());
  for (std::size_t i = 0; i < tidlists.size(); ++i) {
    const Support support = rows.Weight(tidlists[i]);
    if (support >= options.min_support) {
      roots.push_back(
          Node{{static_cast<ItemId>(i)}, std::move(tidlists[i]), support});
    }
  }

  if (options.memory != nullptr) {
    // Root itemset-tidset pairs: the largest vertical structure — child
    // tidsets are intersections of these, so strictly smaller.
    obs::MemoryComponent vertical("root-tidsets");
    vertical.self_bytes = roots.capacity() * sizeof(roots[0]);
    std::size_t tid_bytes = 0;
    std::size_t item_bytes = 0;
    for (const auto& root : roots) {
      tid_bytes += root.tids.capacity() * sizeof(Tid);
      item_bytes += root.items.capacity() * sizeof(ItemId);
    }
    vertical.children.emplace_back("tids", tid_bytes);
    vertical.children.emplace_back("items", item_bytes);
    options.memory->Record(std::move(vertical));
  }

  miner.Run(std::move(roots));
}

}  // namespace fim
