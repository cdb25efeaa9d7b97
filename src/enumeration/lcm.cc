#include "enumeration/lcm.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <numeric>
#include <ranges>
#include <utility>
#include <vector>

#include "api/task_pool.h"
#include "common/check.h"
#include "obs/memory.h"

namespace fim {

namespace {

// A node of the depth-first search: a closed set with its support and
// core (the item whose extension produced it; kInvalidItem at the root),
// and its conditional database, the weighted rows that contain the set
// minus the set's items. The rows hold codes: code c stands for item
// codes[c]. At the root the codes are the item codes; below it `codes`
// views the parent's `items`, and the parent outlives its children.
struct Node {
  std::vector<ItemId> set;
  Support support = 0;
  ItemId core = kInvalidItem;
  WeightedTransactions rows;
  std::span<const ItemId> codes;

  // Filled by LcmMiner::Prepare: the items of the rows with at least
  // min_support weight in ascending order (slot s holds items[s]), their
  // weights, and `words` words of row bits per slot. The rows then hold
  // slots, and no row is empty.
  std::vector<ItemId> items;
  std::vector<Support> supports;
  std::vector<std::uint64_t> bits;
  std::size_t words = 0;
};

// The sequential core of the miner; parallel mode runs one per worker
// over disjoint first-level subtrees (PPC extension makes the subtrees
// independent: each closed set has a unique canonical parent), each
// built in its worker from the shared, prepared root. The
// per-code weight and slot arrays and the node databases along the
// search path belong to the miner and are reused from node to node.
class LcmMiner {
 public:
  LcmMiner(std::size_t num_items, Support min_support, MinerStats* stats)
      : min_support_(min_support),
        stats_(stats),
        weight_(num_items, 0),
        slot_(num_items, kInvalidItem) {}

  // Reports `node`'s set and every closed set below it, depth first.
  void Mine(Node node, const ClosedSetCallback& sink) {
    Level(0) = std::move(node);
    Expand(0, sink);
  }

  // Reports the closed sets below slot s of the prepared `root`, if its
  // extension is accepted; `root` is only read.
  void MineSlot(const Node& root, std::size_t s,
                const ClosedSetCallback& sink) {
    if (Extend(root, s, &Level(0))) Expand(0, sink);
  }

  // Database reduction and occurrence deliver. One pass sums each code's
  // weight and keeps the items of at least min_support weight; an item
  // in every row joins the set (only at the root: a child's closure
  // already holds them). A second pass recodes the rows to slots in
  // place, drops the emptied rows and sets each slot's row bits.
  void Prepare(Node& node) {
    WeightedTransactions& rows = node.rows;
    for (std::size_t r = 0; r < rows.NumRows(); ++r) {
      for (ItemId c : rows.Row(r)) weight_[c] += rows.weights[r];
    }
    node.items.clear();
    node.supports.clear();
    for (std::size_t c = 0; c < node.codes.size(); ++c) {
      const Support weight = std::exchange(weight_[c], 0);
      if (weight == node.support) {
        FIM_DCHECK(node.core == kInvalidItem)
            << "an item in every row of a child must be in its closure";
        node.set.push_back(node.codes[c]);
      } else if (weight >= min_support_) {
        slot_[c] = static_cast<ItemId>(node.items.size());
        node.items.push_back(node.codes[c]);
        node.supports.push_back(weight);
      }
    }

    // A row never grows, so the writes trail the reads.
    node.words = (rows.NumRows() + 63) / 64;
    node.bits.assign(node.items.size() * node.words, 0);
    std::size_t num_rows = 0;
    std::size_t end = 0;
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rows.NumRows(); ++r) {
      const std::size_t row_end = rows.offsets[r + 1];
      const std::size_t row_start = end;
      const std::uint64_t bit = std::uint64_t{1} << (num_rows % 64);
      for (std::size_t k = begin; k < row_end; ++k) {
        const ItemId slot = slot_[rows.items[k]];
        if (slot == kInvalidItem) continue;
        rows.items[end++] = slot;
        node.bits[slot * node.words + num_rows / 64] |= bit;
      }
      begin = row_end;
      if (end == row_start) continue;
      rows.weights[num_rows] = rows.weights[r];
      rows.offsets[++num_rows] = end;
    }
    rows.offsets.resize(num_rows + 1);
    rows.items.resize(end);
    rows.weights.resize(num_rows);
    std::fill_n(slot_.begin(), node.codes.size(), kInvalidItem);

    const std::size_t row_bytes = rows.offsets.size() * sizeof(std::size_t) +
                                  end * sizeof(ItemId) +
                                  num_rows * sizeof(Support);
    const std::size_t bit_bytes = node.bits.size() * sizeof(std::uint64_t);
    if (row_bytes + bit_bytes > largest_rows_ + largest_bits_) {
      largest_rows_ = row_bytes;
      largest_bits_ = bit_bytes;
    }
  }

  // Reports a prepared node's set (the root's may be empty).
  void Report(const Node& node, const ClosedSetCallback& sink) {
    if (!node.set.empty()) sink(node.set, node.support);
  }

  // The extension test of slot s of a prepared node: adding items[s] is
  // prefix-preserving iff no earlier item occurs in every row of
  // items[s]. If it is, makes `child` the node of the closure: the set
  // plus items[s] plus every later item in all those rows, with the
  // rows of items[s] minus the closure's new items.
  bool Extend(const Node& node, std::size_t s, Node* child) {
    if (stats_ != nullptr) ++stats_->closure_checks;
    const Support support = node.supports[s];
    for (std::size_t t = 0; t < s; ++t) {
      if (node.supports[t] >= support && RowsWithin(node, s, t)) {
        return false;
      }
    }
    closure_.assign(1, static_cast<ItemId>(s));
    for (std::size_t t = s + 1; t < node.items.size(); ++t) {
      if (node.supports[t] >= support && RowsWithin(node, s, t)) {
        closure_.push_back(static_cast<ItemId>(t));
      }
    }

    child->set.clear();
    std::ranges::merge(
        node.set,
        closure_ | std::views::transform([&](ItemId t) { return node.items[t]; }),
        std::back_inserter(child->set));
    child->support = support;
    child->core = node.items[s];
    child->codes = node.items;
    WeightedTransactions& rows = child->rows;
    rows.offsets.assign(1, 0);
    rows.items.clear();
    rows.weights.clear();
    const std::uint64_t* bits = node.bits.data() + s * node.words;
    for (std::size_t w = 0; w < node.words; ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        const std::size_t r = w * 64 + std::countr_zero(word);
        // The closure's slots are in every one of these rows.
        std::size_t c = 0;
        for (ItemId slot : node.rows.Row(r)) {
          if (c < closure_.size() && slot == closure_[c]) {
            ++c;
          } else {
            rows.items.push_back(slot);
          }
        }
        if (rows.items.size() == rows.offsets.back()) continue;
        rows.offsets.push_back(rows.items.size());
        rows.weights.push_back(node.rows.weights[r]);
      }
    }
    return true;
  }

  // The largest node database this miner prepared, with its bitsets.
  void RecordMemory(obs::MemoryBreakdown* memory) const {
    if (memory == nullptr) return;
    obs::MemoryComponent node("node-database");
    node.children.emplace_back("rows", largest_rows_);
    node.children.emplace_back("bitsets", largest_bits_);
    memory->Record(std::move(node));
  }

 private:
  // Mines below the node held at `depth`.
  void Expand(std::size_t depth, const ClosedSetCallback& sink) {
    Node& node = Level(depth);
    Prepare(node);
    Report(node, sink);
    Node& child = Level(depth + 1);
    const std::size_t first =
        node.core == kInvalidItem
            ? 0
            : std::upper_bound(node.items.begin(), node.items.end(),
                               node.core) -
                  node.items.begin();
    for (std::size_t s = first; s < node.items.size(); ++s) {
      if (Extend(node, s, &child)) Expand(depth + 1, sink);
    }
  }

  // Whether every row of slot s holds slot t: one row-set comparison.
  bool RowsWithin(const Node& node, std::size_t s, std::size_t t) {
    if (stats_ != nullptr) ++stats_->extension_checks;
    const std::uint64_t* a = node.bits.data() + s * node.words;
    const std::uint64_t* b = node.bits.data() + t * node.words;
    for (std::size_t w = 0; w < node.words; ++w) {
      if ((a[w] & ~b[w]) != 0) return false;
    }
    return true;
  }

  // The node at `depth`; a deque keeps the shallower ones in place.
  Node& Level(std::size_t depth) {
    if (depth == levels_.size()) levels_.emplace_back();
    return levels_[depth];
  }

  const Support min_support_;
  MinerStats* const stats_;
  std::vector<Support> weight_;  // per code, zero between nodes
  std::vector<ItemId> slot_;     // per code, kInvalidItem between nodes
  std::vector<ItemId> closure_;  // slots of the closure's new items
  std::deque<Node> levels_;
  std::size_t largest_rows_ = 0;
  std::size_t largest_bits_ = 0;
};

void MineParallel(Node root, std::size_t num_items, Support min_support,
                  unsigned num_threads, const ClosedSetCallback& callback,
                  MinerStats* stats, obs::MemoryBreakdown* memory) {
  LcmMiner root_miner(num_items, min_support, stats);
  root_miner.Prepare(root);
  root_miner.Report(root, callback);
  root_miner.RecordMemory(memory);

  // Task s is the root's slot s: its worker extends the shared root,
  // which no thread writes from here on, and mines the child it accepts.
  // One miner and one stats slot per worker; the aggregation below
  // happens after the join.
  const std::size_t n = std::min<std::size_t>(num_threads, root.items.size());
  std::vector<MinerStats> worker_stats(n);
  std::vector<LcmMiner> miners;
  miners.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    miners.emplace_back(num_items, min_support,
                        stats != nullptr ? &worker_stats[w] : nullptr);
  }
  // The calling thread emits the sets in task order as they arrive:
  // identical to the sequential DFS order.
  RunTasksInOrder(
      root.items.size(), n,
      [&](std::size_t w, std::size_t s, const ClosedSetCallback& sink) {
        miners[w].MineSlot(root, s, sink);
      },
      callback);

  for (const LcmMiner& miner : miners) miner.RecordMemory(memory);
  if (stats != nullptr) {
    for (const MinerStats& s : worker_stats) stats->MergeFrom(s);
  }
}

}  // namespace

void MineLcm(WeightedTransactions rows, std::size_t num_items,
             const MinerOptions& options, const ClosedSetCallback& callback,
             MinerStats* stats, obs::Trace* /*trace*/) {
  std::vector<ItemId> identity(num_items);
  std::iota(identity.begin(), identity.end(), 0);
  Node root;
  root.codes = identity;
  root.rows = std::move(rows);
  for (Support weight : root.rows.weights) root.support += weight;
  if (root.support < options.min_support) return;

  // The root's preparation computes closure(empty set): the items of
  // summed weight equal to the total weight.
  if (stats != nullptr) ++stats->closure_checks;
  if (options.num_threads <= 1) {
    LcmMiner miner(num_items, options.min_support, stats);
    miner.Mine(std::move(root), callback);
    miner.RecordMemory(options.memory);
  } else {
    MineParallel(std::move(root), num_items, options.min_support,
                 options.num_threads, callback, stats, options.memory);
  }
}

}  // namespace fim
