#include <algorithm>
#include <vector>

#include "carpenter/carpenter.h"
#include "carpenter/row_bitsets.h"
#include "obs/memory.h"

namespace fim {

namespace {

// One item of the current intersection together with its cursor into the
// item's tid list (the cursor points at the first row >= the enumeration
// position, the "next unprocessed transaction index" of §3.1.1).
struct Entry {
  ItemId item;
  uint32_t pos;
};

class ListsMiner {
 public:
  ListsMiner(const WeightedTransactions& rows, std::size_t num_items,
             const MinerOptions& options, const ClosedSetCallback& callback,
             MinerStats* stats)
      : rows_(rows),
        tidlists_(rows.BuildVertical(num_items)),
        n_(static_cast<Tid>(rows.NumRows())),
        options_(options),
        callback_(callback),
        bitsets_(rows, num_items),
        stats_(stats) {
    suffix_weights_.resize(num_items);
    for (std::size_t i = 0; i < num_items; ++i) {
      const std::vector<Tid>& tids = tidlists_[i];
      suffix_weights_[i].assign(tids.size() + 1, 0);
      for (std::size_t p = tids.size(); p > 0; --p) {
        suffix_weights_[i][p - 1] =
            suffix_weights_[i][p] + rows.weights[tids[p - 1]];
      }
    }
  }

  void Run() {
    std::vector<Entry> initial;
    initial.reserve(tidlists_.size());
    for (std::size_t i = 0; i < tidlists_.size(); ++i) {
      if (!tidlists_[i].empty()) {
        initial.push_back(Entry{static_cast<ItemId>(i), 0});
      }
    }
    if (initial.empty()) return;
    Mine(initial, 0);
  }

  // Tid lists (with their suffix weights) and row bitsets are built once
  // and keep their size.
  void RecordMemory(obs::MemoryBreakdown* memory) const {
    if (memory == nullptr) return;
    memory->RecordBytes("tid-lists",
                        obs::NestedVectorBytes(tidlists_) +
                            obs::NestedVectorBytes(suffix_weights_));
    memory->RecordBytes("row-bitsets", bitsets_.Bytes());
  }

 private:
  // Row-enumeration node, identical contract to the table Carpenter:
  // `entries` is the current intersection I (= intersection of the
  // chosen rows, which with the absorbed ones are the cover of
  // `bitsets_`), `count` = their summed weight, cursors point at the
  // first row >= the enumeration position.
  void Mine(const std::vector<Entry>& entries, Support count) {
    if (stats_ != nullptr) ++stats_->nodes_visited;

    std::vector<Entry> sweep = entries;
    Support supp = count;
    std::vector<Entry> members;
    std::vector<ItemId> key;
    for (;;) {
      Tid j = n_;
      for (const Entry& e : sweep) {
        const auto& tids = tidlists_[e.item];
        if (e.pos < tids.size()) j = std::min(j, tids[e.pos]);
      }
      if (j >= n_) break;

      members.clear();
      for (Entry& e : sweep) {
        const auto& tids = tidlists_[e.item];
        if (e.pos < tids.size() && tids[e.pos] == j) {
          members.push_back(Entry{e.item, e.pos + 1});
          ++e.pos;
        }
      }
      if (members.size() == sweep.size()) {
        supp += rows_.weights[j];  // absorbed: t_j contains I
        bitsets_.Cover(j);
        continue;
      }

      // Item elimination (§3.1.1): the suffix weight at the item's entry
      // for row j is the most support a branch taking j can reach.
      std::vector<Entry> child;
      child.reserve(members.size());
      for (const Entry& e : members) {
        if (options_.item_elimination &&
            supp + suffix_weights_[e.item][e.pos - 1] < options_.min_support) {
          continue;
        }
        child.push_back(e);
      }
      if (child.empty()) continue;
      key.clear();
      for (const Entry& e : child) key.push_back(e.item);
      if (!bitsets_.IsCanonical(key, j)) {
        if (stats_ != nullptr) ++stats_->repo_hits;
        continue;
      }
      bitsets_.Cover(j);
      Mine(child, supp + rows_.weights[j]);
      bitsets_.UncoverFrom(j);
    }

    if (supp >= options_.min_support) {
      key.clear();
      for (const Entry& e : sweep) key.push_back(e.item);
      callback_(key, supp);
    }
  }

  const WeightedTransactions& rows_;
  std::vector<std::vector<Tid>> tidlists_;
  // Per item and tid-list position p: the weight of the rows from the
  // item's p-th row on that contain the item (one trailing 0).
  std::vector<std::vector<Support>> suffix_weights_;
  const Tid n_;
  const MinerOptions& options_;
  const ClosedSetCallback& callback_;
  RowBitsets bitsets_;  // duplicate check; covers the rows of the path
  MinerStats* stats_;
};

}  // namespace

void MineCarpenterLists(WeightedTransactions rows, std::size_t num_items,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* /*trace*/) {
  ListsMiner miner(rows, num_items, options, callback, stats);
  miner.Run();
  miner.RecordMemory(options.memory);
}

}  // namespace fim
