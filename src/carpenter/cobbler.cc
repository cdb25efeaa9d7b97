#include "carpenter/cobbler.h"

#include <algorithm>
#include <vector>

#include "carpenter/row_bitsets.h"
#include "common/check.h"
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

class CobblerMiner {
 public:
  CobblerMiner(const WeightedTransactions& rows, std::size_t num_items,
               const MinerOptions& options, const ClosedSetCallback& callback,
               MinerStats* stats)
      : rows_(rows),
        tidlists_(rows.BuildVertical(num_items)),
        n_(static_cast<Tid>(rows.NumRows())),
        options_(options),
        callback_(callback),
        bitsets_(rows, num_items),
        stats_(stats) {
    rows_from_.assign(n_ + 1, 0);
    for (Tid j = n_; j > 0; --j) {
      rows_from_[j - 1] = rows_from_[j] + rows.weights[j - 1];
    }
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
    Mine(initial, 0, 0);
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
  // first row >= l.
  void Mine(const std::vector<Entry>& entries, Support count, Tid l) {
    if (stats_ != nullptr) ++stats_->nodes_visited;

    if (ShouldSwitch(entries.size(), l)) {
      if (stats_ != nullptr) ++stats_->column_switches;
      MineConditionalByColumns(entries, count, l);
      return;
    }

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
      Mine(child, supp + rows_.weights[j], j + 1);
      bitsets_.UncoverFrom(j);
    }

    if (supp >= options_.min_support) {
      key.clear();
      for (const Entry& e : sweep) key.push_back(e.item);
      callback_(key, supp);
    }
  }

  // Counts the transactions left as the database with one row per
  // transaction would: the other copies of row l - 1, which opened this
  // node, and every row from l on. So the switch happens at the same
  // nodes as on that database.
  bool ShouldSwitch(std::size_t num_items, Tid l) const {
    const Support remaining = l == 0 ? rows_from_[0] : rows_from_[l - 1] - 1;
    return options_.switch_max_items > 0 &&
           num_items <= options_.switch_max_items &&
           remaining >= options_.switch_min_rows;
  }

  // Column-enumeration takeover of the whole subtree: the closed sets
  // below this node are exactly the closed sets of the conditional
  // database {t_j ∩ I : j >= l}, each completed with `count` chosen
  // transactions — except for sets also contained in an earlier row
  // outside the cover, whose canonical path runs through an earlier
  // branch (the canonicity test at row l discards those).
  void MineConditionalByColumns(const std::vector<Entry>& entries,
                                Support count, Tid l) {
    std::vector<ItemId> current;
    current.reserve(entries.size());
    for (const Entry& e : entries) current.push_back(e.item);

    // Fold the conditional rows and weigh the rows equal to I.
    RowFolder conditional(RowFold::kHash);
    Support rows_equal_to_current = 0;
    for (Tid j = l; j < n_; ++j) {
      const std::span<const ItemId> t = rows_.Row(j);
      const std::vector<ItemId> row = IntersectSorted(current, t);
      if (stats_ != nullptr) {
        stats_->CountKernelCall(current.size() + t.size(), row.size());
      }
      if (row.size() == current.size()) {
        rows_equal_to_current += rows_.weights[j];
      }
      if (!row.empty()) conditional.Add(row, rows_.weights[j]);
    }

    // I itself: supported by the chosen transactions plus the rows that
    // equal it (the absorptions plain Carpenter would have made). This
    // node passed the canonicity test, so no earlier row outside the
    // cover contains I.
    const Support current_support = count + rows_equal_to_current;
    if (current_support >= options_.min_support) {
      callback_(current, current_support);
    }

    if (conditional.rows().NumRows() == 0) return;
    const Support sub_min =
        options_.min_support > count ? options_.min_support - count : 1;

    MinerOptions lcm;
    lcm.algorithm = Algorithm::kLcm;
    lcm.min_support = sub_min;
    const WeightedTransactions* const tables[] = {&conditional.rows()};
    FIM_CHECK_OK(MineClosed(
        tables, tidlists_.size(), lcm,
        [this, &current, count, l](std::span<const ItemId> items,
                                   Support sub_support) {
          if (items.size() == current.size()) return;  // I handled above
          if (!bitsets_.IsCanonical(items, l)) return;  // an earlier owner
          const Support support = count + sub_support;
          if (support >= options_.min_support) callback_(items, support);
        }));
  }

  const WeightedTransactions& rows_;
  std::vector<std::vector<Tid>> tidlists_;
  // Per item and tid-list position p: the weight of the rows from the
  // item's p-th row on that contain the item (one trailing 0).
  std::vector<std::vector<Support>> suffix_weights_;
  std::vector<Support> rows_from_;  // weight of the rows from j on
  const Tid n_;
  const MinerOptions& options_;
  const ClosedSetCallback& callback_;
  RowBitsets bitsets_;  // duplicate check; covers the rows of the path
  MinerStats* stats_;
};

}  // namespace

void MineCobbler(WeightedTransactions rows, std::size_t num_items,
                 const MinerOptions& options,
                 const ClosedSetCallback& callback, MinerStats* stats,
                 obs::Trace* /*trace*/) {
  CobblerMiner miner(rows, num_items, options, callback, stats);
  miner.Run();
  miner.RecordMemory(options.memory);
}

}  // namespace fim
