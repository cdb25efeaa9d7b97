#include <algorithm>
#include <deque>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "api/task_pool.h"
#include "carpenter/carpenter.h"
#include "carpenter/row_bitsets.h"
#include "common/check.h"
#include "kernels/intersect.h"
#include "obs/memory.h"

namespace fim {

std::vector<Support> BuildCarpenterMatrix(const WeightedTransactions& rows,
                                          std::size_t num_items) {
  std::vector<Support> matrix(rows.NumRows() * num_items, 0);
  std::vector<Support> running(num_items, 0);
  for (std::size_t k = rows.NumRows(); k > 0; --k) {
    const std::size_t row = k - 1;
    for (ItemId i : rows.Row(row)) {
      running[i] += rows.weights[row];
      matrix[row * num_items + i] = running[i];
    }
  }
  return matrix;
}

std::vector<Support> BuildCarpenterMatrix(const TransactionDatabase& db) {
  WeightedTransactions rows;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    rows.AddRow(db.Row(k), 1);
  }
  return BuildCarpenterMatrix(rows, db.NumItems());
}

Status ValidateCarpenterMatrix(const WeightedTransactions& rows,
                               std::size_t num_items,
                               std::span<const Support> matrix) {
  const std::size_t n = rows.NumRows();
  const std::size_t m = num_items;
  if (matrix.size() != n * m) {
    return Status::Internal(
        "carpenter matrix: size " + std::to_string(matrix.size()) + " != " +
        std::to_string(n) + " rows x " + std::to_string(m) + " items");
  }
  // Sweep bottom-up, maintaining per column the suffix weight sum and
  // re-deriving the expected entry of every cell.
  std::vector<Support> suffix_sum(m, 0);
  std::vector<uint8_t> member(m, 0);
  for (std::size_t k = n; k > 0; --k) {
    const std::size_t row = k - 1;
    for (ItemId i : rows.Row(row)) member[i] = 1;
    for (std::size_t i = 0; i < m; ++i) {
      const Support entry = matrix[row * m + i];
      if (!member[i]) {
        if (entry != 0) {
          return Status::Internal(
              "carpenter matrix: zero consistency violated at row " +
              std::to_string(row) + " item " + std::to_string(i) +
              ": entry " + std::to_string(entry) +
              " for an item not in the transaction");
        }
        continue;
      }
      if (entry == 0) {
        return Status::Internal(
            "carpenter matrix: zero consistency violated at row " +
            std::to_string(row) + " item " + std::to_string(i) +
            ": zero entry for an item of the transaction");
      }
      // Non-zero entries of a column are the suffix weight sums, so going
      // down they decrease by exactly the weight of each row with the item.
      if (entry != suffix_sum[i] + rows.weights[row]) {
        return Status::Internal(
            "carpenter matrix: column " + std::to_string(i) +
            " not a decreasing suffix count at row " + std::to_string(row) +
            ": entry " + std::to_string(entry) + ", expected " +
            std::to_string(suffix_sum[i] + rows.weights[row]));
      }
      suffix_sum[i] = entry;
    }
    for (ItemId i : rows.Row(row)) member[i] = 0;
  }
  return Status::OK();
}

namespace {

// What every thread of a run reads and none writes: the §3.1.2 matrix,
// the row weights with their suffix sums, and the kernel op, fetched
// once.
struct Table {
  Table(const WeightedTransactions& rows, std::size_t item_count,
        const MinerOptions& options)
      : matrix(BuildCarpenterMatrix(rows, item_count)),
        weights(rows.weights),
        remaining(rows.NumRows() + 1, 0),
        n(static_cast<Tid>(rows.NumRows())),
        num_items(item_count),
        min_support(options.min_support),
        item_elimination(options.item_elimination),
        filter_row(kernels::Active().filter_row) {
    FIM_DCHECK_OK(ValidateCarpenterMatrix(rows, item_count, matrix));
    for (Tid j = n; j > 0; --j) {
      remaining[j - 1] = remaining[j] + weights[j - 1];
    }
  }

  const Support* Row(Tid j) const { return matrix.data() + j * num_items; }

  const std::vector<Support> matrix;
  const std::vector<Support>& weights;
  std::vector<Support> remaining;  // entry j: the weight of rows j..n-1
  const Tid n;
  const std::size_t num_items;
  const Support min_support;
  const bool item_elimination;
  decltype(kernels::IntersectKernel::filter_row) const filter_row;
};

// A first-level child of the root: its items, its summed weight and
// next row, and the root's cover at its row plus that row.
struct Task {
  std::vector<ItemId> items;
  Support count;
  Tid next;
  RowBitsets bitsets;
};

// One thread's depth-first walk: the cover of its path, in its own copy
// of the row bitsets, and one item buffer per depth (a child's items are
// written to the buffer below its parent's).
class Walker {
 public:
  Walker(const Table& table, RowBitsets bitsets, MinerStats* stats)
      : table_(table), bitsets_(std::move(bitsets)), stats_(stats) {}

  // The root's items: every item, since the coded item base holds only
  // items that occur somewhere.
  std::span<const ItemId> Root() {
    std::vector<ItemId>& items = Level(0);
    items.resize(table_.num_items);
    std::iota(items.begin(), items.end(), ItemId{0});
    return items;
  }

  // Mines the node of `items` with summed weight `count` whose rows
  // start at `l`, and every node below it, reporting each set after the
  // sets below it (the sequential order). `items` lies at level `depth`.
  void Mine(std::size_t depth, std::span<const ItemId> items, Support count,
            Tid l, const ClosedSetCallback& sink) {
    const Support supp =
        Sweep(depth, items, count, l,
              [&](std::span<const ItemId> child, Support at_j, Tid j) {
                Mine(depth + 1, child, at_j + table_.weights[j], j + 1, sink);
              });
    if (supp >= table_.min_support) sink(items, supp);
  }

  // The row loop of one node (paper §3.1.2): intersects `items` with
  // each row j from `l` on by indexing row j of the matrix, absorbs the
  // rows that contain them all, and calls open(child, supp, j) for each
  // child the canonicity test accepts, with row j covered and `supp` the
  // weight absorbed before j. Returns the node's support.
  template <typename Open>
  Support Sweep(std::size_t depth, std::span<const ItemId> items, Support supp,
                Tid l, Open open) {
    if (stats_ != nullptr) ++stats_->nodes_visited;
    std::vector<ItemId>& child = Level(depth + 1);
    if (child.size() < items.size() + kernels::kIntersectPad) {
      child.resize(items.size() + kernels::kIntersectPad);
    }
    for (Tid j = l; j < table_.n; ++j) {
      // row[i] is the weight of the rows from j onward that contain i,
      // row j included: the most support a branch taking j can reach.
      // Item elimination (§3.1.1) keeps the items that can reach
      // min_support, and stops once no row left can lift supp to it.
      Support threshold = 1;
      if (table_.item_elimination && supp < table_.min_support) {
        if (supp + table_.remaining[j] < table_.min_support) break;
        threshold = table_.min_support - supp;
      }
      const kernels::RowFilterCounts counts = table_.filter_row(
          items.data(), items.size(), table_.Row(j), threshold, child.data());
      if (stats_ != nullptr) {
        stats_->CountKernelCall(items.size(), counts.kept);
      }
      if (counts.present == items.size()) {
        // t_j contains I: absorb (perfect extension analog).
        supp += table_.weights[j];
        bitsets_.Cover(j);
        continue;
      }
      if (counts.kept == 0) continue;
      const std::span<const ItemId> kept(child.data(), counts.kept);
      if (!bitsets_.IsCanonical(kept, j)) {
        if (stats_ != nullptr) ++stats_->repo_hits;
        continue;
      }
      bitsets_.Cover(j);
      open(kept, supp, j);
      bitsets_.UncoverFrom(j);
    }
    return supp;
  }

  // Mines a task's node and every node below it.
  void MineTask(Task task, const ClosedSetCallback& sink) {
    bitsets_ = std::move(task.bitsets);
    std::vector<ItemId>& items = Level(0);
    items = std::move(task.items);
    Mine(0, items, task.count, task.next, sink);
  }

  const RowBitsets& bitsets() const { return bitsets_; }

 private:
  // The item buffer of `depth`; a deque keeps the shallower ones in
  // place.
  std::vector<ItemId>& Level(std::size_t depth) {
    if (depth == levels_.size()) levels_.emplace_back();
    return levels_[depth];
  }

  const Table& table_;
  RowBitsets bitsets_;  // duplicate check; covers the rows of the path
  MinerStats* stats_;
  std::deque<std::vector<ItemId>> levels_;
};

// The calling thread sweeps the root's rows and turns each accepted
// child into a task; the tasks' subtrees fan out to `num_threads`
// workers. The calling thread emits the tasks' sets in task order as
// they arrive, then the root's: the sequential order.
void MineParallel(const Table& table, const RowBitsets& bitsets,
                  unsigned num_threads, const ClosedSetCallback& callback,
                  MinerStats* stats) {
  Walker root(table, bitsets, stats);
  const std::span<const ItemId> items = root.Root();
  std::vector<Task> tasks;
  const Support supp = root.Sweep(
      0, items, 0, 0, [&](std::span<const ItemId> child, Support at_j, Tid j) {
        tasks.push_back(Task{{child.begin(), child.end()},
                             at_j + table.weights[j],
                             j + 1,
                             root.bitsets()});
      });

  // One walker and one stats slot per worker; the workers share only
  // the table and the row bitsets' item columns, both read-only.
  const std::size_t n = std::min<std::size_t>(num_threads, tasks.size());
  std::vector<MinerStats> worker_stats(n);
  std::vector<Walker> walkers;
  walkers.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    walkers.emplace_back(table, bitsets,
                         stats != nullptr ? &worker_stats[w] : nullptr);
  }
  RunTasksInOrder(
      tasks.size(), n,
      [&](std::size_t w, std::size_t t, const ClosedSetCallback& sink) {
        walkers[w].MineTask(std::move(tasks[t]), sink);
      },
      callback);

  if (stats != nullptr) {
    for (const MinerStats& s : worker_stats) stats->MergeFrom(s);
  }
  if (supp >= table.min_support) callback(items, supp);
}

}  // namespace

void MineCarpenterTable(WeightedTransactions rows, std::size_t num_items,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* /*trace*/) {
  const Table table(rows, num_items, options);
  RowBitsets bitsets(rows, num_items);
  if (options.memory != nullptr) {
    // The matrix and the row bitsets are built once and keep their size.
    options.memory->RecordBytes("matrix",
                                table.matrix.capacity() * sizeof(Support));
    options.memory->RecordBytes("row-bitsets", bitsets.Bytes());
  }
  if (table.n == 0 || num_items == 0) return;
  if (options.num_threads <= 1) {
    Walker walker(table, std::move(bitsets), stats);
    walker.Mine(0, walker.Root(), 0, 0, callback);
  } else {
    MineParallel(table, bitsets, options.num_threads, callback, stats);
  }
}

}  // namespace fim
