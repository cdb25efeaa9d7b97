#include <string>
#include <vector>

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

class TableMiner {
 public:
  TableMiner(const WeightedTransactions& rows, std::size_t num_items,
             const MinerOptions& options, const ClosedSetCallback& callback,
             MinerStats* stats)
      : matrix_(BuildCarpenterMatrix(rows, num_items)),
        weights_(rows.weights),
        n_(static_cast<Tid>(rows.NumRows())),
        num_items_(num_items),
        min_support_(options.min_support),
        item_elimination_(options.item_elimination),
        callback_(callback),
        bitsets_(rows, num_items),
        stats_(stats) {
    FIM_DCHECK_OK(ValidateCarpenterMatrix(rows, num_items, matrix_));
  }

  void Run() {
    std::vector<ItemId> initial;
    initial.reserve(num_items_);
    // Row 0 of the matrix is non-zero exactly for items of t_0; the item
    // base of the coded database contains only items occurring somewhere,
    // so take all of them.
    for (std::size_t i = 0; i < num_items_; ++i) {
      initial.push_back(static_cast<ItemId>(i));
    }
    if (initial.empty() || n_ == 0) return;
    Mine(initial, 0, 0);
  }

  // The matrix and the row bitsets are built once and keep their size.
  void RecordMemory(obs::MemoryBreakdown* memory) const {
    if (memory == nullptr) return;
    memory->RecordBytes("matrix", matrix_.capacity() * sizeof(Support));
    memory->RecordBytes("row-bitsets", bitsets_.Bytes());
  }

 private:
  const Support* Row(Tid j) const { return matrix_.data() + j * num_items_; }

  // Same enumeration as the list-based variant, but the intersection with
  // t_j is computed by indexing the matrix row j with the items of the
  // current set (paper §3.1.2) — no cursors or tid-list traversal, and the
  // per-branch state is just the item list.
  void Mine(const std::vector<ItemId>& items, Support count, Tid l) {
    if (stats_ != nullptr) ++stats_->nodes_visited;
    Support supp = count;
    std::vector<ItemId> members;
    std::vector<ItemId> child;
    for (Tid j = l; j < n_; ++j) {
      const Support* row = Row(j);
      // The matrix-row intersection (paper §3.1.2) is an occurrence-row
      // filter: keep the items whose entry in row j is non-zero. Runs
      // through the dispatched kernel (gather-based under AVX2).
      members.resize(items.size());
      members.resize(kernels::Active().filter_nonzero(
          items.data(), items.size(), row, members.data()));
      if (stats_ != nullptr) {
        stats_->CountKernelCall(items.size(), members.size());
      }
      if (members.empty()) continue;
      if (members.size() == items.size()) {
        // t_j contains I: absorb (perfect extension analog).
        supp += weights_[j];
        bitsets_.Cover(j);
        continue;
      }
      child.clear();
      for (ItemId i : members) {
        // row[i] is the weight of the rows from j onward that contain i,
        // row j included: the most support a branch taking j can reach.
        if (item_elimination_ && supp + row[i] < min_support_) continue;
        child.push_back(i);
      }
      if (child.empty()) continue;
      if (!bitsets_.IsCanonical(child, j)) {
        if (stats_ != nullptr) ++stats_->repo_hits;
        continue;
      }
      bitsets_.Cover(j);
      Mine(child, supp + weights_[j], j + 1);
      bitsets_.UncoverFrom(j);
    }
    if (supp >= min_support_) callback_(items, supp);
  }

  std::vector<Support> matrix_;
  const std::vector<Support>& weights_;
  const Tid n_;
  const std::size_t num_items_;
  const Support min_support_;
  const bool item_elimination_;
  const ClosedSetCallback& callback_;
  RowBitsets bitsets_;  // duplicate check; covers the rows of the path
  MinerStats* stats_;
};

}  // namespace

void MineCarpenterTable(WeightedTransactions rows, std::size_t num_items,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* /*trace*/) {
  TableMiner miner(rows, num_items, options, callback, stats);
  miner.Run();
  miner.RecordMemory(options.memory);
}

}  // namespace fim
