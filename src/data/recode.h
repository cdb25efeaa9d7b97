#ifndef FIM_DATA_RECODE_H_
#define FIM_DATA_RECODE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/itemset.h"
#include "data/transaction_database.h"

namespace fim {

namespace obs {
class Timeline;
}  // namespace obs

/// Item code assignment policy (paper §3.4). The intersection miners are
/// fastest with ascending frequency (the rarest item gets code 0).
enum class ItemOrder {
  kNone,                  // keep original ids
  kFrequencyAscending,    // rarest item -> code 0 (paper default)
  kFrequencyDescending,   // most frequent item -> code 0
};

/// Transaction processing order (paper §3.4). Increasing size is the
/// paper's recommendation for the cumulative scheme.
enum class TransactionOrder {
  kNone,            // keep input order
  kSizeAscending,   // smallest transactions first (paper default)
  kSizeDescending,  // largest transactions first
};

/// A bijective (up to dropped items) mapping between original item ids and
/// mining codes. Items below the minimum support can be dropped up front:
/// this never changes the frequent closed item sets or their supports,
/// because every item of a frequent closed set is itself frequent, and so
/// is every item its closure could add.
struct Recoding {
  std::vector<ItemId> old_to_new;  // kInvalidItem for dropped items
  std::vector<ItemId> new_to_old;

  std::size_t num_kept() const { return new_to_old.size(); }
};

/// Computes the code assignment for `order`, dropping all items whose
/// frequency is below `min_item_support` (pass 0 or 1 to keep everything).
Recoding ComputeRecoding(const TransactionDatabase& db, ItemOrder order,
                         Support min_item_support);

/// The recoded database with one row per transaction: the rows of
/// RecodeTables over FoldRows(db, FoldFor(transaction_order),
/// num_threads, timeline), each repeated by its weight, so the rows and
/// their order are the same. Only fimbench's `data.recode*` probe uses
/// it; the closed miners mine the weighted rows.
TransactionDatabase ApplyRecoding(const TransactionDatabase& db,
                                  const Recoding& recoding,
                                  TransactionOrder transaction_order,
                                  unsigned num_threads = 1,
                                  obs::Timeline* timeline = nullptr);

/// Transactions in one flat (CSR) table: row r holds the ascending items
/// items[offsets[r], offsets[r + 1]) (item codes once recoded, input item
/// ids before) and stands for weights[r] identical transactions.
struct WeightedTransactions {
  std::vector<std::size_t> offsets{0};  // NumRows() + 1 entries
  std::vector<ItemId> items;
  std::vector<Support> weights;

  std::size_t NumRows() const { return weights.size(); }
  std::span<const ItemId> Row(std::size_t r) const {
    return std::span(items).subspan(offsets[r], offsets[r + 1] - offsets[r]);
  }
  void AddRow(std::span<const ItemId> row, Support weight) {
    items.insert(items.end(), row.begin(), row.end());
    offsets.push_back(items.size());
    weights.push_back(weight);
  }

  /// For each item < num_items, the ascending indices of the rows that
  /// contain it.
  std::vector<std::vector<Tid>> BuildVertical(std::size_t num_items) const;

  /// The summed weight of the rows `tids`.
  Support Weight(std::span<const Tid> tids) const {
    Support weight = 0;
    for (Tid t : tids) weight += weights[t];
    return weight;
  }

  /// Capacity bytes as a breakdown named "weighted-stream" with the
  /// offsets, items and weights arrays as children.
  obs::MemoryComponent ApproxMemoryUsage() const;
};

/// The preconditions of the miners that take tables of weighted rows:
/// InvalidArgument for an item id >= num_items, OutOfRange when the
/// weights sum past the Support limit.
Status CheckTables(std::span<const WeightedTransactions* const> tables,
                   std::size_t num_items);

/// ComputeRecoding over tables of weighted rows, such as the tables
/// RecodeTables takes: a row counts its weight towards the frequency of
/// each of its items, which must be < num_items. Gives ComputeRecoding's
/// recoding of the database the tables stand for.
Recoding ComputeRecoding(std::span<const WeightedTransactions* const> tables,
                         std::size_t num_items, ItemOrder order,
                         Support min_item_support);

/// Which rows a RowFolder folds into a row it already holds.
enum class RowFold {
  kAdjacent,  // a row equal to the last held row
  kHash,      // a row equal to any held row
};

/// The fold the weighted recoding uses: equal adjacent rows under
/// TransactionOrder::kNone; equal rows anywhere under the size orders,
/// which place equal rows next to each other anyway.
RowFold FoldFor(TransactionOrder transaction_order);

/// A WeightedTransactions table under construction: a folded row adds its
/// weight to the held row. Under kHash an open-addressing index (linear
/// probing, at most half full) over the held rows finds the equal one.
/// The caller keeps the weights of equal rows below the Support limit.
class RowFolder {
 public:
  explicit RowFolder(RowFold fold) : fold_(fold) {}

  void Add(std::span<const ItemId> row, Support weight);

  /// The rows held so far.
  const WeightedTransactions& rows() const { return rows_; }

  WeightedTransactions Take() { return std::move(rows_); }

  /// The held rows ("weighted-stream") plus the hash index, as a
  /// breakdown named "row-folder".
  obs::MemoryComponent ApproxMemoryUsage() const;

 private:
  // The weight of the held row equal to `row`, or nullptr after indexing
  // `row` as the row about to be appended.
  Support* FindOrIndex(std::span<const ItemId> row);
  void Grow();

  RowFold fold_;
  WeightedTransactions rows_;
  std::vector<std::uint64_t> hashes_;  // per held row, under kHash
  std::vector<std::size_t> slots_;     // held row + 1; 0 = empty
};

/// The transactions of `db` as tables of raw rows (input item ids), the
/// tables RecodeTables takes: cut into `num_chunks` runs of consecutive
/// transactions (at least one run, at most one per transaction), each
/// folded by a RowFolder under `fold` into one table (under kHash every
/// distinct row once, in the order of its first occurrence, weighted by
/// its count). Timeline span "prefold"; with more than one chunk each is
/// folded on a thread of its own, on lane "recode-prefold-N". This is
/// the input stage's one parallel step: RecodeTables runs on the calling
/// thread.
std::vector<WeightedTransactions> FoldRows(const TransactionDatabase& db,
                                           RowFold fold = RowFold::kHash,
                                           unsigned num_chunks = 1,
                                           obs::Timeline* timeline = nullptr);

/// The weighted transaction stream every closed miner mines, from tables
/// of raw rows that each hold distinct rows (under
/// FoldFor(transaction_order)) with weights, in stream order: the chunks
/// of FoldRows, or the panes of a stream miner. One pass maps every
/// table's rows, in table order, through `recoding` (eliminated items
/// dropped, codes ascending, rows left empty dropped) into one RowFolder
/// under FoldFor(transaction_order); then the distinct rows are ordered
/// by `transaction_order` (same-size rows lexicographically on their
/// descending item sequence, as in the paper; kNone keeps the input
/// order). A fold over the concatenated tables equals the fold of the
/// folded tables, so the rows are the same for every cut of the input
/// into tables.
WeightedTransactions RecodeTables(
    std::span<const WeightedTransactions* const> tables,
    const Recoding& recoding, TransactionOrder transaction_order);

}  // namespace fim

#endif  // FIM_DATA_RECODE_H_
