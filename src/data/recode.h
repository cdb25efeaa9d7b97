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
/// ApplyRecodingWeighted below, each repeated by its weight, so the rows
/// and their order are the same. Only fimbench's `data.recode*` probe
/// uses it; the closed miners mine the weighted rows.
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

/// The transactions of `db` folded by hash into one table of raw rows
/// (input item ids): every distinct transaction once, in the order of its
/// first occurrence, weighted by its count.
WeightedTransactions FoldRows(const TransactionDatabase& db);

/// The weighted transaction stream every closed miner mines. Items are
/// mapped through `recoding` (eliminated items dropped, codes ascending,
/// rows left empty dropped), the rows are ordered by
/// `transaction_order` (same-size rows lexicographically on their
/// descending item sequence, as in the paper; kNone keeps the input
/// order), and every run of equal adjacent rows is folded into one row
/// weighted by the run length.
///
/// The database is cut into one chunk per thread (`num_threads`), and
/// each chunk first folds its input rows under
/// FoldFor(transaction_order): equal input rows map to equal rows, so
/// only the distinct ones are mapped and sorted. RecodeTables does the rest. The
/// result is identical for every thread count; with more than one thread
/// the chunks record on timeline lanes "recode-prefold-N".
WeightedTransactions ApplyRecodingWeighted(const TransactionDatabase& db,
                                           const Recoding& recoding,
                                           TransactionOrder transaction_order,
                                           unsigned num_threads = 1,
                                           obs::Timeline* timeline = nullptr);

/// The stages of ApplyRecodingWeighted after the chunk prefold, for any
/// tables of raw rows that each hold distinct rows (under
/// FoldFor(transaction_order)) with weights, in stream
/// order: the chunks of ApplyRecodingWeighted, or the panes of a stream
/// miner. Maps every table's rows through `recoding` and folds them
/// (timeline span "map"; with `num_threads` > 1 the tables are shared
/// out over that many threads, lanes "recode-map-N"), folds the mapped
/// tables together in order ("fold"), and orders the distinct rows by
/// `transaction_order` ("sort"). Rows that map to the empty set are
/// dropped.
WeightedTransactions RecodeTables(
    std::span<const WeightedTransactions* const> tables,
    const Recoding& recoding, TransactionOrder transaction_order,
    unsigned num_threads = 1, obs::Timeline* timeline = nullptr);

/// Maps mined item codes back to original item ids (sorted ascending).
std::vector<ItemId> DecodeItems(std::span<const ItemId> coded,
                                const Recoding& recoding);

/// Wraps `inner` so that reported sets are translated back to original
/// item ids before being forwarded.
ClosedSetCallback MakeDecodingCallback(const Recoding& recoding,
                                       ClosedSetCallback inner);

}  // namespace fim

#endif  // FIM_DATA_RECODE_H_
