#ifndef FIM_CARPENTER_CARPENTER_H_
#define FIM_CARPENTER_CARPENTER_H_

#include <cstddef>
#include <span>

#include "common/status.h"
#include "data/itemset.h"
#include "data/recode.h"
#include "data/transaction_database.h"
#include "obs/miner_stats.h"

namespace fim {

namespace obs {
class MemoryBreakdown;
}  // namespace obs

/// Options shared by both Carpenter variants (paper §3.1).
struct CarpenterOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Item code assignment (affects only repository shape / speed).
  ItemOrder item_order = ItemOrder::kFrequencyAscending;

  /// Order in which transaction indices are enumerated.
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// The paper's §3.1.1 improvement: drop an item i from an intersection
  /// as soon as |K| plus the number of remaining transactions containing
  /// i cannot reach the minimum support. Never changes the output.
  bool item_elimination = true;

  /// Optional memory attribution (obs/memory.h): both variants record
  /// the weighted stream they enumerate, the list variant its vertical
  /// tid lists and duplicate repository, the table variant its
  /// suffix-sum matrix and repository, at their largest.
  /// Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

// Execution statistics (optional output): the unified MinerStats snapshot
// (obs/miner_stats.h) under its historical name. Both variants populate
// nodes_visited, repo_sets, repo_hits, and sets_reported.

/// Carpenter with the vertical tid-list representation (paper §3.1.1):
/// per item an array of indices into the distinct weighted rows plus
/// per-branch cursors. It is the row enumeration of Cobbler (cobbler.h)
/// with the column switch off.
/// Reports every closed frequent item set exactly once (ascending
/// original ids); the empty set is never reported.
Status MineClosedCarpenterLists(const TransactionDatabase& db,
                                const CarpenterOptions& options,
                                const ClosedSetCallback& callback,
                                CarpenterStats* stats = nullptr);

/// Carpenter with the table-/matrix-based representation (paper §3.1.2,
/// Table 1): a matrix over the distinct rows whose entry (k, i) is 0
/// when item i is not in row k and otherwise the summed weight of the
/// rows from k onward that contain i. Same output contract as the list
/// variant.
Status MineClosedCarpenterTable(const TransactionDatabase& db,
                                const CarpenterOptions& options,
                                const ClosedSetCallback& callback,
                                CarpenterStats* stats = nullptr);

/// Builds the §3.1.2 suffix-sum matrix of `rows` over items
/// [0, num_items) in row-major layout (row k at
/// [k * num_items, (k+1) * num_items)).
std::vector<Support> BuildCarpenterMatrix(const WeightedTransactions& rows,
                                          std::size_t num_items);

/// The same matrix with every transaction of `db` a row of weight 1, so
/// an entry counts transactions (Table 1). Exposed for tests and
/// benches.
std::vector<Support> BuildCarpenterMatrix(const TransactionDatabase& db);

/// Checks that `matrix` is a well-formed §3.1.2 occurrence matrix for
/// `rows` over items [0, num_items) (Table 1) and returns OK, or an
/// Internal status naming the first violated invariant:
///   - the matrix has NumRows() x num_items entries;
///   - zero consistency: entry (k, i) is zero exactly when item i is not
///     in row k;
///   - down each column, non-zero entries are strictly decreasing and
///     each equals the summed weight of the rows from k onward that
///     contain the item (so the bottom-most non-zero entry is that
///     row's weight).
/// O(rows x items). Debug builds run this automatically when the table
/// miner materializes its matrix; tests and fim-verify call it on demand.
Status ValidateCarpenterMatrix(const WeightedTransactions& rows,
                               std::size_t num_items,
                               std::span<const Support> matrix);

}  // namespace fim

#endif  // FIM_CARPENTER_CARPENTER_H_
