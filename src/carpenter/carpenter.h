#ifndef FIM_CARPENTER_CARPENTER_H_
#define FIM_CARPENTER_CARPENTER_H_

#include <cstddef>
#include <span>

#include "api/miner.h"
#include "common/status.h"
#include "data/itemset.h"
#include "data/recode.h"
#include "data/transaction_database.h"

namespace fim {

/// The Carpenter table core (paper §3.1.2, Table 1), which MineClosed
/// (api/miner.h) runs for Algorithm::kCarpenterTable on the weighted
/// stream its recipe builds: transaction-set enumeration over a matrix of
/// the distinct rows whose entry (k, i) is 0 when item i is not in row k
/// and otherwise the summed weight of the rows from k onward that contain
/// i; with item_elimination, the §3.1.1 bound drops an item from an
/// intersection as soon as it cannot reach min_support. The canonicity
/// test of RowBitsets (row_bitsets.h) stands in for §3.1.1's repository
/// of the intersections seen. Each row step is one pass of the kernel op
/// filter_row (kernels/intersect.h), and under item elimination a
/// node's sweep stops once the rows left cannot lift it to min_support.
/// options.num_threads > 1 turns the root's accepted children into
/// tasks mined on that many threads; the output, its order included,
/// and the counters are the sequential run's. `stats` receives
/// nodes_visited, repo_hits (children the canonicity test prunes) and
/// one kernel call per row step.
void MineCarpenterTable(WeightedTransactions rows, std::size_t num_items,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* trace);

/// The Carpenter lists core (paper §3.1.1), which MineClosed runs for
/// Algorithm::kCarpenterLists: the same row enumeration, canonicity test
/// and item elimination as the table core over the vertical
/// representation, per item the ascending indices of the distinct rows
/// that contain it plus per-branch cursors into them. A row's weight
/// counts towards every support. `stats` receives nodes_visited and
/// repo_hits.
void MineCarpenterLists(WeightedTransactions rows, std::size_t num_items,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* trace);

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
