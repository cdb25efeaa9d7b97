#ifndef FIM_ENUMERATION_LCM_H_
#define FIM_ENUMERATION_LCM_H_

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

/// Options of the LCM baseline.
struct LcmOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Worker threads. > 1 turns the root's accepted extensions into tasks,
  /// each carrying its node database, and mines them on a thread pool;
  /// the output (and its order) is identical to the sequential run.
  unsigned num_threads = 1;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// stream ("weighted-stream") and the largest node database with its
  /// row bitsets ("node-database"). Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Closed frequent item set mining with LCM (Uno et al.): depth-first
/// prefix-preserving closure extension over conditional databases. The
/// input is folded into distinct weighted rows (ApplyRecodingWeighted).
/// Each node of the search holds the rows that contain its closed set,
/// drops the items below the minimum support (database reduction) and
/// sets one bit per row for every remaining item (occurrence deliver), so
/// the extension test and the closure are row-bitset comparisons. Each
/// closed set is generated exactly once from its core prefix, so no
/// repository or post-filter is needed; memory is the node databases
/// along the search path. Same output contract as the other miners.
/// `stats` (optional) receives extension_checks (row-bitset comparisons),
/// closure_checks (candidate extensions tested, plus the root's closure)
/// and sets_reported, aggregated over all workers; output-neutral. LCM
/// makes no intersection-kernel calls.
Status MineClosedLcm(const TransactionDatabase& db, const LcmOptions& options,
                     const ClosedSetCallback& callback,
                     MinerStats* stats = nullptr);

/// MineClosedLcm over the transactions that tables of weighted rows stand
/// for, such as the conditional rows Cobbler hands over, with the stages
/// of ApplyRecodingWeighted after its chunk prefold (RecodeTables). Same
/// output, its order included. Errors as CheckTables (data/recode.h).
Status MineClosedLcm(std::span<const WeightedTransactions* const> tables,
                     std::size_t num_items, const LcmOptions& options,
                     const ClosedSetCallback& callback,
                     MinerStats* stats = nullptr);

}  // namespace fim

#endif  // FIM_ENUMERATION_LCM_H_
