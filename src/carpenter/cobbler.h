#ifndef FIM_CARPENTER_COBBLER_H_
#define FIM_CARPENTER_COBBLER_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// Cobbler-style hybrid of row and column enumeration (Pan et al.,
/// SSDBM'04 — the companion algorithm the paper cites next to
/// Carpenter): the search runs as Carpenter's transaction-set
/// enumeration, but when a subproblem's conditional database becomes
/// narrow (few items in the current intersection) and long (many
/// remaining transactions), the whole subtree is mined in one shot with
/// a column-enumeration closed miner (LCM) over the conditional rows,
/// folded into one weighted table. The rows enumerated are the distinct
/// rows of the weighted stream (ApplyRecodingWeighted); a row's weight
/// counts towards every support and towards the remaining transactions
/// of the switch test.
/// Supports are completed with the enumeration context; both strategies
/// keep a set only when it passes the canonicity test of RowBitsets
/// (row_bitsets.h) — no row before the enumeration position outside the
/// cover contains it — so each closed set comes from its one canonical
/// row path and the output is exactly the closed frequent item sets,
/// verified against the oracle like every other miner.
///
/// The core MineClosed (api/miner.h) runs for Algorithm::kCobbler, and
/// for kCarpenterLists with switch_max_items = 0: Carpenter with the
/// vertical tid-list representation (paper §3.1.1), per item an array of
/// indices into the distinct rows plus per-branch cursors. `stats`
/// receives nodes_visited, repo_hits (children the canonicity test
/// prunes) and column_switches.
void MineCobbler(WeightedTransactions rows, std::size_t num_items,
                 const MinerOptions& options,
                 const ClosedSetCallback& callback, MinerStats* stats,
                 obs::Trace* trace);

}  // namespace fim

#endif  // FIM_CARPENTER_COBBLER_H_
