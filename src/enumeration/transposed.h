#ifndef FIM_ENUMERATION_TRANSPOSED_H_
#define FIM_ENUMERATION_TRANSPOSED_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// Transposition-based closed mining (Rioult et al., DMKD'03 — the [17]
/// approach the paper's §2.5 builds on): by the Galois bijection, the
/// closed item sets of a database correspond one-to-one to the closed
/// tid sets, which are the closed item sets of the TRANSPOSED database.
/// This miner enumerates closed tid sets by prefix-preserving closure
/// extension over the transpose — the support constraint of the original
/// problem becomes a SIZE constraint (|K| >= smin) with a simple
/// look-ahead bound — and maps each one back through g (the intersection
/// of the selected transactions). Efficient exactly when the original
/// database has few transactions, i.e. the same regime as IsTa/Carpenter.
/// `stats` receives extension_checks (tid extensions examined) and
/// closure_checks (transpose closures computed). The core MineClosed
/// (api/miner.h) runs for Algorithm::kTransposed on the weighted stream
/// its recipe builds: the tids are its rows, and every item code occurs
/// in one of them.
void MineTransposed(WeightedTransactions rows, std::size_t num_items,
                    const MinerOptions& options,
                    const ClosedSetCallback& callback, MinerStats* stats,
                    obs::Trace* trace);

}  // namespace fim

#endif  // FIM_ENUMERATION_TRANSPOSED_H_
