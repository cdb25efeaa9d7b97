#ifndef FIM_CUMULATIVE_FLAT_CUMULATIVE_H_
#define FIM_CUMULATIVE_FLAT_CUMULATIVE_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// The cumulative intersection scheme of Mielikäinen (FIMI'03) with the
/// flat repository the paper compares against (§5: "this implementation
/// does not employ a prefix tree, but a simple flat structure"):
/// C(T + t) = C(T) + {t} + {s ∩ t : s ∈ C(T)}, with the repository kept
/// as a hash map from item set to support. Exact but deliberately naive —
/// this is the ablation baseline that motivates IsTa's prefix tree.
/// `stats` (optional) receives isect_steps (pairwise set intersections
/// computed), repo_sets (final repository size) and final_nodes. The
/// core MineClosed (api/miner.h) runs for Algorithm::kFlatCumulative on
/// the weighted stream its recipe builds.
void MineFlatCumulative(WeightedTransactions rows, std::size_t num_items,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* trace);

}  // namespace fim

#endif  // FIM_CUMULATIVE_FLAT_CUMULATIVE_H_
