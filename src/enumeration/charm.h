#ifndef FIM_ENUMERATION_CHARM_H_
#define FIM_ENUMERATION_CHARM_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// Closed frequent item set mining with a CHARM-style itemset-tidset
/// search (Zaki & Hsiao): vertical tid sets, the four tidset-relation
/// properties to grow closures and prune the search, plus a subsumption
/// check before reporting. A third enumeration-side baseline next to
/// FP-close and LCM. Same output contract as the other miners.
/// `stats` (optional) receives extension_checks (tidset pairs examined),
/// closure_checks (property-1/2 item merges) and subsume_checks (bucket
/// comparisons before reporting). The core MineClosed (api/miner.h) runs
/// for Algorithm::kCharm on the weighted stream its recipe builds; the
/// tids are its rows.
void MineCharm(WeightedTransactions rows, std::size_t num_items,
               const MinerOptions& options, const ClosedSetCallback& callback,
               MinerStats* stats, obs::Trace* trace);

}  // namespace fim

#endif  // FIM_ENUMERATION_CHARM_H_
