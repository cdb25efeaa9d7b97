#ifndef FIM_ENUMERATION_FPCLOSE_H_
#define FIM_ENUMERATION_FPCLOSE_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// Closed frequent item set mining via FP-growth (the enumeration-side
/// baseline of the paper's experiments): recursive conditional FP-tree
/// projection with perfect-extension pruning generates the closed-set
/// candidates {generator + perfect extensions}; a final subsumption
/// filter (same support, proper superset) leaves exactly the closed sets.
/// Same output contract as the intersection miners.
/// `stats` (optional) receives conditional_trees (conditional FP-tree
/// projections built), candidate_sets (candidates before the closed
/// filter) and subsume_checks (filter comparisons). The core MineClosed
/// (api/miner.h) runs for Algorithm::kFpClose on the weighted stream its
/// recipe builds: codes by descending frequency, so the least frequent
/// item has the largest code.
void MineFpClose(WeightedTransactions rows, std::size_t num_items,
                 const MinerOptions& options,
                 const ClosedSetCallback& callback, MinerStats* stats,
                 obs::Trace* trace);

}  // namespace fim

#endif  // FIM_ENUMERATION_FPCLOSE_H_
