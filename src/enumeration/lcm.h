#ifndef FIM_ENUMERATION_LCM_H_
#define FIM_ENUMERATION_LCM_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// Closed frequent item set mining with LCM (Uno et al.): depth-first
/// prefix-preserving closure extension over conditional databases. Each
/// node of the search holds the rows that contain its closed set,
/// drops the items below the minimum support (database reduction) and
/// sets one bit per row for every remaining item (occurrence deliver), so
/// the extension test and the closure are row-bitset comparisons. Each
/// closed set is generated exactly once from its core prefix, so no
/// repository or post-filter is needed; memory is the node databases
/// along the search path. Same output contract as the other miners.
/// `stats` receives extension_checks (row-bitset comparisons) and
/// closure_checks (candidate extensions tested, plus the root's closure),
/// aggregated over all workers. LCM makes no intersection-kernel calls.
///
/// The core MineClosed (api/miner.h) runs for Algorithm::kLcm on the
/// weighted stream its recipe builds; the stream becomes the root's
/// database. With options.num_threads > 1 the calling thread prepares
/// and reports the root, and each of the root's items becomes a task:
/// a worker tests its extension on the shared, read-only root, then
/// builds and mines the child's database, so a worker holds the
/// databases of one search path at a time. The output, its order
/// included, and the counters are the sequential run's. options.memory
/// receives the largest node database with its row bitsets
/// ("node-database").
void MineLcm(WeightedTransactions rows, std::size_t num_items,
             const MinerOptions& options, const ClosedSetCallback& callback,
             MinerStats* stats, obs::Trace* trace);

}  // namespace fim

#endif  // FIM_ENUMERATION_LCM_H_
