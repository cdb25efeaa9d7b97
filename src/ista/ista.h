#ifndef FIM_ISTA_ISTA_H_
#define FIM_ISTA_ISTA_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

/// The IsTa core (cumulative transaction intersection with a prefix-tree
/// repository, paper §3.2-§3.4), which MineClosed (api/miner.h) runs for
/// Algorithm::kIsta on the weighted stream its recipe builds: adds the
/// rows over the item codes [0, num_items) to one repository in stream
/// order, prunes the items that can no longer reach min_support (§3.2)
/// under item_elimination whenever the intersection steps since the last
/// prune have reached the node count and the tree has outgrown what the
/// last prune kept (ista.cc), and reports the repository's closed sets.
/// `stats` receives isect_steps, peak_nodes, final_nodes and prune_calls;
/// `trace` the spans "shard-mine" and "report"; options.perf_domains the
/// domain "shard-0" (the whole stream is the one shard, the name stats
/// reports and benches key on).
void MineIsta(WeightedTransactions rows, std::size_t num_items,
              const MinerOptions& options, const ClosedSetCallback& callback,
              MinerStats* stats, obs::Trace* trace);

}  // namespace fim

#endif  // FIM_ISTA_ISTA_H_
