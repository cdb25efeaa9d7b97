#ifndef FIM_ISTA_ISTA_H_
#define FIM_ISTA_ISTA_H_

#include <cstddef>

#include "api/miner.h"

namespace fim {

class IstaPrefixTree;

namespace obs {
class TimelineLane;
}  // namespace obs

/// The IsTa core (cumulative transaction intersection with a prefix-tree
/// repository, paper §3.2-§3.4), which MineClosed (api/miner.h) runs for
/// Algorithm::kIsta on the weighted stream its recipe builds: adds the
/// rows over the item codes [0, num_items) to one repository in stream
/// order (BuildIstaTree), with item signatures when the rows are sparse
/// (SparseEnoughForSignatures), and reports the repository's closed sets.
/// `stats` receives isect_steps, peak_nodes, final_nodes and prune_calls;
/// `trace` the spans "shard-mine" and "report"; options.perf_domains the
/// domain "shard-0" (the whole stream is the one shard, the name stats
/// reports and benches key on); options.memory the component
/// "prefix-trees/shard-0" at its largest, recorded before every prune
/// (with the rebuild's copy beside the tree as its child "rebuild") and
/// after the last row.
void MineIsta(WeightedTransactions rows, std::size_t num_items,
              const MinerOptions& options, const ClosedSetCallback& callback,
              MinerStats* stats, obs::Trace* trace);

/// Whether the rows are sparse enough for the tree's signature cut to
/// pay: the mean popcount of their item signatures
/// (IstaPrefixTree::ItemSignature) is below 16 of the 64 bits. Basket
/// and stream rows read 4–7, the dense fig5–fig8 stand-ins 26–64; on
/// those the cut skips few subtrees and the walk would pay for reading
/// the signature column and keeping it current.
bool SparseEnoughForSignatures(const WeightedTransactions& rows);

/// MineIsta's tree building: adds the rows to `tree` in order and, under
/// options.item_elimination, prunes the items that can no longer reach
/// min_support (§3.2) whenever the intersection steps since the last
/// prune have reached the node count and the tree has outgrown what the
/// last prune kept (ista.cc). Records options.memory's "prefix-trees"
/// before every prune. Tests run it on trees of either mode.
void BuildIstaTree(const WeightedTransactions& rows,
                   const MinerOptions& options, obs::TimelineLane* lane,
                   IstaPrefixTree* tree);

}  // namespace fim

#endif  // FIM_ISTA_ISTA_H_
