#include "ista/ista.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "ista/prefix_tree.h"
#include "obs/memory.h"
#include "obs/perf.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fim {

namespace {

/// Mines the whole weighted stream into one repository. `remaining`
/// starts as the occurrence count of every item over the coded database
/// (each row counts its weight) and loses each transaction's items as it
/// is added, so it is exactly the bound item-elimination pruning needs
/// (paper §3.2).
IstaPrefixTree MineStream(const WeightedTransactions& stream,
                          std::size_t num_items, const MinerOptions& options,
                          obs::TimelineLane* lane) {
  IstaPrefixTree tree(num_items);
  std::vector<Support> remaining(num_items, 0);
  for (std::size_t r = 0; r < stream.NumRows(); ++r) {
    for (ItemId i : stream.Row(r)) remaining[i] += stream.weights[r];
  }
  std::size_t prune_threshold = options.prune_node_threshold;
  for (std::size_t r = 0; r < stream.NumRows(); ++r) {
    const std::span<const ItemId> row = stream.Row(r);
    tree.AddTransaction(row, stream.weights[r]);
    for (ItemId i : row) remaining[i] -= stream.weights[r];
    if (options.item_elimination && tree.NodeCount() > prune_threshold) {
      obs::TimelineScope prune_scope(lane, "prune");
      tree.Prune(options.min_support, remaining);
      prune_threshold = std::max(prune_threshold, 2 * tree.NodeCount());
      prune_scope.End();
      if (lane != nullptr) {
        lane->Counter("nodes", static_cast<double>(tree.NodeCount()));
      }
    }
  }
  return tree;
}

}  // namespace

void MineIsta(WeightedTransactions rows, std::size_t num_items,
              const MinerOptions& options, const ClosedSetCallback& callback,
              MinerStats* stats, obs::Trace* trace) {
  obs::TimelineLane* const lane =
      options.timeline != nullptr ? options.timeline->driver() : nullptr;
  if (options.memory != nullptr) {
    options.memory->RecordBytes("remaining-tables",
                                num_items * sizeof(Support));
  }

  obs::Phase mine_phase(trace, lane, "shard-mine");
  const IstaPrefixTree tree = [&] {
    obs::PerfDomainScope domain(options.perf_domains, "shard-0");
    IstaPrefixTree mined = MineStream(rows, num_items, options, lane);
    domain.AddWorkSteps(mined.IsectSteps());
    return mined;
  }();
  mine_phase.End();
  FIM_DCHECK_OK(tree.ValidateInvariants());
  if (options.memory != nullptr) {
    obs::MemoryComponent trees("prefix-trees");
    trees.children.push_back(tree.ApproxMemoryUsage());
    trees.children.back().name = "shard-0";
    options.memory->Record(std::move(trees));
  }
  if (stats != nullptr) {
    stats->peak_nodes = tree.PeakNodeCount();
    stats->final_nodes = tree.NodeCount();
    stats->prune_calls = tree.PruneCount();
    stats->isect_steps = tree.IsectSteps();
  }
  obs::Phase report_phase(trace, lane, "report");
  tree.Report(options.min_support, callback);
}

}  // namespace fim
