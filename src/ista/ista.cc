#include "ista/ista.h"

#include <cstdint>
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
///
/// A prune rebuilds the tree, which costs about one walk of it, so the
/// tree is pruned once the intersection steps since the last prune have
/// reached its node count, and only while it has outgrown the threshold
/// the last prune left: after a prune that kept a of b nodes, the
/// threshold is a·(1 + (a/b)²). That doubles the tree after a prune that
/// removed nothing and stays just above it after one that removed most.
/// The first threshold is 0, so small repositories are pruned too.
IstaPrefixTree MineStream(const WeightedTransactions& stream,
                          std::size_t num_items, const MinerOptions& options,
                          obs::TimelineLane* lane) {
  IstaPrefixTree tree(num_items);
  std::vector<Support> remaining(num_items, 0);
  for (std::size_t r = 0; r < stream.NumRows(); ++r) {
    for (ItemId i : stream.Row(r)) remaining[i] += stream.weights[r];
  }
  double prune_threshold = 0;
  std::uint64_t steps_at_prune = 0;
  for (std::size_t r = 0; r < stream.NumRows(); ++r) {
    const std::span<const ItemId> row = stream.Row(r);
    tree.AddTransaction(row, stream.weights[r]);
    for (ItemId i : row) remaining[i] -= stream.weights[r];
    const std::size_t before = tree.NodeCount();
    if (options.item_elimination &&
        static_cast<double>(before) > prune_threshold &&
        tree.IsectSteps() - steps_at_prune >= before) {
      obs::TimelineScope prune_scope(lane, "prune");
      tree.Prune(options.min_support, remaining);
      const double kept = static_cast<double>(tree.NodeCount());
      const double share = kept / static_cast<double>(before);
      prune_threshold = kept * (1 + share * share);
      steps_at_prune = tree.IsectSteps();
      prune_scope.End();
      if (lane != nullptr) lane->Counter("nodes", kept);
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
