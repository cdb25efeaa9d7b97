#include "ista/ista.h"

#include <bit>
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

/// Records the tree as "prefix-trees/shard-0", with the `rebuild_bytes`
/// a prune is about to allocate beside it as its child "rebuild". The
/// collector keeps the largest record.
void RecordTrees(obs::MemoryBreakdown* memory, const IstaPrefixTree& tree,
                 std::size_t rebuild_bytes) {
  if (memory == nullptr) return;
  obs::MemoryComponent shard = tree.ApproxMemoryUsage();
  shard.name = "shard-0";
  if (rebuild_bytes > 0) shard.children.emplace_back("rebuild", rebuild_bytes);
  obs::MemoryComponent trees("prefix-trees");
  trees.children.push_back(std::move(shard));
  memory->Record(std::move(trees));
}

}  // namespace

bool SparseEnoughForSignatures(const WeightedTransactions& rows) {
  constexpr std::uint64_t kMaxMeanBits = 16;
  std::uint64_t bits = 0;
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    bits += std::popcount(IstaPrefixTree::ItemSignature(rows.Row(r)));
  }
  return bits < kMaxMeanBits * rows.NumRows();
}

/// `remaining` starts as the occurrence count of every item over the
/// coded database (each row counts its weight) and loses each
/// transaction's items as it is added, so it is exactly the bound
/// item-elimination pruning needs (paper §3.2).
///
/// A prune rebuilds the tree, which costs about one walk of it, so the
/// tree is pruned once the intersection steps since the last prune have
/// reached its node count, and only while it has outgrown the threshold
/// the last prune left: after a prune that kept a of b nodes, the
/// threshold is a·(1 + (a/b)²). That doubles the tree after a prune that
/// removed nothing and stays just above it after one that removed most.
/// The first threshold is 0, so small repositories are pruned too.
void BuildIstaTree(const WeightedTransactions& rows,
                   const MinerOptions& options, obs::TimelineLane* lane,
                   IstaPrefixTree* tree) {
  std::vector<Support> remaining(tree->NumItems(), 0);
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    for (ItemId i : rows.Row(r)) remaining[i] += rows.weights[r];
  }
  double prune_threshold = 0;
  std::uint64_t steps_at_prune = 0;
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    const std::span<const ItemId> row = rows.Row(r);
    tree->AddTransaction(row, rows.weights[r]);
    for (ItemId i : row) remaining[i] -= rows.weights[r];
    const std::size_t before = tree->NodeCount();
    if (options.item_elimination &&
        static_cast<double>(before) > prune_threshold &&
        tree->IsectSteps() - steps_at_prune >= before) {
      // Between prunes the tree only grows, so it is at its largest now.
      RecordTrees(options.memory, *tree, tree->PruneCopyBytes());
      obs::TimelineScope prune_scope(lane, "prune");
      tree->Prune(options.min_support, remaining);
      const double kept = static_cast<double>(tree->NodeCount());
      const double share = kept / static_cast<double>(before);
      prune_threshold = kept * (1 + share * share);
      steps_at_prune = tree->IsectSteps();
      prune_scope.End();
      if (lane != nullptr) lane->Counter("nodes", kept);
    }
  }
}

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
    IstaPrefixTree mined(num_items, SparseEnoughForSignatures(rows));
    BuildIstaTree(rows, options, lane, &mined);
    domain.AddWorkSteps(mined.IsectSteps());
    return mined;
  }();
  mine_phase.End();
  FIM_DCHECK_OK(tree.ValidateInvariants());
  RecordTrees(options.memory, tree, 0);
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
