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

/// Records the preprocessing structures that stay alive for the whole
/// mining call: the weighted stream and the remaining-occurrence table.
void RecordPreprocessingMemory(obs::MemoryBreakdown* memory,
                               const WeightedTransactions& stream,
                               std::size_t num_items) {
  if (memory == nullptr) return;
  memory->Record(stream.ApproxMemoryUsage());
  memory->RecordBytes("remaining-tables", num_items * sizeof(Support));
}

/// Mines the whole weighted stream into one repository. `remaining`
/// starts as the occurrence count of every item over the coded database
/// (each row counts its weight) and loses each transaction's items as it
/// is added, so it is exactly the bound item-elimination pruning needs
/// (paper §3.2).
IstaPrefixTree MineStream(const WeightedTransactions& stream,
                          std::size_t num_items, const IstaOptions& options,
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

/// Copies the repository's own counters into the snapshot and reports the
/// final tree, counting the emitted sets. The counting wrapper only
/// observes the callback sequence, so the output is identical with and
/// without stats.
void ReportWithStats(const IstaPrefixTree& tree, const Recoding& recoding,
                     Support min_support, const ClosedSetCallback& callback,
                     IstaStats* stats) {
  if (stats == nullptr) {
    tree.Report(min_support, MakeDecodingCallback(recoding, callback));
    return;
  }
  stats->peak_nodes = tree.PeakNodeCount();
  stats->final_nodes = tree.NodeCount();
  stats->prune_calls = tree.PruneCount();
  stats->isect_steps = tree.IsectSteps();
  const ClosedSetCallback decoding = MakeDecodingCallback(recoding, callback);
  tree.Report(min_support,
              [stats, &decoding](std::span<const ItemId> items,
                                 Support support) {
                ++stats->sets_reported;
                decoding(items, support);
              });
}

/// The stages after the weighted stream is built: mining and the report.
Status MineRecoded(const Recoding& recoding,
                   const WeightedTransactions& stream,
                   const IstaOptions& options,
                   const ClosedSetCallback& callback, IstaStats* stats,
                   obs::Trace* trace, obs::TimelineLane* lane) {
  if (stream.NumRows() == 0) return Status::OK();
  if (stats != nullptr) stats->weighted_transactions = stream.NumRows();

  RecordPreprocessingMemory(options.memory, stream, recoding.num_kept());

  // One repository at every thread count: the threads only speed up the
  // duplicate merge above. The phase and the perf domain keep the names
  // "shard-mine" and "shard-0" (the whole stream is the one shard), which
  // stats reports and benches key on.
  obs::Phase mine_phase(trace, lane, "shard-mine");
  const IstaPrefixTree tree = [&] {
    obs::PerfDomainScope domain(options.perf_domains, "shard-0");
    obs::MemDomainScope mem_domain(obs::MemDomain::kIstaTree);
    IstaPrefixTree mined =
        MineStream(stream, recoding.num_kept(), options, lane);
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
  obs::Phase report_phase(trace, lane, "report");
  ReportWithStats(tree, recoding, options.min_support, callback, stats);
  return Status::OK();
}

obs::TimelineLane* DriverLane(const IstaOptions& options) {
  return options.timeline != nullptr ? options.timeline->driver() : nullptr;
}

// Items that cannot occur in any frequent set are dropped up front
// (paper §3.2).
Support MinItemSupport(const IstaOptions& options) {
  return options.item_elimination ? options.min_support : 1;
}

}  // namespace

Status MineClosedIsta(const TransactionDatabase& db, const IstaOptions& options,
                      const ClosedSetCallback& callback, IstaStats* stats,
                      obs::Trace* trace) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (stats != nullptr) *stats = IstaStats{};
  if (db.NumTransactions() == 0) return Status::OK();

  // Preprocessing: assign item codes, drop items that cannot occur in any
  // frequent set, order the transactions (paper §3.4).
  obs::TimelineLane* const lane = DriverLane(options);
  obs::Phase recode_phase(trace, lane, "recode");
  const Recoding recoding =
      ComputeRecoding(db, options.item_order, MinItemSupport(options));
  recode_phase.End();

  // Maps, merges and orders in one pass that copies only distinct rows.
  obs::Phase dedup_phase(trace, lane, "dedup");
  const WeightedTransactions stream = ApplyRecodingWeighted(
      db, recoding, options.transaction_order, options.num_threads,
      options.timeline);
  dedup_phase.End();
  return MineRecoded(recoding, stream, options, callback, stats, trace, lane);
}

Status MineClosedIsta(std::span<const WeightedTransactions* const> tables,
                      std::size_t num_items, const IstaOptions& options,
                      const ClosedSetCallback& callback, IstaStats* stats,
                      obs::Trace* trace) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (Status status = CheckTables(tables, num_items); !status.ok()) {
    return status;
  }
  if (stats != nullptr) *stats = IstaStats{};

  obs::TimelineLane* const lane = DriverLane(options);
  obs::Phase recode_phase(trace, lane, "recode");
  const Recoding recoding = ComputeRecoding(
      tables, num_items, options.item_order, MinItemSupport(options));
  recode_phase.End();

  obs::Phase dedup_phase(trace, lane, "dedup");
  const WeightedTransactions stream =
      RecodeTables(tables, recoding, options.transaction_order,
                   options.num_threads, options.timeline);
  dedup_phase.End();
  return MineRecoded(recoding, stream, options, callback, stats, trace, lane);
}

}  // namespace fim
