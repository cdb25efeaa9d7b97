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
/// mining call: the recoded database, the weighted stream over it, and
/// the remaining-occurrence table.
void RecordPreprocessingMemory(obs::MemoryBreakdown* memory,
                               const TransactionDatabase& coded,
                               std::size_t stream_bytes) {
  if (memory == nullptr) return;
  obs::MemoryComponent coded_db = coded.ApproxMemoryUsage();
  coded_db.name = "recoded-db";
  memory->Record(std::move(coded_db));
  memory->RecordBytes("weighted-stream", stream_bytes);
  memory->RecordBytes("remaining-tables", coded.NumItems() * sizeof(Support));
}

/// One entry of the mining stream: a recoded transaction plus its
/// multiplicity after duplicate merging.
struct WeightedTransaction {
  const std::vector<ItemId>* items;
  Support weight;
};

/// Builds the weighted stream. With `merge_duplicates`, runs of identical
/// adjacent transactions collapse into one weighted transaction; under the
/// default size-ascending order (which breaks ties lexicographically) all
/// duplicates are adjacent, so this is a full deduplication there.
std::vector<WeightedTransaction> BuildWeightedStream(
    const TransactionDatabase& coded, bool merge_duplicates) {
  std::vector<WeightedTransaction> stream;
  stream.reserve(coded.NumTransactions());
  for (const auto& transaction : coded.transactions()) {
    if (merge_duplicates && !stream.empty() &&
        *stream.back().items == transaction) {
      ++stream.back().weight;
    } else {
      stream.push_back(WeightedTransaction{&transaction, 1});
    }
  }
  return stream;
}

/// Mines the whole weighted stream into one repository. `remaining`
/// starts as the occurrence count of every item over the coded database
/// and loses each transaction's items as it is added, so it is exactly
/// the bound item-elimination pruning needs (paper §3.2).
IstaPrefixTree MineStream(const std::vector<WeightedTransaction>& stream,
                          const TransactionDatabase& coded,
                          const IstaOptions& options,
                          obs::TimelineLane* lane) {
  IstaPrefixTree tree(coded.NumItems());
  std::vector<Support> remaining = coded.ItemFrequencies();
  std::size_t prune_threshold = options.prune_node_threshold;
  for (const WeightedTransaction& wt : stream) {
    tree.AddTransaction(*wt.items, wt.weight);
    for (ItemId i : *wt.items) remaining[i] -= wt.weight;
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
  const Support min_item_support =
      options.item_elimination ? options.min_support : 1;
  obs::Timeline* const timeline = options.timeline;
  obs::TimelineLane* const lane =
      timeline != nullptr ? timeline->driver() : nullptr;
  obs::Phase recode_phase(trace, lane, "recode");
  const Recoding recoding =
      ComputeRecoding(db, options.item_order, min_item_support);
  const TransactionDatabase coded =
      ApplyRecoding(db, recoding, options.transaction_order,
                    options.num_threads, timeline);
  recode_phase.End();
  if (coded.NumTransactions() == 0) return Status::OK();

  obs::Phase dedup_phase(trace, lane, "dedup");
  const std::vector<WeightedTransaction> stream =
      BuildWeightedStream(coded, options.merge_duplicate_transactions);
  dedup_phase.End();
  if (stats != nullptr) stats->weighted_transactions = stream.size();

  RecordPreprocessingMemory(options.memory, coded,
                            stream.capacity() * sizeof(stream[0]));

  // One repository at every thread count: the threads only speed up the
  // recoding above. The phase and the perf domain keep the names
  // "shard-mine" and "shard-0" (the whole stream is the one shard), which
  // stats reports and benches key on.
  obs::Phase mine_phase(trace, lane, "shard-mine");
  const IstaPrefixTree tree = [&] {
    obs::PerfDomainScope domain(options.perf_domains, "shard-0");
    obs::MemDomainScope mem_domain(obs::MemDomain::kIstaTree);
    IstaPrefixTree mined = MineStream(stream, coded, options, lane);
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

}  // namespace fim
