#ifndef FIM_ISTA_ISTA_H_
#define FIM_ISTA_ISTA_H_

#include <cstddef>
#include <span>

#include "common/status.h"
#include "data/itemset.h"
#include "data/recode.h"
#include "data/transaction_database.h"
#include "obs/miner_stats.h"
#include "obs/trace.h"

namespace fim {

namespace obs {
class MemoryBreakdown;
class PerfDomainCollector;
class Timeline;
}  // namespace obs

/// Options of the IsTa miner (cumulative transaction intersection with a
/// prefix-tree repository, paper §3.2-§3.4).
struct IstaOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Item code assignment; the paper found ascending frequency fastest.
  ItemOrder item_order = ItemOrder::kFrequencyAscending;

  /// Transaction processing order; the paper found increasing size
  /// fastest.
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// Item elimination (paper §3.2): drop globally infrequent items up
  /// front and periodically remove items that can no longer reach the
  /// minimum support from the repository. Never changes the output.
  bool item_elimination = true;

  /// Tree pruning is triggered when the node count exceeds this threshold
  /// (the threshold then doubles). Only relevant with item_elimination.
  std::size_t prune_node_threshold = std::size_t{1} << 16;

  /// Threads of the chunked recoding and duplicate merging
  /// (data/recode.h). Mining itself always builds one repository on the
  /// calling thread, so the output — including its order — and every
  /// intersection counter are identical for every thread count.
  unsigned num_threads = 1;

  /// Optional per-thread event timeline (obs/timeline.h). The driving
  /// thread records the phase events and prunes on the driver lane; the
  /// recoding chunks register their own lanes. Output-neutral; must
  /// outlive the call.
  obs::Timeline* timeline = nullptr;

  /// Optional hardware-counter attribution (obs/perf.h): the mining of
  /// the repository measures itself in one PerfDomainScope named
  /// "shard-0", attributing its intersection steps (work_steps), thread
  /// CPU and — when the collector enables hardware and the kernel allows
  /// it — PMU deltas. This is what the fim-prof table renders.
  /// Output-neutral; must outlive the call.
  obs::PerfDomainCollector* perf_domains = nullptr;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// stream (the flat table of distinct recoded rows), the
  /// remaining-occurrence table and the prefix tree before the report.
  /// Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

// Execution statistics (optional output of MineClosedIsta): the unified
// MinerStats snapshot (obs/miner_stats.h) under its historical name. The
// populated fields are isect_steps, peak_nodes, final_nodes, prune_calls,
// weighted_transactions, and sets_reported.

/// Mines all closed frequent item sets of `db` with the IsTa algorithm
/// and reports each exactly once through `callback` (items in ascending
/// original ids). The empty set is never reported. Returns
/// InvalidArgument for min_support == 0.
///
/// `stats` (optional) receives the execution statistics; `trace`
/// (optional) receives the phase spans `recode` (item codes), `dedup`
/// (mapping, merging and ordering the rows), `shard-mine`, and `report`.
/// Both are output-neutral: the mining result is bit-identical whether
/// they are requested or not.
Status MineClosedIsta(const TransactionDatabase& db, const IstaOptions& options,
                      const ClosedSetCallback& callback,
                      IstaStats* stats = nullptr,
                      obs::Trace* trace = nullptr);

/// MineClosedIsta over transactions held as tables of weighted input rows
/// in stream order, each folded under FoldFor(options.transaction_order)
/// (data/recode.h), such as the panes of a stream miner. Item ids must
/// be < `num_items` (InvalidArgument otherwise), and the weights must sum
/// to at most the Support limit (OutOfRange otherwise). The item codes
/// come from the weighted item counts; then the stages after
/// ApplyRecodingWeighted's chunk prefold run (RecodeTables), and the
/// mining and the report. So the output, its order included, equals
/// MineClosedIsta's over the transactions the tables stand for.
Status MineClosedIsta(std::span<const WeightedTransactions* const> tables,
                      std::size_t num_items, const IstaOptions& options,
                      const ClosedSetCallback& callback,
                      IstaStats* stats = nullptr,
                      obs::Trace* trace = nullptr);

}  // namespace fim

#endif  // FIM_ISTA_ISTA_H_
