#ifndef FIM_API_MINER_H_
#define FIM_API_MINER_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

/// All closed-set mining algorithms of the library.
enum class Algorithm {
  kIsta,            // cumulative intersection, prefix-tree repository (§3.2-3.3)
  kCarpenterLists,  // transaction-set enumeration, tid lists (§3.1.1)
  kCarpenterTable,  // transaction-set enumeration, matrix (§3.1.2)
  kFlatCumulative,  // cumulative intersection, flat repository (baseline)
  kFpClose,         // item set enumeration via FP-growth (baseline)
  kLcm,             // item set enumeration via closure extension (baseline)
  kCharm,           // item set enumeration via tidset properties (baseline)
  kTransposed,      // closed tid sets over the transpose, mapped back
                    // through the Galois bijection (Rioult et al. [17])
  kCobbler,         // Carpenter rows with column-enumeration switch-over
                    // (Pan et al., SSDBM'04)
};

/// Stable lower-case name ("ista", "carpenter-lists", ...).
const char* AlgorithmName(Algorithm algorithm);

/// Parses an algorithm name as produced by AlgorithmName.
Result<Algorithm> ParseAlgorithm(std::string_view name);

/// Every Algorithm value, in declaration order.
const std::vector<Algorithm>& AllAlgorithms();

/// Options of MineClosed. Fields that an algorithm does not use are
/// ignored (e.g. the orders for FP-close and LCM, whose recipes fix them;
/// see MineClosed).
struct MinerOptions {
  Algorithm algorithm = Algorithm::kIsta;

  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// §3.1.1/§3.2 item elimination for the intersection miners: drop the
  /// items below min_support up front, and prune IsTa's repository and
  /// Carpenter's and Cobbler's intersections. Never changes the output.
  bool item_elimination = true;

  /// §3.4 orders for the intersection miners.
  ItemOrder item_order = ItemOrder::kFrequencyAscending;
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// Threads of every algorithm's recoding (ApplyRecodingWeighted's chunks
  /// and RecodeTables' mapping); LCM also fans out first-level subtrees.
  /// The other miners mine on the calling thread. Output is identical to
  /// the sequential run for every thread count.
  unsigned num_threads = 1;

  /// IsTa: the repository is pruned when its node count exceeds this
  /// threshold (the threshold then doubles). Only with item_elimination.
  std::size_t prune_node_threshold = std::size_t{1} << 16;

  /// Cobbler: switch from row to column enumeration when the current
  /// intersection has at most `switch_max_items` items and at least
  /// `switch_min_rows` transactions remain. 0 disables the switch (pure
  /// Carpenter, which is how MineClosed runs kCarpenterLists).
  std::size_t switch_max_items = 24;
  std::size_t switch_min_rows = 8;

  /// Optional per-thread event timeline (obs/timeline.h): the driving
  /// thread records its phases on the timeline's driver lane and every
  /// worker thread (recoding chunks)
  /// registers its own lane, so a Chrome-trace export shows the real
  /// parallel schedule. Output-neutral like stats/trace. The timeline
  /// must outlive the call.
  obs::Timeline* timeline = nullptr;

  /// Optional per-domain attribution (obs/perf.h): IsTa's tree
  /// building records a PerfDomainSample (thread CPU and intersection
  /// steps). No tool sets it; fimbench reads it for its per-layer
  /// metrics. Output-neutral; must outlive the call.
  obs::PerfDomainCollector* perf_domains = nullptr;

  /// Optional memory attribution (obs/memory.h): every algorithm
  /// records the self-measured byte breakdown of its major structures
  /// (the weighted stream it mines, IsTa prefix trees, tid lists,
  /// Carpenter matrices, duplicate repositories) at the moments they are
  /// largest. Feeds the `memory` stats section. Output-neutral; must
  /// outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Mines the closed frequent item sets of `db` with the selected
/// algorithm. Every algorithm produces the identical output: each closed
/// frequent item set exactly once, items ascending by original id; the
/// empty set is never reported. InvalidArgument for min_support == 0.
///
/// The input stage is the same for every algorithm: item codes (§3.4)
/// with the infrequent items dropped (§3.2), then the transactions
/// mapped, folded into distinct weighted rows and ordered
/// (WeightedTransactions, data/recode.h). The algorithm's recipe fixes
/// the code order, whether items are dropped and the row order
/// (docs/ALGORITHMS.md); its core then mines the rows, and the sets it
/// reports are decoded back to the input item ids.
///
/// `stats` (optional) receives the uniform MinerStats snapshot — every
/// algorithm fills the fields of its family (see obs/miner_stats.h and
/// docs/OBSERVABILITY.md) plus weighted_transactions and sets_reported.
/// `trace` (optional) receives phase spans: a "mine" span with "recode"
/// (item codes) and "dedup" (mapping, folding and ordering the rows)
/// below it for every algorithm, and IsTa's "shard-mine" and "report"
/// after them. Instrumentation is output-neutral: the mined sets and
/// their order are bit-identical whether stats/trace are requested or
/// not, at every thread count.
Status MineClosed(const TransactionDatabase& db, const MinerOptions& options,
                  const ClosedSetCallback& callback,
                  MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

/// MineClosed over the transactions that tables of weighted input rows
/// stand for, each table folded under FoldFor of the recipe's row order
/// (data/recode.h): the panes of a stream miner, or the conditional rows
/// Cobbler hands to LCM. The item codes come from the weighted item
/// counts (ComputeRecoding over tables), and the rows from RecodeTables,
/// the stages of ApplyRecodingWeighted after its chunk prefold, so the
/// output equals MineClosed's over those transactions. Opens "recode"
/// and "dedup" below the caller's innermost span, and no "mine" span.
/// Item ids must be < `num_items` (InvalidArgument otherwise), and the
/// weights must sum to at most the Support limit (OutOfRange otherwise).
Status MineClosed(std::span<const WeightedTransactions* const> tables,
                  std::size_t num_items, const MinerOptions& options,
                  const ClosedSetCallback& callback,
                  MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

/// Convenience wrapper collecting the output in canonical order.
Result<std::vector<ClosedItemset>> MineClosedCollect(
    const TransactionDatabase& db, const MinerOptions& options,
    MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

}  // namespace fim

#endif  // FIM_API_MINER_H_
