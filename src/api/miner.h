#ifndef FIM_API_MINER_H_
#define FIM_API_MINER_H_

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

/// Unified options for MineClosed. Fields that an algorithm does not use
/// are ignored (e.g. transaction order for FP-close / LCM).
struct MinerOptions {
  Algorithm algorithm = Algorithm::kIsta;

  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// §3.1.1/§3.2 item elimination for the intersection miners.
  bool item_elimination = true;

  /// §3.4 orders for the intersection miners.
  ItemOrder item_order = ItemOrder::kFrequencyAscending;
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// Worker threads for the algorithms that use them (IsTa recodes and
  /// sorts its input in parallel and mines one repository; LCM fans out
  /// first-level subtrees). Other algorithms ignore it. Output is
  /// identical to the sequential run for every thread count.
  unsigned num_threads = 1;

  /// Optional per-thread event timeline (obs/timeline.h): the driving
  /// thread records its phases on the timeline's driver lane and every
  /// worker thread (recoding chunks)
  /// registers its own lane, so a Chrome-trace export shows the real
  /// parallel schedule. Output-neutral like stats/trace. The timeline
  /// must outlive the call.
  obs::Timeline* timeline = nullptr;

  /// Optional per-domain hardware-counter attribution (obs/perf.h):
  /// IsTa's tree building records a PerfDomainSample
  /// (thread CPU + intersection steps, plus PMU deltas when the
  /// collector has hardware counting enabled and the kernel allows
  /// it). Feeds the `perf.domains` stats section and the fim-prof
  /// work-inflation table. Output-neutral; must outlive the call.
  obs::PerfDomainCollector* perf_domains = nullptr;

  /// Optional memory attribution (obs/memory.h): every algorithm
  /// records the self-measured byte breakdown of its major structures
  /// (the weighted stream it mines, IsTa prefix trees, tid lists,
  /// Carpenter matrices, duplicate repositories) at the moments they are
  /// largest. Feeds the `memory` stats section, fim-prof --memory and
  /// the bench mem payloads. Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Mines the closed frequent item sets of `db` with the selected
/// algorithm. Every algorithm produces the identical output: each closed
/// frequent item set exactly once, items ascending by original id; the
/// empty set is never reported.
///
/// `stats` (optional) receives the uniform MinerStats snapshot — every
/// algorithm fills the fields of its family (see obs/miner_stats.h and
/// docs/OBSERVABILITY.md) plus sets_reported. `trace` (optional)
/// receives phase spans: a "mine" span for every algorithm, with IsTa's
/// internal phases (recode, dedup, shard-mine, report) nested
/// below it. Instrumentation is output-neutral: the mined sets and
/// their order are bit-identical whether stats/trace are requested or
/// not, at every thread count.
Status MineClosed(const TransactionDatabase& db, const MinerOptions& options,
                  const ClosedSetCallback& callback,
                  MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

/// Convenience wrapper collecting the output in canonical order.
Result<std::vector<ClosedItemset>> MineClosedCollect(
    const TransactionDatabase& db, const MinerOptions& options,
    MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

}  // namespace fim

#endif  // FIM_API_MINER_H_
