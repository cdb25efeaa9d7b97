#ifndef FIM_STREAM_STREAM_MINER_H_
#define FIM_STREAM_STREAM_MINER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "data/itemset.h"
#include "data/recode.h"

namespace fim {

namespace obs {
class Timeline;
class TimelineLane;
class Trace;
}  // namespace obs

/// Configuration of a StreamMiner. Two modes:
///
///  * **Landmark** (`pane_size == 0 && window_panes == 0`): every snapshot
///    covers the whole stream since the start (or the restored
///    checkpoint).
///
///  * **Pane-based sliding window** (`pane_size > 0 && window_panes > 0`):
///    the stream is chunked into tumbling panes of `pane_size`
///    transactions. A snapshot covers the currently filling pane plus
///    the `window_panes - 1` most recent complete panes — between
///    `(window_panes - 1) * pane_size` and
///    `window_panes * pane_size - 1` transactions as the pane fills.
///    Expiring a pane simply drops its rows, and every snapshot is exact.
struct StreamMinerOptions {
  /// Capacity of the item universe; every ingested item id must be below
  /// it. Must be > 0. It bounds ingest only: a query sizes its item
  /// tables to 1 + the largest item the covered rows hold.
  std::size_t max_items = 0;

  /// Transactions per tumbling pane; 0 selects landmark mode.
  std::size_t pane_size = 0;

  /// Number of live panes a snapshot covers; 0 selects landmark mode.
  /// Must be > 0 exactly when pane_size > 0.
  std::size_t window_panes = 0;

  /// Optional aggregated phase trace (obs/trace.h): rotate / query
  /// (query-freeze, then IsTa's recode, dedup, shard-mine and report) /
  /// checkpoint spans. Thread contract: obs::Trace is thread-confined,
  /// so only set this when a single thread performs every miner call
  /// (the fim-stream driver does). Output-neutral; must outlive the
  /// miner.
  obs::Trace* trace = nullptr;

  /// Optional event timeline (obs/timeline.h): the same phases as
  /// begin/end events plus "seal" instants on the timeline's driver
  /// lane. Same single-caller-thread contract as `trace` (each
  /// TimelineLane is single-writer). Output-neutral; must outlive the
  /// miner.
  obs::Timeline* timeline = nullptr;
};

/// Snapshot of a StreamMiner's execution counters (all cumulative since
/// construction or checkpoint restore, except the two gauges).
struct StreamStats {
  std::uint64_t transactions_ingested = 0;  // raw AddTransaction calls
  std::uint64_t weighted_additions = 0;     // rows the panes started
  std::uint64_t panes_rotated = 0;          // completed tumbling panes
  std::uint64_t panes_expired = 0;          // panes dropped out of the window
  std::uint64_t queries = 0;                // snapshot queries answered
  std::uint64_t snapshot_merges = 0;        // always 0; fimbench reads it
  std::uint64_t segments_compacted = 0;     // always 0; fimbench reads it
  std::uint64_t checkpoint_bytes_written = 0;
  std::uint64_t checkpoint_bytes_read = 0;
  std::uint64_t live_panes = 0;             // gauge: panes holding rows
  std::uint64_t repository_nodes = 0;       // gauge: NodeCount()
};

/// Continuous closed-item-set mining over a transaction stream. The state
/// is the covered transactions themselves, folded per pane into distinct
/// rows with weights (a RowFolder, data/recode.h); landmark mode has one
/// pane that never completes.
///
///  * `AddTransaction` adds the transaction to the filling pane: a row
///    equal to one the pane holds only adds weight. When a pane
///    completes it becomes immutable and shared; panes that leave the
///    window are dropped.
///  * `Query` takes the covered panes under the lock — pointers to the
///    completed panes and a copy of the filling pane's rows — and mines
///    them outside the lock with IsTa at the query's `min_support`
///    (MineClosed over tables, api/miner.h). Mining at query time is
///    what lets item elimination (paper §3.2) drop every item below the
///    query's support, which no repository kept across queries could do.
///
/// Thread-safety: any number of threads may call any method
/// concurrently. Completed panes are immutable and shared by
/// `shared_ptr`, so queries and checkpoints read them without
/// synchronization while ingest proceeds into the filling pane.
class StreamMiner {
 public:
  /// Checks the option invariants (max_items > 0; pane_size and
  /// window_panes both zero or both positive) with FIM_CHECK.
  explicit StreamMiner(const StreamMinerOptions& options);

  StreamMiner(const StreamMiner&) = delete;
  StreamMiner& operator=(const StreamMiner&) = delete;

  /// Ingests one transaction (any order, duplicates allowed; normalized
  /// internally). InvalidArgument if empty after normalization;
  /// OutOfRange if an item id reaches max_items, or if the transactions
  /// a query covers would then outnumber the Support limit (the miner is
  /// unchanged then).
  Status AddTransaction(std::vector<ItemId> items) FIM_EXCLUDES(mutex_);

  /// Reports the closed item sets with support >= min_support (>= 1)
  /// over the current landmark history or window, items ascending. The
  /// snapshot is exact: identical to batch-mining the covered
  /// transaction multiset. Safe to call while other threads ingest; the
  /// mining and the callback run without any lock held.
  Status Query(Support min_support, const ClosedSetCallback& callback)
      FIM_EXCLUDES(mutex_);

  /// Convenience: collect the current snapshot in canonical order.
  Result<std::vector<ClosedItemset>> QueryCollect(Support min_support);

  /// Serializes the full miner state (every live pane's rows and
  /// weights, the stream position, the counters) as one `fim-stream-v2`
  /// checkpoint, so a later Restore continues the stream with output
  /// bit-identical to an uninterrupted run. Ingest may proceed
  /// concurrently: the state is copied under the lock (the filling
  /// pane's rows, pointers to the completed panes), then written outside
  /// it.
  Status Checkpoint(const std::string& path) FIM_EXCLUDES(mutex_);
  Status CheckpointTo(std::ostream& out) FIM_EXCLUDES(mutex_);

  /// Reconstructs a miner from a checkpoint. Corrupted or truncated
  /// input yields a clean InvalidArgument (every pane's rows and weights
  /// are checked against the header). `trace` and `timeline` play the
  /// role of the corresponding StreamMinerOptions fields for the
  /// restored miner (same contracts).
  static Result<std::unique_ptr<StreamMiner>> Restore(
      const std::string& path, obs::Trace* trace = nullptr,
      obs::Timeline* timeline = nullptr);
  static Result<std::unique_ptr<StreamMiner>> RestoreFrom(
      std::istream& in, obs::Trace* trace = nullptr,
      obs::Timeline* timeline = nullptr);

  /// Raw transactions ingested so far (including before a checkpoint
  /// restore; duplicates counted individually).
  std::uint64_t NumTransactions() const FIM_EXCLUDES(mutex_);

  /// Index of the currently filling pane (== NumTransactions() /
  /// pane_size in window mode; always 0 in landmark mode).
  std::uint64_t CurrentPaneIndex() const FIM_EXCLUDES(mutex_);

  /// Distinct rows held across the live panes (memory diagnostics). It
  /// never shrinks in landmark mode; in window mode it drops when a pane
  /// expires.
  std::size_t NodeCount() const FIM_EXCLUDES(mutex_);

  /// Current counter snapshot.
  StreamStats Stats() const FIM_EXCLUDES(mutex_);

  /// Heap footprint as a breakdown named "stream": one child per
  /// completed pane ("pane-<index>"), the filling pane with its hash
  /// index ("filling-pane") and the pane list. Safe to call while other
  /// threads ingest.
  obs::MemoryComponent ApproxMemoryUsage() const FIM_EXCLUDES(mutex_);

  const StreamMinerOptions& options() const { return options_; }

 private:
  using Pane = std::shared_ptr<const WeightedTransactions>;

  /// The covered panes and the counters, copied out under the lock.
  struct FrozenState {
    std::vector<Pane> completed;   // oldest first
    WeightedTransactions filling;  // a copy of the filling pane's rows
    std::uint64_t ingested = 0;
    std::uint64_t fill = 0;
    std::uint64_t current_pane = 0;
    StreamStats counters;
  };

  /// Completes the filling pane: makes it immutable, starts a new one,
  /// advances the pane index and drops the pane that left the window.
  void RotateLocked() FIM_REQUIRES(mutex_);

  /// Copies the checkpoint/query state out.
  FrozenState FreezeLocked() const FIM_REQUIRES(mutex_);

  /// Transactions the live panes hold: what a query covers.
  std::uint64_t CoveredLocked() const FIM_REQUIRES(mutex_);

  const StreamMinerOptions options_;

  /// Driver lane of options_.timeline (nullptr without one); only the
  /// single confined caller thread records on it.
  obs::TimelineLane* lane_ = nullptr;

  mutable Mutex mutex_{LockRank::kStreamMiner, "StreamMiner"};
  // Completed live panes, oldest first (always empty in landmark mode).
  // The vector is guarded; the panes behind the shared_ptrs are
  // immutable and read lock-free.
  std::vector<Pane> completed_ FIM_GUARDED_BY(mutex_);
  RowFolder filling_ FIM_GUARDED_BY(mutex_) = RowFolder(RowFold::kHash);
  std::uint64_t ingested_ FIM_GUARDED_BY(mutex_) = 0;
  // Transactions in the filling pane / index of the filling pane (window
  // mode only).
  std::uint64_t fill_ FIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t current_pane_ FIM_GUARDED_BY(mutex_) = 0;
  StreamStats counters_ FIM_GUARDED_BY(mutex_);
};

}  // namespace fim

#endif  // FIM_STREAM_STREAM_MINER_H_
