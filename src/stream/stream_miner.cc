#include "stream/stream_miner.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "api/miner.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/memory.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fim {

StreamMiner::StreamMiner(const StreamMinerOptions& options)
    : options_(options) {
  FIM_CHECK(options_.max_items > 0) << "StreamMiner needs an item universe";
  FIM_CHECK((options_.pane_size == 0) == (options_.window_panes == 0))
      << "pane_size and window_panes select the mode together: both 0 "
         "(landmark) or both > 0 (sliding window), got pane_size "
      << options_.pane_size << ", window_panes " << options_.window_panes;
  if (options_.timeline != nullptr) lane_ = options_.timeline->driver();
}

Status StreamMiner::AddTransaction(std::vector<ItemId> items) {
  NormalizeItems(&items);
  if (items.empty()) {
    return Status::InvalidArgument("empty transaction");
  }
  if (items.back() >= options_.max_items) {
    return Status::OutOfRange("item id " + std::to_string(items.back()) +
                              " exceeds the miner's item capacity");
  }
  const MutexLock lock(mutex_);
  // Every weight, support and item count of a query is at most the
  // number of transactions it covers, counted after the pane this
  // transaction completes has pushed the oldest one out of the window.
  const bool completes =
      options_.pane_size > 0 && fill_ + 1 == options_.pane_size;
  const bool expires =
      completes && completed_.size() + 1 >= options_.window_panes;
  constexpr std::uint64_t kLimit = std::numeric_limits<Support>::max();
  if (CoveredLocked() + 1 - (expires ? options_.pane_size : 0) > kLimit) {
    return Status::OutOfRange("a query would cover more than " +
                              std::to_string(kLimit) +
                              " transactions, the most a support can count");
  }
  const std::size_t rows = filling_.rows().NumRows();
  filling_.Add(items, 1);
  if (filling_.rows().NumRows() > rows) ++counters_.weighted_additions;
  ++ingested_;
  ++counters_.transactions_ingested;
  if (completes) {
    obs::Phase rotate_phase(options_.trace, lane_, "rotate");
    RotateLocked();
  } else if (options_.pane_size > 0) {
    ++fill_;
  }
  return Status::OK();
}

void StreamMiner::RotateLocked() {
  completed_.push_back(
      std::make_shared<const WeightedTransactions>(filling_.Take()));
  filling_ = RowFolder(RowFold::kHash);
  fill_ = 0;
  ++current_pane_;
  ++counters_.panes_rotated;
  if (lane_ != nullptr) {
    lane_->Instant("seal");
    // Heap step of the rotation: the bytes that just became immutable.
    // Renders as a counter track on the driver lane.
    lane_->Counter("mem.sealed_mib",
                   BytesToMib(completed_.back()->ApproxMemoryUsage()
                                  .TotalBytes()));
  }
  // The window holds window_panes - 1 completed panes beside the filling
  // one; dropping the oldest is the entire deletion story.
  if (completed_.size() >= options_.window_panes) {
    completed_.erase(completed_.begin());
    ++counters_.panes_expired;
  }
}

Status StreamMiner::Query(Support min_support,
                          const ClosedSetCallback& callback) {
  if (min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  obs::Phase query_phase(options_.trace, lane_, "query");
  FrozenState frozen;
  {
    obs::Phase freeze_phase(options_.trace, lane_, "query-freeze");
    const MutexLock lock(mutex_);
    ++counters_.queries;
    frozen = FreezeLocked();
  }
  // Mined outside the lock: the completed panes are immutable and the
  // filling pane is a private copy. Ingest continues meanwhile.
  std::vector<const WeightedTransactions*> tables;
  tables.reserve(frozen.completed.size() + 1);
  for (const Pane& pane : frozen.completed) tables.push_back(pane.get());
  tables.push_back(&frozen.filling);
  // The query's item tables span the items the panes hold, not the
  // ingest bound: a row's last item is its largest, and no pane row is
  // empty.
  std::size_t num_items = 0;
  for (const WeightedTransactions* table : tables) {
    for (std::size_t r = 0; r < table->NumRows(); ++r) {
      num_items = std::max<std::size_t>(num_items, table->Row(r).back() + 1);
    }
  }
  MinerOptions options;
  options.min_support = min_support;
  options.timeline = options_.timeline;
  return MineClosed(tables, num_items, options, callback,
                    /*stats=*/nullptr, options_.trace);
}

Result<std::vector<ClosedItemset>> StreamMiner::QueryCollect(
    Support min_support) {
  ClosedSetCollector collector;
  Status status = Query(min_support, collector.AsCallback());
  if (!status.ok()) return status;
  collector.SortCanonical();
  return collector.TakeSets();
}

std::uint64_t StreamMiner::NumTransactions() const {
  const MutexLock lock(mutex_);
  return ingested_;
}

std::uint64_t StreamMiner::CurrentPaneIndex() const {
  const MutexLock lock(mutex_);
  return current_pane_;
}

std::size_t StreamMiner::NodeCount() const {
  return static_cast<std::size_t>(Stats().repository_nodes);
}

StreamStats StreamMiner::Stats() const {
  const MutexLock lock(mutex_);
  StreamStats stats = counters_;
  stats.live_panes =
      completed_.size() + (filling_.rows().NumRows() > 0 ? 1 : 0);
  stats.repository_nodes = filling_.rows().NumRows();
  for (const Pane& pane : completed_) stats.repository_nodes += pane->NumRows();
  return stats;
}

obs::MemoryComponent StreamMiner::ApproxMemoryUsage() const {
  const MutexLock lock(mutex_);
  obs::MemoryComponent stream("stream");
  const std::uint64_t first_pane = current_pane_ - completed_.size();
  for (std::size_t k = 0; k < completed_.size(); ++k) {
    obs::MemoryComponent pane = completed_[k]->ApproxMemoryUsage();
    pane.name = "pane-" + std::to_string(first_pane + k);
    stream.children.push_back(std::move(pane));
  }
  obs::MemoryComponent filling = filling_.ApproxMemoryUsage();
  filling.name = "filling-pane";
  stream.children.push_back(std::move(filling));
  stream.children.emplace_back("pane-list",
                               completed_.capacity() * sizeof(Pane));
  return stream;
}

std::uint64_t StreamMiner::CoveredLocked() const {
  return options_.pane_size == 0
             ? ingested_
             : completed_.size() * options_.pane_size + fill_;
}

StreamMiner::FrozenState StreamMiner::FreezeLocked() const {
  FrozenState frozen;
  frozen.completed = completed_;
  frozen.filling = filling_.rows();
  frozen.ingested = ingested_;
  frozen.fill = fill_;
  frozen.current_pane = current_pane_;
  frozen.counters = counters_;
  return frozen;
}

}  // namespace fim
