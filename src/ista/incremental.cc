#include "ista/incremental.h"

#include "stream/stream_miner.h"

namespace fim {

// One code path for online mining: the incremental miner is a thin
// wrapper over StreamMiner's landmark mode (src/stream/). Every query
// reports the closed sets over everything seen so far, and queries are
// safe against concurrent ingest.
struct IncrementalClosedSetMiner::Impl {
  explicit Impl(std::size_t num_items) : miner(MakeOptions(num_items)) {}

  static StreamMinerOptions MakeOptions(std::size_t num_items) {
    StreamMinerOptions options;
    options.max_items = num_items;
    return options;  // pane_size == window_panes == 0: landmark mode
  }

  StreamMiner miner;
};

IncrementalClosedSetMiner::IncrementalClosedSetMiner(std::size_t max_items)
    : impl_(new Impl(max_items)) {}

IncrementalClosedSetMiner::~IncrementalClosedSetMiner() { delete impl_; }

Status IncrementalClosedSetMiner::AddTransaction(std::vector<ItemId> items) {
  return impl_->miner.AddTransaction(std::move(items));
}

std::size_t IncrementalClosedSetMiner::NumTransactions() const {
  return static_cast<std::size_t>(impl_->miner.NumTransactions());
}

Status IncrementalClosedSetMiner::Query(
    Support min_support, const ClosedSetCallback& callback) const {
  return impl_->miner.Query(min_support, callback);
}

Result<std::vector<ClosedItemset>> IncrementalClosedSetMiner::QueryCollect(
    Support min_support) const {
  return impl_->miner.QueryCollect(min_support);
}

std::size_t IncrementalClosedSetMiner::NodeCount() const {
  return impl_->miner.NodeCount();
}

}  // namespace fim
