#ifndef FIM_ISTA_INCREMENTAL_H_
#define FIM_ISTA_INCREMENTAL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "data/transaction_database.h"

namespace fim {

/// Online/streaming closed item set mining: transactions arrive one at a
/// time and the current closed sets (over everything seen so far) can be
/// queried at any point.
///
/// The miner keeps the transactions seen so far, folded into distinct
/// rows with weights, and each query mines them with IsTa at its own
/// `min_support` (StreamMiner's landmark mode, stream/stream_miner.h).
/// Memory therefore grows with the number of distinct transactions seen.
class IncrementalClosedSetMiner {
 public:
  /// `max_items` is the capacity of the item universe (ids must stay
  /// below it).
  explicit IncrementalClosedSetMiner(std::size_t max_items);
  ~IncrementalClosedSetMiner();

  IncrementalClosedSetMiner(const IncrementalClosedSetMiner&) = delete;
  IncrementalClosedSetMiner& operator=(const IncrementalClosedSetMiner&) =
      delete;

  /// Feeds one transaction (any order, duplicates allowed; normalized
  /// internally). Returns InvalidArgument if an item id is out of range
  /// or the transaction is empty after normalization.
  Status AddTransaction(std::vector<ItemId> items);

  /// Number of transactions fed so far.
  std::size_t NumTransactions() const;

  /// Reports the closed item sets with support >= min_support over all
  /// transactions seen so far (items ascending). min_support must be
  /// >= 1.
  Status Query(Support min_support, const ClosedSetCallback& callback) const;

  /// Convenience: collect the current closed sets in canonical order.
  Result<std::vector<ClosedItemset>> QueryCollect(Support min_support) const;

  /// Distinct transactions held (memory diagnostics).
  std::size_t NodeCount() const;

 private:
  struct Impl;
  Impl* impl_;  // plain pointer: keeps the header light, dtor defined in .cc
};

}  // namespace fim

#endif  // FIM_ISTA_INCREMENTAL_H_
