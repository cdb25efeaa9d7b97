#include "verify/closedness.h"

namespace fim {

std::vector<ItemId> Closure(const TransactionDatabase& db,
                            std::span<const ItemId> items) {
  std::vector<ItemId> closure;
  bool first = true;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::span<const ItemId> t = db.Row(k);
    if (!IsSubsetSorted(items, t)) continue;
    if (first) {
      closure.assign(t.begin(), t.end());
      first = false;
    } else {
      closure = IntersectSorted(closure, t);
    }
  }
  return closure;
}

Status VerifyClosedSets(const TransactionDatabase& db,
                        const std::vector<ClosedItemset>& sets,
                        Support min_support) {
  for (const auto& set : sets) {
    if (set.items.empty()) {
      return Status::Internal("reported the empty set");
    }
    const Support actual = db.CountSupport(set.items);
    if (actual != set.support) {
      return Status::Internal("support mismatch for " +
                              ItemsToString(set.items) + ": reported " +
                              std::to_string(set.support) + ", actual " +
                              std::to_string(actual));
    }
    if (actual < min_support) {
      return Status::Internal("infrequent set reported: " +
                              ItemsToString(set.items));
    }
    const std::vector<ItemId> closure = Closure(db, set.items);
    if (closure != set.items) {
      return Status::Internal("non-closed set reported: " +
                              ItemsToString(set.items) + ", closure " +
                              ItemsToString(closure));
    }
  }
  return Status::OK();
}

}  // namespace fim
