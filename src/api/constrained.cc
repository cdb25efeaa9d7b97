#include "api/constrained.h"

#include <algorithm>

namespace fim {

Status MineClosedConstrained(const TransactionDatabase& db,
                             const MinerOptions& options,
                             const ItemConstraints& constraints,
                             const ClosedSetCallback& callback) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  std::vector<ItemId> required = constraints.must_contain;
  std::vector<ItemId> forbidden = constraints.must_not_contain;
  NormalizeItems(&required);
  NormalizeItems(&forbidden);
  if (!IntersectSorted(required, forbidden).empty()) {
    return Status::InvalidArgument(
        "an item cannot be both required and forbidden");
  }

  // Conditioning pass: keep the transactions containing every required
  // item; drop required and forbidden items from them.
  TransactionDatabase conditional;
  conditional.SetNumItems(db.NumItems());
  std::size_t cover = 0;
  std::vector<ItemId> reduced;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::span<const ItemId> t = db.Row(k);
    if (!IsSubsetSorted(required, t)) continue;
    ++cover;
    reduced.clear();
    for (ItemId i : t) {
      if (!std::binary_search(required.begin(), required.end(), i) &&
          !std::binary_search(forbidden.begin(), forbidden.end(), i)) {
        reduced.push_back(i);
      }
    }
    conditional.AddTransaction(reduced);
  }

  // The required set itself is closed in the conditional view iff no
  // item is shared by all matching transactions; the miners never report
  // the empty set, so handle it here when it is frequent. Its support is
  // the number of matching transactions; it is reported only when no
  // perfect extension exists (i.e. the conditional closure of the empty
  // set is empty).
  if (!required.empty() && cover >= options.min_support) {
    // R itself is closed in the constrained view iff no item occurs in
    // every matching transaction. A matching transaction that became
    // empty after removing R (and the forbidden items) is dropped from
    // `conditional`, so "covers everything" means frequency == cover AND
    // no transaction was dropped.
    bool has_perfect_extension = false;
    if (conditional.NumTransactions() == cover) {
      for (Support f : conditional.ItemFrequencies()) {
        if (f == cover) {
          has_perfect_extension = true;
          break;
        }
      }
    }
    if (!has_perfect_extension) {
      callback(required, static_cast<Support>(cover));
    }
  }

  if (conditional.NumTransactions() == 0) return Status::OK();

  // Mine the conditional database and prepend the required items.
  const ClosedSetCallback augmented =
      [&required, &callback](std::span<const ItemId> items, Support support) {
        std::vector<ItemId> full;
        full.reserve(items.size() + required.size());
        std::merge(items.begin(), items.end(), required.begin(),
                   required.end(), std::back_inserter(full));
        callback(full, support);
      };
  return MineClosed(conditional, options, augmented);
}

Result<std::vector<ClosedItemset>> MineClosedConstrainedCollect(
    const TransactionDatabase& db, const MinerOptions& options,
    const ItemConstraints& constraints) {
  ClosedSetCollector collector;
  Status status =
      MineClosedConstrained(db, options, constraints, collector.AsCallback());
  if (!status.ok()) return status;
  collector.SortCanonical();
  return collector.TakeSets();
}

}  // namespace fim
