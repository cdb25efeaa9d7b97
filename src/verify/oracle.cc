#include "verify/oracle.h"

#include <algorithm>
#include <bit>
#include <map>

namespace fim {

Result<std::vector<ClosedItemset>> OracleClosedSets(
    const TransactionDatabase& db, Support min_support) {
  if (min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  const std::size_t n = db.NumTransactions();
  if (n > kOracleMaxTransactions) {
    return Status::InvalidArgument(
        "oracle supports at most " + std::to_string(kOracleMaxTransactions) +
        " transactions");
  }

  // inter[mask] = intersection of the transactions selected by mask,
  // built incrementally from the mask without its lowest bit.
  const std::size_t num_masks = std::size_t{1} << n;
  std::vector<std::vector<ItemId>> inter(num_masks);
  std::map<std::vector<ItemId>, Support> closed;
  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    const int low = std::countr_zero(mask);
    const std::size_t rest = mask & (mask - 1);
    const std::span<const ItemId> t = db.Row(static_cast<std::size_t>(low));
    if (rest == 0) {
      inter[mask].assign(t.begin(), t.end());
    } else {
      if (inter[rest].empty()) continue;  // intersection already empty
      inter[mask] = IntersectSorted(inter[rest], t);
    }
    if (!inter[mask].empty()) closed.emplace(inter[mask], 0);
  }

  std::vector<ClosedItemset> result;
  for (auto& [items, support] : closed) {
    support = db.CountSupport(items);
    if (support >= min_support) {
      result.push_back(ClosedItemset{items, support});
    }
  }
  std::sort(result.begin(), result.end(), ClosedItemsetLess);
  return result;
}

}  // namespace fim
