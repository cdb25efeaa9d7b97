#include "verify/galois.h"

namespace fim {

std::vector<Tid> CoverOf(const TransactionDatabase& db,
                         std::span<const ItemId> items) {
  std::vector<Tid> cover;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    if (IsSubsetSorted(items, db.Row(k))) {
      cover.push_back(static_cast<Tid>(k));
    }
  }
  return cover;
}

std::vector<ItemId> IntersectionOf(const TransactionDatabase& db,
                                   std::span<const Tid> tids) {
  if (tids.empty()) {
    std::vector<ItemId> all(db.NumItems());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<ItemId>(i);
    }
    return all;
  }
  const std::span<const ItemId> first = db.Row(tids.front());
  std::vector<ItemId> inter(first.begin(), first.end());
  for (std::size_t k = 1; k < tids.size() && !inter.empty(); ++k) {
    inter = IntersectSorted(inter, db.Row(tids[k]));
  }
  return inter;
}

std::vector<ItemId> ItemClosure(const TransactionDatabase& db,
                                std::span<const ItemId> items) {
  return IntersectionOf(db, CoverOf(db, items));
}

std::vector<Tid> TidClosure(const TransactionDatabase& db,
                            std::span<const Tid> tids) {
  return CoverOf(db, IntersectionOf(db, tids));
}

}  // namespace fim
