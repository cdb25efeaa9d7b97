#ifndef FIM_CARPENTER_ROW_BITSETS_H_
#define FIM_CARPENTER_ROW_BITSETS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/itemset.h"
#include "data/recode.h"

namespace fim {

/// The duplicate check of row enumeration (Carpenter table and Carpenter
/// lists), as the canonicity test of CbO with rows in place
/// of items. It holds, per item, a bitset of the distinct rows that
/// contain it, and the cover of the current node: the rows it chose and
/// absorbed along its path. Every row below the enumeration position
/// that contains the node's items is in its cover, so a child C opened
/// at row j is new exactly when no row before j outside the cover
/// contains C; otherwise an earlier branch owns C. Each closed set has
/// one canonical row path, so no set is stored.
///
/// The item columns never change once built, so a copy shares them and
/// gets a cover of its own: threads that walk disjoint subtrees each
/// hold a copy.
class RowBitsets {
 public:
  RowBitsets(const WeightedTransactions& rows, std::size_t num_items);

  /// Adds row j to the cover (an absorbed row, or the row a child opens).
  void Cover(Tid j) { cover_[j >> 6] |= uint64_t{1} << (j & 63); }

  /// Removes rows j and after from the cover: a node calls it when the
  /// child it opened at row j returns.
  void UncoverFrom(Tid j);

  /// True when no row before j outside the cover contains every item of
  /// `items`. Scans from the word that holds row j - 1 down to word 0 and
  /// stops at the first witness: under the size-ascending row order the
  /// nearer rows are the larger ones.
  bool IsCanonical(std::span<const ItemId> items, Tid j) const;

  /// Capacity bytes of the item columns and the cover.
  std::size_t Bytes() const {
    return (columns_->capacity() + cover_.capacity()) * sizeof(uint64_t);
  }

 private:
  std::size_t words_;  // ⌈rows / 64⌉
  // Item i: [i * words_, (i + 1) * words_).
  std::shared_ptr<const std::vector<uint64_t>> columns_;
  std::vector<uint64_t> cover_;
};

}  // namespace fim

#endif  // FIM_CARPENTER_ROW_BITSETS_H_
