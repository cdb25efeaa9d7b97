#include "carpenter/row_bitsets.h"

#include <algorithm>
#include <utility>

namespace fim {

RowBitsets::RowBitsets(const WeightedTransactions& rows,
                       std::size_t num_items)
    : words_((rows.NumRows() + 63) / 64), cover_(words_, 0) {
  auto columns = std::make_shared<std::vector<uint64_t>>(num_items * words_, 0);
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    const uint64_t bit = uint64_t{1} << (r & 63);
    for (ItemId i : rows.Row(r)) (*columns)[i * words_ + (r >> 6)] |= bit;
  }
  columns_ = std::move(columns);
}

void RowBitsets::UncoverFrom(Tid j) {
  const std::size_t w = j >> 6;
  if (w >= words_) return;
  cover_[w] &= (uint64_t{1} << (j & 63)) - 1;
  std::fill(cover_.begin() + static_cast<std::ptrdiff_t>(w) + 1, cover_.end(),
            0);
}

bool RowBitsets::IsCanonical(std::span<const ItemId> items, Tid j) const {
  if (j == 0) return true;
  std::size_t w = (j - 1) >> 6;
  // Rows before j in word w: bits 0 .. (j - 1) mod 64.
  uint64_t before = ~uint64_t{0} >> (63 - ((j - 1) & 63));
  const uint64_t* const columns = columns_->data();
  for (;;) {
    uint64_t witnesses = before & ~cover_[w];
    for (ItemId i : items) {
      if (witnesses == 0) break;
      witnesses &= columns[i * words_ + w];
    }
    if (witnesses != 0) return false;
    if (w == 0) return true;
    --w;
    before = ~uint64_t{0};
  }
}

}  // namespace fim
