#include "data/recode.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "obs/memory.h"
#include "obs/timeline.h"

namespace fim {

namespace {

Recoding RecodingFromFrequencies(const std::vector<Support>& freq,
                                 ItemOrder order, Support min_item_support) {
  const std::size_t n = freq.size();

  std::vector<ItemId> kept;
  kept.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (freq[i] >= min_item_support && freq[i] > 0) {
      kept.push_back(static_cast<ItemId>(i));
    }
  }

  switch (order) {
    case ItemOrder::kNone:
      break;
    case ItemOrder::kFrequencyAscending:
      std::stable_sort(kept.begin(), kept.end(), [&](ItemId a, ItemId b) {
        return freq[a] < freq[b];
      });
      break;
    case ItemOrder::kFrequencyDescending:
      std::stable_sort(kept.begin(), kept.end(), [&](ItemId a, ItemId b) {
        return freq[a] > freq[b];
      });
      break;
  }

  Recoding recoding;
  recoding.old_to_new.assign(n, kInvalidItem);
  recoding.new_to_old = std::move(kept);
  for (std::size_t code = 0; code < recoding.new_to_old.size(); ++code) {
    recoding.old_to_new[recoding.new_to_old[code]] =
        static_cast<ItemId>(code);
  }
  return recoding;
}

// Lexicographic comparison on the descending item sequence (items are
// stored ascending, so compare from the back).
bool DescendingLexLess(std::span<const ItemId> a, std::span<const ItemId> b) {
  auto ia = a.rbegin();
  auto ib = b.rbegin();
  for (; ia != a.rend() && ib != b.rend(); ++ia, ++ib) {
    if (*ia != *ib) return *ia < *ib;
  }
  return a.size() < b.size();
}

bool SizeAscendingLess(std::span<const ItemId> a, std::span<const ItemId> b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return DescendingLexLess(a, b);
}

bool SizeDescendingLess(std::span<const ItemId> a, std::span<const ItemId> b) {
  if (a.size() != b.size()) return a.size() > b.size();
  return DescendingLexLess(a, b);
}

// Maps transaction `t` through the recoding into `coded`: eliminated
// items dropped, codes ascending.
void MapRow(std::span<const ItemId> t, const Recoding& recoding,
            std::vector<ItemId>* coded) {
  coded->clear();
  for (ItemId i : t) {
    if (i < recoding.old_to_new.size() &&
        recoding.old_to_new[i] != kInvalidItem) {
      coded->push_back(recoding.old_to_new[i]);
    }
  }
  std::sort(coded->begin(), coded->end());
}

std::uint64_t HashRow(std::span<const ItemId> row) {
  std::uint64_t h = row.size();
  for (ItemId i : row) {
    h = (h + i) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;  // the probe uses the low bits
  }
  return h;
}

}  // namespace

Recoding ComputeRecoding(const TransactionDatabase& db, ItemOrder order,
                         Support min_item_support) {
  return RecodingFromFrequencies(db.ItemFrequencies(), order,
                                 min_item_support);
}

Recoding ComputeRecoding(std::span<const WeightedTransactions* const> tables,
                         std::size_t num_items, ItemOrder order,
                         Support min_item_support) {
  std::vector<Support> freq(num_items, 0);
  for (const WeightedTransactions* table : tables) {
    for (std::size_t r = 0; r < table->NumRows(); ++r) {
      for (ItemId i : table->Row(r)) freq[i] += table->weights[r];
    }
  }
  return RecodingFromFrequencies(freq, order, min_item_support);
}

TransactionDatabase ApplyRecoding(const TransactionDatabase& db,
                                  const Recoding& recoding,
                                  TransactionOrder transaction_order,
                                  unsigned num_threads,
                                  obs::Timeline* timeline) {
  const std::vector<WeightedTransactions> chunks =
      FoldRows(db, FoldFor(transaction_order), num_threads, timeline);
  std::vector<const WeightedTransactions*> tables;
  for (const WeightedTransactions& chunk : chunks) tables.push_back(&chunk);
  const WeightedTransactions rows =
      RecodeTables(tables, recoding, transaction_order);
  TransactionDatabase out;
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    const std::span<const ItemId> row = rows.Row(r);
    for (Support copy = 0; copy < rows.weights[r]; ++copy) {
      out.AddTransaction(row);
    }
  }
  out.SetNumItems(recoding.num_kept());
  return out;
}

Status CheckTables(std::span<const WeightedTransactions* const> tables,
                   std::size_t num_items) {
  constexpr std::uint64_t kLimit = std::numeric_limits<Support>::max();
  std::uint64_t total = 0;
  for (const WeightedTransactions* table : tables) {
    for (std::size_t r = 0; r < table->NumRows(); ++r) {
      const std::span<const ItemId> row = table->Row(r);
      // A row's last item is its largest.
      if (!row.empty() && row.back() >= num_items) {
        return Status::InvalidArgument(
            "item id " + std::to_string(row.back()) + " is not below " +
            std::to_string(num_items));
      }
      total += table->weights[r];
      if (total > kLimit) {
        return Status::OutOfRange("the rows weigh more than " +
                                  std::to_string(kLimit) +
                                  ", the most a support can count");
      }
    }
  }
  return Status::OK();
}

std::vector<std::vector<Tid>> WeightedTransactions::BuildVertical(
    std::size_t num_items) const {
  std::vector<std::vector<Tid>> tidlists(num_items);
  for (std::size_t r = 0; r < NumRows(); ++r) {
    for (ItemId i : Row(r)) tidlists[i].push_back(static_cast<Tid>(r));
  }
  return tidlists;
}

obs::MemoryComponent WeightedTransactions::ApproxMemoryUsage() const {
  obs::MemoryComponent stream("weighted-stream");
  stream.children.emplace_back("offsets",
                               offsets.capacity() * sizeof(offsets[0]));
  stream.children.emplace_back("items", items.capacity() * sizeof(ItemId));
  stream.children.emplace_back("weights",
                               weights.capacity() * sizeof(Support));
  return stream;
}

RowFold FoldFor(TransactionOrder transaction_order) {
  return transaction_order == TransactionOrder::kNone ? RowFold::kAdjacent
                                                      : RowFold::kHash;
}

void RowFolder::Add(std::span<const ItemId> row, Support weight) {
  Support* held = nullptr;
  if (fold_ == RowFold::kAdjacent && rows_.NumRows() > 0 &&
      std::ranges::equal(rows_.Row(rows_.NumRows() - 1), row)) {
    held = &rows_.weights.back();
  } else if (fold_ == RowFold::kHash) {
    held = FindOrIndex(row);
  }
  if (held != nullptr) {
    *held += weight;
  } else {
    rows_.AddRow(row, weight);
  }
}

obs::MemoryComponent RowFolder::ApproxMemoryUsage() const {
  obs::MemoryComponent folder("row-folder");
  folder.children.push_back(rows_.ApproxMemoryUsage());
  folder.children.emplace_back(
      "hash-index", hashes_.capacity() * sizeof(hashes_[0]) +
                        slots_.capacity() * sizeof(slots_[0]));
  return folder;
}

Support* RowFolder::FindOrIndex(std::span<const ItemId> row) {
  if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
  const std::uint64_t hash = HashRow(row);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const std::size_t slot = slots_[s];
    if (slot == 0) {
      slots_[s] = hashes_.size() + 1;
      hashes_.push_back(hash);
      return nullptr;
    }
    if (hashes_[slot - 1] == hash &&
        std::ranges::equal(rows_.Row(slot - 1), row)) {
      return &rows_.weights[slot - 1];
    }
  }
}

void RowFolder::Grow() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t r = 0; r < hashes_.size(); ++r) {
    std::size_t s = hashes_[r] & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = r + 1;
  }
}

std::vector<WeightedTransactions> FoldRows(const TransactionDatabase& db,
                                           RowFold fold, unsigned num_chunks,
                                           obs::Timeline* timeline) {
  const std::size_t n = db.NumTransactions();
  std::vector<WeightedTransactions> chunks(
      std::max<std::size_t>(std::min<std::size_t>(num_chunks, n), 1));
  auto fold_chunk = [&](std::size_t c) {
    const std::size_t begin = c * n / chunks.size();
    const std::size_t end = (c + 1) * n / chunks.size();
    RowFolder inputs(fold);
    for (std::size_t t = begin; t < end; ++t) inputs.Add(db.Row(t), 1);
    chunks[c] = inputs.Take();
  };
  if (chunks.size() == 1) {
    obs::TimelineScope scope(
        timeline != nullptr ? timeline->driver() : nullptr, "prefold");
    fold_chunk(0);
    return chunks;
  }
  {
    // jthreads join on every exit from this scope, a failed start too.
    std::vector<std::jthread> workers;
    workers.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      workers.emplace_back([&, c]() {
        obs::TimelineLane* lane =
            timeline != nullptr
                ? timeline->AddLane("recode-prefold-" + std::to_string(c))
                : nullptr;
        obs::TimelineScope scope(lane, "prefold-chunk");
        fold_chunk(c);
      });
    }
  }
  return chunks;
}

WeightedTransactions RecodeTables(
    std::span<const WeightedTransactions* const> tables,
    const Recoding& recoding, TransactionOrder transaction_order) {
  RowFolder folder(FoldFor(transaction_order));
  std::vector<ItemId> coded;
  for (const WeightedTransactions* table : tables) {
    for (std::size_t r = 0; r < table->NumRows(); ++r) {
      MapRow(table->Row(r), recoding, &coded);
      if (!coded.empty()) folder.Add(coded, table->weights[r]);
    }
  }
  WeightedTransactions rows = folder.Take();
  if (transaction_order == TransactionOrder::kNone) return rows;

  // Sorts the row indices, then copies the rows in that order. Rows the
  // comparator ties are equal (same size, same items), so an unstable
  // sort places them as a stable one would.
  const auto less = transaction_order == TransactionOrder::kSizeAscending
                        ? SizeAscendingLess
                        : SizeDescendingLess;
  std::vector<std::size_t> order(rows.NumRows());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return less(rows.Row(a), rows.Row(b));
  });
  WeightedTransactions sorted;
  sorted.offsets.reserve(rows.offsets.size());
  sorted.items.reserve(rows.items.size());
  sorted.weights.reserve(rows.NumRows());
  for (std::size_t r : order) sorted.AddRow(rows.Row(r), rows.weights[r]);
  return sorted;
}

}  // namespace fim
