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

// Runs fn(c) for every chunk c < num_chunks: with at most one chunk on
// the calling thread, under the span `name` on the driver lane; otherwise
// on one thread per chunk, each recording span "<name>-chunk" on a lane
// "recode-<name>-<c>" of its own.
template <typename Fn>
void RunChunks(std::size_t num_chunks, obs::Timeline* timeline,
               const std::string& name, const Fn& fn) {
  if (num_chunks <= 1) {
    obs::TimelineScope scope(
        timeline != nullptr ? timeline->driver() : nullptr, name);
    if (num_chunks == 1) fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    workers.emplace_back([&, c]() {
      obs::TimelineLane* lane =
          timeline != nullptr
              ? timeline->AddLane("recode-" + name + "-" + std::to_string(c))
              : nullptr;
      obs::TimelineScope scope(lane, name + "-chunk");
      fn(c);
    });
  }
  for (auto& worker : workers) worker.join();
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
  const WeightedTransactions rows = ApplyRecodingWeighted(
      db, recoding, transaction_order, num_threads, timeline);
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
  RunChunks(chunks.size(), timeline, "prefold", [&](std::size_t c) {
    const std::size_t begin = c * n / chunks.size();
    const std::size_t end = (c + 1) * n / chunks.size();
    RowFolder inputs(fold);
    for (std::size_t t = begin; t < end; ++t) inputs.Add(db.Row(t), 1);
    chunks[c] = inputs.Take();
  });
  return chunks;
}

WeightedTransactions ApplyRecodingWeighted(const TransactionDatabase& db,
                                           const Recoding& recoding,
                                           TransactionOrder transaction_order,
                                           unsigned num_threads,
                                           obs::Timeline* timeline) {
  const std::vector<WeightedTransactions> chunks =
      FoldRows(db, FoldFor(transaction_order), num_threads, timeline);
  std::vector<const WeightedTransactions*> tables;
  for (const WeightedTransactions& chunk : chunks) tables.push_back(&chunk);
  return RecodeTables(tables, recoding, transaction_order, num_threads,
                      timeline);
}

WeightedTransactions RecodeTables(
    std::span<const WeightedTransactions* const> tables,
    const Recoding& recoding, TransactionOrder transaction_order,
    unsigned num_threads, obs::Timeline* timeline) {
  obs::TimelineLane* const lane =
      timeline != nullptr ? timeline->driver() : nullptr;
  const RowFold fold = FoldFor(transaction_order);
  std::vector<WeightedTransactions> mapped(tables.size());
  const std::size_t workers =
      std::min<std::size_t>(std::max(num_threads, 1u), tables.size());
  RunChunks(workers, timeline, "map", [&](std::size_t w) {
    std::vector<ItemId> coded;
    for (std::size_t t = w; t < tables.size(); t += workers) {
      const WeightedTransactions& table = *tables[t];
      RowFolder folder(fold);
      for (std::size_t r = 0; r < table.NumRows(); ++r) {
        MapRow(table.Row(r), recoding, &coded);
        if (!coded.empty()) folder.Add(coded, table.weights[r]);
      }
      mapped[t] = folder.Take();
    }
  });

  WeightedTransactions rows;
  if (mapped.size() == 1) {
    rows = std::move(mapped.front());
  } else {
    // In table order, so a run of equal rows that spans a table boundary
    // folds as in one pass over all the rows.
    obs::TimelineScope fold_scope(lane, "fold");
    RowFolder folder(fold);
    for (const WeightedTransactions& table : mapped) {
      for (std::size_t r = 0; r < table.NumRows(); ++r) {
        folder.Add(table.Row(r), table.weights[r]);
      }
    }
    rows = folder.Take();
  }
  if (transaction_order == TransactionOrder::kNone) return rows;

  // Sorts the row indices, then copies the rows in that order. Rows the
  // comparator ties are equal (same size, same items), so an unstable
  // sort places them as a stable one would.
  obs::TimelineScope sort_scope(lane, "sort");
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

std::vector<ItemId> DecodeItems(std::span<const ItemId> coded,
                                const Recoding& recoding) {
  std::vector<ItemId> out;
  out.reserve(coded.size());
  for (ItemId c : coded) out.push_back(recoding.new_to_old[c]);
  std::sort(out.begin(), out.end());
  return out;
}

ClosedSetCallback MakeDecodingCallback(const Recoding& recoding,
                                       ClosedSetCallback inner) {
  // The recoding is copied so the callback stays valid beyond the caller's
  // scope (miners may run asynchronously from the setup code).
  std::vector<ItemId> new_to_old = recoding.new_to_old;
  return [new_to_old = std::move(new_to_old),
          inner = std::move(inner)](std::span<const ItemId> items,
                                    Support support) {
    std::vector<ItemId> decoded;
    decoded.reserve(items.size());
    for (ItemId c : items) decoded.push_back(new_to_old[c]);
    std::sort(decoded.begin(), decoded.end());
    inner(decoded, support);
  };
}

}  // namespace fim
