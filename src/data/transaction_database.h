#ifndef FIM_DATA_TRANSACTION_DATABASE_H_
#define FIM_DATA_TRANSACTION_DATABASE_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/pod_vector.h"
#include "common/status.h"
#include "data/itemset.h"
#include "obs/memory.h"

namespace fim {

/// Horizontal transaction database: a bag of transactions, each a sorted,
/// duplicate-free run of item ids over the item base 0..NumItems()-1.
///
/// The rows live in one flat (CSR) table, the shape of
/// WeightedTransactions: transaction k holds the ids
/// items()[offsets()[k], offsets()[k + 1]), read as a span by Row(k).
/// Construction is incremental via AddTransaction(), or in place via
/// PushItem() and EndTransaction(); a row is sorted and deduplicated only
/// when it arrives out of order. Empty transactions are kept out (they
/// carry no information for closed item set mining; see paper §2.2 "no
/// empty transactions are ever kept").
class TransactionDatabase {
 public:
  TransactionDatabase() = default;

  /// Builds a database from raw transactions; items are normalized.
  /// `num_items` may be 0 to derive the item base from the data.
  static TransactionDatabase FromTransactions(
      const std::vector<std::vector<ItemId>>& transactions,
      std::size_t num_items = 0);

  /// Adds one transaction (sorted + deduplicated when out of order).
  /// Empty transactions are dropped. Grows the item base if needed.
  /// `items` must not view this database's own rows.
  void AddTransaction(std::span<const ItemId> items);
  void AddTransaction(std::initializer_list<ItemId> items) {
    AddTransaction(std::span(items.begin(), items.size()));
  }

  /// In-place building for loaders: PushItem() appends one id of the open
  /// row straight to the item array, and EndTransaction() closes the row
  /// as AddTransaction() would add it.
  void PushItem(ItemId item) { items_.push_back(item); }
  void EndTransaction();

  /// Gives back the arrays' capacity past the last row; the loaders call
  /// it once they are done.
  void ShrinkToFit() {
    items_.Truncate(offsets_.back());
    items_.ShrinkToFit();
    offsets_.ShrinkToFit();
  }

  /// Declares the item base size (useful when some items never occur).
  /// Never shrinks below the largest item seen.
  void SetNumItems(std::size_t num_items);

  /// Optional human-readable item names (for examples / reporting).
  /// Must have exactly NumItems() entries when set.
  Status SetItemNames(std::vector<std::string> names);
  const std::vector<std::string>& item_names() const { return item_names_; }

  /// Name of `item`, or its numeric id when no names are attached.
  std::string ItemName(ItemId item) const;

  std::size_t NumTransactions() const { return offsets_.size() - 1; }
  std::size_t NumItems() const { return num_items_; }

  /// Total number of item occurrences over all transactions.
  std::size_t TotalItemOccurrences() const { return offsets_.back(); }

  /// The ascending items of transaction k, a view into the item array
  /// that stays valid until the database changes.
  std::span<const ItemId> Row(std::size_t k) const {
    return {items_.data() + offsets_[k], offsets_[k + 1] - offsets_[k]};
  }

  /// The flat table: NumTransactions() + 1 offsets into the item array.
  const PodVector<std::size_t>& offsets() const { return offsets_; }
  const PodVector<ItemId>& items() const { return items_; }

  /// Copies of one row and of all rows. The library reads Row(k); these
  /// remain for callers that hold or compare rows as vectors.
  std::vector<ItemId> transaction(std::size_t k) const;
  std::vector<std::vector<ItemId>> transactions() const;

  /// Number of transactions containing each item.
  std::vector<Support> ItemFrequencies() const;

  /// Vertical representation: for each item, the ascending list of
  /// transaction indices containing it (the Carpenter representation).
  std::vector<std::vector<Tid>> BuildVertical() const;

  /// Support of an arbitrary (sorted) item set by direct counting.
  /// O(total database size); meant for tests and small inputs.
  Support CountSupport(std::span<const ItemId> items) const;

  /// Exact heap footprint (capacity bytes) as a breakdown named
  /// "database": the `offsets` and `items` arrays, plus the optional
  /// `item-names`.
  obs::MemoryComponent ApproxMemoryUsage() const;

 private:
  PodVector<std::size_t> offsets_{0};
  PodVector<ItemId> items_;  // ids past offsets_.back(): the open row
  std::vector<std::string> item_names_;
  std::size_t num_items_ = 0;
};

}  // namespace fim

#endif  // FIM_DATA_TRANSACTION_DATABASE_H_
