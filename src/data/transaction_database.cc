#include "data/transaction_database.h"

#include <algorithm>
#include <functional>

namespace fim {

TransactionDatabase TransactionDatabase::FromTransactions(
    const std::vector<std::vector<ItemId>>& transactions,
    std::size_t num_items) {
  TransactionDatabase db;
  for (const auto& t : transactions) db.AddTransaction(t);
  db.SetNumItems(num_items);
  return db;
}

void TransactionDatabase::AddTransaction(std::span<const ItemId> items) {
  items_.Append(items);
  EndTransaction();
}

void TransactionDatabase::EndTransaction() {
  ItemId* const begin = items_.begin() + offsets_.back();
  if (begin == items_.end()) return;
  // Most rows arrive ascending; only the others are sorted.
  if (std::adjacent_find(begin, items_.end(), std::greater_equal<>()) !=
      items_.end()) {
    std::sort(begin, items_.end());
    items_.Truncate(static_cast<std::size_t>(
        std::unique(begin, items_.end()) - items_.begin()));
  }
  num_items_ =
      std::max(num_items_, static_cast<std::size_t>(items_.back()) + 1);
  offsets_.push_back(items_.size());
}

void TransactionDatabase::SetNumItems(std::size_t num_items) {
  num_items_ = std::max(num_items_, num_items);
}

Status TransactionDatabase::SetItemNames(std::vector<std::string> names) {
  if (names.size() != num_items_) {
    return Status::InvalidArgument("item name count does not match item base");
  }
  item_names_ = std::move(names);
  return Status::OK();
}

std::string TransactionDatabase::ItemName(ItemId item) const {
  if (item < item_names_.size()) return item_names_[item];
  return std::to_string(item);
}

std::vector<ItemId> TransactionDatabase::transaction(std::size_t k) const {
  const std::span<const ItemId> row = Row(k);
  return {row.begin(), row.end()};
}

std::vector<std::vector<ItemId>> TransactionDatabase::transactions() const {
  std::vector<std::vector<ItemId>> rows;
  rows.reserve(NumTransactions());
  for (std::size_t k = 0; k < NumTransactions(); ++k) {
    const std::span<const ItemId> row = Row(k);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

std::vector<Support> TransactionDatabase::ItemFrequencies() const {
  std::vector<Support> freq(num_items_, 0);
  for (std::size_t p = 0; p < offsets_.back(); ++p) ++freq[items_[p]];
  return freq;
}

std::vector<std::vector<Tid>> TransactionDatabase::BuildVertical() const {
  std::vector<std::vector<Tid>> tidlists(num_items_);
  for (std::size_t k = 0; k < NumTransactions(); ++k) {
    for (ItemId i : Row(k)) tidlists[i].push_back(static_cast<Tid>(k));
  }
  return tidlists;
}

Support TransactionDatabase::CountSupport(std::span<const ItemId> items) const {
  Support s = 0;
  for (std::size_t k = 0; k < NumTransactions(); ++k) {
    if (IsSubsetSorted(items, Row(k))) ++s;
  }
  return s;
}

obs::MemoryComponent TransactionDatabase::ApproxMemoryUsage() const {
  obs::MemoryComponent db("database");
  db.children.emplace_back("offsets",
                           offsets_.capacity() * sizeof(offsets_[0]));
  db.children.emplace_back("items", items_.capacity() * sizeof(ItemId));
  if (!item_names_.empty()) {
    std::size_t name_bytes = item_names_.capacity() * sizeof(item_names_[0]);
    for (const auto& name : item_names_) {
      // Count only heap-backed strings: an SSO buffer lives inside the
      // vector storage already counted above.
      const char* data = name.data();
      const char* object = reinterpret_cast<const char*>(&name);
      if (data < object || data >= object + sizeof(name)) {
        name_bytes += name.capacity() + 1;  // +1: the terminator slot
      }
    }
    db.children.emplace_back("item-names", name_bytes);
  }
  return db;
}

}  // namespace fim
