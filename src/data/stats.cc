#include "data/stats.h"

#include <algorithm>
#include <cstdio>

namespace fim {

DatabaseStats ComputeStats(const TransactionDatabase& db) {
  DatabaseStats s;
  s.num_transactions = db.NumTransactions();
  s.num_items = db.NumItems();
  const auto freq = db.ItemFrequencies();
  s.num_used_items =
      static_cast<std::size_t>(std::count_if(freq.begin(), freq.end(),
                                             [](Support f) { return f > 0; }));
  s.min_transaction_size = s.num_transactions > 0 ? SIZE_MAX : 0;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::size_t size = db.Row(k).size();
    s.total_occurrences += size;
    s.min_transaction_size = std::min(s.min_transaction_size, size);
    s.max_transaction_size = std::max(s.max_transaction_size, size);
  }
  if (s.num_transactions > 0) {
    s.avg_transaction_size =
        static_cast<double>(s.total_occurrences) /
        static_cast<double>(s.num_transactions);
  }
  if (s.num_transactions > 0 && s.num_used_items > 0) {
    s.density = static_cast<double>(s.total_occurrences) /
                (static_cast<double>(s.num_transactions) *
                 static_cast<double>(s.num_used_items));
  }
  return s;
}

std::string StatsToString(const DatabaseStats& stats) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu tx x %zu items (%zu used), avg size %.1f, "
                "min/max %zu/%zu, density %.4f",
                stats.num_transactions, stats.num_items, stats.num_used_items,
                stats.avg_transaction_size, stats.min_transaction_size,
                stats.max_transaction_size, stats.density);
  return std::string(buf);
}

}  // namespace fim
