#include "data/transpose.h"

namespace fim {

TransactionDatabase Transpose(const TransactionDatabase& db) {
  std::vector<std::vector<Tid>> tidlists = db.BuildVertical();
  TransactionDatabase out;
  for (const auto& tids : tidlists) {
    if (tids.empty()) continue;
    out.AddTransaction(tids);  // Tid and ItemId are both uint32_t
  }
  out.SetNumItems(db.NumTransactions());
  return out;
}

}  // namespace fim
