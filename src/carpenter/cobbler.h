#ifndef FIM_CARPENTER_COBBLER_H_
#define FIM_CARPENTER_COBBLER_H_

#include "carpenter/carpenter.h"
#include "common/status.h"
#include "data/itemset.h"
#include "data/transaction_database.h"

namespace fim {

/// Options of the Cobbler-style hybrid miner.
struct CobblerOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Item code assignment / transaction order (as for Carpenter).
  ItemOrder item_order = ItemOrder::kFrequencyAscending;
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// §3.1.1 item elimination (never changes the output).
  bool item_elimination = true;

  /// Switch from row enumeration to column enumeration when the current
  /// intersection has at most this many items and at least
  /// `switch_min_rows` unprocessed transactions remain. 0 disables
  /// switching (pure Carpenter behaviour).
  std::size_t switch_max_items = 24;
  std::size_t switch_min_rows = 8;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// stream, the vertical tid lists with their suffix weights and the
  /// duplicate repository at their largest. Output-neutral; must outlive
  /// the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Cobbler-style hybrid of row and column enumeration (Pan et al.,
/// SSDBM'04 — the companion algorithm the paper cites next to
/// Carpenter): the search runs as Carpenter's transaction-set
/// enumeration, but when a subproblem's conditional database becomes
/// narrow (few items in the current intersection) and long (many
/// remaining transactions), the whole subtree is mined in one shot with
/// a column-enumeration closed miner (LCM) over the conditional rows,
/// folded into one weighted table. The rows enumerated are the distinct
/// rows of the weighted stream (ApplyRecodingWeighted); a row's weight
/// counts towards every support and towards the remaining transactions
/// of the switch test.
/// Supports are completed with the enumeration context, duplicates
/// across the two strategies are resolved with the same repository plus
/// an explicit backward check, so the output is exactly the closed
/// frequent item sets — verified against the oracle like every other
/// miner.
Status MineClosedCobbler(const TransactionDatabase& db,
                         const CobblerOptions& options,
                         const ClosedSetCallback& callback,
                         CarpenterStats* stats = nullptr);

}  // namespace fim

#endif  // FIM_CARPENTER_COBBLER_H_
