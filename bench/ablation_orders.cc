// Ablation for §3.4: the impact of item code assignment and transaction
// processing order on IsTa. The paper found ascending-frequency item
// codes combined with size-ascending transaction order fastest.

#include <cstdio>

#include "api/miner.h"
#include "bench_util.h"
#include "common/timer.h"
#include "data/profiles.h"
#include "data/stats.h"

int main(int argc, char** argv) {
  using namespace fim;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 0.25;

  std::printf("Ablation: item/transaction orders for IsTa, yeast-like "
              "scale=%.2f\n", scale);
  const TransactionDatabase db = MakeYeastLike(scale, 42);
  std::printf("data: %s\n", StatsToString(ComputeStats(db)).c_str());

  struct Named {
    const char* name;
    ItemOrder item_order;
  };
  struct NamedTx {
    const char* name;
    TransactionOrder tx_order;
  };
  const Named item_orders[] = {
      {"item:none", ItemOrder::kNone},
      {"item:freq-asc", ItemOrder::kFrequencyAscending},
      {"item:freq-desc", ItemOrder::kFrequencyDescending},
  };
  const NamedTx tx_orders[] = {
      {"tx:none", TransactionOrder::kNone},
      {"tx:size-asc", TransactionOrder::kSizeAscending},
      {"tx:size-desc", TransactionOrder::kSizeDescending},
  };

  const Support smin = 10;
  std::printf("\nIsTa total time (smin=%u), peak tree nodes:\n%16s", smin, "");
  for (const auto& tx : tx_orders) std::printf(" %24s", tx.name);
  std::printf("\n");
  for (const auto& item : item_orders) {
    std::printf("%16s", item.name);
    for (const auto& tx : tx_orders) {
      MinerOptions options;
      options.min_support = smin;
      options.item_order = item.item_order;
      options.transaction_order = tx.tx_order;
      MinerStats stats;
      std::size_t count = 0;
      WallTimer timer;
      Status status = MineClosed(
          db, options, [&count](std::span<const ItemId>, Support) { ++count; },
          &stats);
      char cell[64];
      if (status.ok()) {
        std::snprintf(cell, sizeof(cell), "%8.3fs / %8zu nodes",
                      timer.Seconds(), stats.peak_nodes);
      } else {
        std::snprintf(cell, sizeof(cell), "ERROR");
      }
      std::printf(" %24s", cell);
    }
    std::printf("\n");
  }
  return 0;
}
