// Ablation for the item-elimination pruning of §3.1.1 (Carpenter) and
// §3.2 (IsTa): mining time with and without the optimization. The paper
// reports "a considerable speed-up" from it.

#include <cstdio>

#include "api/miner.h"
#include "bench_util.h"
#include "common/timer.h"
#include "data/profiles.h"
#include "data/stats.h"

namespace {

using namespace fim;

double Time(Algorithm algorithm, const TransactionDatabase& db,
            Support smin, bool elim) {
  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = smin;
  options.item_elimination = elim;
  std::size_t count = 0;
  WallTimer timer;
  MineClosed(db, options,
             [&count](std::span<const ItemId>, Support) { ++count; });
  return timer.Seconds();
}

double TimeIsta(const TransactionDatabase& db, Support smin, bool elim) {
  return Time(Algorithm::kIsta, db, smin, elim);
}

double TimeCarpenter(const TransactionDatabase& db, Support smin, bool elim,
                     bool table) {
  return Time(table ? Algorithm::kCarpenterTable : Algorithm::kCarpenterLists,
              db, smin, elim);
}

void Row(const char* name, double with, double without) {
  std::printf("  %-18s with: %8.3fs   without: %8.3fs   speedup: %5.1fx\n",
              name, with, without, with > 0 ? without / with : 0.0);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  // Without item elimination the repository holds EVERY closed set of
  // the unfiltered database, so the "off" configuration explodes in both
  // time and memory well before the "on" configuration feels anything —
  // which is the point of the ablation, but it forces small scales here.
  const double scale = args.scale > 0 ? args.scale : 0.06;

  std::printf("Ablation: item-elimination pruning on/off\n");
  {
    const TransactionDatabase db = MakeYeastLike(scale, 42);
    const Support smin = 12;
    std::printf("\nyeast-like scale=%.2f, smin=%u (%s)\n", scale, smin,
                StatsToString(ComputeStats(db)).c_str());
    std::fflush(stdout);
    Row("ista", TimeIsta(db, smin, true), TimeIsta(db, smin, false));
    Row("carpenter-table", TimeCarpenter(db, smin, true, true),
        TimeCarpenter(db, smin, false, true));
    Row("carpenter-lists", TimeCarpenter(db, smin, true, false),
        TimeCarpenter(db, smin, false, false));
  }
  {
    const TransactionDatabase db = MakeThrombinLike(scale, 44);
    const Support smin = 28;
    std::printf("\nthrombin-like scale=%.2f, smin=%u (%s)\n", scale, smin,
                StatsToString(ComputeStats(db)).c_str());
    std::fflush(stdout);
    Row("ista", TimeIsta(db, smin, true), TimeIsta(db, smin, false));
    Row("carpenter-table", TimeCarpenter(db, smin, true, true),
        TimeCarpenter(db, smin, false, true));
    Row("carpenter-lists", TimeCarpenter(db, smin, true, false),
        TimeCarpenter(db, smin, false, false));
  }
  return 0;
}
