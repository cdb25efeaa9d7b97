// Ablation for the paper's §5 claim that the flat-repository cumulative
// scheme of Mielikäinen (FIMI'03) is vastly slower (often >100x) than
// IsTa's prefix-tree repository. The 2x2 design isolates the two
// ingredients: the repository data structure (flat map vs prefix tree)
// and item elimination (§3.2). Mielikäinen's original corresponds to
// flat without elimination; full IsTa is tree with elimination.

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

double TimeTree(const TransactionDatabase& db, Support smin, bool elim) {
  return Time(Algorithm::kIsta, db, smin, elim);
}

double TimeFlat(const TransactionDatabase& db, Support smin, bool elim) {
  return Time(Algorithm::kFlatCumulative, db, smin, elim);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 0.1;

  std::printf("Ablation: repository structure (prefix tree vs flat) x item "
              "elimination,\ncumulative intersection scheme, yeast-like "
              "scale=%.2f\n", scale);
  const TransactionDatabase db = MakeYeastLike(scale, 42);
  std::printf("data: %s\n\n", StatsToString(ComputeStats(db)).c_str());

  for (Support smin : {12u, 8u}) {
    const double tree_elim = TimeTree(db, smin, true);
    const double tree_plain = TimeTree(db, smin, false);
    const double flat_elim = TimeFlat(db, smin, true);
    const double flat_plain = TimeFlat(db, smin, false);
    std::printf("smin=%u\n", smin);
    std::printf("  %-34s %10.3fs\n", "prefix tree + elimination (IsTa)",
                tree_elim);
    std::printf("  %-34s %10.3fs\n", "prefix tree, no elimination",
                tree_plain);
    std::printf("  %-34s %10.3fs\n", "flat repo + elimination", flat_elim);
    std::printf("  %-34s %10.3fs\n", "flat repo, no elimination ([14])",
                flat_plain);
    if (tree_elim > 0 && tree_plain > 0) {
      std::printf("  => structure alone: %.1fx; full IsTa vs [14]: %.1fx\n\n",
                  flat_plain / tree_plain, flat_plain / tree_elim);
    }
    std::fflush(stdout);
  }
  return 0;
}
