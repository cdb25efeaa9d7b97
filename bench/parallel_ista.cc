// Thread-scaling bench of IsTa: wall and process CPU time of the
// identical mining call at 1/2/4/8 threads over generated market-basket
// data, from a small junk-heavy config up to a large pattern-dominated one
// (millions of rows collapsing onto a few thousand weighted transactions).
// The threads split only the pass that maps the rows and merges the
// duplicates (ApplyRecodingWeighted); item counting, mining and the report
// run on the calling thread. IsTa mines one repository at every thread
// count, so each run must report the sequential run's closed-set count and
// intersection steps; the bench exits 1 when one does not.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/miner.h"
#include "bench_util.h"
#include "common/timer.h"
#include "data/generators.h"
#include "data/stats.h"
#include "obs/memory.h"

namespace {

struct Config {
  const char* name;
  fim::MarketBasketConfig basket;
  fim::Support min_support;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 1.0;
  const double limit = args.limit > 0 ? args.limit : 120.0;

  std::vector<Config> configs;
  {
    // Junk-heavy baskets: weak deduplication, repository dominated by
    // low-support sets; mining is nearly all of the time, so extra threads
    // must cost nothing here.
    Config c;
    c.name = "basket-junky";
    c.basket.num_items = 100;
    c.basket.num_transactions = 3000;
    c.basket.avg_transaction_size = 6.0;
    c.basket.num_patterns = 20;
    c.basket.avg_pattern_size = 4;
    c.basket.seed = 7;
    c.min_support = 30;
    configs.push_back(c);
  }
  {
    // Mid-size pattern-dominated stream (rows are pure pattern subsets).
    Config c;
    c.name = "basket-patterns";
    c.basket.num_items = 200;
    c.basket.num_transactions = 200000;
    c.basket.avg_transaction_size = 1.0;
    c.basket.num_patterns = 20;
    c.basket.pattern_probability = 1.0;
    c.basket.pattern_keep_probability = 0.9;
    c.basket.avg_pattern_size = 6;
    c.basket.seed = 7;
    c.min_support = 100;
    configs.push_back(c);
  }
  {
    // Large pattern-dominated stream: 2M rows deduplicate to 2,652
    // weighted transactions. Only the distinct rows are copied and sorted;
    // the two passes over the 2M rows (item counting, then the threaded
    // duplicate merge) are about 60% of a one-thread answer, mining the
    // 2,652 rows about 40%.
    Config c;
    c.name = "basket-large";
    c.basket.num_items = 200;
    c.basket.num_transactions = 2000000;
    c.basket.avg_transaction_size = 1.0;
    c.basket.num_patterns = 20;
    c.basket.pattern_probability = 1.0;
    c.basket.pattern_keep_probability = 0.9;
    c.basket.avg_pattern_size = 6;
    c.basket.seed = 7;
    c.min_support = 500;
    configs.push_back(c);
  }

  std::vector<bench::JsonPoint> points;
  bool thread_invariant = true;
  for (Config& config : configs) {
    config.basket.num_transactions = static_cast<std::size_t>(
        static_cast<double>(config.basket.num_transactions) * scale);
    const TransactionDatabase db = GenerateMarketBasket(config.basket);
    std::printf("\n== %s (scale=%.2f, smin=%u) ==\n", config.name, scale,
                config.min_support);
    std::printf("data: %s\n", StatsToString(ComputeStats(db)).c_str());

    double sequential_seconds = 0.0;
    std::size_t sequential_sets = 0;
    std::size_t sequential_steps = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      MinerOptions options;
      options.min_support = config.min_support;
      options.num_threads = threads;
      obs::MemoryBreakdown memory;
      options.memory = &memory;
      MinerStats stats;
      std::size_t sets = 0;
      WallTimer timer;
      const double cpu_before = bench::ProcessCpuSeconds();
      const Status status = MineClosed(
          db, options, [&sets](std::span<const ItemId>, Support) { ++sets; },
          &stats);
      const double seconds = timer.Seconds();
      const double cpu_seconds = bench::ProcessCpuSeconds() - cpu_before;
      // The miner records only what it builds; the generated database is
      // the bench's own footprint, so add it to the attributed total.
      memory.Record(db.ApproxMemoryUsage());
      bench::JsonPoint point;
      point.algorithm = "ista-" + std::to_string(threads) + "t";
      point.min_support = config.min_support;
      point.seconds = seconds;
      point.num_sets = sets;
      point.ran = status.ok();
      point.cpu_seconds = cpu_seconds;
      point.stats = stats;
      point.has_stats = status.ok();
      point.has_mem = status.ok();
      point.mem_accounted_bytes = memory.AccountedBytes();
      point.mem_peak_rss_bytes = PeakRss();
      points.push_back(point);
      if (!status.ok()) {
        std::printf("  t=%u: ERROR %s\n", threads, status.ToString().c_str());
        continue;
      }
      if (threads == 1) {
        sequential_seconds = seconds;
        sequential_sets = sets;
        sequential_steps = stats.isect_steps;
      } else if (sets != sequential_sets ||
                 stats.isect_steps != sequential_steps) {
        std::printf("ERROR: thread count %u changed the result or the work "
                    "(%zu sets, %zu steps vs %zu sets, %zu steps)\n",
                    threads, sets, stats.isect_steps, sequential_sets,
                    sequential_steps);
        thread_invariant = false;
      }
      std::printf(
          "  t=%u: %8.3fs  cpu=%.3fs  speedup=%.2fx  sets=%zu  wtx=%zu  "
          "steps=%zu  peak=%zu  prunes=%zu\n",
          threads, seconds, cpu_seconds,
          seconds > 0 ? sequential_seconds / seconds : 0.0, sets,
          stats.weighted_transactions, stats.isect_steps, stats.peak_nodes,
          stats.prune_calls);
      if (seconds > limit) {
        std::printf("  (over --limit=%.0fs, stopping this config)\n", limit);
        break;
      }
    }
  }

  if (!args.csv_path.empty()) {
    std::ofstream out(args.csv_path, std::ios::trunc);
    out << "algorithm,min_support,seconds,num_sets,ran\n";
    for (const auto& p : points) {
      out << p.algorithm << ',' << p.min_support << ',' << p.seconds << ','
          << p.num_sets << ',' << (p.ran ? 1 : 0) << '\n';
    }
  }
  if (!args.json_path.empty()) {
    bench::WriteJson(args.json_path, "parallel_ista", scale, points);
  }
  return thread_invariant ? 0 : 1;
}
