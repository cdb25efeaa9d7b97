#ifndef FIM_BENCH_BENCH_UTIL_H_
#define FIM_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "api/miner.h"
#include "data/transaction_database.h"

namespace fim::bench {

/// User plus system CPU seconds of the whole process so far, every
/// thread included (getrusage). A delta around a mining call is its CPU
/// cost, worker threads and all.
double ProcessCpuSeconds();

/// One figure reproduction = a support sweep over a set of algorithms.
struct SweepOptions {
  std::vector<Algorithm> algorithms;
  std::vector<Support> supports;  // processed as given; descending = paper order
  /// Once an algorithm exceeds this budget on a point, the remaining
  /// (lower) supports are skipped for it and rendered as DNF — the same
  /// effect as the truncated curves in the paper's figures.
  double point_time_limit_seconds = 60.0;
};

struct SweepPoint {
  Algorithm algorithm = Algorithm::kIsta;
  Support min_support = 0;
  double seconds = 0.0;
  std::size_t num_sets = 0;
  bool ran = false;  // false: skipped after the algorithm hit the limit
  double cpu_seconds = 0.0;  // process CPU of the run, every thread
                             // included (ProcessCpuSeconds)
  MinerStats stats;          // per-miner counters of the run (ran only)
};

struct SweepResult {
  std::vector<SweepPoint> points;

  const SweepPoint* Find(Algorithm algorithm, Support min_support) const;
};

/// Runs every (algorithm, support) cell, timing the full mining call.
/// Verifies that all algorithms that ran report the same number of closed
/// sets per support and prints a loud warning otherwise.
SweepResult RunSweep(const TransactionDatabase& db,
                     const SweepOptions& options);

/// Paper-figure-style table: one row per support, one column per
/// algorithm, cells in seconds (log10 in parentheses), "DNF" when
/// skipped. Also prints the closed-set count per support row.
void PrintSweepTable(const std::string& title, const SweepOptions& options,
                     const SweepResult& result);

/// CSV with columns algorithm,min_support,seconds,num_sets,ran.
void WriteCsv(const std::string& path, const SweepResult& result);

/// Writes `{"bench": ..., "scale": ..., "hardware_threads": ...,
/// "peak_rss_bytes": ..., "points": [{"algorithm", "min_support",
/// "seconds", "num_sets", "ran"}, ...]}`, one point per sweep cell,
/// labeled AlgorithmName(...). Points that ran also carry
/// "cpu_seconds" when measured and a "counters" object (the non-zero
/// MinerStats entries). `hardware_threads` records the machine's
/// concurrency so timings are interpretable.
void WriteJson(const std::string& path, const std::string& bench, double scale,
               const SweepResult& result);

/// Command-line arguments shared by the figure benches:
///   --scale=<f>   generator scale factor (default per bench)
///   --limit=<s>   per-point time limit in seconds
///   --csv=<path>  also write the sweep as CSV
///   --json=<path> also write the sweep as a JSON report
///   --full        shorthand for --scale=1.0
/// Any other argument, and a scale or limit that is not a finite number
/// >= 0, is a usage error: ParseBenchArgs prints it and exits with
/// status 2, as the fim-* tools do.
struct BenchArgs {
  double scale = -1.0;  // < 0: keep the bench's default
  double limit = -1.0;
  std::string csv_path;
  std::string json_path;
};

BenchArgs ParseBenchArgs(int argc, char** argv);

}  // namespace fim::bench

#endif  // FIM_BENCH_BENCH_UTIL_H_
