#ifndef FIM_BENCH_BENCH_UTIL_H_
#define FIM_BENCH_BENCH_UTIL_H_

#include <limits>
#include <string>
#include <vector>

#include "api/miner.h"
#include "data/transaction_database.h"
#include "obs/perf.h"

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
  /// Hardware counters over the mining call; hw_valid is false where the
  /// host denies the PMU (the bench still runs, the report carries null).
  bool hw_valid = false;
  obs::PerfCounts perf;
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

/// One timing point of a JSON bench report. `algorithm` is a free-form
/// series label (e.g. "ista" or "ista-4t"), so benches that sweep
/// something other than the Algorithm enum — thread counts, ablation
/// variants — can use the same report format.
struct JsonPoint {
  std::string algorithm;
  Support min_support = 0;
  double seconds = 0.0;
  std::size_t num_sets = 0;
  bool ran = false;
  /// Optional observability payload: emitted only when set, so reports
  /// without it keep the historical point format byte for byte.
  double cpu_seconds = 0.0;  // emitted when > 0
  MinerStats stats;          // emitted when has_stats
  bool has_stats = false;
  /// Hardware-counter payload: with has_perf the point carries a "perf"
  /// object whose ipc / llc_miss_rate members are numbers where
  /// measured and null where the host denied the PMU — present-but-null
  /// keeps the schema identical across hosts, and fim-stats-diff skips
  /// the nulls instead of comparing fake zeros.
  bool has_perf = false;
  double perf_ipc = std::numeric_limits<double>::quiet_NaN();
  double perf_llc_miss_rate = std::numeric_limits<double>::quiet_NaN();
  /// Memory payload: with has_mem the point carries a "mem" object
  /// attributing the run's footprint — the self-measured breakdown sum
  /// (MemoryBreakdown::AccountedBytes) next to the process peak RSS, so
  /// committed bench reports say *which* bytes a compression tier moved,
  /// and fim-stats-diff gates both under its bytes-class tolerances.
  bool has_mem = false;
  std::size_t mem_accounted_bytes = 0;
  std::size_t mem_peak_rss_bytes = 0;
};

/// Writes `{"bench": ..., "scale": ..., "hardware_threads": ...,
/// "peak_rss_bytes": ..., "points": [{"algorithm", "min_support",
/// "seconds", "num_sets", "ran"}, ...]}`. Points carry "cpu_seconds"
/// when measured, a "counters" object (the non-zero MinerStats
/// entries) when mined with stats, and a "mem" object when measured
/// with a memory breakdown. `hardware_threads` records the
/// machine's concurrency so speedup numbers are interpretable (a 1-core
/// container cannot show wall-clock speedup no matter how well a
/// parallel run scales).
void WriteJson(const std::string& path, const std::string& bench, double scale,
               const std::vector<JsonPoint>& points);

/// Same report for a figure sweep: points are labeled AlgorithmName(...).
void WriteJson(const std::string& path, const std::string& bench, double scale,
               const SweepResult& result);

/// Command-line arguments shared by the figure benches:
///   --scale=<f>   generator scale factor (default per bench)
///   --limit=<s>   per-point time limit in seconds
///   --csv=<path>  also write the sweep as CSV
///   --json=<path> also write the sweep as a JSON report
///   --full        shorthand for --scale=1.0
struct BenchArgs {
  double scale = -1.0;  // < 0: keep the bench's default
  double limit = -1.0;
  std::string csv_path;
  std::string json_path;
};

BenchArgs ParseBenchArgs(int argc, char** argv);

}  // namespace fim::bench

#endif  // FIM_BENCH_BENCH_UTIL_H_
