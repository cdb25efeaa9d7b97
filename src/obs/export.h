#ifndef FIM_OBS_EXPORT_H_
#define FIM_OBS_EXPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/itemset.h"
#include "obs/memory.h"
#include "obs/miner_stats.h"
#include "obs/perf.h"
#include "obs/trace.h"

namespace fim::obs {

/// Everything one instrumented mining run gathers, assembled for export.
/// `trace` may be nullptr (no spans section is emitted then).
struct StatsReport {
  std::string tool;       // "fim-mine", "fim-verify", ...
  std::string algorithm;  // AlgorithmName(...) or a free-form label
  Support min_support = 0;
  unsigned num_threads = 1;
  std::size_t num_sets = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;          // process CPU time, every thread
                                     // (getrusage user + system delta)
  std::size_t peak_rss_bytes = 0;    // 0 when the platform hides it
  ResourceUsage rusage;              // process totals at the report
  std::string kernel_tier;           // kernels::Active().name
  MinerStats miner;
  const Trace* trace = nullptr;

  /// Counters appended to the counters section after the MinerStats
  /// catalog, in list order (e.g. fim-stream's `stream.*` counters).
  /// Names are dot-qualified, so they never collide with the catalog's.
  std::vector<std::pair<const char*, std::uint64_t>> extra_counters;

  /// Optional: memory-attribution report (`--mem-stats`); adds the
  /// "memory" section. May be nullptr.
  const MemoryReport* memory = nullptr;
};

/// Human-readable rendering (aligned counter table + indented span
/// tree), for `--stats` / `--stats=text` on stderr.
std::string RenderStatsText(const StatsReport& report);

/// Machine-readable rendering. Schema (see docs/OBSERVABILITY.md):
///
///   {
///     "schema": "fim-stats-v2",
///     "tool": "...", "algorithm": "...",
///     "min_support": N, "threads": N, "num_sets": N,
///     "wall_seconds": F, "cpu_seconds": F, "peak_rss_bytes": N,
///     "kernel_tier": "avx2",
///     "rusage": { "user_seconds": F, "system_seconds": F,
///                 "minor_faults": N, "major_faults": N,
///                 "voluntary_ctx_switches": N,
///                 "involuntary_ctx_switches": N } | null,
///     "counters": { "<name>": N, ... },           // full catalog,
///                                                 // then extra_counters
///     "spans": [ { "name": "...", "wall_seconds": F,
///                  "cpu_seconds": F, "count": N,
///                  "children": [ ... ] }, ... ],  // omitted w/o trace
///     "memory": {                                 // with --mem-stats
///       "accounted_bytes": N, "high_water_bytes": N,
///       "peak_rss_bytes": N|null, "rss_coverage": F|null,
///       "components": [ { "name": "...", "self_bytes": N,
///                         "total_bytes": N,
///                         "children": [ ... ] }, ... ]
///     }
///   }
///
/// v1 -> v2: an optional "distributions" section was added; no report
/// carries it any more. Fields join v2 without a version bump (the
/// optional hardware-counter "perf" section and the memory section's
/// allocation-domain "profile" came and went that way):
/// readers stay unknown-key tolerant, and a value that was not measured
/// renders as null, never as a fake 0.
std::string RenderStatsJson(const StatsReport& report);

}  // namespace fim::obs

#endif  // FIM_OBS_EXPORT_H_
