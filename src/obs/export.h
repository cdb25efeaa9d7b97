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
  double cpu_seconds = 0.0;          // driving thread's CPU time
  std::size_t peak_rss_bytes = 0;    // 0 when the platform hides it
  MinerStats miner;
  const Trace* trace = nullptr;

  /// Counters appended to the counters section after the MinerStats
  /// catalog, in list order (e.g. fim-stream's `stream.*` counters).
  /// Names are dot-qualified, so they never collide with the catalog's.
  std::vector<std::pair<const char*, std::uint64_t>> extra_counters;

  /// Optional: hardware-counter report (`--perf-counters`); adds the
  /// "perf" section. May be nullptr.
  const PerfReport* perf = nullptr;

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
///     "counters": { "<name>": N, ... },           // full catalog,
///                                                 // then extra_counters
///     "spans": [ { "name": "...", "wall_seconds": F,
///                  "cpu_seconds": F, "count": N,
///                  "perf": { "cycles": N, ... },  // attached sets only
///                  "children": [ ... ] }, ... ],  // omitted w/o trace
///     "perf": {                                   // with --perf-counters
///       "available": B, "unavailable_reason": "...",  // reason iff !B
///       "kernel_tier": "avx2",
///       "counters": { "cycles": N|null, ..., "ipc": F|null,
///                     "llc_miss_rate": F|null,
///                     "branch_miss_rate": F|null,
///                     "multiplex_scale": F|null } | null,
///       "rusage": { "user_seconds": F, "system_seconds": F,
///                   "minor_faults": N, "major_faults": N,
///                   "voluntary_ctx_switches": N,
///                   "involuntary_ctx_switches": N,
///                   "peak_rss_bytes": N|null },
///       "domains": [ { "name": "shard-0", "work_steps": N,
///                      "cpu_seconds": F, "cycles": N|null, ... } ]
///     },
///     "memory": {                                 // with --mem-stats
///       "accounted_bytes": N, "high_water_bytes": N,
///       "peak_rss_bytes": N|null, "rss_coverage": F|null,
///       "components": [ { "name": "...", "self_bytes": N,
///                         "total_bytes": N,
///                         "children": [ ... ] }, ... ],
///       "profile": {                              // FIM_MEM_PROFILE only
///         "live_bytes": N, "peak_live_bytes": N, "alloc_bytes": N,
///         "allocs": N, "frees": N, "foreign_frees": N,
///         "domains": [ { "name": "ista-tree", "live_bytes": N,
///                        "peak_live_bytes": N, "alloc_bytes": N,
///                        "allocs": N, "frees": N }, ... ] } | null
///     }
///   }
///
/// v1 -> v2: an optional "distributions" section was added; no report
/// carries it any more. The optional "perf" section (and per-span
/// "perf" objects) joined v2 later without a version bump — sections
/// stay optional and unknown-key tolerant; counters that did not count
/// render as null, never as a fake 0.
std::string RenderStatsJson(const StatsReport& report);

}  // namespace fim::obs

#endif  // FIM_OBS_EXPORT_H_
