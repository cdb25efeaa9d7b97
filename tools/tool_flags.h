#ifndef FIM_TOOLS_TOOL_FLAGS_H_
#define FIM_TOOLS_TOOL_FLAGS_H_

// Shared command-line plumbing of the fim-* tools: checked number
// parsers, the check of the result stream, and the observability flags
// of fim-mine and fim-stream, which behave identically in both —
//
//   --stats[=text|json]   emit an execution-statistics report
//   --stats-out=PATH      write the stats report to PATH instead of
//                         stderr (implies --stats)
//   --trace-out=PATH      write a Chrome trace-event JSON timeline
//                         (fim-trace-v1; load in chrome://tracing or
//                         https://ui.perfetto.dev)
//   --mem-stats           collect the per-structure memory breakdown and
//                         add the `memory` section to the stats report
//                         (implies --stats)
//
// Tools parse them through ObsFlags::Parse and run them through a
// MemSession + EmitStatsReport / EmitChromeTrace so the behaviour cannot
// drift apart.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>

#include "common/status.h"
#include "common/timer.h"
#include "data/itemset.h"
#include "kernels/intersect.h"
#include "obs/export.h"
#include "obs/perf.h"
#include "obs/timeline.h"

namespace fim::tools {

/// Parses an integer flag value of type T, at least `min`, with full
/// error checking — std::atoll reports neither overflow nor trailing
/// garbage (cert-err34-c), and a cast would wrap a value above T's
/// range, so "-s 10x" or "-s 4294967297" would silently mine with a
/// wrong threshold. Prints a usage error naming `flag` and exits with
/// status 2 on any malformed or out-of-range value.
template <typename T>
T ParseCount(const char* flag, const char* text, T min = 0) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  constexpr unsigned long long kMax = std::min<unsigned long long>(
      std::numeric_limits<T>::max(), std::numeric_limits<long long>::max());
  if (errno == ERANGE || end == text || *end != '\0' || value < 0 ||
      static_cast<unsigned long long>(value) < min ||
      static_cast<unsigned long long>(value) > kMax) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got \"%s\"\n",
                 flag, static_cast<unsigned long long>(min), kMax, text);
    std::exit(2);
  }
  return static_cast<T>(value);
}

/// Parses the minimum support of `-s`: a count of at least 1 (at 0 every
/// set of items would be frequent, and the miners reject it).
inline Support ParseMinSupport(const char* text) {
  return ParseCount<Support>("-s", text, 1);
}

/// Parses a real-valued flag: the whole of `text` must be a finite
/// number that a double holds (no overflow or underflow) for which
/// `in_range` holds; `range` names the range in the error message.
/// Exits with status 2 otherwise, like ParseCount — std::atof reports
/// no error, so "nan" would pass every `<=` test and "abc" would read
/// as 0.
template <typename InRange>
double ParseReal(const char* flag, const char* text, const char* range,
                 InRange in_range) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0' ||
      !std::isfinite(value) || !in_range(value)) {
    std::fprintf(stderr, "error: %s expects %s, got \"%s\"\n", flag, range,
                 text);
    std::exit(2);
  }
  return value;
}

/// Parses a relative minimum support in percent, in [0, 100].
inline double ParsePercent(const char* flag, const char* text) {
  return ParseReal(flag, text, "a percentage in [0, 100]",
                   [](double v) { return v >= 0.0 && v <= 100.0; });
}

/// Parses a tolerance, scale or time limit: a finite number >= 0 ("nan"
/// or "1e999" would switch a gate off).
inline double ParseNonNegative(const char* flag, const char* text) {
  return ParseReal(flag, text, "a finite number >= 0",
                   [](double v) { return v >= 0.0; });
}

/// The most threads a tool may be asked for. The input's prefold
/// (FoldRows) starts one thread per chunk, min(threads, rows) of them,
/// and LCM and Carpenter table min(threads, tasks) workers, so a larger
/// count would start that many threads on a large input; every caller
/// in the repository uses at most 8.
inline constexpr unsigned kMaxThreads = 1024;

/// True when `arg` is spelled like a flag (a leading '-', other than "-"
/// for stdin / stdout); then it also prints an error naming it. Tools
/// test it after every flag they know and answer with their usage text
/// and exit code 2, so a misspelt or retired flag fails loudly instead
/// of being taken for a file name.
inline bool UnknownFlag(const char* arg) {
  if (arg[0] != '-' || arg[1] == '\0') return false;
  std::fprintf(stderr, "error: unknown option %s\n", arg);
  return true;
}

/// Checks the result stream after a write or the final flush. When a
/// write failed (a full disk, say), prints "error: cannot write OUTPUT"
/// and returns false: the tool then exits 1, as the result is lost.
/// `output` is the output argument, "-" for stdout.
inline bool ResultWritten(const std::ostream& out, const std::string& output) {
  if (out) return true;
  std::fprintf(stderr, "error: cannot write %s\n",
               output == "-" ? "stdout" : output.c_str());
  return false;
}

enum class StatsFormat { kNone, kText, kJson };

struct ObsFlags {
  StatsFormat stats_format = StatsFormat::kNone;
  std::string stats_out;
  std::string trace_out;
  bool mem_stats = false;

  bool WantStats() const { return stats_format != StatsFormat::kNone; }
  bool WantTrace() const { return !trace_out.empty(); }

  /// Consumes `arg` when it is one of the observability flags.
  bool Parse(const char* arg) {
    if (std::strcmp(arg, "--stats") == 0 ||
        std::strcmp(arg, "--stats=text") == 0) {
      stats_format = StatsFormat::kText;
      return true;
    }
    if (std::strcmp(arg, "--stats=json") == 0) {
      stats_format = StatsFormat::kJson;
      return true;
    }
    if (std::strncmp(arg, "--stats-out=", 12) == 0) {
      stats_out = arg + 12;
      return true;
    }
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
      return true;
    }
    if (std::strcmp(arg, "--mem-stats") == 0) {
      mem_stats = true;
      return true;
    }
    return false;
  }

  /// Call once after the argument loop: --stats-out alone implies
  /// --stats (text), and --mem-stats implies --stats — its section
  /// needs a report to live in.
  void Finish() {
    if (stats_format == StatsFormat::kNone &&
        (!stats_out.empty() || mem_stats)) {
      stats_format = StatsFormat::kText;
    }
  }
};

/// Everything --mem-stats sets up around one measured run, shared by
/// fim-mine and fim-stream:
///
///   MemSession mem_session(flags);
///   options.memory = mem_session.breakdown();      // nullptr w/o flag
///   ... run ...
///   report.memory = mem_session.Finish();          // before EmitStats
class MemSession {
 public:
  explicit MemSession(const ObsFlags& flags) : enabled_(flags.mem_stats) {}

  /// The collector for MinerOptions::memory (nullptr
  /// without --mem-stats — the run then skips all recording work).
  obs::MemoryBreakdown* breakdown() {
    return enabled_ ? &breakdown_ : nullptr;
  }

  /// Assembles the `memory` stats section (breakdown + RSS coverage).
  /// Returns nullptr without --mem-stats; the pointer stays valid for
  /// the session's lifetime.
  const obs::MemoryReport* Finish() {
    if (!enabled_) return nullptr;
    report_ = obs::BuildMemoryReport(breakdown_);
    return &report_;
  }

 private:
  bool enabled_;
  obs::MemoryBreakdown breakdown_;
  obs::MemoryReport report_;
};

/// Fills the process-wide fields of `report`: the getrusage totals, the
/// CPU seconds of every thread since `start`, the peak RSS and the
/// kernel tier.
inline void FillProcessUsage(const obs::ResourceUsage& start,
                             obs::StatsReport* report) {
  report->rusage = obs::ReadResourceUsage();
  report->cpu_seconds = report->rusage.CpuSeconds() - start.CpuSeconds();
  report->peak_rss_bytes = PeakRss();
  report->kernel_tier = kernels::Active().name;
}

/// Renders `report` in the selected format and writes it to stderr or
/// `flags.stats_out`. Returns 0, or 1 when the output file cannot be
/// opened or written.
inline int EmitStatsReport(const ObsFlags& flags,
                           const obs::StatsReport& report) {
  const std::string rendered = flags.stats_format == StatsFormat::kJson
                                   ? obs::RenderStatsJson(report)
                                   : obs::RenderStatsText(report);
  if (flags.stats_out.empty()) {
    std::fputs(rendered.c_str(), stderr);
    return 0;
  }
  std::ofstream stats_file(flags.stats_out, std::ios::trunc);
  if (!stats_file) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 flags.stats_out.c_str());
    return 1;
  }
  stats_file << rendered;
  stats_file.flush();
  return ResultWritten(stats_file, flags.stats_out) ? 0 : 1;
}

/// Writes the Chrome-trace export to `flags.trace_out`; a no-op without
/// --trace-out. Returns 0, or 1 when the file cannot be written.
inline int EmitChromeTrace(const ObsFlags& flags,
                           const obs::Timeline& timeline,
                           const obs::TraceMeta& meta) {
  if (flags.trace_out.empty()) return 0;
  const Status status =
      obs::WriteChromeTraceFile(timeline, meta, flags.trace_out);
  if (!status.ok()) {
    std::fprintf(stderr, "error writing trace %s: %s\n",
                 flags.trace_out.c_str(), status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace fim::tools

#endif  // FIM_TOOLS_TOOL_FLAGS_H_
