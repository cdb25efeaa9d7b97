#ifndef FIM_TOOLS_TOOL_FLAGS_H_
#define FIM_TOOLS_TOOL_FLAGS_H_

// Shared command-line plumbing of the fim-* tools: the observability
// flags behave identically everywhere they exist —
//
//   --stats[=text|json]   emit an execution-statistics report
//   --stats-out=PATH      write the stats report to PATH instead of
//                         stderr (implies --stats)
//   --trace-out=PATH      write a Chrome trace-event JSON timeline
//                         (fim-trace-v1; load in chrome://tracing or
//                         https://ui.perfetto.dev)
//   --profile[=PATH]      sampling self-profiler: SIGPROF stacks folded
//                         to fim-prof-v1 collapsed format (flamegraph.pl
//                         compatible) on stderr or into PATH
//   --mem-stats           collect the per-structure memory breakdown and
//                         add the `memory` section to the stats report
//                         (implies --stats; the allocation-domain table
//                         appears only in FIM_MEM_PROFILE builds)
//
// Tools parse them through ObsFlags::Parse and run them through a
// ProfileSession + EmitStatsReport / EmitChromeTrace so the behaviour
// cannot drift apart.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/timer.h"
#include "kernels/intersect.h"
#include "obs/export.h"
#include "obs/perf.h"
#include "obs/profiler.h"
#include "obs/timeline.h"

namespace fim::tools {

/// Parses a non-negative integer flag value of type T with full error
/// checking — std::atoll reports neither overflow nor trailing garbage
/// (cert-err34-c), and a cast would wrap a value above T's range, so
/// "-s 10x" or "-s 4294967297" would silently mine with a wrong
/// threshold. Prints a usage error naming `flag` and exits with status 2
/// on any malformed or out-of-range value.
template <typename T>
T ParseCount(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  constexpr unsigned long long kMax = std::min<unsigned long long>(
      std::numeric_limits<T>::max(), std::numeric_limits<long long>::max());
  if (errno == ERANGE || end == text || *end != '\0' || value < 0 ||
      static_cast<unsigned long long>(value) > kMax) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [0, %llu], got \"%s\"\n",
                 flag, kMax, text);
    std::exit(2);
  }
  return static_cast<T>(value);
}

/// Parses a relative minimum support in percent: the whole of `text`
/// must be a number in [0, 100]. Exits with status 2 otherwise, like
/// ParseCount.
inline double ParsePercent(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0' || !(value >= 0.0) ||
      value > 100.0) {
    std::fprintf(stderr,
                 "error: %s expects a percentage in [0, 100], got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

/// Parses a tolerance, scale or time limit: the whole of `text` must be
/// a finite number >= 0 (strtod turns an overflow into infinity).
/// Exits with status 2 otherwise, like ParseCount — "nan" or "1e999"
/// would switch a gate off, and "abc" would silently read as 0.
inline double ParseNonNegative(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr,
                 "error: %s expects a finite number >= 0, got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

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

enum class StatsFormat { kNone, kText, kJson };

struct ObsFlags {
  StatsFormat stats_format = StatsFormat::kNone;
  std::string stats_out;
  std::string trace_out;
  bool profile = false;
  std::string profile_out;  // empty = collapsed stacks to stderr
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
    if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
      return true;
    }
    if (std::strncmp(arg, "--profile=", 10) == 0) {
      profile = true;
      profile_out = arg + 10;
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

/// Everything --profile sets up around one measured run, shared by
/// fim-mine / fim-stream / fim-verify:
///
///   ProfileSession profile_session;
///   profile_session.Start(flags, timeline);          // before the work
///   ... run ...
///   profile_session.Stop();                          // before the exports
///   exit_code |= profile_session.EmitProfile(flags); // after the work
///
/// A profiler that cannot start prints a warning and never fails the
/// run by itself; only an unwritable --profile=PATH is an error at
/// EmitProfile time.
class ProfileSession {
 public:
  /// Arms the profiler per `flags`. `timeline` (nullable) gets a
  /// "profiler" lane so samples fold into the Chrome-trace export. Call
  /// before the measured work, on the driving thread.
  void Start(const ObsFlags& flags, obs::Timeline* timeline) {
    if (!flags.profile) return;
    obs::ProfilerOptions options;
    if (timeline != nullptr) options.lane = timeline->AddLane("profiler");
    profiler_ = obs::SamplingProfiler::Start(options, &profiler_error_);
    if (profiler_ == nullptr) {
      std::fprintf(stderr, "warning: profiling disabled: %s\n",
                   profiler_error_.c_str());
    }
  }

  /// Stops sampling, so no export races the profiler's timeline lane.
  void Stop() {
    if (profiler_ != nullptr) profiler_->Stop();
  }

  /// Writes the collapsed-stack profile to stderr or
  /// `flags.profile_out`. When the profiler could not start, a
  /// requested output file still gets a header explaining why (so CI
  /// artifact steps find a file either way). Returns 0, or 1 when the
  /// file cannot be written.
  int EmitProfile(const ObsFlags& flags) {
    if (!flags.profile) return 0;
    if (profiler_ == nullptr) {
      if (flags.profile_out.empty()) return 0;  // warning already printed
      std::ofstream out(flags.profile_out, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n",
                     flags.profile_out.c_str());
        return 1;
      }
      out << "# fim-prof-v1 samples=0 dropped=0 unavailable: "
          << profiler_error_ << '\n';
      return 0;
    }
    if (flags.profile_out.empty()) {
      std::fputs(profiler_->RenderCollapsed().c_str(), stderr);
      return 0;
    }
    const Status status = profiler_->WriteCollapsedFile(flags.profile_out);
    if (!status.ok()) {
      std::fprintf(stderr, "error writing profile %s: %s\n",
                   flags.profile_out.c_str(), status.ToString().c_str());
      return 1;
    }
    return 0;
  }

 private:
  std::unique_ptr<obs::SamplingProfiler> profiler_;
  std::string profiler_error_;
};

/// Everything --mem-stats sets up around one measured run, shared by
/// the tools the same way ProfileSession is:
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

  /// Assembles the `memory` stats section (breakdown + RSS coverage +
  /// allocation-domain snapshot). Returns nullptr without --mem-stats;
  /// the pointer stays valid for the session's lifetime.
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
/// written.
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
  return 0;
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
