// fim-mine: command-line closed frequent item set miner over FIMI or
// FIMB files, in the spirit of the original ista/carpenter command-line
// programs.
//
//   fim-mine [-a algorithm] [-s minsupp | -S percent] [-t threads] [-m] [-q]
//            [--stats[=text|json]] [--stats-out=PATH] [--trace-out=PATH]
//            [--mem-stats] input [output]
//
//   -a NAME   ista | carpenter-lists | carpenter-table | flat-cumulative |
//             fpclose | lcm | charm (default: ista)
//   -s N      absolute minimum support, at least 1 (default: 2)
//   -S P      relative minimum support in percent (overrides -s)
//   -t N      threads of the input's prefold (every algorithm but
//             charm and fpclose, which fold in one chunk) and of lcm's
//             and carpenter-table's mining, at most 1024; output is
//             identical to the sequential run     (default: 1)
//   -m        report only maximal frequent item sets
//   -q        quiet: no stats on stderr
//   --stats[=text|json]
//             emit an execution-statistics report (per-phase spans,
//             per-miner counters, process CPU of every thread, rusage
//             and kernel tier; see docs/OBSERVABILITY.md) after mining;
//             text (default) or JSON. Goes to stderr unless --stats-out
//             is given, so the result output is unchanged. Writing the
//             result runs in `write` spans, under the span open at the
//             time, so the others time mining alone.
//   --stats-out=PATH
//             write the stats report to PATH instead of stderr
//   --trace-out=PATH
//             record a per-thread event timeline (driver phases plus one
//             lane per prefold thread) and write it as
//             Chrome trace-event JSON to PATH — load in chrome://tracing
//             or https://ui.perfetto.dev
//   --mem-stats
//             collect the per-structure memory breakdown (the weighted
//             stream, prefix trees, tid lists, matrices) and add the
//             `memory` section to the stats report (implies --stats).
//             Output-neutral like every other observability flag.
//   input     transaction file, FIMI text or FIMB binary (auto-detected)
//   output    result file; "-" or absent: stdout
//
// Output lines: the items of a set separated by spaces, followed by the
// absolute support in parentheses, e.g. "3 17 42 (57)". The mined output
// is bit-identical with and without --stats / --trace-out, and under
// every intersection-kernel tier (FIM_KERNEL=scalar|avx2, see
// docs/PERFORMANCE.md).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "api/miner.h"
#include "common/timer.h"
#include "data/binary_io.h"
#include "data/fimi_io.h"
#include "data/result_io.h"
#include "data/stats.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "rules/derive.h"
#include "tool_flags.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fim-mine [-a algorithm] [-s minsupp | -S percent] "
               "[-t threads] [-m] [-q] [--stats[=text|json]] "
               "[--stats-out=PATH] [--trace-out=PATH] [--mem-stats] "
               "input [output]\n");
}

// fim-mine writes its result in chunks of this size.
constexpr std::size_t kWriteChunkBytes = std::size_t{64} << 10;

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  Algorithm algorithm = Algorithm::kIsta;
  Support min_support = 2;
  double percent = -1.0;
  unsigned num_threads = 1;
  bool maximal_only = false;
  bool quiet = false;
  tools::ObsFlags obs_flags;
  std::string input;
  std::string output = "-";

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "-a") == 0) {
      auto parsed = ParseAlgorithm(next_value());
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      algorithm = parsed.value();
    } else if (std::strcmp(arg, "-s") == 0) {
      min_support = tools::ParseMinSupport(next_value());
    } else if (std::strcmp(arg, "-S") == 0) {
      percent = tools::ParsePercent("-S", next_value());
    } else if (std::strcmp(arg, "-t") == 0) {
      num_threads = tools::ParseCount<unsigned>("-t", next_value());
      if (num_threads < 1 || num_threads > tools::kMaxThreads) {
        std::fprintf(stderr, "error: -t needs a thread count in [1, %u]\n",
                     tools::kMaxThreads);
        return 2;
      }
    } else if (std::strcmp(arg, "-m") == 0) {
      maximal_only = true;
    } else if (std::strcmp(arg, "-q") == 0) {
      quiet = true;
    } else if (obs_flags.Parse(arg)) {
      // one of --stats / --stats-out / --trace-out
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (positional == 0) {
      input = arg;
      ++positional;
    } else if (positional == 1) {
      output = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if (input.empty()) {
    Usage();
    return 2;
  }

  obs_flags.Finish();

  WallTimer total;
  const obs::ResourceUsage start_usage = obs::ReadResourceUsage();
  obs::Trace trace_storage;
  obs::Trace* trace = obs_flags.WantStats() ? &trace_storage : nullptr;
  MinerStats miner_stats;
  MinerStats* stats = obs_flags.WantStats() ? &miner_stats : nullptr;
  std::unique_ptr<obs::Timeline> timeline;
  if (obs_flags.WantTrace()) timeline = std::make_unique<obs::Timeline>();
  tools::MemSession mem_session(obs_flags);

  obs::Span load_span(trace, "load");
  auto loaded = ReadDatabaseFile(input);
  load_span.End();
  if (!loaded.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const TransactionDatabase& db = loaded.value();
  if (percent >= 0.0) {
    min_support = static_cast<Support>(std::ceil(
        percent / 100.0 * static_cast<double>(db.NumTransactions())));
    if (min_support == 0) min_support = 1;
  }
  if (!quiet) {
    std::fprintf(stderr, "fim-mine: %s; algorithm %s, min support %u\n",
                 StatsToString(ComputeStats(db)).c_str(),
                 AlgorithmName(algorithm), min_support);
  }

  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = min_support;
  options.num_threads = num_threads;
  options.timeline = timeline.get();
  options.memory = mem_session.breakdown();

  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (output != "-") {
    file_out.open(output, std::ios::trunc);
    if (!file_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   output.c_str());
      return 1;
    }
    out = &file_out;
  }

  WallTimer mining;
  std::size_t count = 0;
  Status status;
  std::string buffer;
  // Each write is a `write` span under the span open at the time
  // (mine/report/write for IsTa), so `report` times the mining alone.
  // After a failed write the miner runs to its end with nothing more
  // formatted, and the tool exits 1.
  bool write_failed = false;
  auto write_buffer = [&]() {
    obs::Span write_span(trace, "write");
    out->write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
    write_failed = !*out;
  };
  auto print_set = [&](std::span<const ItemId> items, Support support) {
    ++count;
    if (write_failed) return;
    AppendClosedSet(&buffer, items, support);
    if (buffer.size() >= kWriteChunkBytes) write_buffer();
  };

  if (maximal_only) {
    auto closed = MineClosedCollect(db, options, stats, trace);
    if (!closed.ok()) {
      status = closed.status();
    } else {
      for (const auto& set : FilterMaximal(std::move(closed).value())) {
        print_set(set.items, set.support);
      }
    }
  } else {
    status = MineClosed(db, options, print_set, stats, trace);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "mining failed: %s\n", status.ToString().c_str());
    return 1;
  }
  write_buffer();
  out->flush();
  if (!tools::ResultWritten(*out, output)) return 1;
  if (!quiet) {
    std::fprintf(stderr,
                 "fim-mine: %zu %s item sets in %.3fs (%.3fs total)\n", count,
                 maximal_only ? "maximal" : "closed", mining.Seconds(),
                 total.Seconds());
  }

  if (mem_session.breakdown() != nullptr) {
    // The tool owns the original database; the miners record only what
    // they build themselves.
    mem_session.breakdown()->Record(db.ApproxMemoryUsage());
  }
  const obs::MemoryReport* mem_report = mem_session.Finish();

  if (timeline != nullptr) {
    obs::TraceMeta meta;
    meta.tool = "fim-mine";
    meta.algorithm = AlgorithmName(algorithm);
    if (int rc = tools::EmitChromeTrace(obs_flags, *timeline, meta); rc != 0) {
      return rc;
    }
  }
  if (obs_flags.WantStats()) {
    obs::StatsReport report;
    report.tool = "fim-mine";
    report.algorithm = AlgorithmName(algorithm);
    report.min_support = min_support;
    report.num_threads = num_threads;
    report.num_sets = count;
    report.wall_seconds = total.Seconds();
    tools::FillProcessUsage(start_usage, &report);
    report.miner = miner_stats;
    report.trace = &trace_storage;
    report.memory = mem_report;
    return tools::EmitStatsReport(obs_flags, report);
  }
  return 0;
}
