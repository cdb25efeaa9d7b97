// fim-stream: continuous closed-item-set mining over a transaction
// stream (src/stream/). Replays a FIMI file — or reads stdin line by
// line — into a StreamMiner, answering exact snapshot queries along the
// way and optionally checkpointing/resuming the miner state.
//
//   fim-stream [-s minsupp] [--pane=N --window=W] [--query-every=N]
//              [--checkpoint=PATH] [--checkpoint-every=N] [--resume=PATH]
//              [--max-items=N] [-q] [--stats[=text|json]]
//              [--stats-out=PATH] [--trace-out=PATH] [--mem-stats]
//              [input [output]]
//
//   -s N        minimum support of every snapshot query, at least 1
//               (default: 2)
//   --pane=N    transactions per tumbling pane (sliding-window mode;
//               requires --window)
//   --window=W  number of live panes a snapshot covers (requires --pane).
//               Without --pane/--window the miner runs in landmark mode:
//               every snapshot covers the whole stream so far.
//   --query-every=N
//               emit an intermediate snapshot after every N ingested
//               transactions, preceded by a "# snapshot tx=T sets=S"
//               header line (T counts from the start of the stream, so a
//               resumed run emits the same headers at the same points)
//   --checkpoint=PATH
//               write a fim-stream-v2 checkpoint of the full miner state
//               to PATH after the input is exhausted
//   --checkpoint-every=N
//               additionally checkpoint after every N transactions
//               (atomic: written to PATH.tmp, then renamed)
//   --resume=PATH
//               restore the miner from a checkpoint before ingesting;
//               mode and item capacity come from the checkpoint and
//               override --pane/--window/--max-items
//   --max-items=N
//               item-universe capacity; ingesting an item id >= N is an
//               error (default: 1048576)
//   -q          quiet: no progress line on stderr
//   --stats[=text|json], --stats-out=PATH
//               emit an execution-statistics report including the
//               stream.* counters and the miner's phase spans (rotate,
//               query, checkpoint; see docs/OBSERVABILITY.md)
//   --trace-out=PATH
//               record the miner's event timeline (pane rotations and
//               seals, query phases, checkpoints) and write Chrome
//               trace-event JSON to PATH
//   --mem-stats
//               collect the per-structure memory breakdown (completed
//               panes, the filling pane) and add the `memory`
//               section to the stats report (implies --stats)
//   input       FIMI text file; "-" or absent: stdin (line-buffered —
//               suitable for live piping)
//   output      snapshot destination; "-" or absent: stdout
//
// After the input ends, the final snapshot is always printed in fim-mine
// format ("3 17 42 (57)" lines), so `fim-stream -s N input` on a finite
// file produces the same sets as `fim-mine -s N input` in landmark mode.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.h"
#include "data/fimi_io.h"
#include "data/itemset.h"
#include "data/result_io.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "stream/stream_miner.h"
#include "tool_flags.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: fim-stream [-s minsupp] [--pane=N --window=W] "
      "[--query-every=N] [--checkpoint=PATH] [--checkpoint-every=N] "
      "[--resume=PATH] [--max-items=N] [-q] [--stats[=text|json]] "
      "[--stats-out=PATH] [--trace-out=PATH] [--mem-stats] "
      "[input [output]]\n");
}

struct Args {
  fim::Support min_support = 2;
  std::size_t pane_size = 0;
  std::size_t window_panes = 0;
  std::uint64_t query_every = 0;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::string resume_path;
  std::size_t max_items = std::size_t{1} << 20;
  bool quiet = false;
  fim::tools::ObsFlags obs;
  std::string input = "-";
  std::string output = "-";
};

/// Fills `args` from the command line; returns -1 to proceed, otherwise
/// the process exit code.
int ParseArgs(int argc, char** argv, Args* args) {
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
    if (std::strcmp(arg, "-s") == 0) {
      args->min_support = fim::tools::ParseMinSupport(next_value());
    } else if (std::strncmp(arg, "--pane=", 7) == 0) {
      args->pane_size =
          fim::tools::ParseCount<std::size_t>("--pane", arg + 7);
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      args->window_panes =
          fim::tools::ParseCount<std::size_t>("--window", arg + 9);
    } else if (std::strncmp(arg, "--query-every=", 14) == 0) {
      args->query_every =
          fim::tools::ParseCount<std::uint64_t>("--query-every", arg + 14);
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      args->checkpoint_path = arg + 13;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      args->checkpoint_every =
          fim::tools::ParseCount<std::uint64_t>("--checkpoint-every", arg + 19);
    } else if (std::strncmp(arg, "--resume=", 9) == 0) {
      args->resume_path = arg + 9;
    } else if (std::strncmp(arg, "--max-items=", 12) == 0) {
      args->max_items =
          fim::tools::ParseCount<std::size_t>("--max-items", arg + 12, 1);
    } else if (std::strcmp(arg, "-q") == 0) {
      args->quiet = true;
    } else if (args->obs.Parse(arg)) {
      // one of --stats / --stats-out / --trace-out
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (fim::tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (positional == 0) {
      args->input = arg;
      ++positional;
    } else if (positional == 1) {
      args->output = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if ((args->pane_size == 0) != (args->window_panes == 0)) {
    std::fprintf(stderr,
                 "error: --pane and --window must be given together\n");
    return 2;
  }
  args->obs.Finish();
  if (args->checkpoint_every > 0 && args->checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every needs --checkpoint=PATH\n");
    return 2;
  }
  return -1;
}

int EmitStats(const Args& args, fim::StreamMiner& miner,
              const fim::obs::Trace* trace,
              const fim::obs::MemoryReport* memory, std::size_t num_sets,
              double wall_seconds,
              const fim::obs::ResourceUsage& start_usage) {
  fim::obs::StatsReport report;
  report.tool = "fim-stream";
  report.algorithm =
      miner.options().pane_size > 0 ? "stream-window" : "stream-landmark";
  report.min_support = args.min_support;
  report.num_threads = 1;
  report.num_sets = num_sets;
  report.wall_seconds = wall_seconds;
  fim::tools::FillProcessUsage(start_usage, &report);
  // The miner's own counters, sorted by name.
  const fim::StreamStats stats = miner.Stats();
  report.extra_counters = {
      {"stream.checkpoint_bytes_read", stats.checkpoint_bytes_read},
      {"stream.checkpoint_bytes_written", stats.checkpoint_bytes_written},
      {"stream.panes_expired", stats.panes_expired},
      {"stream.panes_rotated", stats.panes_rotated},
      {"stream.queries", stats.queries},
      {"stream.transactions_ingested", stats.transactions_ingested},
      {"stream.weighted_additions", stats.weighted_additions},
  };
  report.trace = trace;
  report.memory = memory;
  return fim::tools::EmitStatsReport(args.obs, report);
}

int PrintSnapshot(fim::StreamMiner& miner, fim::Support min_support,
                  std::ostream& out, std::size_t* num_sets) {
  std::size_t count = 0;
  std::string line;
  fim::Status status = miner.Query(
      min_support, [&](std::span<const fim::ItemId> items,
                       fim::Support support) {
        line.clear();
        fim::AppendClosedSet(&line, items, support);
        out.write(line.data(), static_cast<std::streamsize>(line.size()));
        ++count;
      });
  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
    return 1;
  }
  *num_sets = count;
  return 0;
}

int WriteCheckpoint(fim::StreamMiner& miner, const std::string& path) {
  // Write-then-rename, so a reader (or a crash) never sees a torn file.
  const std::string tmp = path + ".tmp";
  fim::Status status = miner.Checkpoint(tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = fim::Status::IoError("cannot rename " + tmp + " to " + path);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  Args args;
  if (int rc = ParseArgs(argc, argv, &args); rc >= 0) return rc;

  WallTimer total;
  const obs::ResourceUsage start_usage = obs::ReadResourceUsage();
  obs::Trace trace_storage;
  obs::Trace* trace = args.obs.WantStats() ? &trace_storage : nullptr;
  std::unique_ptr<obs::Timeline> timeline;
  if (args.obs.WantTrace()) timeline = std::make_unique<obs::Timeline>();
  tools::MemSession mem_session(args.obs);

  std::unique_ptr<StreamMiner> miner;
  if (!args.resume_path.empty()) {
    auto restored =
        StreamMiner::Restore(args.resume_path, trace, timeline.get());
    if (!restored.ok()) {
      std::fprintf(stderr, "error restoring %s: %s\n",
                   args.resume_path.c_str(),
                   restored.status().ToString().c_str());
      return 1;
    }
    miner = std::move(restored).value();
    if (!args.quiet) {
      std::fprintf(stderr, "fim-stream: resumed at tx %llu from %s\n",
                   static_cast<unsigned long long>(miner->NumTransactions()),
                   args.resume_path.c_str());
    }
  } else {
    StreamMinerOptions options;
    options.max_items = args.max_items;
    options.pane_size = args.pane_size;
    options.window_panes = args.window_panes;
    options.trace = trace;
    options.timeline = timeline.get();
    miner = std::make_unique<StreamMiner>(options);
  }

  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (args.input != "-") {
    file_in.open(args.input);
    if (!file_in) {
      std::fprintf(stderr, "error: cannot open %s\n", args.input.c_str());
      return 1;
    }
    in = &file_in;
  }
  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (args.output != "-") {
    file_out.open(args.output, std::ios::trunc);
    if (!file_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   args.output.c_str());
      return 1;
    }
    out = &file_out;
  }

  // Lines are read as ParseFimi reads them: empty and '#' lines are
  // skipped, the rest go through the same scanner, and a line without
  // items adds nothing.
  std::string line;
  std::string error;
  std::vector<ItemId> items;
  std::uint64_t line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    if (!ParseFimiLine(line, &items, &error)) {
      const Status status = Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": " + error);
      std::fprintf(stderr, "error reading %s: %s\n", args.input.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    if (items.empty()) continue;
    Status status = miner->AddTransaction(items);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s line %llu: %s\n", args.input.c_str(),
                   static_cast<unsigned long long>(line_number),
                   status.ToString().c_str());
      return 1;
    }
    const std::uint64_t ingested = miner->NumTransactions();
    if (args.query_every > 0 && ingested % args.query_every == 0) {
      // The header carries the absolute stream position, so snapshots of
      // a resumed run line up with the uninterrupted one.
      std::size_t num_sets = 0;
      std::ostringstream snapshot;
      if (int rc =
              PrintSnapshot(*miner, args.min_support, snapshot, &num_sets);
          rc != 0) {
        return rc;
      }
      *out << "# snapshot tx=" << ingested << " sets=" << num_sets << "\n"
           << snapshot.str();
      out->flush();
      if (!tools::ResultWritten(*out, args.output)) return 1;
    }
    if (args.checkpoint_every > 0 && ingested % args.checkpoint_every == 0) {
      if (int rc = WriteCheckpoint(*miner, args.checkpoint_path); rc != 0) {
        return rc;
      }
    }
  }

  std::size_t num_sets = 0;
  if (args.query_every > 0) {
    *out << "# final tx=" << miner->NumTransactions() << "\n";
  }
  if (int rc = PrintSnapshot(*miner, args.min_support, *out, &num_sets);
      rc != 0) {
    return rc;
  }
  out->flush();
  if (!tools::ResultWritten(*out, args.output)) return 1;
  if (!args.checkpoint_path.empty()) {
    if (int rc = WriteCheckpoint(*miner, args.checkpoint_path); rc != 0) {
      return rc;
    }
  }

  if (mem_session.breakdown() != nullptr) {
    mem_session.breakdown()->Record(miner->ApproxMemoryUsage());
  }
  const obs::MemoryReport* mem_report = mem_session.Finish();

  if (timeline != nullptr) {
    obs::TraceMeta meta;
    meta.tool = "fim-stream";
    meta.algorithm =
        miner->options().pane_size > 0 ? "stream-window" : "stream-landmark";
    if (int rc = tools::EmitChromeTrace(args.obs, *timeline, meta); rc != 0) {
      return rc;
    }
  }

  const StreamStats stream_stats = miner->Stats();
  if (!args.quiet) {
    std::fprintf(
        stderr,
        "fim-stream: %llu transactions (%llu weighted rows, %llu panes), "
        "%zu sets at smin %u, %zu rows held, %.3fs\n",
        static_cast<unsigned long long>(stream_stats.transactions_ingested),
        static_cast<unsigned long long>(stream_stats.weighted_additions),
        static_cast<unsigned long long>(stream_stats.panes_rotated),
        num_sets, args.min_support, miner->NodeCount(), total.Seconds());
  }
  if (args.obs.WantStats()) {
    return EmitStats(args, *miner, trace, mem_report, num_sets,
                     total.Seconds(), start_usage);
  }
  return 0;
}
