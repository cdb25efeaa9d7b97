// fim_bench: the end-to-end and per-layer benchmark of the closed-set
// miners. README.md has the workloads, the metric catalog and the
// protocol for comparing two commits.
//
//   fim_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//             [--quick] [--json PATH]
//
// Each workload runs in two child processes of this binary:
//   prepare  generates the workload's database, encodes it for --seed,
//            writes it as a FIMI file and computes the untimed reference
//            digests the answers are checked against;
//   measure  loads the FIMI file with ReadFimiFile, the user's load path,
//            times the workload's answers in a closed loop (one caller,
//            each answer starts when the previous one returned) for
//            --seconds, checks every answer, and prints
//            `workload metric value unit` lines.
// A fresh measure process per workload makes the peak RSS the workload's
// own and keeps the generator's allocations out of the heap the answers
// run on.
//
// This process echoes the measured lines and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes a Chrome trace per workload beside the binary.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/miner.h"
#include "carpenter/carpenter.h"
#include "common/timer.h"
#include "data/fimi_io.h"
#include "data/recode.h"
#include "harness.h"
#include "obs/memory.h"
#include "obs/perf.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "stream/stream_miner.h"
#include "workloads.h"

extern char** environ;

namespace fim::bench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string mode;  // empty (drive), "prepare" or "measure"
  std::string workload = "all";
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string json_path;
  std::string dir;  // prepare and measure: the workload's work directory
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--prepare" || flag == "--measure") {
      args.mode = flag.substr(2);
      continue;
    }
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    // Every other flag takes a value, as `--flag value` or `--flag=value`.
    std::string value;
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "fim_bench: %s needs a value\n", flag.c_str());
      return std::nullopt;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) end = nullptr;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") end = nullptr;
      else end = value.data() + value.size();
    } else if (flag == "--json") {
      args.json_path = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      std::fprintf(stderr, "fim_bench: unknown flag %s\n", flag.c_str());
      return std::nullopt;
    }
    const bool numeric =
        flag == "--seed" || flag == "--seconds" || flag == "--trace";
    if (numeric && (value.empty() || end == nullptr || *end != '\0')) {
      std::fprintf(stderr, "fim_bench: bad value '%s' for %s\n",
                   value.c_str(), flag.c_str());
      return std::nullopt;
    }
  }
  return args;
}

fs::path ExeDir() { return fs::read_symlink("/proc/self/exe").parent_path(); }

// ---------------------------------------------------------------------------
// prepare

int Prepare(const Args& args, const Workload& workload) {
  // The stream miner keeps item ids as given and its tree shape follows
  // the item order, so stream encodings only reorder transactions (their
  // arrival order); batch miners recode items themselves.
  const Encoding encoding = Encode(BaseDatabase(workload.dataset, args.quick),
                                   args.seed, !workload.stream);
  const fs::path dir = args.dir;
  if (Status status = WriteFimiFile(encoding.db, dir / "input.fimi");
      !status.ok()) {
    std::fprintf(stderr, "fim_bench: %s\n", status.ToString().c_str());
    return 1;
  }

  WallTimer verify;
  std::ofstream out(dir / "reference.txt");
  // The reference output in base labels, where it does not depend on
  // --seed: the batch answer, and a stream query over the whole stream.
  std::optional<Digest> base_digest;
  auto mine = [&](const TransactionDatabase& db, Algorithm algorithm,
                  const ClosedSetCallback& callback) {
    MinerOptions options;
    options.algorithm = algorithm;
    options.min_support = workload.min_support;
    const Status status = MineClosed(db, options, callback);
    if (!status.ok()) {
      std::fprintf(stderr, "fim_bench: reference %s failed: %s\n",
                   AlgorithmName(algorithm), status.ToString().c_str());
    }
    return status.ok();
  };
  if (!workload.stream) {
    Digest digest;
    Digest base;
    std::vector<ItemId> decoded;
    const bool ok = mine(encoding.db, workload.reference,
                         [&](std::span<const ItemId> items, Support support) {
                           digest.Add(items, support);
                           decoded.assign(items.begin(), items.end());
                           for (ItemId& item : decoded) {
                             item = encoding.to_base[item];
                           }
                           base.Add(decoded, support);
                         });
    if (!ok) return 1;
    out << "digest 0 " << digest.count << ' ' << digest.hash << '\n';
    base_digest = base;
  } else {
    const std::vector<std::vector<ItemId>>& rows =
        encoding.db.transactions();
    const std::vector<std::size_t> points = QueryPoints(workload, rows.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!IsCheckedQuery(i, points.size())) continue;
      const std::size_t start = WindowStart(workload, points[i]);
      const TransactionDatabase covered = TransactionDatabase::FromTransactions(
          {rows.begin() + static_cast<std::ptrdiff_t>(start),
           rows.begin() + static_cast<std::ptrdiff_t>(points[i])});
      Digest digest;
      if (!mine(covered, Algorithm::kFpClose, digest.Collector())) return 1;
      out << "digest " << i << ' ' << digest.count << ' ' << digest.hash
          << '\n';
      if (start == 0 && points[i] == rows.size()) base_digest = digest;
    }
  }
  out << "verify_s " << verify.Seconds() << '\n';

  const std::optional<Digest>& expected =
      args.quick ? workload.expected_quick : workload.expected;
  const char* committed = !expected.has_value()     ? "none"
                          : base_digest == expected ? "ok"
                                                    : "mismatch";
  out << "committed " << committed << '\n';
  if (base_digest.has_value()) {
    std::fprintf(stderr, "%s: reference digest in base labels: %llu sets, %llu "
                 "(committed: %s)\n",
                 workload.name,
                 static_cast<unsigned long long>(base_digest->count),
                 static_cast<unsigned long long>(base_digest->hash), committed);
  }
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// measure

struct Reference {
  std::map<std::size_t, Digest> digests;  // by answer / query index
  double verify_s = 0.0;
};

Reference ReadReference(const fs::path& path) {
  Reference reference;
  std::ifstream in(path);
  std::string key;
  while (in >> key) {
    if (key == "digest") {
      std::size_t index = 0;
      Digest digest;
      in >> index >> digest.count >> digest.hash;
      reference.digests[index] = digest;
    } else if (key == "verify_s") {
      in >> reference.verify_s;
    } else {
      in >> key;  // "committed": read by the driving process
    }
  }
  return reference;
}

/// Operations attempted, and failed: a non-OK status or a wrong digest.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The answers of one closed loop.
struct Answers {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;  // process CPU, all threads
  OpCounts ops;
  std::size_t last_sets = 0;
  double ingest_s = 0.0;  // stream: the ingest part of wall_s

  void Add(double wall, double cpu, bool ok, std::size_t sets) {
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    ++ops.attempted;
    if (!ok) ++ops.failed;
    last_sets = sets;
  }
};

/// The library's own observers, attached to the traced answers.
struct Observers {
  obs::Timeline* timeline = nullptr;
  obs::Trace trace;  // phase spans, summed over the traced answers
  obs::MemoryBreakdown memory;
  MinerStats stats;                            // of the last answer
  std::vector<obs::PerfDomainSample> domains;  // of the last answer
  StreamStats stream;
  std::size_t stream_bytes = 0;
  std::size_t stream_nodes = 0;
};

obs::TimelineLane* DriverLane(obs::Timeline* timeline) {
  return timeline != nullptr ? timeline->driver() : nullptr;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50);
}

/// The set-up a user pays: ReadFimiFile of the workload's input. The
/// loads are spread over the run, between the answers, because this
/// host's speed drifts within seconds and the median of one burst of
/// loads follows the drift: across eight processes a burst's median
/// spread by 33%, loads spread over ten seconds by 9%.
class SetupTimer {
 public:
  SetupTimer(std::string path, obs::TimelineLane* lane)
      : path_(std::move(path)), lane_(lane) {}

  /// Loads the input once; ends the process when it cannot.
  TransactionDatabase Load() {
    obs::TimelineScope span(lane_, "api.load");
    WallTimer wall;
    Result<TransactionDatabase> loaded = ReadFimiFile(path_);
    samples_.push_back(wall.Seconds());
    spent_s_ += samples_.back();
    if (!loaded.ok()) {
      std::fprintf(stderr, "fim_bench: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(loaded).value();
  }

  /// Loads and frees copies until loading has taken 5% of the time since
  /// the first load.
  void TopUp() {
    while (spent_s_ < 0.05 * since_first_.Seconds()) Load();
  }

  double MedianSeconds() const { return Median(samples_); }

 private:
  const std::string path_;
  obs::TimelineLane* const lane_;
  std::vector<double> samples_;
  double spent_s_ = 0.0;
  WallTimer since_first_;
};

Answers RunBatch(const Workload& workload, const TransactionDatabase& db,
                 const Reference& reference, double seconds,
                 SetupTimer* setup, Observers* observers) {
  const Digest expected = reference.digests.at(0);
  MinerOptions options = AnswerOptions(workload);
  obs::TimelineLane* lane = nullptr;
  if (observers != nullptr) {
    options.timeline = observers->timeline;
    options.memory = &observers->memory;
    lane = DriverLane(observers->timeline);
  }
  Answers answers;
  WallTimer loop;
  do {
    obs::PerfDomainCollector domains(/*enable_hw=*/false);
    if (observers != nullptr) options.perf_domains = &domains;
    Digest digest;
    obs::TimelineScope span(lane, "api.mine");
    const double cpu = ProcessCpuSeconds();
    WallTimer wall;
    const Status status = MineClosed(
        db, options, digest.Collector(),
        observers != nullptr ? &observers->stats : nullptr,
        observers != nullptr ? &observers->trace : nullptr);
    answers.Add(wall.Seconds(), ProcessCpuSeconds() - cpu,
                status.ok() && digest == expected, digest.count);
    span.End();
    if (observers != nullptr) observers->domains = domains.Samples();
    setup->TopUp();
  } while (loop.Seconds() < seconds);
  return answers;
}

Answers RunStream(const Workload& workload, const TransactionDatabase& db,
                  const Reference& reference, double seconds,
                  SetupTimer* setup, Observers* observers) {
  StreamMinerOptions options;
  options.max_items = db.NumItems();
  options.pane_size = workload.pane_size;
  options.window_panes = workload.window_panes;
  obs::TimelineLane* lane = nullptr;
  if (observers != nullptr) {
    options.trace = &observers->trace;
    options.timeline = observers->timeline;
    lane = DriverLane(observers->timeline);
  }
  StreamMiner miner(options);
  const std::vector<std::size_t> points =
      QueryPoints(workload, db.NumTransactions());
  Answers answers;
  std::size_t next = 0;
  WallTimer loop;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0 && loop.Seconds() >= seconds) break;
    const double cpu = ProcessCpuSeconds();
    WallTimer wall;
    {
      obs::TimelineScope span(lane, "api.ingest");
      for (; next < points[i]; ++next) {
        // Every AddTransaction is an operation of its own.
        ++answers.ops.attempted;
        if (!miner.AddTransaction(db.transaction(next)).ok()) {
          ++answers.ops.failed;
        }
      }
    }
    answers.ingest_s += wall.Seconds();
    Digest digest;
    obs::TimelineScope span(lane, "api.query");
    const Status status = miner.Query(workload.min_support, digest.Collector());
    span.End();
    const auto expected = reference.digests.find(i);
    answers.Add(wall.Seconds(), ProcessCpuSeconds() - cpu,
                status.ok() && (expected == reference.digests.end() ||
                                expected->second == digest),
                digest.count);
    setup->TopUp();
  }
  if (observers != nullptr) {
    observers->stream = miner.Stats();
    observers->stream_bytes = miner.ApproxMemoryUsage().TotalBytes();
    observers->stream_nodes = miner.NodeCount();
  }
  return answers;
}

Answers RunAnswers(const Workload& workload, const TransactionDatabase& db,
                   const Reference& reference, double seconds,
                   SetupTimer* setup, Observers* observers) {
  return workload.stream
             ? RunStream(workload, db, reference, seconds, setup, observers)
             : RunBatch(workload, db, reference, seconds, setup, observers);
}

/// Median wall time of `call`, repeated until it has run at least once
/// and for `repeat_s` (at most 5 times), each run inside a span on
/// `lane`. Each result is freed after its timer stops; the last is kept
/// in `*last`.
template <typename T, typename Call>
double TimeRepeated(obs::TimelineLane* lane, const char* span_name,
                    double repeat_s, const Call& call, T* last) {
  std::vector<double> samples;
  WallTimer total;
  do {
    obs::TimelineScope span(lane, span_name);
    WallTimer wall;
    T result = call();
    samples.push_back(wall.Seconds());
    *last = std::move(result);
  } while (total.Seconds() < repeat_s && samples.size() < 5);
  return Median(samples);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// `child`'s share of `parent`'s wall time (0 when either is missing).
double Share(const obs::SpanNode* parent, const char* child) {
  if (parent == nullptr) return 0.0;
  const obs::SpanNode* node = parent->FindChild(child);
  return node != nullptr ? Ratio(node->wall_seconds, parent->wall_seconds)
                         : 0.0;
}

class Printer {
 public:
  explicit Printer(const Workload& workload) : workload_(workload) {}

  void operator()(const char* name, double value, const char* unit) const {
    std::printf("%s %s %.17g %s\n", workload_.name, name, value, unit);
  }

 private:
  const Workload& workload_;
};

/// Calls the data layer's public functions with IsTa's arguments and
/// prints the data.* metrics; returns the Carpenter matrix build time
/// (0 unless the workload answers with Carpenter table).
double ProbeDataLayer(const Workload& workload, const TransactionDatabase& db,
                      double seconds, obs::Timeline* timeline,
                      const Printer& print) {
  auto recode = [&](unsigned threads) {
    const Recoding recoding = ComputeRecoding(
        db, ItemOrder::kFrequencyAscending, workload.min_support);
    return ApplyRecoding(db, recoding, TransactionOrder::kSizeAscending,
                         threads, threads > 1 ? timeline : nullptr);
  };
  obs::TimelineLane* lane = DriverLane(timeline);
  const double repeat_s = 0.05 * seconds;  // per probe
  TransactionDatabase coded;
  TransactionDatabase coded_par;
  const double recode_s = TimeRepeated(
      lane, "data.recode", repeat_s, [&] { return recode(1); }, &coded);
  const double recode_par_s = TimeRepeated(
      lane, "data.recode-par", repeat_s,
      [&] { return recode(ParallelThreads()); }, &coded_par);
  // Size-ascending, then lexicographic: equal transactions are adjacent.
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < coded.NumTransactions(); ++k) {
    if (k == 0 || coded.transaction(k) != coded.transaction(k - 1)) ++distinct;
  }
  print("data.recode_s", recode_s, "s");
  print("data.recode_par_s", recode_par_s, "s");
  print("data.db_mib", BytesToMib(db.ApproxMemoryUsage().TotalBytes()), "MiB");
  print("data.dedup_ratio",
        Ratio(static_cast<double>(coded.NumTransactions()),
              static_cast<double>(distinct)),
        "ratio");
  double matrix_s = 0.0;
  if (!workload.stream && workload.algorithm == Algorithm::kCarpenterTable) {
    std::vector<Support> matrix;
    matrix_s = TimeRepeated(
        lane, "carpenter.matrix", repeat_s,
        [&] { return BuildCarpenterMatrix(coded); }, &matrix);
  }
  {
    // IsTa frees its recoded copy inside the answer, after its last
    // phase; free the copy built with the answer's thread count.
    TransactionDatabase& copy = workload.parallel ? coded_par : coded;
    obs::TimelineScope span(lane, "data.free");
    WallTimer wall;
    copy = TransactionDatabase();
    print("data.free_s", wall.Seconds(), "s");
  }
  return matrix_s;
}

/// The per-layer metrics (--trace 1): an untraced half of the answers for
/// the tracing overhead, the library's observers on a traced half, and
/// direct calls into the data layer's public functions.
OpCounts MeasureLayers(const Workload& workload, const TransactionDatabase& db,
                       const Reference& reference, double seconds,
                       SetupTimer* setup, obs::Timeline* timeline,
                       const Printer& print) {
  obs::TimelineLane* lane = DriverLane(timeline);
  // The host's speed, sampled before and after the traced work: this is
  // how a run on a slow stretch of a shared host shows.
  std::vector<double> calibration;
  auto calibrate = [&calibration] {
    for (int i = 0; i < 10; ++i) calibration.push_back(CalibrationSeconds());
  };
  calibrate();

  const obs::ResourceUsage before = obs::ReadResourceUsage();
  const Answers plain =
      RunAnswers(workload, db, reference, seconds / 2, setup, nullptr);
  const obs::ResourceUsage after = obs::ReadResourceUsage();
  Observers observers;
  observers.timeline = timeline;
  const Answers traced =
      RunAnswers(workload, db, reference, seconds / 2, setup, &observers);

  // After the answers, so that the data layer finds its caches and heap
  // in the state an answer leaves them in.
  const double matrix_s =
      ProbeDataLayer(workload, db, seconds, timeline, print);

  // Intersection work of the same answer at one thread, the base of the
  // parallel driver's step inflation.
  const MinerStats& stats = observers.stats;
  double step_inflation = 0.0;
  if (!workload.stream && workload.algorithm == Algorithm::kIsta) {
    std::uint64_t sequential_steps = stats.isect_steps;
    if (workload.parallel) {
      obs::TimelineScope span(lane, "bench.sequential-steps");
      MinerOptions options = AnswerOptions(workload);
      options.num_threads = 1;
      MinerStats sequential;
      MineClosed(db, options, [](std::span<const ItemId>, Support) {},
                 &sequential);
      sequential_steps = sequential.isect_steps;
    }
    step_inflation = Ratio(static_cast<double>(stats.isect_steps),
                           static_cast<double>(sequential_steps));
  }
  double shard_max = 0.0;
  double shard_sum = 0.0;
  double shards = 0.0;
  double domain_cpu_s = 0.0;
  for (const obs::PerfDomainSample& domain : observers.domains) {
    domain_cpu_s += domain.cpu_seconds;
    if (domain.name.rfind("shard-", 0) != 0) continue;
    const double steps = static_cast<double>(domain.work_steps);
    shard_max = std::max(shard_max, steps);
    shard_sum += steps;
    shards += 1.0;
  }
  std::size_t seals = 0;
  if (lane != nullptr) {
    for (const obs::TimelineEvent& event : lane->Snapshot()) {
      if (event.kind == obs::TimelineEvent::Kind::kInstant &&
          std::string_view(event.name) == "seal") {
        ++seals;
      }
    }
  }

  // Tracing overhead over the answers both halves reached (a stream
  // answer's cost depends on its position in the stream).
  const std::size_t common =
      std::min(plain.wall_s.size(), traced.wall_s.size());
  const double plain_median = Median(
      {plain.wall_s.begin(), plain.wall_s.begin() + common});
  const double traced_median = Median(
      {traced.wall_s.begin(), traced.wall_s.begin() + common});
  double traced_wall_s = 0.0;
  for (double wall : traced.wall_s) traced_wall_s += wall;

  const obs::SpanNode* mine = observers.trace.root().FindChild("mine");
  const obs::SpanNode* query = observers.trace.root().FindChild("query");
  const double phases[] = {Share(mine, "recode"), Share(mine, "dedup"),
                           Share(mine, "shard-mine"), Share(mine, "merge"),
                           Share(mine, "report")};
  print("ista.recode_share", phases[0], "fraction");
  print("ista.dedup_share", phases[1], "fraction");
  print("ista.shard_mine_share", phases[2], "fraction");
  print("ista.merge_share", phases[3], "fraction");
  print("ista.report_share", phases[4], "fraction");
  print("ista.phase_coverage",
        phases[0] + phases[1] + phases[2] + phases[3] + phases[4], "fraction");
  print("ista.isect_steps", static_cast<double>(stats.isect_steps), "count");
  print("ista.step_inflation", step_inflation, "ratio");
  print("ista.shard_skew", Ratio(shard_max, Ratio(shard_sum, shards)),
        "ratio");
  print("ista.worker_cpu_share",
        Ratio(domain_cpu_s, traced.wall_s.empty() ? 0 : traced.wall_s.back()),
        "ratio");
  print("ista.peak_nodes", static_cast<double>(stats.peak_nodes), "count");
  print("ista.prune_calls", static_cast<double>(stats.prune_calls), "count");
  print("ista.merge_calls", static_cast<double>(stats.merge_calls), "count");
  print("ista.weighted_tx", static_cast<double>(stats.weighted_transactions),
        "count");

  print("carpenter.matrix_share", Ratio(matrix_s, plain_median), "fraction");
  print("carpenter.nodes_visited", static_cast<double>(stats.nodes_visited),
        "count");
  print("carpenter.repo_hit_ratio",
        Ratio(static_cast<double>(stats.repo_hits),
              static_cast<double>(stats.repo_hits + stats.nodes_visited)),
        "fraction");
  print("enumeration.extension_checks",
        static_cast<double>(stats.extension_checks), "count");
  print("enumeration.closure_checks",
        static_cast<double>(stats.closure_checks), "count");
  print("kernels.calls", static_cast<double>(stats.kernel_calls), "count");
  print("kernels.elements_in", static_cast<double>(stats.kernel_elements_in),
        "count");
  print("kernels.selectivity",
        Ratio(static_cast<double>(stats.kernel_elements_out),
              static_cast<double>(stats.kernel_elements_in)),
        "fraction");

  const StreamStats& stream = observers.stream;
  print("stream.ingest_share", Ratio(traced.ingest_s, traced_wall_s),
        "fraction");
  print("stream.query.freeze_share", Share(query, "query-freeze"), "fraction");
  print("stream.query.merge_share", Share(query, "query-merge"), "fraction");
  print("stream.query.compact_share", Share(query, "query-compact"),
        "fraction");
  print("stream.query.report_share", Share(query, "query-report"), "fraction");
  print("stream.merges_per_query",
        Ratio(static_cast<double>(stream.snapshot_merges),
              static_cast<double>(stream.queries)),
        "ratio");
  print("stream.seals", static_cast<double>(seals), "count");
  print("stream.segments_compacted",
        static_cast<double>(stream.segments_compacted), "count");
  print("stream.nodes", static_cast<double>(observers.stream_nodes), "count");

  print("mine.sets", static_cast<double>(traced.last_sets), "count");
  print("mine.structures_mib",
        BytesToMib(workload.stream ? observers.stream_bytes
                                   : observers.memory.HighWaterBytes()),
        "MiB");

  print("bench.answer_ms_p90", 1000 * Percentile(plain.wall_s, 90), "ms");
  print("bench.answers", static_cast<double>(plain.wall_s.size()), "count");
  print("bench.trace_overhead", Ratio(traced_median, plain_median), "ratio");
  print("bench.invol_ctx_switches",
        static_cast<double>(after.involuntary_ctx_switches -
                            before.involuntary_ctx_switches),
        "count");
  print("bench.verify_s", reference.verify_s, "s");
  calibrate();
  print("bench.calibration_ms", 1000 * Median(calibration), "ms");
  return {plain.ops.attempted + traced.ops.attempted,
          plain.ops.failed + traced.ops.failed};
}

int Measure(const Args& args, const Workload& workload) {
  const fs::path dir = args.dir;
  const Reference reference = ReadReference(dir / "reference.txt");
  const std::string input = dir / "input.fimi";
  const Printer print(workload);
  std::unique_ptr<obs::Timeline> timeline;
  if (args.trace) timeline = std::make_unique<obs::Timeline>(4096);
  obs::TimelineLane* lane = DriverLane(timeline.get());

  // Three loads before the answers, one copy at a time; the last is kept.
  SetupTimer setup(input, lane);
  TransactionDatabase db;
  for (int i = 0; i < 3; ++i) {
    db = TransactionDatabase();
    db = setup.Load();
  }

  OpCounts ops;
  if (!args.trace) {
    const Answers answers =
        RunAnswers(workload, db, reference, args.seconds, &setup, nullptr);
    ops = answers.ops;
    print("setup_s", setup.MedianSeconds(), "s");
    print("answer_ms_p50", 1000 * Median(answers.wall_s), "ms");
    print("answer_cpu_ms_p50", 1000 * Median(answers.cpu_s), "ms");
    print("peak_rss_mib", BytesToMib(PeakRss()), "MiB");
  } else {
    ops = MeasureLayers(workload, db, reference, args.seconds, &setup,
                        timeline.get(), print);
    print("data.load_s", setup.MedianSeconds(), "s");
    print("data.load_mib_per_s",
          Ratio(BytesToMib(fs::file_size(input)), setup.MedianSeconds()),
          "MiB/s");
    const fs::path traces = ExeDir() / "traces";
    fs::create_directories(traces);
    const fs::path path = traces / (std::string(workload.name) + ".json");
    if (Status status = obs::WriteChromeTraceFile(
            *timeline, {"fim_bench", workload.name}, path);
        !status.ok()) {
      std::fprintf(stderr, "fim_bench: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s: Chrome trace in %s\n", workload.name,
                 path.c_str());
  }
  std::printf("%s attempted %llu\n%s failed %llu\n", workload.name,
              static_cast<unsigned long long>(ops.attempted), workload.name,
              static_cast<unsigned long long>(ops.failed));
  return std::fflush(stdout) == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// drive

/// Runs this binary with `args` and waits for it to end; its standard
/// output goes to `stdout_path`. True when it exited with 0.
bool RunChild(const std::vector<std::string>& args,
              const std::string& stdout_path) {
  std::vector<std::string> storage = {"fim_bench"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                   stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::fflush(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    std::fprintf(stderr, "fim_bench: cannot start a child: %s\n",
                 std::strerror(spawned));
    return false;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct Metric {
  std::string name;
  std::string value;  // as printed, every digit kept
  std::string unit;
};

int Drive(const Args& args) {
  std::vector<const Workload*> selected;
  if (args.workload == "all") {
    for (const Workload& workload : Workloads()) selected.push_back(&workload);
  } else if (const Workload* workload = FindWorkload(args.workload)) {
    selected.push_back(workload);
  } else {
    std::fprintf(stderr, "fim_bench: unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const Workload& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, " all\n");
    return 2;
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  for (const Workload* workload : selected) {
    const fs::path dir = ExeDir() / "work" /
                         (std::string(workload->name) + "-" +
                          std::to_string(getpid()));
    fs::create_directories(dir);
    std::vector<std::string> common = {"--workload", workload->name, "--dir",
                                       dir.string()};
    if (args.quick) common.push_back("--quick");
    std::vector<std::string> prepare = {"--prepare", "--seed",
                                        std::to_string(args.seed)};
    prepare.insert(prepare.end(), common.begin(), common.end());
    std::ostringstream seconds;
    seconds.precision(17);
    seconds << args.seconds;
    std::vector<std::string> measure = {"--measure", "--seconds",
                                        seconds.str(), "--trace",
                                        args.trace ? "1" : "0"};
    measure.insert(measure.end(), common.begin(), common.end());
    const fs::path lines = dir / "metrics.txt";
    const bool ran = RunChild(prepare, "/dev/null") &&
                     RunChild(measure, lines.string());

    std::ifstream reference(dir / "reference.txt");
    for (std::string key, value; reference >> key >> value;) {
      if (key == "committed" && value == "mismatch") {
        std::fprintf(stderr,
                     "%s: the reference disagrees with the committed digest\n",
                     workload->name);
        correct = false;
      }
    }
    std::ifstream in(lines);
    for (std::string line; std::getline(in, line);) {
      std::istringstream fields(line);
      std::string name;
      std::string key;
      Metric metric;
      fields >> name >> key >> metric.value >> metric.unit;
      if (key == "attempted" || key == "failed") {
        (key == "attempted" ? attempted : failed) +=
            std::strtoull(metric.value.c_str(), nullptr, 10);
        continue;
      }
      if (metric.unit.empty()) continue;
      std::printf("%s\n", line.c_str());
      metric.name = selected.size() > 1 ? name + "/" + key : key;
      metrics.push_back(metric);
    }
    fs::remove_all(dir);
    if (!ran) {
      std::fprintf(stderr, "fim_bench: workload %s did not complete\n",
                   workload->name);
      return 1;
    }
  }
  correct = correct && failed == 0;

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  if (!args.json_path.empty()) {
    std::ofstream(args.json_path) << json.str() << '\n';
  }
  return 0;
}

}  // namespace
}  // namespace fim::bench

int main(int argc, char** argv) {
  using namespace fim::bench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) return 2;
  if (args->mode.empty()) return Drive(*args);
  const Workload* workload = FindWorkload(args->workload);
  if (workload == nullptr || args->dir.empty()) {
    std::fprintf(stderr, "fim_bench: --%s needs --workload and --dir\n",
                 args->mode.c_str());
    return 2;
  }
  return args->mode == "prepare" ? Prepare(*args, *workload)
                                 : Measure(*args, *workload);
}
