// Intersection-kernel bench: throughput of every available kernel tier
// (scalar / avx2) plus the galloping kernel over three sweeps —
//
//   balanced   na = nb, lengths 64..262144, ~25% selectivity
//   skew       nb = 65536 fixed, na = nb / ratio for ratios 1..256
//              (crosses the adaptive kGallopRatio cutover)
//   dense      bitset word-AND over universes 4K..1M words vs the
//              sorted-list merge at the TidSet density cutover
//
// Writes the committed BENCH_kernels.json report (schema
// fim-bench-kernels-v1): top level records hardware_threads, the CPU
// feature flags the numbers were measured under, and whether hardware
// counters were readable; each point carries the operation, series
// (kernel tier), shape, the measured million-elements-per-second
// throughput, and a "perf" object with the kernel's IPC and LLC miss
// rate over the timed loop — numbers where perf_event_open works, null
// on denied hosts (VMs without a virtualized PMU, perf_event_paranoid),
// so the schema is identical everywhere. Regenerate with
//
//   ./build/bench/bench_kernels --json=BENCH_kernels.json

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "kernels/intersect.h"
#include "obs/perf.h"

namespace {

using namespace fim;
using U32s = std::vector<std::uint32_t>;

U32s SortedUnique(std::size_t size, std::size_t universe, std::uint64_t seed) {
  Rng rng(seed);
  U32s v;
  v.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(static_cast<std::uint32_t>(rng.Uniform(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

struct Point {
  std::string op;       // "intersect" | "gallop" | "bitset_and"
  std::string series;   // kernel tier or "gallop"
  std::size_t na = 0;
  std::size_t nb = 0;
  double density = 0.0;  // dense sweep only
  double seconds_per_call = 0.0;
  double melems_per_sec = 0.0;
  std::size_t out_elems = 0;
  // NaN = not measured (PMU denied); rendered as JSON null, never 0.
  double ipc = std::numeric_limits<double>::quiet_NaN();
  double llc_miss_rate = std::numeric_limits<double>::quiet_NaN();
};

/// One counter group for the whole bench (single-threaded, so one
/// per-thread group covers every timed loop); unavailable on hosts
/// without PMU access, in which case the perf fields stay NaN/null.
obs::PerfCounterSet& BenchCounters() {
  static obs::PerfCounterSet& counters = []() -> obs::PerfCounterSet& {
    auto* set = new obs::PerfCounterSet();
    set->Start();
    return *set;
  }();
  return counters;
}

/// Repeats `call` (which returns the per-call element count) until the
/// measurement is long enough to trust, and returns seconds per call.
/// The final (longest) timed loop's hardware-counter delta lands in
/// `point`'s ipc / llc_miss_rate — measured over exactly the iterations
/// that produced the reported throughput number.
template <typename Fn>
double TimeCall(Point* point, Fn&& call) {
  call();  // warm up (page in buffers, prime the branch predictors)
  obs::PerfCounterSet& counters = BenchCounters();
  std::size_t iters = 1;
  for (;;) {
    const obs::PerfCounts before = counters.Read();
    WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) call();
    const double seconds = timer.Seconds();
    if (seconds > 0.02 || iters > (std::size_t{1} << 24)) {
      if (counters.available()) {
        const obs::PerfCounts delta = counters.Read().DeltaSince(before);
        point->ipc = delta.Ipc();
        point->llc_miss_rate = delta.LlcMissRate();
      }
      return seconds / static_cast<double>(iters);
    }
    iters *= 4;
  }
}

/// A rate cell: "%.4f" where measured, "null" where the PMU was denied.
void AppendRate(std::ofstream& out, double value) {
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", value);
    out << buf;
  } else {
    out << "null";
  }
}

// One bench point, in the shape fim-stats-diff understands: the
// (algorithm, min_support) pair keys the row across reports, "seconds"
// is the timing metric (gated only with --time), and the "counters"
// object carries out_elems — deterministic for fixed seeds, so full
// value diffs pass across regenerations on any machine.
void WritePoint(std::ofstream& out, const Point& p, bool last) {
  out << "    {\"algorithm\": \"" << p.op << "-" << p.series << "-na" << p.na
      << "-nb" << p.nb << "\", \"min_support\": 0, \"op\": \"" << p.op
      << "\", \"series\": \"" << p.series << "\", \"na\": " << p.na
      << ", \"nb\": " << p.nb;
  if (p.density > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", p.density);
    out << ", \"density\": " << buf;
  }
  char sec[32], thr[32];
  std::snprintf(sec, sizeof sec, "%.9f", p.seconds_per_call);
  std::snprintf(thr, sizeof thr, "%.1f", p.melems_per_sec);
  out << ", \"seconds\": " << sec << ", \"melems_per_sec\": " << thr
      << ", \"ran\": true, \"counters\": {\"out_elems\": " << p.out_elems
      << "}, \"perf\": {\"ipc\": ";
  AppendRate(out, p.ipc);
  out << ", \"llc_miss_rate\": ";
  AppendRate(out, p.llc_miss_rate);
  out << "}}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);

  const auto kernels = kernels::AvailableKernels();
  std::printf("kernel bench: %zu tiers available (", kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::printf("%s%s", i ? " " : "", kernels[i]->name);
  }
  std::printf("), gallop ratio cutover %zu\n", kernels::kGallopRatio);

  std::vector<Point> points;

  // --- balanced sweep: na = nb, ~25% selectivity ----------------------
  for (const std::size_t n :
       {std::size_t{64}, std::size_t{1024}, std::size_t{16384},
        std::size_t{262144}}) {
    const U32s a = SortedUnique(n, 4 * n, 2 * n + 1);
    const U32s b = SortedUnique(n, 4 * n, 2 * n + 2);
    U32s out(std::min(a.size(), b.size()) + kernels::kIntersectPad);
    for (const kernels::IntersectKernel* kernel : kernels) {
      std::size_t produced = 0;
      Point p{"intersect", kernel->name, a.size(), b.size()};
      const double seconds = TimeCall(&p, [&] {
        produced = kernel->intersect(a.data(), a.size(), b.data(), b.size(),
                                     out.data());
      });
      p.seconds_per_call = seconds;
      p.melems_per_sec =
          static_cast<double>(a.size() + b.size()) / seconds / 1e6;
      p.out_elems = produced;
      points.push_back(p);
      std::printf("  intersect %-6s n=%-7zu %8.1f Melem/s (%zu out)\n",
                  kernel->name, n, p.melems_per_sec, produced);
    }
  }

  // --- skew sweep: fixed long side, shrinking short side --------------
  {
    const std::size_t nb = 65536;
    const U32s b = SortedUnique(nb, 4 * nb, 77);
    for (const std::size_t ratio :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{64},
          std::size_t{256}}) {
      const U32s a = SortedUnique(nb / ratio, 4 * nb, 78 + ratio);
      U32s out(std::min(a.size(), b.size()) + kernels::kIntersectPad);
      for (const kernels::IntersectKernel* kernel : kernels) {
        std::size_t produced = 0;
        Point p{"intersect", kernel->name, a.size(), b.size()};
        const double seconds = TimeCall(&p, [&] {
          produced = kernel->intersect(a.data(), a.size(), b.data(), b.size(),
                                       out.data());
        });
        p.seconds_per_call = seconds;
        p.melems_per_sec =
            static_cast<double>(a.size() + b.size()) / seconds / 1e6;
        p.out_elems = produced;
        points.push_back(p);
      }
      {
        std::size_t produced = 0;
        Point p{"gallop", "gallop", a.size(), b.size()};
        const double seconds = TimeCall(&p, [&] {
          produced = kernels::GallopIntersect(a.data(), a.size(), b.data(),
                                              b.size(), out.data());
        });
        p.seconds_per_call = seconds;
        // Same denominator as the merges so the series are comparable.
        p.melems_per_sec =
            static_cast<double>(a.size() + b.size()) / seconds / 1e6;
        p.out_elems = produced;
        points.push_back(p);
        std::printf("  skew 1:%-4zu gallop %8.1f Melem/s equivalent\n", ratio,
                    p.melems_per_sec);
      }
    }
  }

  // --- dense sweep: word-AND vs the sorted merge at high density ------
  for (const std::size_t universe :
       {std::size_t{4096}, std::size_t{65536}, std::size_t{1048576}}) {
    const std::size_t words = universe / 64;
    // Half-full bitsets: the regime TidSet switches representations for.
    std::vector<std::uint64_t> wa(words), wb(words), wout(words);
    Rng rng(universe);
    for (auto& w : wa) w = rng.Next() | rng.Next();
    for (auto& w : wb) w = rng.Next() | rng.Next();
    for (const kernels::IntersectKernel* kernel : kernels) {
      std::size_t produced = 0;
      Point p{"bitset_and", kernel->name, universe, universe};
      const double seconds = TimeCall(&p, [&] {
        produced = kernel->bitset_and(wa.data(), wb.data(), words, wout.data());
      });
      p.density = 0.5;
      p.seconds_per_call = seconds;
      p.melems_per_sec = static_cast<double>(2 * universe) / seconds / 1e6;
      p.out_elems = produced;
      points.push_back(p);
      std::printf("  bitset_and %-6s universe=%-8zu %8.1f Melem/s\n",
                  kernel->name, universe, p.melems_per_sec);
    }
    // The sparse merge over the same sets, for the crossover picture.
    const U32s a = SortedUnique(universe / 2, universe, 5);
    const U32s b = SortedUnique(universe / 2, universe, 6);
    U32s out(std::min(a.size(), b.size()) + kernels::kIntersectPad);
    const kernels::IntersectKernel* best = kernels.back();
    std::size_t produced = 0;
    Point p{"intersect", std::string(best->name) + "-dense", a.size(),
            b.size()};
    const double seconds = TimeCall(&p, [&] {
      produced =
          best->intersect(a.data(), a.size(), b.data(), b.size(), out.data());
    });
    p.density = 0.5;
    p.seconds_per_call = seconds;
    p.melems_per_sec = static_cast<double>(a.size() + b.size()) / seconds / 1e6;
    p.out_elems = produced;
    points.push_back(p);
  }

  const std::string json_path =
      args.json_path.empty() ? "BENCH_kernels.json" : args.json_path;
  std::ofstream out(json_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"schema\": \"fim-bench-kernels-v1\",\n";
  out << "  \"bench\": \"kernels\",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"cpu\": {\"avx2\": "
      << (kernels::CpuSupports(kernels::KernelId::kAvx2) ? "true" : "false")
      << "},\n";
  out << "  \"perf_counters\": "
      << (BenchCounters().available() ? "true" : "false") << ",\n";
  out << "  \"kernels\": [";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    out << (i ? ", " : "") << "\"" << kernels[i]->name << "\"";
  }
  out << "],\n";
  out << "  \"gallop_ratio\": " << kernels::kGallopRatio << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    WritePoint(out, points[i], i + 1 == points.size());
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu points)\n", json_path.c_str(), points.size());
  return 0;
}
