#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "common/timer.h"

namespace fim::bench {

double ProcessCpuSeconds() {
  const obs::ResourceUsage usage = obs::ReadResourceUsage();
  return usage.user_seconds + usage.system_seconds;
}

const SweepPoint* SweepResult::Find(Algorithm algorithm,
                                    Support min_support) const {
  for (const auto& p : points) {
    if (p.algorithm == algorithm && p.min_support == min_support) return &p;
  }
  return nullptr;
}

SweepResult RunSweep(const TransactionDatabase& db,
                     const SweepOptions& options) {
  SweepResult result;
  for (Algorithm algorithm : options.algorithms) {
    bool over_budget = false;
    for (Support smin : options.supports) {
      SweepPoint point;
      point.algorithm = algorithm;
      point.min_support = smin;
      if (!over_budget) {
        MinerOptions miner;
        miner.algorithm = algorithm;
        miner.min_support = smin;
        std::size_t count = 0;
        // One counter group per point: the deltas cover exactly the
        // mining call, not the generator or the previous point.
        obs::PerfCounterSet counters;
        counters.Start();
        const obs::PerfCounts before = counters.Read();
        WallTimer timer;
        const double cpu_before = ProcessCpuSeconds();
        Status status = MineClosed(
            db, miner,
            [&count](std::span<const ItemId>, Support) { ++count; },
            &point.stats);
        point.seconds = timer.Seconds();
        point.cpu_seconds = ProcessCpuSeconds() - cpu_before;
        if (counters.available()) {
          point.perf = counters.Read().DeltaSince(before);
          point.hw_valid = true;
        }
        if (status.ok()) {
          point.ran = true;
          point.num_sets = count;
          std::fprintf(stderr, "  [%s smin=%u: %.3fs, %zu sets]\n",
                       AlgorithmName(algorithm), smin, point.seconds, count);
        } else {
          std::fprintf(stderr, "  [%s smin=%u: ERROR %s]\n",
                       AlgorithmName(algorithm), smin,
                       status.ToString().c_str());
        }
        if (point.seconds > options.point_time_limit_seconds) {
          over_budget = true;
        }
      }
      result.points.push_back(point);
    }
  }

  // Cross-check: every algorithm that ran a support must agree on the
  // number of closed sets.
  std::map<Support, std::set<std::size_t>> counts;
  for (const auto& p : result.points) {
    if (p.ran) counts[p.min_support].insert(p.num_sets);
  }
  for (const auto& [smin, distinct] : counts) {
    if (distinct.size() > 1) {
      std::fprintf(stderr,
                   "WARNING: algorithms disagree on closed-set count at "
                   "smin=%u!\n",
                   smin);
    }
  }
  return result;
}

void PrintSweepTable(const std::string& title, const SweepOptions& options,
                     const SweepResult& result) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%8s %12s", "smin", "closed-sets");
  for (Algorithm a : options.algorithms) {
    std::printf(" %18s", AlgorithmName(a));
  }
  std::printf("\n");
  for (Support smin : options.supports) {
    std::size_t sets = 0;
    for (Algorithm a : options.algorithms) {
      const SweepPoint* p = result.Find(a, smin);
      if (p != nullptr && p->ran) {
        sets = p->num_sets;
        break;
      }
    }
    std::printf("%8u %12zu", smin, sets);
    for (Algorithm a : options.algorithms) {
      const SweepPoint* p = result.Find(a, smin);
      if (p == nullptr || !p->ran) {
        std::printf(" %18s", "DNF");
      } else {
        const double log10s =
            p->seconds > 0 ? std::log10(p->seconds) : -4.0;
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%9.3fs (%+.1f)", p->seconds,
                      log10s);
        std::printf(" %18s", cell);
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

void WriteCsv(const std::string& path, const SweepResult& result) {
  std::ofstream out(path, std::ios::trunc);
  out << "algorithm,min_support,seconds,num_sets,ran\n";
  for (const auto& p : result.points) {
    out << AlgorithmName(p.algorithm) << ',' << p.min_support << ','
        << p.seconds << ',' << p.num_sets << ',' << (p.ran ? 1 : 0) << '\n';
  }
}

/// `value` or `null` — a rate the host could not measure must stay
/// distinguishable from a measured 0 in the committed reports.
static void AppendNumberOrNull(std::ofstream& out, double value) {
  if (std::isfinite(value)) {
    out << value;
  } else {
    out << "null";
  }
}

void WriteJson(const std::string& path, const std::string& bench, double scale,
               const std::vector<JsonPoint>& points) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"scale\": " << scale
      << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"peak_rss_bytes\": " << PeakRss() << ",\n  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const JsonPoint& p = points[i];
    out << (i == 0 ? "" : ",") << "\n    {\"algorithm\": \"" << p.algorithm
        << "\", \"min_support\": " << p.min_support
        << ", \"seconds\": " << p.seconds << ", \"num_sets\": " << p.num_sets
        << ", \"ran\": " << (p.ran ? "true" : "false");
    // The observability payload is appended only when present, so legacy
    // points keep the historical format byte for byte.
    if (p.cpu_seconds > 0.0) out << ", \"cpu_seconds\": " << p.cpu_seconds;
    if (p.has_perf) {
      out << ", \"perf\": {\"ipc\": ";
      AppendNumberOrNull(out, p.perf_ipc);
      out << ", \"llc_miss_rate\": ";
      AppendNumberOrNull(out, p.perf_llc_miss_rate);
      out << "}";
    }
    if (p.has_mem) {
      out << ", \"mem\": {\"accounted_bytes\": " << p.mem_accounted_bytes
          << ", \"peak_rss_bytes\": " << p.mem_peak_rss_bytes << "}";
    }
    if (p.has_stats) {
      out << ", \"counters\": {";
      bool first = true;
      for (const auto& [name, value] : p.stats.Counters()) {
        if (value == 0) continue;  // bench reports carry what happened
        out << (first ? "" : ", ") << '"' << name << "\": " << value;
        first = false;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

void WriteJson(const std::string& path, const std::string& bench, double scale,
               const SweepResult& result) {
  std::vector<JsonPoint> points;
  points.reserve(result.points.size());
  for (const auto& p : result.points) {
    JsonPoint point;
    point.algorithm = AlgorithmName(p.algorithm);
    point.min_support = p.min_support;
    point.seconds = p.seconds;
    point.num_sets = p.num_sets;
    point.ran = p.ran;
    point.cpu_seconds = p.cpu_seconds;
    point.stats = p.stats;
    point.has_stats = p.ran;
    point.has_perf = p.ran;
    if (p.hw_valid) {
      point.perf_ipc = p.perf.Ipc();
      point.perf_llc_miss_rate = p.perf.LlcMissRate();
    }
    points.push_back(std::move(point));
  }
  WriteJson(path, bench, scale, points);
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--limit=", 8) == 0) {
      args.limit = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      args.csv_path = arg + 6;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      args.json_path = arg + 7;
    } else if (std::strcmp(arg, "--full") == 0) {
      args.scale = 1.0;
    } else {
      std::fprintf(stderr, "ignoring unknown argument '%s'\n", arg);
    }
  }
  return args;
}

}  // namespace fim::bench
