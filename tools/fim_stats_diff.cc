// fim-stats-diff: counter-by-counter comparison of two observability
// reports — either two fim-stats JSON reports (fim-mine/fim-stream/
// fim-verify --stats=json) or two bench result files (BENCH_*.json, the
// fim-bench output) — for use as a perf-regression gate in CI.
//
//   fim-stats-diff [--rel-tol=F] [--abs-tol=F] [--time]
//                  [--mem-rel-tol=F] [--mem-abs-tol=N]
//                  baseline.json current.json
//
//   --rel-tol=F   allowed relative increase per counter (fraction, e.g.
//                 0.05 = +5%; default 0: any increase fails)
//   --abs-tol=F   allowed absolute increase per counter (default 0);
//                 both tolerances must be exceeded for a regression
//   --mem-rel-tol=F, --mem-abs-tol=N
//                 tolerances of the bytes-class metrics (peak_rss_bytes
//                 and the memory.* metrics of --mem-stats reports).
//                 Defaults 0.25 and 1048576:
//                 allocator and RSS numbers jitter across runs and
//                 hosts, so they get a wider gate than the
//                 deterministic work counters. Both must be exceeded to
//                 fail; decreases are improvements.
//   --time        also gate the timing fields (wall/cpu seconds) —
//                 off by default because wall time is noisy
//
// Every tolerance must be a finite number >= 0 (exit 2 otherwise).
//
// Both files must be of the same kind. A fim-stats report is one row of
// counters; a bench file contributes one row per executed point, matched
// across files by (algorithm, min_support) — the bench min_supports are
// fixed constants, so points line up across scales. `num_sets` is an
// output cardinality, not a cost: any difference fails regardless of
// tolerance. Other counters fail only when the current value exceeds the
// baseline by more than both tolerances; decreases are reported as
// improvements and never fail.
//
// Bytes-class metrics are host-dependent: lower is better, absence on
// either side (older schema, run without --mem-stats, platform hiding
// RSS, a structure one run did not build) is never a mismatch, and they
// gate under their own --mem-rel-tol / --mem-abs-tol pair instead of the
// counter tolerances. A --mem-stats report's memory section gives the
// totals memory.accounted_bytes, memory.high_water_bytes and
// memory.peak_rss_bytes, plus one metric per node of its components
// tree, named by the slash-joined path of component names and holding
// the node's total_bytes (memory.prefix-trees/shard-0/link-arena), so a
// memory regression names the structure that grew. Non-finite values
// are skipped.
//
// Exit code 0 = no regression; 1 = regression or structure mismatch
// (details on stderr); 2 = usage or parse error.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "tool_flags.h"

namespace {

using fim::obs::JsonValue;

void Usage() {
  std::fprintf(stderr,
               "usage: fim-stats-diff [--rel-tol=F] [--abs-tol=F] [--time] "
               "[--mem-rel-tol=F] [--mem-abs-tol=N] "
               "baseline.json current.json\n");
}

/// One comparable row: a named bag of numeric metrics. A stats report is
/// a single row; a bench file is one row per executed point.
using Row = std::map<std::string, double>;
using Rows = std::map<std::string, Row>;

/// Whether the metric is gated with --time only.
bool IsTimingMetric(const std::string& name) {
  return name == "wall_seconds" || name == "cpu_seconds" ||
         name == "seconds";
}

/// Bytes-class metrics: memory footprints (RSS, accounted breakdown
/// bytes). Lower is better; they gate under the --mem-* tolerances.
/// They are host-dependent (RSS visibility, schema age, runs without
/// --mem-stats), so their absence on either side is tolerated rather
/// than a MISSING failure.
bool IsBytesMetric(const std::string& name) {
  return name == "peak_rss_bytes" || name.rfind("memory.", 0) == 0;
}

/// Sets memory.<path> = total_bytes for `component` and, recursively,
/// its children, whose paths extend `prefix` by their names.
void FlattenComponent(const JsonValue& component, const std::string& prefix,
                      Row* row) {
  const JsonValue* name = component.Find("name");
  const JsonValue* total = component.Find("total_bytes");
  if (name == nullptr || total == nullptr) return;
  const std::string path = prefix + name->AsString();
  (*row)["memory." + path] = total->AsNumber();
  if (const JsonValue* children = component.Find("children");
      children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->AsArray()) {
      FlattenComponent(child, path + "/", row);
    }
  }
}

/// Copies the bytes-class metrics of a stats report's memory section
/// into `row`: its three totals as memory.<name> and every node of its
/// components tree as memory.<path>. Null values (peak RSS on platforms
/// that hide it) are skipped — "not measured", never 0.
void ExtractMemoryMetrics(const JsonValue& memory, Row* row) {
  if (!memory.is_object()) return;
  for (const char* name :
       {"accounted_bytes", "high_water_bytes", "peak_rss_bytes"}) {
    const JsonValue* value = memory.Find(name);
    if (value != nullptr && value->kind() == JsonValue::Kind::kNumber) {
      (*row)[std::string("memory.") + name] = value->AsNumber();
    }
  }
  if (const JsonValue* components = memory.Find("components");
      components != nullptr && components->is_array()) {
    for (const JsonValue& component : components->AsArray()) {
      FlattenComponent(component, "", row);
    }
  }
}

/// Extracts the rows of a parsed report. Returns false (with a message
/// on stderr) when the document is neither a fim-stats report nor a
/// bench file.
bool ExtractRows(const JsonValue& doc, const std::string& label, Rows* rows) {
  if (!doc.is_object()) {
    std::fprintf(stderr, "%s: not a JSON object\n", label.c_str());
    return false;
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema != nullptr &&
      schema->AsString().rfind("fim-stats-", 0) == 0) {
    Row row;
    if (const JsonValue* counters = doc.Find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [name, value] : counters->AsObject()) {
        row[name] = value.AsNumber();
      }
    }
    if (const JsonValue* num_sets = doc.Find("num_sets")) {
      row["num_sets"] = num_sets->AsNumber();
    }
    if (const JsonValue* wall = doc.Find("wall_seconds")) {
      row["wall_seconds"] = wall->AsNumber();
    }
    if (const JsonValue* cpu = doc.Find("cpu_seconds")) {
      row["cpu_seconds"] = cpu->AsNumber();
    }
    if (const JsonValue* rss = doc.Find("peak_rss_bytes");
        rss != nullptr && rss->kind() == JsonValue::Kind::kNumber &&
        rss->AsNumber() > 0.0) {
      row["peak_rss_bytes"] = rss->AsNumber();
    }
    if (const JsonValue* memory = doc.Find("memory")) {
      ExtractMemoryMetrics(*memory, &row);
    }
    (*rows)[""] = std::move(row);
    return true;
  }
  const JsonValue* points = doc.Find("points");
  if (doc.Find("bench") != nullptr && points != nullptr &&
      points->is_array()) {
    for (const JsonValue& point : points->AsArray()) {
      if (!point.is_object()) continue;
      const JsonValue* ran = point.Find("ran");
      if (ran != nullptr && !ran->AsBool()) continue;  // skipped point
      const JsonValue* algorithm = point.Find("algorithm");
      const JsonValue* min_support = point.Find("min_support");
      if (algorithm == nullptr || min_support == nullptr) {
        std::fprintf(stderr, "%s: bench point without algorithm/min_support\n",
                     label.c_str());
        return false;
      }
      std::ostringstream key;
      key << algorithm->AsString() << " @ smin "
          << static_cast<long long>(min_support->AsNumber());
      Row row;
      if (const JsonValue* counters = point.Find("counters");
          counters != nullptr && counters->is_object()) {
        for (const auto& [name, value] : counters->AsObject()) {
          row[name] = value.AsNumber();
        }
      }
      if (const JsonValue* num_sets = point.Find("num_sets")) {
        row["num_sets"] = num_sets->AsNumber();
      }
      if (const JsonValue* seconds = point.Find("seconds")) {
        row["seconds"] = seconds->AsNumber();
      }
      if (const JsonValue* cpu = point.Find("cpu_seconds")) {
        row["cpu_seconds"] = cpu->AsNumber();
      }
      (*rows)[key.str()] = std::move(row);
    }
    return true;
  }
  std::fprintf(stderr,
               "%s: neither a fim-stats report (\"schema\") nor a bench "
               "file (\"bench\" + \"points\")\n",
               label.c_str());
  return false;
}

bool LoadRows(const std::string& path, Rows* rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = fim::obs::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "error parsing %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  return ExtractRows(parsed.value(), path, rows);
}

const char* RowName(const std::string& key) {
  return key.empty() ? "report" : key.c_str();
}

}  // namespace

int main(int argc, char** argv) {
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  double mem_rel_tol = 0.25;
  double mem_abs_tol = 1024.0 * 1024.0;
  bool gate_time = false;
  std::string baseline_path;
  std::string current_path;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--rel-tol=", 10) == 0) {
      rel_tol = fim::tools::ParseNonNegative("--rel-tol", arg + 10);
    } else if (std::strncmp(arg, "--abs-tol=", 10) == 0) {
      abs_tol = fim::tools::ParseNonNegative("--abs-tol", arg + 10);
    } else if (std::strncmp(arg, "--mem-rel-tol=", 14) == 0) {
      mem_rel_tol = fim::tools::ParseNonNegative("--mem-rel-tol", arg + 14);
    } else if (std::strncmp(arg, "--mem-abs-tol=", 14) == 0) {
      mem_abs_tol = fim::tools::ParseNonNegative("--mem-abs-tol", arg + 14);
    } else if (std::strcmp(arg, "--time") == 0) {
      gate_time = true;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (fim::tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (positional == 0) {
      baseline_path = arg;
      ++positional;
    } else if (positional == 1) {
      current_path = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    Usage();
    return 2;
  }

  Rows baseline;
  Rows current;
  if (!LoadRows(baseline_path, &baseline) ||
      !LoadRows(current_path, &current)) {
    return 2;
  }

  int regressions = 0;
  int improvements = 0;
  int compared = 0;

  // Structure first: both files must cover the same rows with the same
  // metric keys (timing metrics may legitimately be absent on platforms
  // without a CPU clock, so their absence on one side is tolerated).
  for (const auto& [key, row] : baseline) {
    auto it = current.find(key);
    if (it == current.end()) {
      std::fprintf(stderr, "MISSING: %s absent from %s\n", RowName(key),
                   current_path.c_str());
      ++regressions;
      continue;
    }
    for (const auto& [name, base_value] : row) {
      if (it->second.find(name) == it->second.end()) {
        if (IsTimingMetric(name) || IsBytesMetric(name)) continue;
        std::fprintf(stderr, "MISSING: %s: counter %s absent from %s\n",
                     RowName(key), name.c_str(), current_path.c_str());
        ++regressions;
      }
    }
    for (const auto& [name, cur_value] : it->second) {
      if (row.find(name) == row.end() && !IsTimingMetric(name) &&
          !IsBytesMetric(name)) {
        std::fprintf(stderr, "MISSING: %s: counter %s absent from %s\n",
                     RowName(key), name.c_str(), baseline_path.c_str());
        ++regressions;
      }
    }
  }
  for (const auto& [key, row] : current) {
    if (baseline.find(key) == baseline.end()) {
      std::fprintf(stderr, "MISSING: %s absent from %s\n", RowName(key),
                   baseline_path.c_str());
      ++regressions;
    }
  }

  for (const auto& [key, base_row] : baseline) {
    auto row_it = current.find(key);
    if (row_it == current.end()) continue;
    for (const auto& [name, base_value] : base_row) {
      auto it = row_it->second.find(name);
      if (it == row_it->second.end()) continue;
      if (IsTimingMetric(name) && !gate_time) continue;
      const double cur_value = it->second;
      // A non-finite value (NaN ratio from a zero division, an Inf
      // from overflow) cannot be gated meaningfully; skip rather than
      // poison the comparison — every arithmetic test below would be
      // false for NaN, silently passing a broken metric.
      if (!std::isfinite(base_value) || !std::isfinite(cur_value)) {
        continue;
      }
      ++compared;
      if (name == "num_sets") {
        // Output cardinality: must match exactly, both directions.
        if (cur_value != base_value) {
          std::fprintf(stderr,
                       "REGRESSION: %s: num_sets %g -> %g (output "
                       "mismatch)\n",
                       RowName(key), base_value, cur_value);
          ++regressions;
        }
        continue;
      }
      const double harm = cur_value - base_value;
      if (harm <= 0.0) {
        if (harm < 0.0) ++improvements;
        continue;
      }
      const double rel =
          base_value > 0.0 ? harm / base_value
                           : std::numeric_limits<double>::infinity();
      // Bytes-class metrics jitter with the allocator and the host, so
      // they gate under their own (wider) tolerance pair.
      const double use_rel = IsBytesMetric(name) ? mem_rel_tol : rel_tol;
      const double use_abs = IsBytesMetric(name) ? mem_abs_tol : abs_tol;
      if (harm > use_abs && rel > use_rel) {
        std::fprintf(stderr,
                     "REGRESSION: %s: %s %g -> %g (+%.2f%%, rel-tol "
                     "%.2f%%, abs-tol %g)\n",
                     RowName(key), name.c_str(), base_value, cur_value,
                     100.0 * rel, 100.0 * use_rel, use_abs);
        ++regressions;
      }
    }
  }

  std::fprintf(stderr,
               "fim-stats-diff: %zu row(s), %d metric(s) compared, %d "
               "improvement(s), %d regression(s)\n",
               baseline.size(), compared, improvements, regressions);
  return regressions > 0 ? 1 : 0;
}
