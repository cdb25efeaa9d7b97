// fim-prof: work-inflation diagnosis over a fim-stats JSON report that
// carries a `perf` section (produced by e.g.
// `fim-mine --stats=json --stats-out=R.json --perf-counters`).
// Renders the per-domain work table: how many intersection steps each
// domain (IsTa records one, `shard-0`, its tree building) performed and
// what they cost in CPU seconds, hardware cycles and LLC misses. With
// --baseline — another commit, kernel tier or host on the same workload —
// it quantifies work inflation: the factor by which the run's total
// intersection work, CPU and cycles exceed the baseline's, which tells
// more work apart from the same work running slower
// (docs/PERFORMANCE.md).
//
//   fim-prof [--baseline=REPORT.json] report.json
//   fim-prof --memory [--baseline=REPORT.json] report.json
//
// --memory switches to the memory-attribution report: the stats JSON
// must carry a `memory` section (from `--mem-stats --stats=json`), and
// the table shows the per-structure breakdown tree in MiB plus the
// allocation-domain table when the report was taken with a
// FIM_MEM_PROFILE build. With --baseline each structure row gains a
// delta column against the same structure path in the baseline report —
// the view the block-compression work is judged in: which structure's
// bytes moved, not just the opaque peak RSS.
//
// The work-inflation table goes to stdout:
//
//   domain              steps      cpu    cycles   cyc/step  llc/step
//   shard-0           1203456   0.412s   1.4e+09       1163      2.10
//   TOTAL             1203456   0.412s   1.4e+09       1163      2.10
//
// Hardware columns show "n/a" where the report was taken without PMU
// access (perf.available false, or a domain measured on a thread where
// the counter group could not open) — the steps and CPU columns come
// from software counters and are always present.
//
// Exit code 0 on success; 1 when a report cannot be read/parsed or has
// no perf section (no memory section with --memory); 2 on usage errors.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/json.h"
#include "tool_flags.h"

namespace {

using fim::obs::JsonValue;

void Usage() {
  std::fprintf(stderr,
               "usage: fim-prof [--memory] [--baseline=REPORT.json] "
               "report.json\n");
}

/// One perf domain row as parsed back from the report. Hardware fields
/// are NaN when the report carries null for them.
struct DomainRow {
  std::string name;
  std::uint64_t work_steps = 0;
  double cpu_seconds = 0.0;
  double cycles = std::numeric_limits<double>::quiet_NaN();
  double instructions = std::numeric_limits<double>::quiet_NaN();
  double llc_misses = std::numeric_limits<double>::quiet_NaN();
};

/// Everything fim-prof needs from one report.
struct ProfReport {
  std::string tool;
  std::string algorithm;
  long long num_threads = 0;
  bool perf_available = false;
  std::string unavailable_reason;
  double total_cycles = std::numeric_limits<double>::quiet_NaN();
  double total_cpu_seconds = std::numeric_limits<double>::quiet_NaN();
  std::vector<DomainRow> domains;
};

/// Numeric member or NaN when absent/null — a null counter means "not
/// measured", which must stay distinguishable from a measured 0.
double NumberOr(const JsonValue& object, const char* key, double fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || value->kind() != JsonValue::Kind::kNumber) {
    return fallback;
  }
  return value->AsNumber();
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool LoadReport(const std::string& path, ProfReport* out) {
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
  const JsonValue& doc = parsed.value();
  const JsonValue* schema = doc.is_object() ? doc.Find("schema") : nullptr;
  if (schema == nullptr || schema->AsString().rfind("fim-stats-", 0) != 0) {
    std::fprintf(stderr, "%s: not a fim-stats report (no \"schema\")\n",
                 path.c_str());
    return false;
  }
  const JsonValue* perf = doc.Find("perf");
  if (perf == nullptr || !perf->is_object()) {
    std::fprintf(stderr,
                 "%s: report has no perf section — rerun the tool with "
                 "--perf-counters --stats=json\n",
                 path.c_str());
    return false;
  }
  if (const JsonValue* tool = doc.Find("tool")) out->tool = tool->AsString();
  if (const JsonValue* algorithm = doc.Find("algorithm")) {
    out->algorithm = algorithm->AsString();
  }
  out->num_threads = static_cast<long long>(NumberOr(doc, "threads", 0.0));
  const JsonValue* available = perf->Find("available");
  out->perf_available = available != nullptr && available->AsBool();
  if (const JsonValue* reason = perf->Find("unavailable_reason")) {
    out->unavailable_reason = reason->AsString();
  }
  out->total_cpu_seconds = NumberOr(doc, "cpu_seconds", kNan);
  if (const JsonValue* counters = perf->Find("counters");
      counters != nullptr && counters->is_object()) {
    out->total_cycles = NumberOr(*counters, "cycles", kNan);
  }
  const JsonValue* domains = perf->Find("domains");
  if (domains != nullptr && domains->is_array()) {
    for (const JsonValue& entry : domains->AsArray()) {
      if (!entry.is_object()) continue;
      DomainRow row;
      if (const JsonValue* name = entry.Find("name")) {
        row.name = name->AsString();
      }
      row.work_steps =
          static_cast<std::uint64_t>(NumberOr(entry, "work_steps", 0.0));
      row.cpu_seconds = NumberOr(entry, "cpu_seconds", 0.0);
      row.cycles = NumberOr(entry, "cycles", kNan);
      row.instructions = NumberOr(entry, "instructions", kNan);
      // "cache_misses" is PERF_COUNT_HW_CACHE_MISSES = last-level misses.
      row.llc_misses = NumberOr(entry, "cache_misses", kNan);
      out->domains.push_back(std::move(row));
    }
  }
  // The collector records domains in completion order, which can vary
  // across runs; sort by name, numerically for numbered names
  // (length-then-lex orders shard-2 before shard-10), so the table is
  // stable and diffable.
  std::sort(out->domains.begin(), out->domains.end(),
            [](const DomainRow& a, const DomainRow& b) {
              if (a.name.size() != b.name.size()) {
                return a.name.size() < b.name.size();
              }
              return a.name < b.name;
            });
  return true;
}

/// "n/a"-aware cell formatters: a NaN renders as n/a, never as 0.
std::string Cell(double value, const char* format) {
  if (!std::isfinite(value)) return "n/a";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

std::string PerStep(double value, std::uint64_t steps) {
  if (!std::isfinite(value) || steps == 0) return "n/a";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f",
                value / static_cast<double>(steps));
  return buffer;
}

void PrintRow(const std::string& name, std::uint64_t steps, double cpu,
              double cycles, double llc) {
  std::printf("  %-18s %12" PRIu64 " %9.3fs %9s %10s %9s\n", name.c_str(),
              steps, cpu, Cell(cycles, "%.2e").c_str(),
              PerStep(cycles, steps).c_str(), PerStep(llc, steps).c_str());
}

/// Sum of a NaN-able column: NaN entries poison the sum into NaN only
/// when *every* entry is NaN; partially measured runs sum what exists.
double SumFinite(const std::vector<DomainRow>& rows,
                 double DomainRow::* field) {
  double sum = kNan;
  for (const DomainRow& row : rows) {
    const double value = row.*field;
    if (!std::isfinite(value)) continue;
    sum = std::isfinite(sum) ? sum + value : value;
  }
  return sum;
}

std::string Ratio(double current, double baseline) {
  if (!std::isfinite(current) || !std::isfinite(baseline) ||
      baseline <= 0.0) {
    return "n/a";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", current / baseline);
  return buffer;
}

// ---------------------------------------------------------------------
// --memory: per-structure memory report.

/// One breakdown-tree node flattened to a table row. `path` is the
/// slash-joined name chain ("prefix-trees/shard-0/node-columns") — the
/// key baseline rows are matched on, so a structure keeps its delta even
/// when sibling order differs between reports.
struct MemRow {
  std::string path;
  std::string name;
  int depth = 0;
  double self_bytes = 0.0;
  double total_bytes = 0.0;
};

struct MemDomainTableRow {
  std::string name;
  double live_bytes = 0.0;
  double peak_live_bytes = 0.0;
  double alloc_bytes = 0.0;
  std::uint64_t allocs = 0;
};

/// Everything --memory needs from one report's memory section.
struct MemReport {
  std::string tool;
  std::string algorithm;
  long long num_threads = 0;
  double accounted_bytes = 0.0;
  double high_water_bytes = 0.0;
  double peak_rss_bytes = kNan;  // null in the report -> NaN
  std::vector<MemRow> rows;
  bool has_profile = false;
  std::vector<MemDomainTableRow> domains;
};

void FlattenMemComponent(const JsonValue& component, const std::string& prefix,
                         int depth, std::vector<MemRow>* out) {
  if (!component.is_object()) return;
  MemRow row;
  if (const JsonValue* name = component.Find("name")) {
    row.name = name->AsString();
  }
  row.path = prefix.empty() ? row.name : prefix + "/" + row.name;
  row.depth = depth;
  row.self_bytes = NumberOr(component, "self_bytes", 0.0);
  row.total_bytes = NumberOr(component, "total_bytes", 0.0);
  const std::string path = row.path;
  out->push_back(std::move(row));
  const JsonValue* children = component.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->AsArray()) {
      FlattenMemComponent(child, path, depth + 1, out);
    }
  }
}

bool LoadMemReport(const std::string& path, MemReport* out) {
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
  const JsonValue& doc = parsed.value();
  const JsonValue* schema = doc.is_object() ? doc.Find("schema") : nullptr;
  if (schema == nullptr || schema->AsString().rfind("fim-stats-", 0) != 0) {
    std::fprintf(stderr, "%s: not a fim-stats report (no \"schema\")\n",
                 path.c_str());
    return false;
  }
  const JsonValue* memory = doc.Find("memory");
  if (memory == nullptr || !memory->is_object()) {
    std::fprintf(stderr,
                 "%s: report has no memory section — rerun the tool with "
                 "--mem-stats --stats=json\n",
                 path.c_str());
    return false;
  }
  if (const JsonValue* tool = doc.Find("tool")) out->tool = tool->AsString();
  if (const JsonValue* algorithm = doc.Find("algorithm")) {
    out->algorithm = algorithm->AsString();
  }
  out->num_threads = static_cast<long long>(NumberOr(doc, "threads", 0.0));
  out->accounted_bytes = NumberOr(*memory, "accounted_bytes", 0.0);
  out->high_water_bytes = NumberOr(*memory, "high_water_bytes", 0.0);
  out->peak_rss_bytes = NumberOr(*memory, "peak_rss_bytes", kNan);
  const JsonValue* components = memory->Find("components");
  if (components != nullptr && components->is_array()) {
    for (const JsonValue& component : components->AsArray()) {
      FlattenMemComponent(component, "", 0, &out->rows);
    }
  }
  const JsonValue* profile = memory->Find("profile");
  if (profile != nullptr && profile->is_object()) {
    out->has_profile = true;
    const JsonValue* domains = profile->Find("domains");
    if (domains != nullptr && domains->is_array()) {
      for (const JsonValue& entry : domains->AsArray()) {
        if (!entry.is_object()) continue;
        MemDomainTableRow row;
        if (const JsonValue* name = entry.Find("name")) {
          row.name = name->AsString();
        }
        row.live_bytes = NumberOr(entry, "live_bytes", 0.0);
        row.peak_live_bytes = NumberOr(entry, "peak_live_bytes", 0.0);
        row.alloc_bytes = NumberOr(entry, "alloc_bytes", 0.0);
        row.allocs = static_cast<std::uint64_t>(NumberOr(entry, "allocs", 0.0));
        out->domains.push_back(std::move(row));
      }
    }
  }
  return true;
}

std::string MibCell(double bytes) {
  if (!std::isfinite(bytes)) return "n/a";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f", fim::BytesToMib(bytes));
  return buffer;
}

/// Signed MiB delta cell; "=" when the structure did not move (< 1 KiB).
std::string DeltaCell(double current_bytes, double baseline_bytes) {
  const double delta = current_bytes - baseline_bytes;
  if (std::fabs(delta) < 1024.0) return "=";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%+.2f", fim::BytesToMib(delta));
  return buffer;
}

int RunMemoryReport(const std::string& report_path,
                    const std::string& baseline_path) {
  MemReport report;
  if (!LoadMemReport(report_path, &report)) return 1;
  MemReport baseline;
  const bool have_baseline = !baseline_path.empty();
  if (have_baseline && !LoadMemReport(baseline_path, &baseline)) return 1;
  std::map<std::string, double> baseline_totals;
  for (const MemRow& row : baseline.rows) {
    baseline_totals[row.path] = row.total_bytes;
  }

  std::printf("fim-prof --memory: %s / %s, %lld thread(s)\n",
              report.tool.empty() ? "?" : report.tool.c_str(),
              report.algorithm.empty() ? "?" : report.algorithm.c_str(),
              report.num_threads);
  std::printf("  accounted %s MiB, high water %s MiB, peak rss %s MiB\n",
              MibCell(report.accounted_bytes).c_str(),
              MibCell(report.high_water_bytes).c_str(),
              MibCell(report.peak_rss_bytes).c_str());
  if (std::isfinite(report.peak_rss_bytes) && report.peak_rss_bytes > 0.0) {
    std::printf("  rss coverage %.0f%%\n",
                100.0 * report.accounted_bytes / report.peak_rss_bytes);
  }

  if (report.rows.empty()) {
    std::printf("  no components recorded\n");
  } else if (have_baseline) {
    std::printf("  %-34s %10s %10s %10s\n", "structure", "self", "total",
                "delta");
  } else {
    std::printf("  %-34s %10s %10s\n", "structure", "self", "total");
  }
  for (const MemRow& row : report.rows) {
    const std::string label =
        std::string(static_cast<std::size_t>(row.depth) * 2, ' ') + row.name;
    if (have_baseline) {
      // A structure absent from the baseline shows its full size as the
      // delta; a baseline-only structure simply has no row here.
      const auto it = baseline_totals.find(row.path);
      const double base = it == baseline_totals.end() ? 0.0 : it->second;
      std::printf("  %-34s %10s %10s %10s\n", label.c_str(),
                  MibCell(row.self_bytes).c_str(),
                  MibCell(row.total_bytes).c_str(),
                  DeltaCell(row.total_bytes, base).c_str());
    } else {
      std::printf("  %-34s %10s %10s\n", label.c_str(),
                  MibCell(row.self_bytes).c_str(),
                  MibCell(row.total_bytes).c_str());
    }
  }

  if (report.has_profile && !report.domains.empty()) {
    std::printf("  %-18s %10s %10s %10s %12s\n", "alloc domain", "live",
                "peak", "cum", "allocs");
    for (const MemDomainTableRow& row : report.domains) {
      std::printf("  %-18s %10s %10s %10s %12" PRIu64 "\n", row.name.c_str(),
                  MibCell(row.live_bytes).c_str(),
                  MibCell(row.peak_live_bytes).c_str(),
                  MibCell(row.alloc_bytes).c_str(), row.allocs);
    }
  }

  if (have_baseline) {
    std::printf("\n  totals vs %s (%lld thread(s)):\n", baseline_path.c_str(),
                baseline.num_threads);
    std::printf("    accounted: %10s vs %10s MiB  -> %s\n",
                MibCell(report.accounted_bytes).c_str(),
                MibCell(baseline.accounted_bytes).c_str(),
                Ratio(report.accounted_bytes, baseline.accounted_bytes)
                    .c_str());
    std::printf("    peak rss:  %10s vs %10s MiB  -> %s\n",
                MibCell(report.peak_rss_bytes).c_str(),
                MibCell(baseline.peak_rss_bytes).c_str(),
                Ratio(report.peak_rss_bytes, baseline.peak_rss_bytes)
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string report_path;
  bool memory_mode = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
    } else if (std::strcmp(arg, "--memory") == 0) {
      memory_mode = true;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (fim::tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (positional == 0) {
      report_path = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if (report_path.empty()) {
    Usage();
    return 2;
  }
  if (memory_mode) return RunMemoryReport(report_path, baseline_path);

  ProfReport report;
  if (!LoadReport(report_path, &report)) return 1;

  std::printf("fim-prof: %s / %s, %lld thread(s)\n",
              report.tool.empty() ? "?" : report.tool.c_str(),
              report.algorithm.empty() ? "?" : report.algorithm.c_str(),
              report.num_threads);
  if (!report.perf_available) {
    std::printf("  hardware counters unavailable: %s\n",
                report.unavailable_reason.empty()
                    ? "(no reason recorded)"
                    : report.unavailable_reason.c_str());
    std::printf("  (steps and cpu below come from software counters)\n");
  }

  if (report.domains.empty()) {
    std::printf(
        "  no perf domains recorded — the run used an algorithm without\n"
        "  domain attribution, or predates --perf-counters\n");
    return 0;
  }

  std::printf("  %-18s %12s %10s %9s %10s %9s\n", "domain", "steps", "cpu",
              "cycles", "cyc/step", "llc/step");
  std::uint64_t total_steps = 0;
  double total_cpu = 0.0;
  for (const DomainRow& row : report.domains) {
    PrintRow(row.name, row.work_steps, row.cpu_seconds, row.cycles,
             row.llc_misses);
    total_steps += row.work_steps;
    total_cpu += row.cpu_seconds;
  }
  const double total_cycles = SumFinite(report.domains, &DomainRow::cycles);
  const double total_llc = SumFinite(report.domains, &DomainRow::llc_misses);
  PrintRow("TOTAL", total_steps, total_cpu, total_cycles, total_llc);

  if (!baseline_path.empty()) {
    ProfReport baseline;
    if (!LoadReport(baseline_path, &baseline)) return 1;
    std::uint64_t base_steps = 0;
    double base_cpu = 0.0;
    for (const DomainRow& row : baseline.domains) {
      base_steps += row.work_steps;
      base_cpu += row.cpu_seconds;
    }
    const double base_cycles =
        SumFinite(baseline.domains, &DomainRow::cycles);
    std::printf("\n  work inflation vs %s (%lld thread(s)):\n",
                baseline_path.c_str(), baseline.num_threads);
    std::printf("    steps:  %12" PRIu64 " vs %12" PRIu64 "  -> %s\n",
                total_steps, base_steps,
                Ratio(static_cast<double>(total_steps),
                      static_cast<double>(base_steps))
                    .c_str());
    std::printf("    cpu:    %11.3fs vs %11.3fs  -> %s\n", total_cpu,
                base_cpu, Ratio(total_cpu, base_cpu).c_str());
    std::printf("    cycles: %12s vs %12s  -> %s\n",
                Cell(total_cycles, "%.3e").c_str(),
                Cell(base_cycles, "%.3e").c_str(),
                Ratio(total_cycles, base_cycles).c_str());
  }
  return 0;
}
