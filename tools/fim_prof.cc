// fim-prof: memory-attribution report over a fim-stats JSON report that
// carries a `memory` section (produced by e.g.
// `fim-mine --mem-stats --stats=json --stats-out=R.json`). Renders the
// per-structure breakdown tree in MiB plus the allocation-domain table
// when the report was taken with a FIM_MEM_PROFILE build. With
// --baseline each structure row gains a delta column against the same
// structure path in the baseline report — which structure's bytes
// moved, not just the opaque peak RSS.
//
//   fim-prof [--baseline=REPORT.json] report.json
//
// Exit code 0 on success; 1 when a report cannot be read/parsed or has
// no memory section; 2 on usage errors.

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
               "usage: fim-prof [--baseline=REPORT.json] report.json\n");
}

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

std::string Ratio(double current, double baseline) {
  if (!std::isfinite(current) || !std::isfinite(baseline) ||
      baseline <= 0.0) {
    return "n/a";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", current / baseline);
  return buffer;
}

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

/// Everything fim-prof needs from one report's memory section.
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

  std::printf("fim-prof: %s / %s, %lld thread(s)\n",
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
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
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
  return RunMemoryReport(report_path, baseline_path);
}
