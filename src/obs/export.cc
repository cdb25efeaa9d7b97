#include "obs/export.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace fim::obs {

namespace {

/// Emits `value` or null — a value that was not measured never renders
/// as a fake 0.
void NumberOrNull(JsonWriter* writer, double value, bool valid) {
  if (valid && std::isfinite(value)) {
    writer->Number(value);
  } else {
    writer->Null();
  }
}

void AppendRusageJson(const ResourceUsage& rusage, JsonWriter* writer) {
  writer->Key("rusage");
  if (!rusage.known) {
    writer->Null();
    return;
  }
  writer->BeginObject();
  writer->Key("user_seconds");
  writer->Number(rusage.user_seconds);
  writer->Key("system_seconds");
  writer->Number(rusage.system_seconds);
  writer->Key("minor_faults");
  writer->Number(rusage.minor_faults);
  writer->Key("major_faults");
  writer->Number(rusage.major_faults);
  writer->Key("voluntary_ctx_switches");
  writer->Number(rusage.voluntary_ctx_switches);
  writer->Key("involuntary_ctx_switches");
  writer->Number(rusage.involuntary_ctx_switches);
  writer->EndObject();
}

void AppendRusageText(const ResourceUsage& rusage, std::string* out) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "  rusage: user %.3fs, sys %.3fs, faults %llu+%llu, "
                "ctx %llu+%llu\n",
                rusage.user_seconds, rusage.system_seconds,
                static_cast<unsigned long long>(rusage.minor_faults),
                static_cast<unsigned long long>(rusage.major_faults),
                static_cast<unsigned long long>(rusage.voluntary_ctx_switches),
                static_cast<unsigned long long>(
                    rusage.involuntary_ctx_switches));
  out->append(line);
}

void AppendMemoryComponentJson(const MemoryComponent& component,
                               JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("name");
  writer->String(component.name);
  writer->Key("self_bytes");
  writer->Number(static_cast<std::uint64_t>(component.self_bytes));
  writer->Key("total_bytes");
  writer->Number(static_cast<std::uint64_t>(component.TotalBytes()));
  writer->Key("children");
  writer->BeginArray();
  for (const auto& child : component.children) {
    AppendMemoryComponentJson(child, writer);
  }
  writer->EndArray();
  writer->EndObject();
}

void AppendMemoryJson(const MemoryReport& memory, JsonWriter* writer) {
  writer->Key("memory");
  writer->BeginObject();
  writer->Key("accounted_bytes");
  writer->Number(static_cast<std::uint64_t>(memory.accounted_bytes));
  writer->Key("high_water_bytes");
  writer->Number(static_cast<std::uint64_t>(memory.high_water_bytes));
  writer->Key("peak_rss_bytes");
  if (memory.peak_rss.known) {
    writer->Number(static_cast<std::uint64_t>(memory.peak_rss.bytes));
  } else {
    writer->Null();
  }
  writer->Key("rss_coverage");
  NumberOrNull(writer, memory.RssCoverage(), memory.RssCoverage() >= 0.0);
  writer->Key("components");
  writer->BeginArray();
  for (const auto& component : memory.components) {
    AppendMemoryComponentJson(component, writer);
  }
  writer->EndArray();
  writer->Key("profile");
  if (memory.profile.enabled) {
    writer->BeginObject();
    writer->Key("live_bytes");
    writer->Number(memory.profile.live_bytes);
    writer->Key("peak_live_bytes");
    writer->Number(memory.profile.peak_live_bytes);
    writer->Key("alloc_bytes");
    writer->Number(memory.profile.alloc_bytes);
    writer->Key("allocs");
    writer->Number(memory.profile.allocs);
    writer->Key("frees");
    writer->Number(memory.profile.frees);
    writer->Key("foreign_frees");
    writer->Number(memory.profile.foreign_frees);
    writer->Key("domains");
    writer->BeginArray();
    for (std::size_t d = 0; d < kNumMemDomains; ++d) {
      const MemDomainStats& stats = memory.profile.domains[d];
      // Skip domains that never allocated: the table stays short and
      // the absent-vs-zero distinction survives.
      if (stats.allocs == 0 && stats.frees == 0) continue;
      writer->BeginObject();
      writer->Key("name");
      writer->String(MemDomainName(static_cast<MemDomain>(d)));
      writer->Key("live_bytes");
      writer->Number(stats.live_bytes);
      writer->Key("peak_live_bytes");
      writer->Number(stats.peak_live_bytes);
      writer->Key("alloc_bytes");
      writer->Number(stats.alloc_bytes);
      writer->Key("allocs");
      writer->Number(stats.allocs);
      writer->Key("frees");
      writer->Number(stats.frees);
      writer->EndObject();
    }
    writer->EndArray();
    writer->EndObject();
  } else {
    writer->Null();
  }
  writer->EndObject();
}

void AppendMemoryComponentText(const MemoryComponent& component, int depth,
                               std::string* out) {
  char line[192];
  std::snprintf(line, sizeof(line), "    %*s%-*s %10.2f MiB\n", 2 * depth, "",
                28 - 2 * depth, component.name.c_str(),
                BytesToMib(component.TotalBytes()));
  out->append(line);
  for (const auto& child : component.children) {
    AppendMemoryComponentText(child, depth + 1, out);
  }
}

void AppendMemoryText(const MemoryReport& memory, std::string* out) {
  char line[256];
  if (memory.RssCoverage() >= 0.0) {
    std::snprintf(line, sizeof(line),
                  "  memory: %.2f MiB accounted (%.0f%% of %.2f MiB peak "
                  "rss), high water %.2f MiB\n",
                  BytesToMib(memory.accounted_bytes),
                  memory.RssCoverage() * 100.0,
                  BytesToMib(memory.peak_rss.bytes),
                  BytesToMib(memory.high_water_bytes));
  } else {
    std::snprintf(line, sizeof(line),
                  "  memory: %.2f MiB accounted (peak rss unknown), high "
                  "water %.2f MiB\n",
                  BytesToMib(memory.accounted_bytes),
                  BytesToMib(memory.high_water_bytes));
  }
  out->append(line);
  for (const auto& component : memory.components) {
    AppendMemoryComponentText(component, 0, out);
  }
  if (memory.profile.enabled) {
    std::snprintf(line, sizeof(line),
                  "  alloc domains: %.2f MiB live, %.2f MiB peak, "
                  "%llu allocs, %llu frees, %llu foreign\n",
                  BytesToMib(memory.profile.live_bytes),
                  BytesToMib(memory.profile.peak_live_bytes),
                  static_cast<unsigned long long>(memory.profile.allocs),
                  static_cast<unsigned long long>(memory.profile.frees),
                  static_cast<unsigned long long>(
                      memory.profile.foreign_frees));
    out->append(line);
    for (std::size_t d = 0; d < kNumMemDomains; ++d) {
      const MemDomainStats& stats = memory.profile.domains[d];
      if (stats.allocs == 0 && stats.frees == 0) continue;
      std::snprintf(line, sizeof(line),
                    "    %-28s %10.2f MiB peak  %10.2f MiB cum  %10llu "
                    "allocs\n",
                    MemDomainName(static_cast<MemDomain>(d)),
                    BytesToMib(stats.peak_live_bytes),
                    BytesToMib(stats.alloc_bytes),
                    static_cast<unsigned long long>(stats.allocs));
      out->append(line);
    }
  }
}

void AppendSpanText(const SpanNode& node, int depth, std::string* out) {
  char line[160];
  std::snprintf(line, sizeof(line), "  %*s%-*s %9.3fs wall  %9.3fs cpu  x%zu\n",
                2 * depth, "", 24 - 2 * depth, node.name.c_str(),
                node.wall_seconds, node.cpu_seconds, node.count);
  out->append(line);
  for (const auto& child : node.children) {
    AppendSpanText(*child, depth + 1, out);
  }
}

void AppendSpanJson(const SpanNode& node, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("name");
  writer->String(node.name);
  writer->Key("wall_seconds");
  writer->Number(node.wall_seconds);
  writer->Key("cpu_seconds");
  writer->Number(node.cpu_seconds);
  writer->Key("count");
  writer->Number(static_cast<std::uint64_t>(node.count));
  writer->Key("children");
  writer->BeginArray();
  for (const auto& child : node.children) AppendSpanJson(*child, writer);
  writer->EndArray();
  writer->EndObject();
}

}  // namespace

std::string RenderStatsText(const StatsReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s stats: algorithm %s, smin %u, threads %u, %zu sets\n",
                report.tool.c_str(), report.algorithm.c_str(),
                report.min_support, report.num_threads, report.num_sets);
  out.append(line);
  std::snprintf(line, sizeof(line),
                "  wall %.3fs, cpu %.3fs, peak rss %.1f MiB\n",
                report.wall_seconds, report.cpu_seconds,
                BytesToMib(report.peak_rss_bytes));
  out.append(line);
  out.append("  counters:\n");
  for (const auto& [name, value] : report.miner.Counters()) {
    if (value == 0) continue;  // the text view shows what happened
    std::snprintf(line, sizeof(line), "    %-24s %12llu\n", name,
                  static_cast<unsigned long long>(value));
    out.append(line);
  }
  for (const auto& [name, value] : report.extra_counters) {
    if (value == 0) continue;
    std::snprintf(line, sizeof(line), "    %-32s %12llu\n", name,
                  static_cast<unsigned long long>(value));
    out.append(line);
  }
  if (report.rusage.known) AppendRusageText(report.rusage, &out);
  if (report.memory != nullptr) AppendMemoryText(*report.memory, &out);
  if (report.trace != nullptr && !report.trace->root().children.empty()) {
    out.append("  spans:\n");
    for (const auto& child : report.trace->root().children) {
      AppendSpanText(*child, 0, &out);
    }
  }
  return out;
}

std::string RenderStatsJson(const StatsReport& report) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema");
  writer.String("fim-stats-v2");
  writer.Key("tool");
  writer.String(report.tool);
  writer.Key("algorithm");
  writer.String(report.algorithm);
  writer.Key("min_support");
  writer.Number(static_cast<std::uint64_t>(report.min_support));
  writer.Key("threads");
  writer.Number(static_cast<std::uint64_t>(report.num_threads));
  writer.Key("num_sets");
  writer.Number(static_cast<std::uint64_t>(report.num_sets));
  writer.Key("wall_seconds");
  writer.Number(report.wall_seconds);
  writer.Key("cpu_seconds");
  writer.Number(report.cpu_seconds);
  writer.Key("peak_rss_bytes");
  writer.Number(static_cast<std::uint64_t>(report.peak_rss_bytes));
  writer.Key("kernel_tier");
  writer.String(report.kernel_tier);
  AppendRusageJson(report.rusage, &writer);
  writer.Key("counters");
  writer.BeginObject();
  // The full catalog, zeros included: consumers can rely on every key
  // being present in every report.
  for (const auto& [name, value] : report.miner.Counters()) {
    writer.Key(name);
    writer.Number(value);
  }
  for (const auto& [name, value] : report.extra_counters) {
    writer.Key(name);
    writer.Number(value);
  }
  writer.EndObject();
  if (report.trace != nullptr) {
    writer.Key("spans");
    writer.BeginArray();
    for (const auto& child : report.trace->root().children) {
      AppendSpanJson(*child, &writer);
    }
    writer.EndArray();
  }
  if (report.memory != nullptr) AppendMemoryJson(*report.memory, &writer);
  writer.EndObject();
  std::string out = std::move(writer).Take();
  out.push_back('\n');
  return out;
}

}  // namespace fim::obs
