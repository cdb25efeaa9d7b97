#include "obs/export.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace fim::obs {

namespace {

/// Emits `value` or null — the perf sections never render a fake 0 for
/// an event or rate that did not actually count.
void NumberOrNull(JsonWriter* writer, double value, bool valid) {
  if (valid && std::isfinite(value)) {
    writer->Number(value);
  } else {
    writer->Null();
  }
}

void CountOrNull(JsonWriter* writer, std::uint64_t value, unsigned mask,
                 PerfEvent event) {
  if ((mask & PerfEventBit(event)) != 0) {
    writer->Number(value);
  } else {
    writer->Null();
  }
}

/// The event counters + derived rates of one PerfCounts, as the body of
/// an open JSON object (shared by the totals, spans and domain rows).
void AppendPerfCountsFields(const PerfCounts& counts, JsonWriter* writer) {
  const unsigned mask = counts.opened_mask;
  writer->Key("cycles");
  CountOrNull(writer, counts.cycles, mask, PerfEvent::kCycles);
  writer->Key("instructions");
  CountOrNull(writer, counts.instructions, mask, PerfEvent::kInstructions);
  writer->Key("cache_references");
  CountOrNull(writer, counts.cache_references, mask,
              PerfEvent::kCacheReferences);
  writer->Key("cache_misses");
  CountOrNull(writer, counts.cache_misses, mask, PerfEvent::kCacheMisses);
  writer->Key("branch_instructions");
  CountOrNull(writer, counts.branch_instructions, mask,
              PerfEvent::kBranchInstructions);
  writer->Key("branch_misses");
  CountOrNull(writer, counts.branch_misses, mask, PerfEvent::kBranchMisses);
  writer->Key("l1d_misses");
  CountOrNull(writer, counts.l1d_misses, mask, PerfEvent::kL1dMisses);
  writer->Key("ipc");
  NumberOrNull(writer, counts.Ipc(), true);
  writer->Key("llc_miss_rate");
  NumberOrNull(writer, counts.LlcMissRate(), true);
  writer->Key("branch_miss_rate");
  NumberOrNull(writer, counts.BranchMissRate(), true);
  writer->Key("multiplex_scale");
  NumberOrNull(writer, counts.MultiplexScale(), true);
}

void AppendPerfJson(const PerfReport& perf, JsonWriter* writer) {
  writer->Key("perf");
  writer->BeginObject();
  writer->Key("available");
  writer->Bool(perf.availability.available);
  if (!perf.availability.available) {
    writer->Key("unavailable_reason");
    writer->String(perf.availability.reason);
  }
  if (!perf.kernel_tier.empty()) {
    writer->Key("kernel_tier");
    writer->String(perf.kernel_tier);
  }
  writer->Key("counters");
  if (perf.total_valid) {
    writer->BeginObject();
    AppendPerfCountsFields(perf.total, writer);
    writer->EndObject();
  } else {
    writer->Null();
  }
  writer->Key("rusage");
  if (perf.rusage.known) {
    writer->BeginObject();
    writer->Key("user_seconds");
    writer->Number(perf.rusage.user_seconds);
    writer->Key("system_seconds");
    writer->Number(perf.rusage.system_seconds);
    writer->Key("minor_faults");
    writer->Number(perf.rusage.minor_faults);
    writer->Key("major_faults");
    writer->Number(perf.rusage.major_faults);
    writer->Key("voluntary_ctx_switches");
    writer->Number(perf.rusage.voluntary_ctx_switches);
    writer->Key("involuntary_ctx_switches");
    writer->Number(perf.rusage.involuntary_ctx_switches);
    writer->Key("peak_rss_bytes");
    if (perf.peak_rss.known) {
      writer->Number(static_cast<std::uint64_t>(perf.peak_rss.bytes));
    } else {
      writer->Null();
    }
    writer->EndObject();
  } else {
    writer->Null();
  }
  writer->Key("domains");
  writer->BeginArray();
  for (const auto& domain : perf.domains) {
    writer->BeginObject();
    writer->Key("name");
    writer->String(domain.name);
    writer->Key("work_steps");
    writer->Number(domain.work_steps);
    writer->Key("cpu_seconds");
    writer->Number(domain.cpu_seconds);
    if (domain.hw_valid) {
      AppendPerfCountsFields(domain.counts, writer);
    } else {
      writer->Key("cycles");
      writer->Null();
    }
    writer->EndObject();
  }
  writer->EndArray();
  writer->EndObject();
}

void AppendPerfText(const PerfReport& perf, std::string* out) {
  char line[256];
  if (!perf.availability.available) {
    out->append("  perf: unavailable — ");
    out->append(perf.availability.reason);
    out->push_back('\n');
  } else if (perf.total_valid) {
    const PerfCounts& c = perf.total;
    std::snprintf(line, sizeof(line),
                  "  perf: %.2e cycles, %.2e instructions, ipc %.2f, "
                  "llc miss %.1f%%, branch miss %.1f%% (scale %.2f%s)\n",
                  static_cast<double>(c.cycles),
                  static_cast<double>(c.instructions), c.Ipc(),
                  c.LlcMissRate() * 100.0, c.BranchMissRate() * 100.0,
                  c.MultiplexScale(),
                  perf.kernel_tier.empty()
                      ? ""
                      : (", kernel " + perf.kernel_tier).c_str());
    out->append(line);
  }
  if (perf.rusage.known) {
    std::snprintf(line, sizeof(line),
                  "  rusage: user %.3fs, sys %.3fs, faults %llu+%llu, "
                  "ctx %llu+%llu\n",
                  perf.rusage.user_seconds, perf.rusage.system_seconds,
                  static_cast<unsigned long long>(perf.rusage.minor_faults),
                  static_cast<unsigned long long>(perf.rusage.major_faults),
                  static_cast<unsigned long long>(
                      perf.rusage.voluntary_ctx_switches),
                  static_cast<unsigned long long>(
                      perf.rusage.involuntary_ctx_switches));
    out->append(line);
  }
  if (!perf.domains.empty()) {
    out->append("  perf domains:\n");
    for (const auto& domain : perf.domains) {
      if (domain.hw_valid) {
        std::snprintf(
            line, sizeof(line),
            "    %-20s %12llu steps  %8.3fs cpu  %.2e cyc  ipc %.2f\n",
            domain.name.c_str(),
            static_cast<unsigned long long>(domain.work_steps),
            domain.cpu_seconds, static_cast<double>(domain.counts.cycles),
            domain.counts.Ipc());
      } else {
        std::snprintf(line, sizeof(line),
                      "    %-20s %12llu steps  %8.3fs cpu\n",
                      domain.name.c_str(),
                      static_cast<unsigned long long>(domain.work_steps),
                      domain.cpu_seconds);
      }
      out->append(line);
    }
  }
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
  if (node.perf_valid) {
    writer->Key("perf");
    writer->BeginObject();
    AppendPerfCountsFields(node.perf, writer);
    writer->EndObject();
  }
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
  if (report.perf != nullptr) AppendPerfText(*report.perf, &out);
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
  if (report.perf != nullptr) AppendPerfJson(*report.perf, &writer);
  if (report.memory != nullptr) AppendMemoryJson(*report.memory, &writer);
  writer.EndObject();
  std::string out = std::move(writer).Take();
  out.push_back('\n');
  return out;
}

}  // namespace fim::obs
