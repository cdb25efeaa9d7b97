#ifndef FIM_OBS_MEMORY_H_
#define FIM_OBS_MEMORY_H_

// Memory attribution: which structure owns the bytes behind the one
// opaque peak_rss_bytes number.
//
// Every major structure reports its exact heap footprint through an
// ApproxMemoryUsage() method — capacity bytes of the vectors it owns,
// split into named sub-components (e.g. the IsTa prefix tree's node
// columns vs its link arena, live slots vs garbage). Miners record these
// MemoryComponent trees into a MemoryBreakdown collector at the moments
// the structures are largest; the collector keeps the high-water
// snapshot per component, so the final breakdown answers "what owned
// the bytes at the peak". The trees feed the `memory` stats section,
// which fim-stats-diff gates per structure. Output-neutral: recording
// never changes what a miner mines.

#include <cstddef>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"

namespace fim::obs {

/// One node of a memory-breakdown tree: bytes owned directly
/// (`self_bytes`, excluding everything attributed to children) plus
/// named sub-components. All byte counts are heap bytes (vector
/// capacities and arena sizes), not sizeof(object).
struct MemoryComponent {
  std::string name;
  std::size_t self_bytes = 0;
  std::vector<MemoryComponent> children;

  MemoryComponent() = default;
  explicit MemoryComponent(std::string component_name,
                           std::size_t bytes = 0)
      : name(std::move(component_name)), self_bytes(bytes) {}

  /// self_bytes plus the total of every child, recursively.
  std::size_t TotalBytes() const;
};

/// Thread-safe collector of top-level MemoryComponent snapshots, passed
/// to miners via MinerOptions::memory.
///
/// Re-recording a name keeps whichever snapshot has the larger total —
/// high-water semantics, so a breakdown recorded at several moments of
/// a run reports the layout of the biggest one. AccountedBytes
/// additionally tracks the high-water of the *sum* across components
/// over all record points.
class MemoryBreakdown {
 public:
  MemoryBreakdown() = default;
  MemoryBreakdown(const MemoryBreakdown&) = delete;
  MemoryBreakdown& operator=(const MemoryBreakdown&) = delete;

  /// Records one top-level component snapshot (keep-max by name).
  void Record(MemoryComponent component) FIM_EXCLUDES(mutex_);

  /// Shorthand for a leaf component.
  void RecordBytes(std::string name, std::size_t bytes)
      FIM_EXCLUDES(mutex_);

  /// The recorded components, in first-record order.
  std::vector<MemoryComponent> Components() const FIM_EXCLUDES(mutex_);

  /// Sum of the recorded components' totals.
  std::size_t AccountedBytes() const FIM_EXCLUDES(mutex_);

  /// High-water mark of AccountedBytes() over all Record calls.
  std::size_t HighWaterBytes() const FIM_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kMemoryBreakdown, "MemoryBreakdown"};
  std::vector<MemoryComponent> components_ FIM_GUARDED_BY(mutex_);
  std::size_t high_water_bytes_ FIM_GUARDED_BY(mutex_) = 0;
};

/// Heap bytes of a vector-of-vectors: the spine plus every row buffer,
/// such as per-item tid lists.
template <typename T>
std::size_t NestedVectorBytes(const std::vector<std::vector<T>>& rows) {
  std::size_t bytes = rows.capacity() * sizeof(std::vector<T>);
  for (const auto& row : rows) bytes += row.capacity() * sizeof(T);
  return bytes;
}

/// The assembled `memory` section of a stats report: the breakdown
/// tree and its coverage against the process peak RSS.
struct MemoryReport {
  std::vector<MemoryComponent> components;
  std::size_t accounted_bytes = 0;
  std::size_t high_water_bytes = 0;
  PeakRssResult peak_rss;

  /// accounted_bytes / peak_rss.bytes, or a negative value when the
  /// platform hides the RSS. Can legitimately exceed 1.0 slightly: the
  /// breakdown keeps per-component high-water snapshots whose maxima
  /// need not coincide in time, and malloc can return freed pages to
  /// the OS while ru_maxrss never decreases.
  double RssCoverage() const;
};

/// Snapshots `breakdown` plus the process RSS into a report ready for
/// StatsReport::memory.
MemoryReport BuildMemoryReport(const MemoryBreakdown& breakdown);

}  // namespace fim::obs

#endif  // FIM_OBS_MEMORY_H_
