#ifndef FIM_OBS_MEMORY_H_
#define FIM_OBS_MEMORY_H_

// Memory attribution: which structure owns the bytes behind the one
// opaque peak_rss_bytes number.
//
// Two complementary mechanisms, both output-neutral:
//
//  * **Self-measurement** (always compiled): every major structure
//    reports its exact heap footprint through an ApproxMemoryUsage()
//    method — capacity bytes of the vectors it owns, split into named
//    sub-components (e.g. the IsTa prefix tree's node columns vs its
//    link arena, live slots vs garbage). Miners record these
//    MemoryComponent trees into a MemoryBreakdown collector at the
//    moments the structures are largest; the collector keeps the
//    high-water snapshot per component, so the final breakdown answers
//    "what owned the bytes at the peak".
//
//  * **Allocation domains** (compiled in under FIM_MEM_PROFILE only):
//    replacement operator new/delete count every allocation's bytes
//    into the calling thread's current MemDomain tag (a thread_local
//    set by MemDomainScope, modeled on PerfDomainScope from obs/perf.h).
//    Each block carries a small header recording its size and domain,
//    so frees are attributed to the *allocating* domain no matter which
//    thread or phase releases the memory — live-byte counts are exact,
//    not cumulative-allocation approximations. Without FIM_MEM_PROFILE
//    everything here is a no-op and the binary allocates through the
//    default operator new, byte-identical to before.
//
// The allocator-counted domain totals are the ground truth the
// self-measured component sums are tested against (accounting
// exactness, tests/memory_test.cc); the component trees are what ships
// in every build and feeds the `memory` stats section, which
// fim-stats-diff gates per structure.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"

namespace fim::obs {

/// One node of a memory-breakdown tree: bytes owned directly
/// (`self_bytes`, excluding everything attributed to children) plus
/// named sub-components. All byte counts are heap bytes (vector
/// capacities and arena sizes), not sizeof(object) — that is what the
/// allocation-domain tracker counts, so the two sides are comparable.
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

/// Heap bytes of a vector-of-vectors: the spine plus every row buffer.
/// The shape shared by tid lists, transposed rows and the horizontal
/// database.
template <typename T>
std::size_t NestedVectorBytes(const std::vector<std::vector<T>>& rows) {
  std::size_t bytes = rows.capacity() * sizeof(std::vector<T>);
  for (const auto& row : rows) bytes += row.capacity() * sizeof(T);
  return bytes;
}

/// Allocation domains: a small fixed set of tags (an enum, not strings
/// — the tag is read on every operator new call) covering the
/// subsystems whose footprints the breakdown distinguishes.
enum class MemDomain : unsigned {
  kUntagged = 0,  // allocations outside any scope (startup, libstdc++)
  kReader,        // FIMI/binary readers and their line buffers
  kRecode,        // recoding: the coded database and order scratch
  kIstaTree,      // the IsTa prefix tree and its pruning bound
  kMine,          // the other miner families (tid lists, matrices, ...)
  kStream,        // StreamMiner ingest/seal/query
  kCheckpoint,    // checkpoint serialization buffers
  kObs,           // observability itself (timelines, samplers, reports)
};
inline constexpr std::size_t kNumMemDomains = 8;

/// Stable lower-case name ("untagged", "reader", ...).
const char* MemDomainName(MemDomain domain);

/// Per-domain allocator counters. live/peak are exact (frees are
/// attributed to the allocating domain via the block header);
/// alloc_bytes/allocs/frees are cumulative.
struct MemDomainStats {
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_live_bytes = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

/// One snapshot of the allocation-domain tracker. `enabled` is false
/// when the binary was built without FIM_MEM_PROFILE (all counts zero
/// then); consumers render the domain table only when it is true.
struct MemProfileSnapshot {
  bool enabled = false;
  std::uint64_t live_bytes = 0;       // bytes currently allocated
  std::uint64_t peak_live_bytes = 0;  // high-water of live_bytes
  std::uint64_t alloc_bytes = 0;      // cumulative bytes requested
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t foreign_frees = 0;  // deletes of blocks we never saw
  std::array<MemDomainStats, kNumMemDomains> domains{};  // by MemDomain
};

/// Whether the allocation-domain tracker is compiled in.
constexpr bool MemProfileCompiled() {
#ifdef FIM_MEM_PROFILE
  return true;
#else
  return false;
#endif
}

/// Reads the tracker counters (zeros + enabled=false without
/// FIM_MEM_PROFILE). Thread-safe; counters are relaxed atomics, so a
/// snapshot taken while workers allocate is approximate at the margin.
MemProfileSnapshot SnapshotMemProfile();

/// Tags every allocation of the current thread with `domain` for the
/// scope's lifetime (nesting restores the previous tag). A no-op
/// without FIM_MEM_PROFILE. Worker threads do not inherit the spawning
/// thread's tag — open a scope inside the worker, next to its
/// PerfDomainScope.
class MemDomainScope {
 public:
#ifdef FIM_MEM_PROFILE
  explicit MemDomainScope(MemDomain domain);
  ~MemDomainScope();
#else
  explicit MemDomainScope(MemDomain /*domain*/) {}
#endif
  MemDomainScope(const MemDomainScope&) = delete;
  MemDomainScope& operator=(const MemDomainScope&) = delete;

#ifdef FIM_MEM_PROFILE
 private:
  MemDomain saved_;
#endif
};

/// The assembled `memory` section of a stats report: the breakdown
/// tree, its coverage against the process peak RSS, and the domain
/// table when the tracker is compiled in.
struct MemoryReport {
  std::vector<MemoryComponent> components;
  std::size_t accounted_bytes = 0;
  std::size_t high_water_bytes = 0;
  PeakRssResult peak_rss;
  MemProfileSnapshot profile;

  /// accounted_bytes / peak_rss.bytes, or a negative value when the
  /// platform hides the RSS. Can legitimately exceed 1.0 slightly: the
  /// breakdown keeps per-component high-water snapshots whose maxima
  /// need not coincide in time, and malloc can return freed pages to
  /// the OS while ru_maxrss never decreases.
  double RssCoverage() const;
};

/// Snapshots `breakdown` plus the process RSS and the tracker counters
/// into a report ready for StatsReport::memory.
MemoryReport BuildMemoryReport(const MemoryBreakdown& breakdown);

}  // namespace fim::obs

#endif  // FIM_OBS_MEMORY_H_
