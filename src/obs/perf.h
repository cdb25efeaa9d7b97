#ifndef FIM_OBS_PERF_H_
#define FIM_OBS_PERF_H_

// Hardware performance counters over perf_event_open, with graceful
// degradation. A PerfCounterSet opens one grouped fd set per thread
// (cycles, instructions, LLC references/misses, branch
// instructions/misses, L1d read misses) and reads the whole group with
// a single syscall; counts are multiplex-scaled by the kernel-reported
// time_enabled / time_running ratio, so the numbers stay meaningful
// when the PMU rotates more events than it has counters for.
//
// Availability is a first-class result, not an error: containers and
// VMs routinely deny or lack the PMU (perf_event_paranoid, no
// virtualized PMU), so every consumer carries an explicit
// PerfAvailability with a human-readable reason and falls back to
// getrusage()/CpuTimer numbers. Opening a set never fails a run.
//
// See docs/OBSERVABILITY.md ("Hardware counters") for the availability
// matrix and scaling semantics.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"

namespace fim::obs {

/// Index of each event in a PerfCounterSet group. The leader (cycles)
/// must open for the set to count at all; the others are best-effort
/// members (a missing member shows up as an unset bit in opened_mask,
/// not as a failure).
enum class PerfEvent : unsigned {
  kCycles = 0,
  kInstructions,
  kCacheReferences,  // LLC accesses
  kCacheMisses,      // LLC misses
  kBranchInstructions,
  kBranchMisses,
  kL1dMisses,  // L1 data cache read misses (HW_CACHE event)
};
inline constexpr unsigned kNumPerfEvents = 7;

inline constexpr unsigned PerfEventBit(PerfEvent e) {
  return 1U << static_cast<unsigned>(e);
}

/// Whether hardware counting works here, and if not, why. `reason` is
/// empty exactly when `available`; otherwise it names the failing
/// syscall, the errno, and the likely fix (e.g. the current
/// kernel.perf_event_paranoid value).
struct PerfAvailability {
  bool available = false;
  std::string reason;
  /// Bit i set = event i of PerfEvent opened and is counting.
  unsigned opened_mask = 0;
};

/// Multiplex-scaled counter values of one read (totals since Start()).
/// Events whose opened_mask bit is clear read as 0; the derived-rate
/// helpers return NaN when their inputs did not count, so exporters can
/// render null instead of a fake 0.
struct PerfCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_instructions = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t l1d_misses = 0;
  /// Group scheduling times from the kernel (summed under Accumulate).
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  unsigned opened_mask = 0;

  /// Instructions per cycle; NaN when either event did not count.
  double Ipc() const;

  /// LLC misses / LLC references; NaN when either did not count.
  double LlcMissRate() const;

  /// Branch misses / branch instructions; NaN when either did not count.
  double BranchMissRate() const;

  /// time_running / time_enabled in [0, 1]: 1.0 = the group was on the
  /// PMU the whole time (no multiplexing), smaller = counts were scaled
  /// up from a fraction of the run. NaN before any read.
  double MultiplexScale() const;

  /// Field-wise sum (for aggregating deltas into a span or a total).
  void Accumulate(const PerfCounts& other);

  /// Field-wise difference `*this - earlier` (deltas between two reads
  /// of the same set; counters are monotone between Start() calls).
  PerfCounts DeltaSince(const PerfCounts& earlier) const;
};

namespace internal {

/// Multiplex scaling of one raw count: raw * enabled / running, the
/// standard perf extrapolation. running == 0 (event never scheduled)
/// yields 0 — there is nothing to extrapolate from.
std::uint64_t ScalePerfCount(std::uint64_t raw, std::uint64_t enabled,
                             std::uint64_t running);

/// Maps a perf_event_open failure to the explicit unavailable reason
/// (reads /proc/sys/kernel/perf_event_paranoid for the EACCES/EPERM
/// hint). Exposed for tests.
std::string DescribePerfOpenFailure(int saved_errno);

}  // namespace internal

/// A grouped per-thread hardware counter set. Open it on the thread it
/// should measure (counters follow the opening thread, not the CPU).
/// Construction never throws and never fails the caller: when the
/// kernel denies or lacks the PMU the set reports !available() with a
/// reason and all other calls are harmless no-ops.
class PerfCounterSet {
 public:
  PerfCounterSet();
  ~PerfCounterSet();

  PerfCounterSet(const PerfCounterSet&) = delete;
  PerfCounterSet& operator=(const PerfCounterSet&) = delete;

  bool available() const { return avail_.available; }
  const PerfAvailability& availability() const { return avail_; }

  /// Resets the group to zero and enables counting. Returns available().
  bool Start();

  /// Disables counting (totals keep their values for Read()).
  void Stop();

  /// Reads the whole group with one syscall and returns multiplex-scaled
  /// totals since Start(). All-zero (opened_mask == 0) when unavailable.
  PerfCounts Read() const;

 private:
  PerfAvailability avail_;
  int group_fd_ = -1;               // leader (cycles), -1 when unavailable
  int fds_[kNumPerfEvents];         // -1 for events that did not open
  int slot_of_event_[kNumPerfEvents];  // index into the group read, or -1
  unsigned num_open_ = 0;
};

/// One probe of the calling thread, without keeping any state open:
/// what a PerfCounterSet would report. Cheap enough for startup checks.
PerfAvailability ProbePerfCounters();

/// getrusage(RUSAGE_SELF) snapshot — the always-available fallback tier
/// surfaced next to (or instead of) hardware counts.
struct ResourceUsage {
  bool known = false;  // false when getrusage itself failed
  double user_seconds = 0.0;
  double system_seconds = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};

ResourceUsage ReadResourceUsage();

/// One attributed measurement domain: a named stretch of one thread's
/// work (IsTa's tree building) with its hardware delta (when
/// counting worked), its thread-CPU fallback, and the software work
/// counter the fim-prof inflation table divides by.
struct PerfDomainSample {
  std::string name;
  bool hw_valid = false;  // counts came from a working PerfCounterSet
  PerfCounts counts;
  double cpu_seconds = 0.0;      // thread CPU, always measured
  std::uint64_t work_steps = 0;  // e.g. intersection steps in the domain
};

/// Thread-safe sink for PerfDomainSamples, shared by all workers of a
/// run. hw_enabled() tells scopes whether to open counter sets at all
/// (so `--stats` without `--perf-counters` costs nothing).
class PerfDomainCollector {
 public:
  explicit PerfDomainCollector(bool enable_hw) : enable_hw_(enable_hw) {}

  PerfDomainCollector(const PerfDomainCollector&) = delete;
  PerfDomainCollector& operator=(const PerfDomainCollector&) = delete;

  bool hw_enabled() const { return enable_hw_; }

  void Record(PerfDomainSample sample) FIM_EXCLUDES(mutex_);

  /// Samples in recording order. Call after the recording threads have
  /// quiesced (the miners join their workers before reporting).
  std::vector<PerfDomainSample> Samples() const FIM_EXCLUDES(mutex_);

 private:
  const bool enable_hw_;
  mutable Mutex mutex_{LockRank::kPerfDomains, "PerfDomainCollector"};
  std::vector<PerfDomainSample> samples_ FIM_GUARDED_BY(mutex_);
};

/// RAII domain measurement: opens a counter set on the constructing
/// thread (when the collector wants hardware counts), times thread CPU,
/// and records one PerfDomainSample on destruction. A nullptr collector
/// makes the scope a no-op, mirroring Span/TimelineScope.
class PerfDomainScope {
 public:
  PerfDomainScope(PerfDomainCollector* collector, std::string name);
  ~PerfDomainScope();

  PerfDomainScope(const PerfDomainScope&) = delete;
  PerfDomainScope& operator=(const PerfDomainScope&) = delete;

  /// Attributes `n` units of software work (intersection steps) to the
  /// domain; fim-prof divides cycles by this to expose work inflation.
  void AddWorkSteps(std::uint64_t n) { work_steps_ += n; }

 private:
  PerfDomainCollector* collector_;
  std::string name_;
  std::unique_ptr<PerfCounterSet> counters_;  // only when hw_enabled()
  CpuTimer cpu_;
  std::uint64_t work_steps_ = 0;
};

/// The `perf` section of a stats report: availability, whole-run scaled
/// totals (driver thread), the rusage/RSS fallback tier, the active
/// kernel tier, and the per-domain attribution table.
struct PerfReport {
  PerfAvailability availability;
  bool total_valid = false;  // `total` came from a working set
  PerfCounts total;
  std::string kernel_tier;  // kernels::Active().name
  ResourceUsage rusage;
  PeakRssResult peak_rss;
  std::vector<PerfDomainSample> domains;
};

}  // namespace fim::obs

#endif  // FIM_OBS_PERF_H_
