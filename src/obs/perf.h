#ifndef FIM_OBS_PERF_H_
#define FIM_OBS_PERF_H_

// Process resource usage (getrusage) and per-domain CPU attribution.
// ResourceUsage fills the `rusage` object and the top-level
// `cpu_seconds` of every stats report; the domain collector attributes
// IsTa's tree building (thread CPU and intersection steps) for
// fimbench's per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"

namespace fim::obs {

/// getrusage(RUSAGE_SELF) snapshot: every thread of the process.
struct ResourceUsage {
  bool known = false;  // false when getrusage itself failed
  double user_seconds = 0.0;
  double system_seconds = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;

  /// User plus system CPU seconds, summed over all threads.
  double CpuSeconds() const { return user_seconds + system_seconds; }
};

ResourceUsage ReadResourceUsage();

/// One attributed measurement domain: a named stretch of one thread's
/// work (IsTa's tree building) with its thread CPU and the software
/// work counter it performed.
struct PerfDomainSample {
  std::string name;
  double cpu_seconds = 0.0;      // thread CPU of the domain
  std::uint64_t work_steps = 0;  // e.g. intersection steps in the domain
};

/// Thread-safe sink for PerfDomainSamples, shared by all workers of a
/// run.
class PerfDomainCollector {
 public:
  /// The flag is unused; it stays until its last caller drops it.
  explicit PerfDomainCollector(bool /*unused*/) {}

  PerfDomainCollector(const PerfDomainCollector&) = delete;
  PerfDomainCollector& operator=(const PerfDomainCollector&) = delete;

  void Record(PerfDomainSample sample) FIM_EXCLUDES(mutex_);

  /// Samples in recording order. Call after the recording threads have
  /// quiesced (the miners join their workers before reporting).
  std::vector<PerfDomainSample> Samples() const FIM_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kPerfDomains, "PerfDomainCollector"};
  std::vector<PerfDomainSample> samples_ FIM_GUARDED_BY(mutex_);
};

/// RAII domain measurement: times the constructing thread's CPU and
/// records one PerfDomainSample on destruction. A nullptr collector
/// makes the scope a no-op, mirroring Span/TimelineScope.
class PerfDomainScope {
 public:
  PerfDomainScope(PerfDomainCollector* collector, std::string name);
  ~PerfDomainScope();

  PerfDomainScope(const PerfDomainScope&) = delete;
  PerfDomainScope& operator=(const PerfDomainScope&) = delete;

  /// Attributes `n` units of software work (intersection steps) to the
  /// domain.
  void AddWorkSteps(std::uint64_t n) { work_steps_ += n; }

 private:
  PerfDomainCollector* collector_;
  std::string name_;
  CpuTimer cpu_;
  std::uint64_t work_steps_ = 0;
};

}  // namespace fim::obs

#endif  // FIM_OBS_PERF_H_
