#ifndef FIM_OBS_PROFILER_H_
#define FIM_OBS_PROFILER_H_

// Signal-based sampling self-profiler: SIGPROF driven by
// setitimer(ITIMER_PROF) fires on process CPU time, the handler
// captures a backtrace() into preallocated slots, and Stop() folds the
// samples into collapsed-stack output (`fim-prof-v1`, one
// "frame;frame;...;leaf count" line per unique stack — the input
// format of flamegraph.pl). Optionally each sample also drops an
// instant event onto a dedicated timeline lane so the sampling cadence
// folds into the Chrome-trace export.
//
// Handler discipline: the handler touches only preallocated memory and
// async-signal-safe calls (backtrace after a warm-up call in Start(),
// atomic slot claiming, the lock-free TimelineLane push); handler
// bodies are serialized by an atomic busy flag and colliding or
// overflowing samples are counted as dropped, never blocked on.
// Symbolization (dladdr + demangle, which allocate) happens at render
// time, outside any handler.
//
// One profiler per process: Start() returns null (with a reason) when
// another instance is active or the platform lacks SIGPROF/backtrace.
// Failure to start never fails a run — callers warn and continue.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/timeline.h"

namespace fim::obs {

struct ProfilerOptions {
  /// Process-CPU time between samples. ~250 Hz by default: coarse
  /// enough to stay under ~1% overhead, fine enough that a one-second
  /// mining run yields hundreds of stacks.
  unsigned interval_usec = 4000;

  /// Preallocated sample capacity; further samples count as dropped.
  std::size_t max_samples = std::size_t{1} << 16;

  /// Frames captured per sample (deeper stacks are truncated at the
  /// root end by backtrace).
  std::size_t max_depth = 64;

  /// Optional dedicated lane: each kept sample records an instant
  /// event ("prof") so the Chrome trace shows when samples landed.
  /// Sample handlers run on whichever thread the kernel picks, but the
  /// busy-flag serialization preserves the lane's single-writer
  /// contract; the lane must not be written by anyone else while the
  /// profiler runs.
  TimelineLane* lane = nullptr;
};

class SamplingProfiler {
 public:
  /// Arms the process-wide profiler. Returns nullptr with `*error`
  /// explaining why when profiling cannot start (non-POSIX platform,
  /// another profiler active, setitimer/sigaction failure).
  static std::unique_ptr<SamplingProfiler> Start(
      const ProfilerOptions& options, std::string* error);

  ~SamplingProfiler();

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// Disarms the timer, restores the previous SIGPROF disposition and
  /// waits for an in-flight handler to finish. Idempotent; called by
  /// the destructor.
  void Stop();

  /// Samples kept so far (monotone; final after Stop()).
  std::size_t SampleCount() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Samples lost to handler collisions or capacity overflow.
  std::size_t DroppedSamples() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Folds the samples into `fim-prof-v1` collapsed-stack text: a `#`
  /// header line (schema, sample/dropped counts, interval), then one
  /// "frame;frame;...;leaf count" line per unique stack, sorted —
  /// deterministic for a given sample set and directly consumable by
  /// flamegraph.pl (which skips the header). Implies Stop().
  std::string RenderCollapsed();

  /// RenderCollapsed() to a file; IoError when it cannot be written.
  Status WriteCollapsedFile(const std::string& path);

 private:
  explicit SamplingProfiler(const ProfilerOptions& options);

  /// The SIGPROF handler body (async-signal-safe; see file comment).
  /// `interrupted_pc` is the program counter the signal interrupted, or
  /// null where the signal context is not decoded.
  void TakeSample(void* interrupted_pc);

  friend void SampleActiveProfiler(void* interrupted_pc);

  const ProfilerOptions options_;
  // Slots of the samples taken so far; the rest is never read.
  std::unique_ptr<void*[]> frames_;  // max_samples * max_depth slots
  std::unique_ptr<std::uint16_t[]> depths_;  // frames captured per sample
  std::unique_ptr<void*[]> pcs_;             // interrupted program counters
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<bool> busy_{false};  // serializes handler bodies
  bool armed_ = false;
  bool old_action_valid_ = false;
  // Opaque storage for the saved sigaction (keeps <csignal> out of the
  // header); large enough for struct sigaction on every libc we build.
  alignas(16) unsigned char old_action_[160] = {};
};

namespace internal {

/// Folds raw stacks into collapsed lines (exposed for deterministic
/// tests that bypass the signal machinery). Each stack is leaf-first,
/// as backtrace() returns it, without the handler frames.
std::string FoldStacks(const std::vector<std::vector<std::string>>& stacks,
                       std::size_t samples, std::size_t dropped,
                       unsigned interval_usec);

/// Best-effort symbol name for a return address: dladdr + demangle,
/// falling back to "module+0x<offset>" or a bare hex address.
std::string SymbolizeAddress(void* addr);

}  // namespace internal

}  // namespace fim::obs

#endif  // FIM_OBS_PROFILER_H_
