#ifndef FIM_COMMON_TIMER_H_
#define FIM_COMMON_TIMER_H_

#include <chrono>
#include <cstddef>
#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fim {

/// Wall-clock stopwatch used by the benchmark harness.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU-time stopwatch over the calling thread's CPU clock. Measures time
/// the thread actually executed, so a span that sleeps (or waits on a
/// join) shows wall >> cpu, and a span whose workers saturate the cores
/// shows cpu ~ wall on the worker threads. Construct and read on the
/// same thread.
class CpuTimer {
 public:
  CpuTimer() : start_(Now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Now(); }

  /// Thread CPU seconds since construction or the last Reset().
  double Seconds() const { return Now() - start_; }

  /// The calling thread's CPU clock in seconds (monotone per thread).
  static double Now() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    // Fallback: process CPU time; coarse but monotone.
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
  }

 private:
  double start_;
};

/// Peak resident set size with an explicit error path: `known` is false
/// when the platform does not expose `ru_maxrss` or getrusage() itself
/// failed, so consumers can render "unknown" instead of a fake 0.
struct PeakRssResult {
  std::size_t bytes = 0;
  bool known = false;
};

/// Peak resident set size of the process, normalized to bytes.
/// `ru_maxrss` units differ per platform — KiB on Linux and the BSDs,
/// bytes on macOS — and this is the one place that conversion lives.
/// Monotone over the process lifetime (a high-water mark), so record it
/// once at report time.
inline PeakRssResult PeakRssBytes() {
  PeakRssResult result;
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return result;  // known=false
  if (usage.ru_maxrss <= 0) return result;  // kernel hides it (e.g. WSL1)
#if defined(__APPLE__)
  result.bytes = static_cast<std::size_t>(usage.ru_maxrss);  // bytes
#else
  result.bytes = static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
  result.known = true;
#endif
  return result;
}

/// Legacy accessor: PeakRssBytes().bytes, with the error path collapsed
/// to 0. Prefer PeakRssBytes() where "unknown" matters.
inline std::size_t PeakRss() { return PeakRssBytes().bytes; }

/// Byte counts rendered as MiB — the one shared conversion for every
/// human-readable rendering (stats text, trace counter tracks,
/// fim-prof tables), so the unit cannot drift between them.
inline double BytesToMib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace fim

#endif  // FIM_COMMON_TIMER_H_
