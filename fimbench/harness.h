#ifndef FIMBENCH_HARNESS_H_
#define FIMBENCH_HARNESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/itemset.h"

namespace fim::bench {

/// Order-independent fingerprint of a closed-set output: the number of
/// sets plus a 64-bit hash of the (items, support) pairs. The hash is the
/// same for every reporting order, of the sets and of the items inside a
/// set, and changes when a set gains or loses an item or a support
/// changes.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;

  void Add(std::span<const ItemId> items, Support support);

  /// A callback adding every reported set to this digest; the digest
  /// must outlive it.
  ClosedSetCallback Collector();

  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Nearest-rank percentile: the smallest sample that at least `percent`
/// per cent of the samples do not exceed. `percent` in (0, 100]; 0 for
/// no samples.
double Percentile(std::vector<double> samples, double percent);

/// User plus system CPU seconds of the whole process, every thread
/// included (getrusage through obs::ReadResourceUsage). CpuTimer reads
/// only the calling thread's clock and misses worker threads.
double ProcessCpuSeconds();

/// Wall seconds of a fixed integer loop over 64 KiB that calls no
/// library code: about 10 ms on a 4-vCPU x86 VM. Its median over a run
/// tells how fast the host ran at the time.
double CalibrationSeconds();

}  // namespace fim::bench

#endif  // FIMBENCH_HARNESS_H_
