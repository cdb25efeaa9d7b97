#include "harness.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "obs/perf.h"

namespace fim::bench {
namespace {

// SplitMix64 finalizer (bijective).
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void Digest::Add(std::span<const ItemId> items, Support support) {
  // Sums commute, so neither the item order inside a set nor the order
  // of the sets matters; the outer Mix keeps a set's terms from
  // cancelling against another set's.
  std::uint64_t set_hash = 0;
  for (ItemId item : items) set_hash += Mix(item);
  hash += Mix(set_hash ^ Mix(support));
  ++count;
}

ClosedSetCallback Digest::Collector() {
  return [this](std::span<const ItemId> items, Support support) {
    Add(items, support);
  };
}

double Percentile(std::vector<double> samples, double percent) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(percent / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double ProcessCpuSeconds() {
  const obs::ResourceUsage usage = obs::ReadResourceUsage();
  return usage.user_seconds + usage.system_seconds;
}

double CalibrationSeconds() {
  std::vector<std::uint64_t> state(8192, 1);
  WallTimer wall;
  std::uint64_t x = 1;
  for (int round = 0; round < 800; ++round) {
    for (std::uint64_t& value : state) {
      x = x * 6364136223846793005ULL + value;
      value = x >> 7;
    }
  }
  // The volatile store keeps the loop, and keeps it before the clock read.
  static volatile std::uint64_t sink = 0;
  sink = sink + x;
  return wall.Seconds();
}

}  // namespace fim::bench
