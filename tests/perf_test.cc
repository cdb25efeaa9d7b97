// Tests of the resource-usage and domain-attribution layer (obs/perf.h):
// getrusage and peak RSS readings, domain attribution, and the peak-RSS
// footprint of an idle timeline.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/perf.h"
#include "obs/timeline.h"

namespace fim::obs {
namespace {

// --- resource usage ---------------------------------------------------

TEST(ResourceUsageTest, RusageIsKnownOnPosixAndMonotone) {
  const ResourceUsage usage = ReadResourceUsage();
#if defined(__unix__) || defined(__APPLE__)
  ASSERT_TRUE(usage.known);
  EXPECT_GE(usage.user_seconds, 0.0);
  EXPECT_GE(usage.system_seconds, 0.0);
#else
  EXPECT_FALSE(usage.known);
#endif
}

TEST(PeakRssTest, KnownResultCarriesBytesAndLegacyAccessorAgrees) {
  const PeakRssResult rss = PeakRssBytes();
#if defined(__linux__)
  ASSERT_TRUE(rss.known);
  // A running test binary is comfortably above 1 MiB resident.
  EXPECT_GT(rss.bytes, std::size_t{1} << 20);
#endif
  if (!rss.known) {
    EXPECT_EQ(rss.bytes, 0u);
  }
  EXPECT_EQ(PeakRss(), rss.bytes);
}

// --- domain attribution ------------------------------------------------

TEST(PerfDomainTest, NullCollectorMakesScopesFreeNoOps) {
  PerfDomainScope scope(nullptr, "ignored");
  scope.AddWorkSteps(42);
  // Destruction must not crash or record anywhere.
}

TEST(PerfDomainTest, ScopeRecordsNameCpuAndWorkSteps) {
  PerfDomainCollector collector(/*enable_hw=*/false);
  {
    PerfDomainScope scope(&collector, "shard-7");
    scope.AddWorkSteps(100);
    scope.AddWorkSteps(23);
  }
  const std::vector<PerfDomainSample> samples = collector.Samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "shard-7");
  EXPECT_EQ(samples[0].work_steps, 123u);
  EXPECT_GE(samples[0].cpu_seconds, 0.0);
}

TEST(PerfDomainTest, ConcurrentRecordsAllArrive) {
  PerfDomainCollector collector(/*enable_hw=*/false);
  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 25;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&collector, t]() {
      for (int i = 0; i < kScopesPerThread; ++i) {
        PerfDomainScope scope(&collector,
                              "shard-" + std::to_string(t));
        scope.AddWorkSteps(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(collector.Samples().size(),
            static_cast<std::size_t>(kThreads * kScopesPerThread));
}

TEST(ObservabilityFootprintTest, UnwrittenBuffersStayOutOfThePeakRss) {
  // 64 timeline lanes hold 128 MiB of ring slots at the default capacity.
  // Only written slots may become resident: observing a run must not
  // inflate the peak RSS it reports.
  const PeakRssResult before = PeakRssBytes();
  if (!before.known) GTEST_SKIP() << "the platform hides the peak RSS";
  Timeline timeline;
  for (int lane = 1; lane < 64; ++lane) {
    timeline.AddLane("lane-" + std::to_string(lane));
  }
  ASSERT_EQ(timeline.NumLanes(), 64u);
  const std::size_t grown = PeakRssBytes().bytes - before.bytes;
  EXPECT_LT(grown, std::size_t{32} << 20)
      << "peak RSS grew by " << grown << " bytes";
}

}  // namespace
}  // namespace fim::obs
