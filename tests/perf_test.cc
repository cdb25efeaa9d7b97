// Tests of the resource-usage and domain-attribution layer (obs/perf.h)
// and the sampling self-profiler (obs/profiler.h): getrusage and peak
// RSS readings, domain attribution, collapsed-stack folding, and the
// end-to-end SIGPROF capture path.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "obs/perf.h"
#include "obs/profiler.h"
#include "obs/timeline.h"

namespace fim::obs {

// Spins until the profiler has kept `samples` samples (or ten CPU
// seconds passed). Not inlined and outside the anonymous namespace, so
// that ENABLE_EXPORTS puts it into the dynamic symbol table, where the
// profiler's dladdr finds it.
__attribute__((noinline)) std::uint64_t SpinForProfiler(
    const SamplingProfiler& profiler, std::size_t samples) {
  std::uint64_t sink = 0;
  CpuTimer cpu;
  while (profiler.SampleCount() < samples && cpu.Seconds() < 10.0) {
    for (std::uint64_t i = 0; i < 1000000; ++i) {
      sink = sink * 6364136223846793005ULL + i;
    }
  }
  return sink;
}

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

// --- collapsed-stack folding -------------------------------------------

TEST(FoldStacksTest, HeaderCarriesSchemaAndCounts) {
  const std::string out = internal::FoldStacks({}, 7, 3, 4000);
  EXPECT_EQ(out,
            "# fim-prof-v1 samples=7 dropped=3 interval_usec=4000\n");
}

TEST(FoldStacksTest, FoldsLeafFirstStacksRootFirstAndCounts) {
  // backtrace() order: leaf first. main;work;leaf twice, main;other once.
  const std::vector<std::vector<std::string>> stacks = {
      {"leaf", "work", "main"},
      {"other", "main"},
      {"leaf", "work", "main"},
  };
  const std::string out = internal::FoldStacks(stacks, 3, 0, 1000);
  EXPECT_NE(out.find("main;work;leaf 2\n"), std::string::npos);
  EXPECT_NE(out.find("main;other 1\n"), std::string::npos);
}

TEST(FoldStacksTest, DeterministicAndSortedAcrossInputOrder) {
  const std::vector<std::vector<std::string>> forward = {
      {"b", "main"}, {"a", "main"}};
  const std::vector<std::vector<std::string>> reversed = {
      {"a", "main"}, {"b", "main"}};
  EXPECT_EQ(internal::FoldStacks(forward, 2, 0, 1000),
            internal::FoldStacks(reversed, 2, 0, 1000));
  // Sorted: main;a before main;b.
  const std::string out = internal::FoldStacks(forward, 2, 0, 1000);
  EXPECT_LT(out.find("main;a 1"), out.find("main;b 1"));
}

TEST(FoldStacksTest, EmptyStacksAreSkippedNotRendered) {
  const std::string out =
      internal::FoldStacks({{}, {"leaf", "main"}}, 2, 0, 1000);
  std::istringstream lines(out);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 2u);  // header + the one non-empty stack
}

TEST(SymbolizeAddressTest, NeverReturnsEmpty) {
  // A libc/function address should resolve to *something*; even a junk
  // address must come back as a hex literal, not an empty string.
  EXPECT_FALSE(
      internal::SymbolizeAddress(reinterpret_cast<void*>(&std::labs))
          .empty());
  EXPECT_FALSE(internal::SymbolizeAddress(nullptr).empty());
}

// --- the profiler end to end -------------------------------------------

TEST(SamplingProfilerTest, InvalidOptionsFailWithReason) {
  ProfilerOptions options;
  options.interval_usec = 0;
  std::string error;
  EXPECT_EQ(SamplingProfiler::Start(options, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(SamplingProfilerTest, CapturesCpuBoundStacksAndRendersCollapsed) {
  ProfilerOptions options;
  options.interval_usec = 1000;  // 1 kHz: fast samples for a short test
  std::string error;
  auto profiler = SamplingProfiler::Start(options, &error);
  ASSERT_NE(profiler, nullptr) << error;

  // Only one profiler per process while armed.
  std::string second_error;
  EXPECT_EQ(SamplingProfiler::Start(options, &second_error), nullptr);
  EXPECT_FALSE(second_error.empty());

  // Burn CPU until samples arrive (ITIMER_PROF counts process CPU
  // time, so this loop is exactly what gets sampled).
  volatile std::uint64_t sink = 0;
  CpuTimer cpu;
  while (profiler->SampleCount() < 5 && cpu.Seconds() < 10.0) {
    for (int i = 0; i < 100000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  EXPECT_GE(profiler->SampleCount(), 5u);

  const std::string collapsed = profiler->RenderCollapsed();  // stops
  EXPECT_EQ(collapsed.rfind("# fim-prof-v1 samples=", 0), 0u);
  // At least one stack line: "frames... count\n" after the header.
  EXPECT_NE(collapsed.find('\n'), collapsed.size() - 1);

  // Stopped: a new profiler may start again.
  std::string third_error;
  auto again = SamplingProfiler::Start(options, &third_error);
  EXPECT_NE(again, nullptr) << third_error;
}

TEST(SamplingProfilerTest, WriteCollapsedFileReportsIoErrors) {
  ProfilerOptions options;
  std::string error;
  auto profiler = SamplingProfiler::Start(options, &error);
  ASSERT_NE(profiler, nullptr) << error;
  profiler->Stop();
  EXPECT_FALSE(
      profiler->WriteCollapsedFile("/nonexistent-dir/prof.txt").ok());

  const std::string path = ::testing::TempDir() + "/perf_test_prof.txt";
  ASSERT_TRUE(profiler->WriteCollapsedFile(path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("# fim-prof-v1 ", 0), 0u);
}

TEST(SamplingProfilerTest, ProfilerFeedsTimelineLaneInstants) {
  Timeline timeline;
  ProfilerOptions options;
  options.interval_usec = 1000;
  options.lane = timeline.AddLane("profiler");
  std::string error;
  auto profiler = SamplingProfiler::Start(options, &error);
  ASSERT_NE(profiler, nullptr) << error;
  volatile std::uint64_t sink = 0;
  CpuTimer cpu;
  while (profiler->SampleCount() < 3 && cpu.Seconds() < 10.0) {
    for (int i = 0; i < 100000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  profiler->Stop();
  EXPECT_GE(profiler->SampleCount(), 3u);
  // Every kept sample dropped an instant event onto the lane.
  std::size_t instants = 0;
  for (const TimelineEvent& event : options.lane->Snapshot()) {
    if (event.kind == TimelineEvent::Kind::kInstant) ++instants;
  }
  EXPECT_EQ(instants, profiler->SampleCount());
}

// ThreadSanitizer defers asynchronous signals to its own interception
// points, so under it every sample's leaf is a runtime frame.
#if defined(__SANITIZE_THREAD__)
constexpr bool kSignalsDeferred = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kSignalsDeferred = true;
#else
constexpr bool kSignalsDeferred = false;
#endif
#else
constexpr bool kSignalsDeferred = false;
#endif

TEST(SamplingProfilerTest, LeafIsTheInterruptedExportedFunction) {
  if (kSignalsDeferred) {
    GTEST_SKIP() << "ThreadSanitizer delivers SIGPROF inside its runtime";
  }
  ProfilerOptions options;
  options.interval_usec = 1000;
  std::string error;
  auto profiler = SamplingProfiler::Start(options, &error);
  ASSERT_NE(profiler, nullptr) << error;
  const volatile std::uint64_t sink = SpinForProfiler(*profiler, 50);
  (void)sink;
  const std::string collapsed = profiler->RenderCollapsed();
  // Each line after the header is "root;...;leaf count". The leaf must
  // be the spinning function itself, demangled: neither the signal
  // trampoline nor a bare module offset.
  std::istringstream lines(collapsed);
  std::string line;
  std::getline(lines, line);  // header
  std::uint64_t samples = 0;
  std::uint64_t in_spin = 0;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::uint64_t count = std::stoull(line.substr(space + 1));
    const std::string stack = line.substr(0, space);
    const std::size_t semicolon = stack.rfind(';');
    const std::string leaf =
        semicolon == std::string::npos ? stack : stack.substr(semicolon + 1);
    samples += count;
    if (leaf.rfind("fim::obs::SpinForProfiler(", 0) == 0) in_spin += count;
  }
  EXPECT_GE(samples, 50u);
  EXPECT_GE(2 * in_spin, samples) << collapsed;
}

TEST(ObservabilityFootprintTest, UnwrittenBuffersStayOutOfThePeakRss) {
  // 64 timeline lanes hold 128 MiB of ring slots at the default capacity,
  // and the profiler 32 MiB of sample slots at the default options. Only
  // written slots may become resident: observing a run must not inflate
  // the peak RSS it reports.
  const PeakRssResult before = PeakRssBytes();
  if (!before.known) GTEST_SKIP() << "the platform hides the peak RSS";
  Timeline timeline;
  for (int lane = 1; lane < 64; ++lane) {
    timeline.AddLane("lane-" + std::to_string(lane));
  }
  ASSERT_EQ(timeline.NumLanes(), 64u);
  std::string error;
  auto profiler = SamplingProfiler::Start(ProfilerOptions{}, &error);
  ASSERT_NE(profiler, nullptr) << error;
  profiler->Stop();
  const std::size_t grown = PeakRssBytes().bytes - before.bytes;
  EXPECT_LT(grown, std::size_t{32} << 20)
      << "peak RSS grew by " << grown << " bytes";
}

}  // namespace
}  // namespace fim::obs
