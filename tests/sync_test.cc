// Tests for the annotated synchronization primitives (common/sync.h):
// mutual exclusion on every toolchain, plus the debug-build lock-rank
// checker — rank inversion and recursive acquisition must abort
// deterministically instead of deadlocking.

#include "common/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/check.h"

namespace fim {
namespace {

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mutex(LockRank::kLeaf, "test");
  // Deliberately non-atomic: only the lock keeps this race-free, which
  // is exactly what TSan verifies when this suite runs under it.
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mutex, &counter]() {
      for (int i = 0; i < kIncrements; ++i) {
        const MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MutexTest, SequentialLocksOfAnyRankOrderAreFine) {
  // Ranks order *nested* acquisition only; taking locks one after the
  // other (never held together) is legal in any order.
  Mutex high(LockRank::kMemoryBreakdown, "high");
  Mutex low(LockRank::kStreamMiner, "low");
  {
    const MutexLock lock(high);
  }
  {
    const MutexLock lock(low);
  }
  {
    const MutexLock lock(high);
  }
}

TEST(MutexTest, NestedAcquisitionInIncreasingRankOrder) {
  Mutex outer(LockRank::kStreamMiner, "outer");
  Mutex inner(LockRank::kMemoryBreakdown, "inner");
  const MutexLock outer_lock(outer);
  const MutexLock inner_lock(inner);
}

// The lock-rank checker is compiled in only with FIM_ENABLE_DCHECKS
// (Debug builds and the dchecks CI job); elsewhere these death tests
// would find nothing to die on.
#if GTEST_HAS_DEATH_TEST

// A second acquisition of a held mutex is exactly what Clang's static
// analysis rejects at compile time; the annotation escape hatch lets us
// prove the *runtime* checker catches it too (for code paths the static
// pass cannot see, e.g. through type-erased callbacks).
void AcquireRecursively(Mutex& mutex) FIM_NO_THREAD_SAFETY_ANALYSIS {
  const MutexLock outer(mutex);
  mutex.Lock();  // would self-deadlock without the rank checker
}

TEST(LockRankDeathTest, RankInversionAborts) {
  if (!FIM_DCHECK_IS_ON()) GTEST_SKIP() << "lock ranks need FIM_ENABLE_DCHECKS";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex memory(LockRank::kMemoryBreakdown, "memory");
  Mutex miner(LockRank::kStreamMiner, "miner");
  EXPECT_DEATH(
      {
        const MutexLock outer(memory);
        const MutexLock inner(miner);  // 100 under 390: inversion
      },
      "lock-rank inversion");
}

TEST(LockRankDeathTest, EqualRankNestingAborts) {
  if (!FIM_DCHECK_IS_ON()) GTEST_SKIP() << "lock ranks need FIM_ENABLE_DCHECKS";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a(LockRank::kTimeline, "a");
  Mutex b(LockRank::kTimeline, "b");
  EXPECT_DEATH(
      {
        const MutexLock outer(a);
        const MutexLock inner(b);  // same rank: no order defined
      },
      "lock-rank inversion");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  if (!FIM_DCHECK_IS_ON()) GTEST_SKIP() << "lock ranks need FIM_ENABLE_DCHECKS";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mutex(LockRank::kLeaf, "recursive");
  EXPECT_DEATH(AcquireRecursively(mutex), "recursive acquisition");
}

#endif  // GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace fim
