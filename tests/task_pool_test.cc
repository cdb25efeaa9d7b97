// Tests of the fan-out worker pool (api/task_pool.h): the sets reach the
// callback in task order while the tasks run, and exceptions from either
// side come back to the caller after the join.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/task_pool.h"

namespace fim {
namespace {

// Task t reports `count` sets of 32 items, {t, i, 1000, ..., 1029},
// with support i + 1: 2,048 of them fill a 256-KiB chunk.
void ReportSets(std::size_t t, std::size_t count,
                const ClosedSetCallback& sink) {
  std::vector<ItemId> set(32);
  for (std::size_t k = 2; k < set.size(); ++k) {
    set[k] = static_cast<ItemId>(998 + k);
  }
  set[0] = static_cast<ItemId>(t);
  for (std::size_t i = 0; i < count; ++i) {
    set[1] = static_cast<ItemId>(i);
    sink(set, static_cast<Support>(i + 1));
  }
}

ClosedSetCallback CollectInto(std::vector<ClosedItemset>* sets) {
  return [sets](std::span<const ItemId> items, Support support) {
    sets->push_back({{items.begin(), items.end()}, support});
  };
}

TEST(TaskPoolTest, EmitsEverySetInTaskOrder) {
  const std::size_t num_tasks = 40;
  // Later tasks finish first; task t reports t * 300 sets, so the larger
  // ones cross several chunks.
  std::vector<ClosedItemset> expected;
  const ClosedSetCallback collect = CollectInto(&expected);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    ReportSets(t, t * 300, collect);
  }
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<ClosedItemset> emitted;
    RunTasksInOrder(
        num_tasks, workers,
        [&](std::size_t, std::size_t t, const ClosedSetCallback& sink) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(20 * (num_tasks - t)));
          ReportSets(t, t * 300, sink);
        },
        CollectInto(&emitted));
    EXPECT_EQ(emitted, expected) << workers << " workers";
  }
}

TEST(TaskPoolTest, StreamsTheLowestTaskWhileItRuns) {
  // Task 0 reports enough sets to fill a chunk, then waits until the
  // callback has seen one: its sets must not wait for it to end.
  std::atomic<bool> seen{false};
  bool streamed = false;
  RunTasksInOrder(
      2, 2,
      [&](std::size_t, std::size_t t, const ClosedSetCallback& sink) {
        ReportSets(t, t == 0 ? 5000 : 1, sink);
        if (t != 0) return;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!seen.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        streamed = seen.load();
      },
      [&](std::span<const ItemId>, Support) { seen.store(true); });
  EXPECT_TRUE(streamed);
}

TEST(TaskPoolTest, RethrowsATaskExceptionAfterTheJoin) {
  std::vector<ClosedItemset> emitted;
  EXPECT_THROW(RunTasksInOrder(
                   20, 4,
                   [](std::size_t, std::size_t t,
                      const ClosedSetCallback& sink) {
                     if (t == 7) throw std::runtime_error("task 7");
                     ReportSets(t, 1, sink);
                   },
                   CollectInto(&emitted)),
               std::runtime_error);
  // Whatever was emitted comes from the tasks before the failed one, in
  // order.
  ASSERT_LE(emitted.size(), 7u);
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].items[0], i);
  }
}

TEST(TaskPoolTest, RethrowsACallbackException) {
  std::atomic<std::size_t> mined{0};
  EXPECT_THROW(RunTasksInOrder(
                   20, 4,
                   [&](std::size_t, std::size_t t,
                       const ClosedSetCallback& sink) {
                     ++mined;
                     ReportSets(t, 1, sink);
                   },
                   [](std::span<const ItemId> items, Support) {
                     if (items[0] == 3) throw std::logic_error("emit");
                   }),
               std::logic_error);
  EXPECT_GE(mined.load(), 4u);
}

TEST(TaskPoolTest, NoTasksStartNoThreads) {
  bool called = false;
  RunTasksInOrder(
      0, 0,
      [&](std::size_t, std::size_t, const ClosedSetCallback&) {
        called = true;
      },
      [&](std::span<const ItemId>, Support) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace fim
