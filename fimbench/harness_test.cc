#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "workloads.h"

namespace fim::bench {
namespace {

Digest DigestOf(const std::vector<ClosedItemset>& sets) {
  Digest digest;
  for (const ClosedItemset& set : sets) digest.Add(set.items, set.support);
  return digest;
}

TEST(DigestTest, IgnoresSetAndItemOrder) {
  const Digest digest = DigestOf({{{1, 2, 3}, 5}, {{4}, 7}, {{2, 9}, 3}});
  EXPECT_EQ(digest.count, 3u);
  EXPECT_EQ(digest, DigestOf({{{9, 2}, 3}, {{4}, 7}, {{3, 1, 2}, 5}}));
}

TEST(DigestTest, CatchesOneSupportOrItemChange) {
  const Digest digest = DigestOf({{{1, 2, 3}, 5}, {{4}, 7}, {{2, 9}, 3}});
  EXPECT_NE(digest, DigestOf({{{1, 2, 3}, 5}, {{4}, 8}, {{2, 9}, 3}}));
  EXPECT_NE(digest, DigestOf({{{1, 2, 3}, 5}, {{4}, 7}, {{2, 8}, 3}}));
  EXPECT_NE(digest, DigestOf({{{1, 2}, 5}, {{4}, 7}, {{2, 9}, 3}}));
  // Moving an item between two sets keeps the item multiset.
  EXPECT_NE(digest, DigestOf({{{1, 2}, 5}, {{3, 4}, 7}, {{2, 9}, 3}}));
}

TEST(DigestTest, CollectorMatchesAdd) {
  Digest collected;
  const ClosedSetCallback callback = collected.Collector();
  const std::vector<ItemId> items = {3, 5};
  callback(items, 4);
  EXPECT_EQ(collected, DigestOf({{{3, 5}, 4}}));
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> samples = {15, 20, 35, 40, 50};
  EXPECT_EQ(Percentile(samples, 5), 15);
  EXPECT_EQ(Percentile(samples, 30), 20);
  EXPECT_EQ(Percentile(samples, 40), 20);
  EXPECT_EQ(Percentile(samples, 50), 35);
  EXPECT_EQ(Percentile(samples, 100), 50);
  EXPECT_EQ(Percentile({3, 1, 2, 4}, 50), 2);  // input order is irrelevant
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, NinetiethOfAHundredLeavesTenAbove) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 90), 90);
}

TEST(ProcessCpuSecondsTest, CountsWorkerThreads) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs two hardware threads";
  }
  std::atomic<bool> stop{false};
  const double cpu_before = ProcessCpuSeconds();
  WallTimer wall;
  std::vector<std::thread> spinners;
  for (int i = 0; i < 2; ++i) {
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  while (wall.Seconds() < 0.4) std::this_thread::yield();
  stop = true;
  for (std::thread& spinner : spinners) spinner.join();
  EXPECT_GE(ProcessCpuSeconds() - cpu_before, 1.5 * wall.Seconds());
}

TEST(WorkloadsTest, EncodingIsASeededRelabelling) {
  const TransactionDatabase base = TransactionDatabase::FromTransactions(
      {{0, 1}, {1, 2, 3}, {0, 3}, {2}}, 4);
  const Encoding same = Encode(base, 0, true);
  EXPECT_EQ(same.db.transactions(), base.transactions());

  const Encoding a = Encode(base, 5, true);
  const Encoding b = Encode(base, 5, true);
  EXPECT_EQ(a.db.transactions(), b.db.transactions());
  // Mapping back gives the base transactions, in some order.
  std::vector<std::vector<ItemId>> decoded;
  for (const std::vector<ItemId>& row : a.db.transactions()) {
    std::vector<ItemId> items;
    for (ItemId item : row) items.push_back(a.to_base[item]);
    std::sort(items.begin(), items.end());
    decoded.push_back(items);
  }
  std::sort(decoded.begin(), decoded.end());
  std::vector<std::vector<ItemId>> expected = base.transactions();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(decoded, expected);
}

TEST(WorkloadsTest, WindowStartFollowsThePanes) {
  const Workload& window = *FindWorkload("stream-window");  // 16 x 128
  EXPECT_EQ(WindowStart(window, 100), 0u);
  EXPECT_EQ(WindowStart(window, 2047), 0u);
  EXPECT_EQ(WindowStart(window, 2048), 128u);
  EXPECT_EQ(WindowStart(window, 2228), 256u);
  EXPECT_EQ(WindowStart(*FindWorkload("stream-landmark"), 5000), 0u);
  EXPECT_EQ(QueryPoints(window, 20000).size(), 100u);
  EXPECT_EQ(QueryPoints(*FindWorkload("stream-landmark"), 20000).size(), 100u);
}

}  // namespace
}  // namespace fim::bench
