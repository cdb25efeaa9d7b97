// Tests of the streaming subsystem (src/stream/): every snapshot —
// landmark or windowed, interleaved or concurrent with ingest — must be
// exactly the closed frequent sets of the covered transaction multiset.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/miner.h"
#include "common/sync.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "stream/stream_miner.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

// Landmark mode: every query covers all the transactions seen so far.
StreamMinerOptions Landmark(std::size_t max_items) {
  StreamMinerOptions options;
  options.max_items = max_items;
  return options;
}

StreamMinerOptions Windowed(std::size_t max_items, std::size_t pane_size,
                            std::size_t window_panes) {
  StreamMinerOptions options;
  options.max_items = max_items;
  options.pane_size = pane_size;
  options.window_panes = window_panes;
  return options;
}

using Stream = std::vector<std::vector<ItemId>>;

// `db`'s rows with duplicates: row 0 again after every sixth row, far
// from its other copies, and a run of four equal rows wherever the
// stream reaches two transactions before a boundary of panes of `pane`
// transactions, so that the run straddles the boundary.
Stream WithDuplicates(const TransactionDatabase& db, std::size_t pane) {
  Stream stream;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::size_t copies = stream.size() % pane == pane - 2 ? 4 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      stream.push_back(db.transaction(k));
    }
    if (k % 6 == 5) stream.push_back(db.transaction(0));
  }
  return stream;
}

// The supports that exercise both the fold (1) and the query-time item
// elimination (2 and 5) on the streams of WithDuplicates.
constexpr Support kDuplicateSupports[] = {1, 2, 5};

void ExpectLandmarkMatchesBatch(const Stream& stream, std::size_t num_items) {
  StreamMiner miner(Landmark(num_items));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(num_items);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(stream[k]).ok());
    prefix_db.AddTransaction(stream[k]);
    for (Support smin : kDuplicateSupports) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      MinerOptions options;
      options.min_support = smin;
      auto expected = MineClosedCollect(prefix_db, options);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "prefix " << (k + 1) << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
}

void ExpectWindowMatchesOracle(const Stream& stream, std::size_t num_items,
                               std::size_t pane, std::size_t window) {
  StreamMiner miner(Windowed(num_items, pane, window));
  for (std::size_t k = 0; k < stream.size(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(stream[k]).ok());
    const std::size_t ingested = k + 1;
    const std::size_t current_pane = ingested / pane;
    const std::size_t first_pane =
        current_pane + 1 >= window ? current_pane + 1 - window : 0;
    TransactionDatabase window_db;
    window_db.SetNumItems(num_items);
    for (std::size_t t = first_pane * pane; t < ingested; ++t) {
      window_db.AddTransaction(stream[t]);
    }
    for (Support smin : kDuplicateSupports) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      auto expected = OracleClosedSets(window_db, smin);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "tx " << ingested << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
}

TEST(StreamMinerTest, LandmarkMatchesBatchAfterEveryPrefix) {
  const TransactionDatabase db = GenerateRandomDense(12, 10, 0.4, 2026);
  StreamMiner miner(Landmark(db.NumItems()));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(db.NumItems());
  std::uint64_t ingested = 0;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    // Duplicate bursts exercise the fold of equal rows: transaction k is
    // ingested 1 + (k % 3) times in a row.
    const std::size_t copies = 1 + k % 3;
    for (std::size_t c = 0; c < copies; ++c) {
      ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
      prefix_db.AddTransaction(db.transaction(k));
      ++ingested;
    }
    EXPECT_EQ(miner.NumTransactions(), ingested);
    for (Support smin : {1u, 2u, 4u}) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      // Batch-mine the prefix (the prefixes outgrow the subset oracle).
      MinerOptions options;
      options.min_support = smin;
      auto expected = MineClosedCollect(prefix_db, options);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "prefix " << ingested << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
  ExpectLandmarkMatchesBatch(WithDuplicates(db, 5), db.NumItems());
}

TEST(StreamMinerTest, WindowedMatchesBatchOfWindowAtEveryStep) {
  constexpr std::size_t kPane = 5;
  constexpr std::size_t kWindow = 3;
  const TransactionDatabase db = GenerateRandomDense(42, 10, 0.4, 99);
  StreamMiner miner(Windowed(db.NumItems(), kPane, kWindow));
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    const std::size_t ingested = k + 1;
    const std::size_t current_pane = ingested / kPane;
    EXPECT_EQ(miner.CurrentPaneIndex(), current_pane);
    // The snapshot covers the filling pane plus the kWindow - 1 most
    // recent complete panes.
    const std::size_t first_pane =
        current_pane + 1 >= kWindow ? current_pane + 1 - kWindow : 0;
    TransactionDatabase window_db;
    window_db.SetNumItems(db.NumItems());
    for (std::size_t t = first_pane * kPane; t < ingested; ++t) {
      window_db.AddTransaction(db.transaction(t));
    }
    for (Support smin : {1u, 2u}) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      auto expected = OracleClosedSets(window_db, smin);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "tx " << ingested << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
  ExpectWindowMatchesOracle(WithDuplicates(db, kPane), db.NumItems(), kPane,
                            kWindow);
}

TEST(StreamMinerTest, WindowedSnapshotDropsExpiredTransactions) {
  // Two panes, window of one pane: after each rotation the snapshot
  // covers only the filling pane.
  StreamMiner miner(Windowed(4, 2, 1));
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());  // pane 0 completes
  ASSERT_TRUE(miner.AddTransaction({2, 3}).ok());
  auto sets = miner.QueryCollect(1);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets.value().size(), 1u);
  EXPECT_EQ(sets.value()[0].items, (std::vector<ItemId>{2, 3}));
  EXPECT_EQ(sets.value()[0].support, 1u);
}

TEST(StreamMinerTest, RepeatedQueriesAreStableAndCompact) {
  const TransactionDatabase db = GenerateRandomDense(30, 12, 0.35, 5);
  StreamMiner miner(Windowed(db.NumItems(), 4, 8));
  // Query twice after every transaction: a query must not perturb the
  // miner's state or later snapshots.
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    auto a = miner.QueryCollect(2);
    auto b = miner.QueryCollect(2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
  TransactionDatabase window_db;
  window_db.SetNumItems(db.NumItems());
  for (std::size_t t = 0; t < db.NumTransactions(); ++t) {
    window_db.AddTransaction(db.transaction(t));  // 30 tx < 8 panes * 4
  }
  auto streamed = miner.QueryCollect(1);
  ASSERT_TRUE(streamed.ok());
  MinerOptions options;
  options.min_support = 1;
  auto expected = MineClosedCollect(window_db, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
      << DiffResults(expected.value(), streamed.value());
  const StreamStats stats = miner.Stats();
  EXPECT_EQ(stats.queries, 2u * db.NumTransactions() + 1);
}

TEST(StreamMinerTest, ConcurrentQueriesDuringIngest) {
  const TransactionDatabase db = GenerateRandomDense(300, 20, 0.3, 17);
  StreamMiner miner(Landmark(db.NumItems()));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries_ok{0};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto sets = miner.QueryCollect(3);
        ASSERT_TRUE(sets.ok());
        queries_ok.fetch_add(1);
      }
    });
  }
  // Half the rows, then a wait for one finished query, then the rest:
  // ingest is a hash probe per row, so it could otherwise end before
  // the first query, and no query would overlap ingest. (A failed
  // reader assertion ends the wait too.)
  const std::size_t half = db.NumTransactions() / 2;
  for (std::size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  while (queries_ok.load() == 0 && !HasFailure()) {
    std::this_thread::yield();
  }
  for (std::size_t k = half; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(queries_ok.load(), 0u);
  // The final snapshot is exact despite the query storm.
  auto streamed = miner.QueryCollect(3);
  ASSERT_TRUE(streamed.ok());
  MinerOptions options;
  options.min_support = 3;
  auto expected = MineClosedCollect(db, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
      << DiffResults(expected.value(), streamed.value());
}

TEST(StreamMinerTest, CountersAndRegistryExport) {
  StreamMiner miner(Windowed(8, 3, 2));
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(miner.AddTransaction({0, 1, 2}).ok());  // duplicate run
  }
  ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  ASSERT_TRUE(miner.AddTransaction({2, 3, 4}).ok());  // completes pane 1
  ASSERT_TRUE(miner.QueryCollect(1).ok());
  const StreamStats stats = miner.Stats();
  EXPECT_EQ(stats.transactions_ingested, 6u);
  // The four copies fold into one weighted row per pane (split at the
  // pane boundary after tx 3): 4 raw transactions -> 2 weighted rows,
  // plus the two distinct ones.
  EXPECT_EQ(stats.weighted_additions, 4u);
  EXPECT_EQ(stats.panes_rotated, 2u);
  EXPECT_EQ(stats.panes_expired, 1u);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.snapshot_merges, 0u);
  EXPECT_EQ(stats.segments_compacted, 0u);
  EXPECT_EQ(stats.checkpoint_bytes_written, 0u);
  EXPECT_EQ(stats.checkpoint_bytes_read, 0u);
  EXPECT_GT(stats.live_panes, 0u);
  EXPECT_GT(stats.repository_nodes, 0u);
}

TEST(StreamMinerTest, DuplicateMergingNeverChangesSnapshots) {
  const TransactionDatabase db = GenerateRandomDense(10, 8, 0.5, 3);
  StreamMiner miner(Landmark(db.NumItems()));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(db.NumItems());
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    for (std::size_t c = 0; c < 1 + k % 4; ++c) {
      ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
      prefix_db.AddTransaction(db.transaction(k));
    }
    auto streamed = miner.QueryCollect(2);
    MinerOptions options;
    options.min_support = 2;
    auto expected = MineClosedCollect(prefix_db, options);
    ASSERT_TRUE(streamed.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(streamed.value(), expected.value());
  }
  EXPECT_LT(miner.Stats().weighted_additions,
            miner.Stats().transactions_ingested);
}

TEST(StreamMinerTest, CheckpointsDuringConcurrentIngest) {
  // TSan stress for the snapshot-under-ingest protocol: checkpoints and
  // queries copy the covered panes under the miner mutex while a writer
  // keeps ingesting. Every mid-stream checkpoint must be internally
  // consistent (it restores), and the final state must equal batch.
  const TransactionDatabase db = GenerateRandomDense(300, 20, 0.3, 23);
  StreamMiner miner(Windowed(db.NumItems(), 16, 4));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checkpoints_ok{0};
  std::thread snapshotter([&] {
    while (!done.load()) {
      std::stringstream checkpoint;
      ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
      auto restored = StreamMiner::RestoreFrom(checkpoint);
      ASSERT_TRUE(restored.ok());
      auto sets = restored.value()->QueryCollect(2);
      ASSERT_TRUE(sets.ok());
      checkpoints_ok.fetch_add(1);
    }
  });
  std::thread reader([&] {
    while (!done.load()) {
      auto sets = miner.QueryCollect(2);
      ASSERT_TRUE(sets.ok());
    }
  });
  // Half the rows, then a wait for one finished checkpoint, then the
  // rest: a fast writer could otherwise ingest everything before the
  // first checkpoint completes, and no checkpoint would overlap ingest.
  // (A failed snapshotter assertion ends the wait too.)
  const std::size_t half = db.NumTransactions() / 2;
  for (std::size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  while (checkpoints_ok.load() == 0 && !HasFailure()) {
    std::this_thread::yield();
  }
  for (std::size_t k = half; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  done.store(true);
  snapshotter.join();
  reader.join();
  EXPECT_GT(checkpoints_ok.load(), 0u);
  // Round-trip the final state once more and compare snapshots exactly.
  std::stringstream final_checkpoint;
  ASSERT_TRUE(miner.CheckpointTo(final_checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(final_checkpoint);
  ASSERT_TRUE(restored.ok());
  auto direct = miner.QueryCollect(1);
  auto roundtripped = restored.value()->QueryCollect(1);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(roundtripped.ok());
  EXPECT_TRUE(SameResults(direct.value(), roundtripped.value()))
      << DiffResults(direct.value(), roundtripped.value());
}

// A lock-contract helper in the style the miner uses internally
// (RotateLocked etc.): FIM_REQUIRES makes "caller holds the
// mutex" machine-checked at every call site under FIM_THREAD_SAFETY,
// and the lock-rank checker enforces it dynamically in debug builds.
// The mutex is named only by the annotation, which gcc does not read.
std::uint64_t IncrementHolding([[maybe_unused]] Mutex& mutex,
                               std::uint64_t& value) FIM_REQUIRES(mutex) {
  return ++value;
}

TEST(StreamMinerTest, RequiresAnnotatedHelperSeesConsistentState) {
  Mutex mutex(LockRank::kLeaf, "requires-helper");
  std::uint64_t value = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        const MutexLock lock(mutex);
        IncrementHolding(mutex, value);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(IncrementHolding(mutex, value), 20001u);
}

TEST(StreamMinerTest, QueryMinesAndReportsWithoutTheLock) {
  // The callback runs inside the query's mining call. Ingesting from it
  // would deadlock (or trip the lock-rank checker) if the query held the
  // miner's lock while it mines; the snapshot stays the frozen one.
  StreamMiner miner(Landmark(4));
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());
  std::vector<ClosedItemset> reported;
  ASSERT_TRUE(miner
                  .Query(1,
                         [&](std::span<const ItemId> items, Support support) {
                           ASSERT_TRUE(miner.AddTransaction({2, 3}).ok());
                           reported.push_back(
                               {{items.begin(), items.end()}, support});
                         })
                  .ok());
  EXPECT_EQ(reported, (std::vector<ClosedItemset>{{{0, 1}, 2}}));
  EXPECT_EQ(miner.NumTransactions(), 3u);
}

TEST(StreamMinerTest, QuerySpansHoldTheInputStageAndIsta) {
  // A query freezes the panes, then MineClosed's input stage and IsTa
  // run below the query's own span, with no "mine" span of their own.
  obs::Trace trace;
  StreamMinerOptions options = Windowed(4, 2, 2);
  options.trace = &trace;
  StreamMiner miner(options);
  for (const std::vector<ItemId>& row : Stream{{0, 1}, {0, 1}, {1, 2}}) {
    ASSERT_TRUE(miner.AddTransaction(row).ok());
  }
  ASSERT_TRUE(miner.QueryCollect(1).ok());
  const obs::SpanNode* query = trace.root().FindChild("query");
  ASSERT_NE(query, nullptr);
  std::vector<std::string> children;
  for (const auto& child : query->children) children.push_back(child->name);
  EXPECT_EQ(children,
            (std::vector<std::string>{"query-freeze", "recode", "dedup",
                                      "shard-mine", "report"}));
}

TEST(StreamMinerTest, RejectsBadInput) {
  StreamMiner miner(Landmark(5));
  EXPECT_FALSE(miner.AddTransaction({}).ok());
  EXPECT_EQ(miner.AddTransaction({7}).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(miner.AddTransaction({4, 1, 1}).ok());  // normalized
  EXPECT_EQ(miner.NumTransactions(), 1u);
  EXPECT_FALSE(miner.Query(0, [](auto, auto) {}).ok());
  auto empty = StreamMiner(Landmark(3)).QueryCollect(1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(StreamMinerTest, QueriesAtTheItemBoundMatchBatch) {
  // A query sizes its item tables to the largest item the covered rows
  // hold: max_items - 1 at first, and smaller in the window once the
  // panes that held it have expired.
  const Stream stream = {{0, 9}, {1, 9}, {0, 1, 9}, {0, 9}, {0, 1},
                         {1, 2}, {0, 1}, {0, 2}, {1}};
  ExpectLandmarkMatchesBatch(stream, 10);
  ExpectWindowMatchesOracle(stream, 10, 2, 2);
}

// --- landmark mode against the subset oracle, after every prefix ------

TEST(IncrementalTest, MatchesBatchAfterEveryPrefix) {
  const TransactionDatabase db = GenerateRandomDense(12, 10, 0.4, 2024);
  StreamMiner miner(Landmark(db.NumItems()));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(db.NumItems());
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    prefix_db.AddTransaction(db.transaction(k));
    EXPECT_EQ(miner.NumTransactions(), k + 1);
    for (Support smin : {1u, 2u, 3u}) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      auto expected = OracleClosedSets(prefix_db, smin);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "prefix " << (k + 1) << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
}

TEST(IncrementalTest, RejectsBadInput) {
  StreamMiner miner(Landmark(5));
  EXPECT_FALSE(miner.AddTransaction({}).ok());
  EXPECT_EQ(miner.AddTransaction({7}).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(miner.AddTransaction({1, 1, 4}).ok());  // duplicates fine
  EXPECT_EQ(miner.NumTransactions(), 1u);
  EXPECT_FALSE(miner.Query(0, [](auto, auto) {}).ok());
}

TEST(IncrementalTest, QueryBeforeAnyTransaction) {
  StreamMiner miner(Landmark(4));
  auto result = miner.QueryCollect(1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  EXPECT_EQ(miner.NodeCount(), 0u);
}

TEST(IncrementalTest, SupportsRepeatedQueriesWithoutSideEffects) {
  StreamMiner miner(Landmark(6));
  ASSERT_TRUE(miner.AddTransaction({0, 1, 2}).ok());
  ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  auto a = miner.QueryCollect(1);
  auto b = miner.QueryCollect(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  // {1,2} supp 2 plus the two transactions.
  EXPECT_EQ(a.value().size(), 3u);
}

// --- landmark mode on structured data beyond the oracle's reach:
//     batch IsTa at sampled checkpoints --------------------------------

TEST(StreamingIntegrationTest, MatchesBatchOnMarketBasketCheckpoints) {
  MarketBasketConfig config;
  config.num_items = 40;
  config.num_transactions = 240;
  config.avg_transaction_size = 6.0;
  config.seed = 31;
  const TransactionDatabase db = GenerateMarketBasket(config);

  StreamMiner streaming(Landmark(db.NumItems()));
  TransactionDatabase prefix;
  prefix.SetNumItems(db.NumItems());
  const std::size_t checkpoint_every = 60;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(streaming.AddTransaction(db.transaction(k)).ok());
    prefix.AddTransaction(db.transaction(k));
    if ((k + 1) % checkpoint_every != 0) continue;
    for (Support smin : {2u, 5u, 10u}) {
      auto streamed = streaming.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      MinerOptions options;
      options.min_support = smin;
      options.algorithm = Algorithm::kIsta;
      auto batch = MineClosedCollect(prefix, options);
      ASSERT_TRUE(batch.ok());
      EXPECT_TRUE(SameResults(batch.value(), streamed.value()))
          << "checkpoint " << (k + 1) << " smin " << smin << "\n"
          << DiffResults(batch.value(), streamed.value());
    }
  }
}

TEST(StreamingIntegrationTest, NodeCountGrowsMonotonically) {
  const TransactionDatabase db = GenerateRandomDense(30, 12, 0.3, 77);
  StreamMiner streaming(Landmark(db.NumItems()));
  std::size_t last = 0;
  for (const auto& t : db.transactions()) {
    ASSERT_TRUE(streaming.AddTransaction(t).ok());
    EXPECT_GE(streaming.NodeCount(), last);
    last = streaming.NodeCount();
  }
}

}  // namespace
}  // namespace fim
