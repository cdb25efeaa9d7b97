// Tests of StreamMiner checkpoint/restore (fim-stream-v2): a restored
// miner must continue the stream with output bit-identical to the
// uninterrupted one, and corrupted or truncated input must be rejected
// with a clean Status.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/binary_io.h"
#include "data/generators.h"
#include "stream/stream_miner.h"

namespace fim {
namespace {

void IngestSlice(StreamMiner* miner, const TransactionDatabase& db,
                 std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    ASSERT_TRUE(miner->AddTransaction(db.transaction(k)).ok());
  }
}

void ExpectResumeBitIdentical(const StreamMinerOptions& options,
                              unsigned num_threads) {
  const TransactionDatabase db = GenerateRandomDense(120, 16, 0.3, 42);
  StreamMiner uninterrupted(options);
  StreamMiner first_half(options);
  const std::size_t cut = 70;  // deliberately mid-pane for windowed runs
  if (num_threads == 1) {
    IngestSlice(&uninterrupted, db, 0, cut);
    IngestSlice(&first_half, db, 0, cut);
  } else {
    // Each miner ingests its prefix with `num_threads` concurrent
    // writers over disjoint slices. The two miners see different
    // interleavings — checkpointing must still hand over an exact
    // snapshot of whatever multiset was ingested.
    for (StreamMiner* miner : {&uninterrupted, &first_half}) {
      std::vector<std::thread> writers;
      const std::size_t chunk = cut / num_threads;
      for (unsigned t = 0; t < num_threads; ++t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = t + 1 == num_threads ? cut : begin + chunk;
        writers.emplace_back(IngestSlice, miner, std::cref(db), begin, end);
      }
      for (auto& w : writers) w.join();
    }
  }

  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(first_half.CheckpointTo(checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamMiner& resumed = *restored.value();
  EXPECT_EQ(resumed.NumTransactions(), first_half.NumTransactions());
  EXPECT_EQ(resumed.CurrentPaneIndex(), first_half.CurrentPaneIndex());

  // With a single writer the ingest order was deterministic, so the
  // restored snapshot must equal the uninterrupted miner's too; with
  // several writers, compare against the miner that was checkpointed.
  auto before_resumed = resumed.QueryCollect(2);
  auto before_source = first_half.QueryCollect(2);
  ASSERT_TRUE(before_resumed.ok());
  ASSERT_TRUE(before_source.ok());
  EXPECT_EQ(before_resumed.value(), before_source.value());

  // Continue both streams sequentially: every subsequent snapshot of
  // the resumed miner must be exactly the uninterrupted miner's.
  if (num_threads == 1) {
    for (std::size_t k = cut; k < db.NumTransactions(); ++k) {
      ASSERT_TRUE(uninterrupted.AddTransaction(db.transaction(k)).ok());
      ASSERT_TRUE(resumed.AddTransaction(db.transaction(k)).ok());
      auto a = uninterrupted.QueryCollect(2);
      auto b = resumed.QueryCollect(2);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << "after tx " << (k + 1);
    }
    EXPECT_EQ(uninterrupted.NodeCount(), resumed.NodeCount());
  } else {
    IngestSlice(&first_half, db, cut, db.NumTransactions());
    IngestSlice(&resumed, db, cut, db.NumTransactions());
    auto a = first_half.QueryCollect(2);
    auto b = resumed.QueryCollect(2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
}

TEST(StreamCheckpointTest, LandmarkResumeBitIdentical) {
  StreamMinerOptions options;
  options.max_items = 16;
  ExpectResumeBitIdentical(options, /*num_threads=*/1);
}

TEST(StreamCheckpointTest, WindowedResumeBitIdentical) {
  StreamMinerOptions options;
  options.max_items = 16;
  options.pane_size = 8;
  options.window_panes = 4;
  ExpectResumeBitIdentical(options, /*num_threads=*/1);
}

TEST(StreamCheckpointTest, LandmarkResumeBitIdenticalFourThreads) {
  StreamMinerOptions options;
  options.max_items = 16;
  ExpectResumeBitIdentical(options, /*num_threads=*/4);
}

TEST(StreamCheckpointTest, WindowedResumeBitIdenticalFourThreads) {
  StreamMinerOptions options;
  options.max_items = 16;
  options.pane_size = 8;
  options.window_panes = 4;
  ExpectResumeBitIdentical(options, /*num_threads=*/4);
}

TEST(StreamCheckpointTest, PendingDuplicateRunSurvivesCheckpoint) {
  StreamMinerOptions options;
  options.max_items = 8;
  StreamMiner miner(options);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  }
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The restored pane keeps folding: still one weighted row.
  ASSERT_TRUE(restored.value()->AddTransaction({1, 2, 3}).ok());
  auto sets = restored.value()->QueryCollect(1);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets.value().size(), 1u);
  EXPECT_EQ(sets.value()[0].support, 4u);
  EXPECT_EQ(restored.value()->Stats().weighted_additions, 1u);
}

TEST(StreamCheckpointTest, CheckpointDuringConcurrentIngest) {
  const TransactionDatabase db = GenerateRandomDense(400, 12, 0.3, 8);
  StreamMinerOptions options;
  options.max_items = 12;
  options.pane_size = 16;
  options.window_panes = 4;
  StreamMiner miner(options);
  std::thread writer(IngestSlice, &miner, std::cref(db), std::size_t{0},
                     db.NumTransactions());
  for (int round = 0; round < 5; ++round) {
    std::stringstream checkpoint(std::ios::in | std::ios::out |
                                 std::ios::binary);
    ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
    auto restored = StreamMiner::RestoreFrom(checkpoint);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_LE(restored.value()->NumTransactions(), db.NumTransactions());
    EXPECT_TRUE(restored.value()->QueryCollect(2).ok());
  }
  writer.join();
}

TEST(StreamCheckpointTest, RestoredCountersMirrorIntoRegistry) {
  StreamMinerOptions options;
  options.max_items = 8;
  StreamMiner miner(options);
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(miner.AddTransaction({1, 2}).ok());
  ASSERT_TRUE(miner.QueryCollect(1).ok());
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(checkpoint);
  ASSERT_TRUE(restored.ok());
  // The restored miner carries the history on in Stats().
  const StreamStats stats = restored.value()->Stats();
  EXPECT_EQ(stats.transactions_ingested, 2u);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GT(stats.checkpoint_bytes_read, 0u);
}

// A hand-built fim-stream-v2 checkpoint (layout in checkpoint.cc).
struct CheckpointSpec {
  struct Row {
    std::uint32_t weight;
    std::vector<ItemId> items;
  };
  struct Pane {
    std::uint64_t index;
    std::vector<Row> rows;
  };
  std::uint64_t max_items = 10;
  std::uint64_t pane_size = 0;
  std::uint64_t window_panes = 0;
  std::uint64_t ingested = 0;
  std::uint64_t fill = 0;
  std::uint64_t current_pane = 0;
  std::vector<Pane> panes;

  std::string Bytes() const {
    std::ostringstream out(std::ios::binary);
    out.write("FIMS", 4);
    io::WritePod(out, std::uint32_t{2});
    for (std::uint64_t field : {max_items, pane_size, window_panes, ingested,
                                fill, current_pane}) {
      io::WritePod(out, field);
    }
    for (int counter = 0; counter < 6; ++counter) {
      io::WritePod(out, std::uint64_t{0});
    }
    io::WritePod(out, static_cast<std::uint32_t>(panes.size()));
    for (const Pane& pane : panes) {
      io::WritePod(out, pane.index);
      io::WritePod(out, static_cast<std::uint32_t>(pane.rows.size()));
      for (const Row& row : pane.rows) {
        io::WritePod(out, row.weight);
        io::WritePod(out, static_cast<std::uint32_t>(row.items.size()));
        for (ItemId item : row.items) io::WritePod(out, item);
      }
    }
    out.write("SMND", 4);
    return out.str();
  }
};

Result<std::unique_ptr<StreamMiner>> RestoreBytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return StreamMiner::RestoreFrom(in);
}

// Window mode, pane_size 3, two live panes, 7 transactions: pane 1 is
// complete (pane 0 expired), pane 2 holds one transaction.
CheckpointSpec WindowSpec() {
  CheckpointSpec spec;
  spec.pane_size = 3;
  spec.window_panes = 2;
  spec.ingested = 7;
  spec.fill = 1;
  spec.current_pane = 2;
  spec.panes = {{1, {{2, {0, 3}}, {1, {1, 2, 9}}}}, {2, {{1, {4}}}}};
  return spec;
}

CheckpointSpec LandmarkSpec() {
  CheckpointSpec spec;
  spec.ingested = 5;
  spec.panes = {{0, {{3, {0, 3}}, {2, {1, 2}}}}};
  return spec;
}

TEST(StreamCheckpointTest, RejectsCorruptCheckpoints) {
  StreamMinerOptions options;
  options.max_items = 10;
  options.pane_size = 3;
  options.window_panes = 2;
  StreamMiner miner(options);
  const TransactionDatabase db = GenerateRandomDense(10, 10, 0.4, 1);
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(out).ok());
  const std::string good = out.str();
  {  // sanity: the untouched blob restores
    std::istringstream in(good, std::ios::binary);
    ASSERT_TRUE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // bad magic
    std::string bad = good;
    bad[0] = 'Z';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // unsupported version
    std::string bad = good;
    bad[4] = 1;
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  // Truncation at every byte: clean failure, no crash, no throw.
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::istringstream in(good.substr(0, len), std::ios::binary);
    auto result = StreamMiner::RestoreFrom(in);
    EXPECT_FALSE(result.ok()) << "length " << len;
  }
  {  // inconsistent pane bookkeeping: tamper the ingested count (header
     // offset 32 = magic 4 + version 4 + max_items/pane_size/window 24)
    std::string bad = good;
    bad[32] = static_cast<char>(bad[32] + 1);
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // missing end marker
    std::string bad = good.substr(0, good.size() - 4);
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }

  // Every invariant of the pane table, one hand-built checkpoint each.
  ASSERT_TRUE(RestoreBytes(WindowSpec().Bytes()).ok());
  ASSERT_TRUE(RestoreBytes(LandmarkSpec().Bytes()).ok());
  auto rejects = [](const CheckpointSpec& spec, const char* what) {
    const auto result = RestoreBytes(spec.Bytes());
    EXPECT_FALSE(result.ok()) << what;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
    }
  };
  auto with_row = [](std::size_t pane, std::size_t row,
                     CheckpointSpec::Row value) {
    CheckpointSpec spec = WindowSpec();
    spec.panes[pane].rows[row] = std::move(value);
    return spec;
  };
  rejects(with_row(0, 0, {2, {3, 0}}), "unsorted items");
  rejects(with_row(0, 0, {2, {3, 3}}), "repeated item");
  rejects(with_row(0, 0, {2, {0, 10}}), "item >= max_items");
  rejects(with_row(0, 0, {2, {}}), "empty row");
  {
    CheckpointSpec spec = WindowSpec();
    spec.panes[0].rows.push_back({0, {5}});
    rejects(spec, "weight 0");
  }
  {
    CheckpointSpec spec = WindowSpec();
    spec.panes[0].rows = {{1, {0, 3}}, {1, {1, 2, 9}}, {1, {0, 3}}};
    rejects(spec, "row repeated within a pane");
  }
  rejects(with_row(0, 0, {1, {0, 3}}), "completed pane weighs < pane_size");
  rejects(with_row(0, 0, {3, {0, 3}}), "completed pane weighs > pane_size");
  rejects(with_row(1, 0, {2, {4}}), "filling pane weighs != fill");
  {
    CheckpointSpec spec = LandmarkSpec();
    spec.panes[0].rows[1].weight = 1;
    rejects(spec, "landmark weighs != transactions_ingested");
  }
  {
    CheckpointSpec spec = WindowSpec();
    spec.panes[0].index = 0;
    rejects(spec, "expired pane");
  }
  {
    CheckpointSpec spec = WindowSpec();
    spec.panes[1].index = 3;
    rejects(spec, "pane after the filling one");
  }
  {
    CheckpointSpec spec = WindowSpec();
    spec.panes.erase(spec.panes.begin());
    rejects(spec, "missing completed pane");
  }
  {
    CheckpointSpec spec = WindowSpec();
    spec.panes.push_back({3, {{1, {5}}}});
    rejects(spec, "extra pane");
  }
  {
    CheckpointSpec spec = LandmarkSpec();
    spec.panes[0].index = 1;
    rejects(spec, "landmark pane other than 0");
  }
  {
    // 2^32 transactions: more than a support can count.
    CheckpointSpec spec = LandmarkSpec();
    spec.ingested = std::uint64_t{1} << 32;
    spec.panes[0].rows = {{std::numeric_limits<std::uint32_t>::max(), {0}},
                          {1, {1}}};
    rejects(spec, "weights past the Support limit");
  }
}

TEST(StreamCheckpointTest, SupportLimitFailsLoudlyAndLeavesTheMinerIntact) {
  constexpr Support kMax = std::numeric_limits<Support>::max();
  CheckpointSpec spec;
  spec.max_items = 4;
  spec.ingested = kMax - 1;
  spec.panes = {{0, {{kMax - 1, {0, 1}}}}};
  auto restored = RestoreBytes(spec.Bytes());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamMiner& miner = *restored.value();
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());  // covers kMax
  EXPECT_EQ(miner.AddTransaction({0, 1}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(miner.AddTransaction({2}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(miner.NumTransactions(), std::uint64_t{kMax});
  for (Support smin : {Support{1}, kMax}) {
    auto sets = miner.QueryCollect(smin);
    ASSERT_TRUE(sets.ok());
    ASSERT_EQ(sets.value().size(), 1u);
    EXPECT_EQ(sets.value()[0].items, (std::vector<ItemId>{0, 1}));
    EXPECT_EQ(sets.value()[0].support, kMax);
  }
  // The full miner still checkpoints and restores.
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
  EXPECT_TRUE(StreamMiner::RestoreFrom(checkpoint).ok());
}

TEST(StreamCheckpointTest, SupportLimitCountsOnlyTheWindow) {
  // Two panes of 2^31 transactions: the window reaches the limit one
  // transaction before its filling pane completes, and the completion
  // expires pane 0.
  constexpr Support kMax = std::numeric_limits<Support>::max();
  constexpr std::uint32_t kPane = std::uint32_t{1} << 31;
  CheckpointSpec spec;
  spec.max_items = 4;
  spec.pane_size = kPane;
  spec.window_panes = 2;
  spec.ingested = std::uint64_t{kMax} - 1;
  spec.current_pane = 1;
  spec.fill = kPane - 2;
  spec.panes = {{0, {{kPane, {0}}}}, {1, {{kPane - 2, {1}}}}};
  auto restored = RestoreBytes(spec.Bytes());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamMiner& miner = *restored.value();
  ASSERT_TRUE(miner.AddTransaction({1}).ok());  // the window covers kMax
  ASSERT_TRUE(miner.AddTransaction({1}).ok());  // pane 1 completes
  ASSERT_TRUE(miner.AddTransaction({2}).ok());
  EXPECT_EQ(miner.CurrentPaneIndex(), 2u);
  auto sets = miner.QueryCollect(1);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets.value(),
            (std::vector<ClosedItemset>{{{1}, kPane}, {{2}, 1}}));
}

}  // namespace
}  // namespace fim
