// Tests of the memory-attribution layer (obs/memory.h): breakdown
// collector semantics (keep-max re-records, high-water of the sum),
// self-measurement exactness of the structure ApproxMemoryUsage()
// methods against manually computed capacities, the report assembly
// and its JSON rendering, and output-neutrality: a mining run records
// the identical closed sets with and without a breakdown collector
// attached, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "api/miner.h"
#include "data/generators.h"
#include "data/transaction_database.h"
#include "ista/prefix_tree.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "stream/stream_miner.h"

namespace fim {

// Capacity bytes of the vectors an IstaPrefixTree owns, read directly.
struct IstaPrefixTreeTestPeer {
  template <typename T>
  static std::size_t Bytes(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
  }
  static std::size_t ColumnBytes(const IstaPrefixTree& tree) {
    return Bytes(tree.node_step_) + Bytes(tree.node_item_) +
           Bytes(tree.node_supp_);
  }
  static std::size_t LinkBytes(const IstaPrefixTree& tree) {
    return Bytes(tree.links_);
  }
  static std::size_t ScratchBytes(const IstaPrefixTree& tree) {
    return Bytes(tree.in_transaction_) + Bytes(tree.isect_stack_);
  }
};

namespace {

using obs::MemoryBreakdown;
using obs::MemoryComponent;

// --- MemoryComponent ---------------------------------------------------

TEST(MemoryComponentTest, TotalBytesSumsSelfAndChildrenRecursively) {
  MemoryComponent root("root", 10);
  MemoryComponent child("child", 20);
  child.children.emplace_back("grandchild", 30);
  root.children.push_back(child);
  root.children.emplace_back("leaf", 5);
  EXPECT_EQ(root.TotalBytes(), 10u + 20u + 30u + 5u);
}

TEST(NestedVectorBytesTest, CountsSpineAndRowCapacities) {
  std::vector<std::vector<int>> rows(3);
  rows[0].reserve(10);
  rows[1].reserve(4);
  std::size_t expected = rows.capacity() * sizeof(std::vector<int>);
  for (const auto& row : rows) expected += row.capacity() * sizeof(int);
  EXPECT_EQ(obs::NestedVectorBytes(rows), expected);
}

// --- MemoryBreakdown ---------------------------------------------------

TEST(MemoryBreakdownTest, RecordKeepsLargerSnapshotPerName) {
  MemoryBreakdown breakdown;
  MemoryComponent small("tree", 100);
  MemoryComponent large("tree", 50);
  large.children.emplace_back("arena", 500);
  breakdown.Record(small);
  breakdown.Record(large);          // larger total (550) replaces 100
  breakdown.Record(small);          // smaller again: ignored
  const auto components = breakdown.Components();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].TotalBytes(), 550u);
  ASSERT_EQ(components[0].children.size(), 1u);
  EXPECT_EQ(components[0].children[0].name, "arena");
  EXPECT_EQ(breakdown.AccountedBytes(), 550u);
}

TEST(MemoryBreakdownTest, HighWaterTracksSumAcrossRecordPoints) {
  MemoryBreakdown breakdown;
  breakdown.RecordBytes("a", 100);
  breakdown.RecordBytes("b", 200);
  EXPECT_EQ(breakdown.HighWaterBytes(), 300u);
  // "b" shrinks: the keep-max component stays at 200, the high water
  // stays at the historical 300 even if components were re-recorded
  // smaller.
  breakdown.RecordBytes("b", 50);
  EXPECT_EQ(breakdown.AccountedBytes(), 300u);
  EXPECT_GE(breakdown.HighWaterBytes(), 300u);
}

TEST(MemoryBreakdownTest, ComponentsKeepFirstRecordOrder) {
  MemoryBreakdown breakdown;
  breakdown.RecordBytes("z", 1);
  breakdown.RecordBytes("a", 2);
  breakdown.RecordBytes("z", 3);
  const auto components = breakdown.Components();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].name, "z");
  EXPECT_EQ(components[1].name, "a");
}

// --- self-measurement exactness ---------------------------------------

TEST(ApproxMemoryUsageTest, DatabaseMatchesManualCapacitySum) {
  TransactionDatabase db;
  db.AddTransaction({1, 2, 3});
  db.AddTransaction({2, 3});
  db.AddTransaction({5});
  const MemoryComponent component = db.ApproxMemoryUsage();
  EXPECT_EQ(component.name, "database");
  ASSERT_EQ(component.children.size(), 2u);
  EXPECT_EQ(component.children[0].name, "offsets");
  EXPECT_EQ(component.children[0].TotalBytes(),
            db.offsets().capacity() * sizeof(std::size_t));
  EXPECT_EQ(component.children[1].name, "items");
  EXPECT_EQ(component.children[1].TotalBytes(),
            db.items().capacity() * sizeof(ItemId));
  EXPECT_EQ(component.TotalBytes(),
            db.offsets().capacity() * sizeof(std::size_t) +
                db.items().capacity() * sizeof(ItemId));
}

TEST(ApproxMemoryUsageTest, PrefixTreeSplitsLiveAndGarbage) {
  IstaPrefixTree tree(8);
  tree.AddTransaction(std::vector<ItemId>{0, 1, 2});
  tree.AddTransaction(std::vector<ItemId>{1, 2, 3});
  const MemoryComponent component = tree.ApproxMemoryUsage();
  EXPECT_EQ(component.name, "prefix-tree");
  ASSERT_GE(component.children.size(), 2u);
  std::set<std::string> names;
  for (const auto& child : component.children) names.insert(child.name);
  EXPECT_TRUE(names.count("node-columns"));
  EXPECT_TRUE(names.count("link-arena"));
  EXPECT_GT(component.TotalBytes(), 0u);
}

// The tree's footprint is exactly the capacity bytes of its columns, its
// link arena and its scratch, each in its own child: when empty, after
// growth, and after a prune has rebuilt it.
TEST(ApproxMemoryUsageTest, PrefixTreeTotalIsItsCapacityBytes) {
  using Peer = IstaPrefixTreeTestPeer;
  IstaPrefixTree tree(64);
  const auto check = [&tree](const char* when) {
    const MemoryComponent component = tree.ApproxMemoryUsage();
    EXPECT_EQ(component.TotalBytes(), Peer::ColumnBytes(tree) +
                                          Peer::LinkBytes(tree) +
                                          Peer::ScratchBytes(tree))
        << when;
    ASSERT_EQ(component.children.size(), 3u) << when;
    EXPECT_EQ(component.children[0].name, "node-columns");
    EXPECT_EQ(component.children[0].TotalBytes(), Peer::ColumnBytes(tree))
        << when;
    EXPECT_EQ(component.children[1].name, "link-arena");
    EXPECT_EQ(component.children[1].TotalBytes(), Peer::LinkBytes(tree))
        << when;
    EXPECT_EQ(component.children[2].name, "scratch");
    EXPECT_EQ(component.children[2].TotalBytes(), Peer::ScratchBytes(tree))
        << when;
  };
  check("empty");
  for (ItemId base = 0; base < 32; ++base) {
    tree.AddTransaction(
        std::vector<ItemId>{base, ItemId(base + 8), ItemId(base + 16)});
  }
  EXPECT_GT(tree.NodeCount(), 32u);
  check("after 32 transactions");
  const std::size_t grown = tree.ApproxMemoryUsage().TotalBytes();
  tree.Prune(/*min_support=*/2, std::vector<Support>(64, 0));
  EXPECT_EQ(tree.PruneCount(), 1u);
  check("after a prune");
  EXPECT_LT(tree.ApproxMemoryUsage().TotalBytes(), grown);
}

TEST(ApproxMemoryUsageTest, RowEnumerationRecordsRowBitsets) {
  // Every item of 100 random rows over 10 items is frequent at support 1:
  // one column of ⌈rows / 64⌉ words per item, plus the cover.
  const TransactionDatabase db = GenerateRandomDense(100, 10, 0.5, 5);
  for (const Algorithm algorithm :
       {Algorithm::kCarpenterTable, Algorithm::kCarpenterLists}) {
    MinerOptions options;
    options.algorithm = algorithm;
    options.min_support = 1;
    MemoryBreakdown memory;
    options.memory = &memory;
    MinerStats stats;
    ASSERT_TRUE(MineClosed(db, options, [](auto, auto) {}, &stats).ok());
    const std::size_t words = (stats.weighted_transactions + 63) / 64;
    const auto& components = memory.Components();
    const auto bitsets =
        std::find_if(components.begin(), components.end(),
                     [](const MemoryComponent& c) {
                       return c.name == "row-bitsets";
                     });
    ASSERT_NE(bitsets, components.end()) << AlgorithmName(algorithm);
    EXPECT_EQ(bitsets->TotalBytes(),
              (db.NumItems() + 1) * words * sizeof(uint64_t))
        << AlgorithmName(algorithm);
  }
}

TEST(ApproxMemoryUsageTest, StreamMinerBreaksDownLiveTreeAndSegments) {
  StreamMinerOptions options;
  options.max_items = 16;
  options.pane_size = 2;
  options.window_panes = 2;
  StreamMiner miner(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(miner.AddTransaction(std::vector<ItemId>{1, 2, 3}).ok());
  }
  ASSERT_TRUE(miner.AddTransaction(std::vector<ItemId>{4}).ok());
  // Panes 0 and 1 have expired; pane 2 is complete, pane 3 is filling.
  const MemoryComponent component = miner.ApproxMemoryUsage();
  EXPECT_EQ(component.name, "stream");
  std::set<std::string> names;
  for (const auto& child : component.children) names.insert(child.name);
  EXPECT_EQ(names, (std::set<std::string>{"filling-pane", "pane-2",
                                          "pane-list"}));
  EXPECT_GT(component.TotalBytes(), 0u);
}

// --- report assembly and rendering ------------------------------------

TEST(MemoryReportTest, BuildReportSumsComponentsAndReadsRss) {
  MemoryBreakdown breakdown;
  breakdown.RecordBytes("a", 1000);
  breakdown.RecordBytes("b", 500);
  const obs::MemoryReport report = obs::BuildMemoryReport(breakdown);
  EXPECT_EQ(report.accounted_bytes, 1500u);
  EXPECT_EQ(report.high_water_bytes, 1500u);
  if (report.peak_rss.known) {
    EXPECT_GT(report.peak_rss.bytes, 0u);
    EXPECT_GT(report.RssCoverage(), 0.0);
  } else {
    EXPECT_LT(report.RssCoverage(), 0.0);
  }
}

TEST(MemoryReportTest, JsonSectionParsesAndSumsConsistently) {
  MemoryBreakdown breakdown;
  MemoryComponent tree("tree", 64);
  tree.children.emplace_back("arena", 256);
  tree.children.emplace_back("scratch", 32);
  breakdown.Record(tree);
  breakdown.RecordBytes("tables", 128);
  const obs::MemoryReport memory = obs::BuildMemoryReport(breakdown);

  obs::StatsReport report;
  report.tool = "test";
  report.algorithm = "ista";
  report.memory = &memory;
  auto parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* section = parsed.value().Find("memory");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("accounted_bytes")->AsNumber(), 64 + 256 + 32 + 128);
  const obs::JsonValue* components = section->Find("components");
  ASSERT_NE(components, nullptr);
  ASSERT_EQ(components->AsArray().size(), 2u);
  const obs::JsonValue& first = components->AsArray()[0];
  EXPECT_EQ(first.Find("name")->AsString(), "tree");
  EXPECT_EQ(first.Find("self_bytes")->AsNumber(), 64);
  EXPECT_EQ(first.Find("total_bytes")->AsNumber(), 64 + 256 + 32);
  // total_bytes of every node equals self + children's totals.
  double child_total = 0;
  for (const obs::JsonValue& child : first.Find("children")->AsArray()) {
    child_total += child.Find("total_bytes")->AsNumber();
  }
  EXPECT_EQ(first.Find("total_bytes")->AsNumber(),
            first.Find("self_bytes")->AsNumber() + child_total);
}

TEST(MemoryReportTest, TextRenderingShowsBreakdownTree) {
  MemoryBreakdown breakdown;
  MemoryComponent tree("prefix-trees", 0);
  tree.children.emplace_back("shard-0", 1 << 20);
  breakdown.Record(tree);
  const obs::MemoryReport memory = obs::BuildMemoryReport(breakdown);
  obs::StatsReport report;
  report.memory = &memory;
  const std::string text = obs::RenderStatsText(report);
  EXPECT_NE(text.find("memory:"), std::string::npos);
  EXPECT_NE(text.find("prefix-trees"), std::string::npos);
  EXPECT_NE(text.find("shard-0"), std::string::npos);
}

// --- output neutrality -------------------------------------------------

std::vector<std::pair<std::vector<ItemId>, Support>> MineWith(
    const TransactionDatabase& db, Algorithm algorithm, unsigned threads,
    MemoryBreakdown* memory) {
  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = 4;
  options.num_threads = threads;
  options.memory = memory;
  auto result = MineClosedCollect(db, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::pair<std::vector<ItemId>, Support>> sets;
  if (result.ok()) {
    for (const auto& set : result.value()) {
      sets.emplace_back(set.items, set.support);
    }
  }
  std::sort(sets.begin(), sets.end());
  return sets;
}

TEST(MemoryNeutralityTest, BreakdownAttachmentDoesNotChangeResults) {
  MarketBasketConfig config;
  config.num_items = 60;
  config.num_transactions = 500;
  config.avg_transaction_size = 5.0;
  config.num_patterns = 12;
  config.seed = 11;
  const TransactionDatabase db = GenerateMarketBasket(config);
  for (const Algorithm algorithm :
       {Algorithm::kIsta, Algorithm::kCarpenterLists,
        Algorithm::kCarpenterTable, Algorithm::kLcm, Algorithm::kCharm,
        Algorithm::kFpClose, Algorithm::kFlatCumulative}) {
    const auto baseline = MineWith(db, algorithm, 1, nullptr);
    ASSERT_FALSE(baseline.empty());
    for (const unsigned threads : {1u, 4u}) {
      MemoryBreakdown memory;
      const auto with_collector = MineWith(db, algorithm, threads, &memory);
      EXPECT_EQ(with_collector, baseline)
          << "algorithm " << AlgorithmName(algorithm) << " at " << threads
          << " thread(s) with a collector attached";
      EXPECT_GT(memory.AccountedBytes(), 0u)
          << AlgorithmName(algorithm) << " recorded nothing";
    }
  }
}

TEST(MemoryNeutralityTest, IstaParallelRecordsOneTree) {
  MarketBasketConfig config;
  config.num_items = 40;
  config.num_transactions = 400;
  config.avg_transaction_size = 4.0;
  config.seed = 3;
  const TransactionDatabase db = GenerateMarketBasket(config);
  MinerOptions options;
  options.min_support = 3;
  options.num_threads = 4;
  MemoryBreakdown memory;
  options.memory = &memory;
  std::size_t sets = 0;
  ASSERT_TRUE(MineClosed(db, options,
                         [&sets](std::span<const ItemId>, Support) { ++sets; })
                  .ok());
  EXPECT_GT(sets, 0u);
  bool found_trees = false;
  for (const auto& component : memory.Components()) {
    if (component.name == "prefix-trees") {
      found_trees = true;
      ASSERT_EQ(component.children.size(), 1u);
      EXPECT_EQ(component.children.front().name, "shard-0");
    }
  }
  EXPECT_TRUE(found_trees);
}

}  // namespace
}  // namespace fim
