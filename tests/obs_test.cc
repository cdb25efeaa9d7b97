// Tests of the observability subsystem: span nesting and aggregation,
// JSON writer/parser round-trips, the MinerStats snapshot, the stats
// report renderers, the miners' own count of their kernel work, and —
// the core contract — that requesting stats or a trace never changes
// any miner's output at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "api/miner.h"
#include "common/sync.h"
#include "data/generators.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/miner_stats.h"
#include "obs/trace.h"

namespace fim {
namespace {

// --- trace ------------------------------------------------------------

TEST(TraceTest, SpansNestAndAggregate) {
  obs::Trace trace;
  {
    obs::Span outer(&trace, "outer");
    { obs::Span inner(&trace, "inner"); }
    { obs::Span inner(&trace, "inner"); }  // same name: accumulates
    { obs::Span other(&trace, "other"); }
  }
  EXPECT_EQ(trace.OpenDepth(), 0u);
  ASSERT_EQ(trace.root().children.size(), 1u);
  const obs::SpanNode& outer = *trace.root().children.front();
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.size(), 2u);  // inner + other, first-entry order
  const obs::SpanNode* inner = outer.FindChild("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_GE(inner->wall_seconds, 0.0);
  ASSERT_NE(outer.FindChild("other"), nullptr);
  EXPECT_EQ(outer.FindChild("missing"), nullptr);
  EXPECT_GE(outer.wall_seconds, inner->wall_seconds);
}

TEST(TraceTest, NullTraceSpansAreNoOps) {
  obs::Span span(nullptr, "anything");
  span.End();  // must not crash
}

TEST(TraceTest, ExplicitEndClosesEarlyAndOnce) {
  obs::Trace trace;
  {
    obs::Span span(&trace, "phase");
    span.End();
    EXPECT_EQ(trace.OpenDepth(), 0u);
  }  // destructor must not End() again
  ASSERT_EQ(trace.root().children.size(), 1u);
  EXPECT_EQ(trace.root().children.front()->count, 1u);
}

// --- json -------------------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("name");
  writer.String("a \"quoted\"\nvalue");
  writer.Key("count");
  writer.Number(std::uint64_t{18446744073709551615ull});
  writer.Key("ratio");
  writer.Number(0.25);
  writer.Key("flag");
  writer.Bool(true);
  writer.Key("nothing");
  writer.Null();
  writer.Key("list");
  writer.BeginArray();
  writer.Number(std::uint64_t{1});
  writer.Number(std::uint64_t{2});
  writer.EndArray();
  writer.EndObject();
  const std::string json = std::move(writer).Take();

  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& value = parsed.value();
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.Find("name")->AsString(), "a \"quoted\"\nvalue");
  EXPECT_DOUBLE_EQ(value.Find("ratio")->AsNumber(), 0.25);
  EXPECT_TRUE(value.Find("flag")->AsBool());
  EXPECT_TRUE(value.Find("nothing")->is_null());
  ASSERT_TRUE(value.Find("list")->is_array());
  EXPECT_EQ(value.Find("list")->AsArray().size(), 2u);
  EXPECT_EQ(value.Find("absent"), nullptr);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1,}").ok());
  EXPECT_FALSE(obs::ParseJson("[1, 2] trailing").ok());
  EXPECT_FALSE(obs::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(obs::ParseJson("nul").ok());
}

TEST(JsonTest, ParserHandlesEscapesAndNesting) {
  auto parsed = obs::ParseJson(
      R"({"s": "tab\t slash\/ unicodeA", "nested": {"a": [true, null]}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("s")->AsString(), "tab\t slash/ unicodeA");
  const obs::JsonValue* nested = parsed.value().Find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_TRUE(nested->Find("a")->is_array());
  EXPECT_TRUE(nested->Find("a")->AsArray()[0].AsBool());
}

// --- MinerStats -------------------------------------------------------

TEST(MinerStatsTest, MergeFromSumsAndMaxes) {
  MinerStats a;
  a.isect_steps = 10;
  a.peak_nodes = 100;
  a.final_nodes = 50;
  a.sets_reported = 3;
  MinerStats b;
  b.isect_steps = 5;
  b.peak_nodes = 200;
  b.final_nodes = 20;
  b.sets_reported = 4;
  a.MergeFrom(b);
  EXPECT_EQ(a.isect_steps, 15u);
  EXPECT_EQ(a.peak_nodes, 200u);   // max, not sum
  EXPECT_EQ(a.final_nodes, 50u);   // max, not sum
  EXPECT_EQ(a.sets_reported, 7u);
}

TEST(MinerStatsTest, CountersCatalogIsCompleteAndStable) {
  MinerStats stats;
  stats.isect_steps = 1;
  stats.sets_reported = 2;
  stats.kernel_elements_out = 3;
  const auto counters = stats.Counters();
  // Full catalog, zeros included, stable order.
  ASSERT_EQ(counters.size(), 18u);
  EXPECT_STREQ(counters.front().first, "isect_steps");
  EXPECT_EQ(counters.front().second, 1u);
  EXPECT_STREQ(counters[14].first, "sets_reported");
  EXPECT_EQ(counters[14].second, 2u);
  EXPECT_STREQ(counters.back().first, "kernel_elements_out");
  EXPECT_EQ(counters.back().second, 3u);
}

// --- export -----------------------------------------------------------

TEST(ExportTest, JsonReportParsesAndCarriesSchema) {
  obs::Trace trace;
  {
    obs::Span mine(&trace, "mine");
    obs::Span recode(&trace, "recode");
  }
  obs::StatsReport report;
  report.tool = "fim-mine";
  report.algorithm = "ista";
  report.min_support = 2;
  report.num_threads = 4;
  report.num_sets = 42;
  report.wall_seconds = 1.5;
  report.cpu_seconds = 1.25;
  report.peak_rss_bytes = 1 << 20;
  report.miner.isect_steps = 1234;
  report.trace = &trace;

  auto parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& value = parsed.value();
  EXPECT_EQ(value.Find("schema")->AsString(), "fim-stats-v2");
  EXPECT_EQ(value.Find("tool")->AsString(), "fim-mine");
  EXPECT_EQ(value.Find("algorithm")->AsString(), "ista");
  EXPECT_DOUBLE_EQ(value.Find("min_support")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(value.Find("threads")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(value.Find("num_sets")->AsNumber(), 42.0);
  const obs::JsonValue* counters = value.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("isect_steps")->AsNumber(), 1234.0);
  // The whole catalog is present, zeros included.
  EXPECT_EQ(counters->AsObject().size(), MinerStats{}.Counters().size());
  const obs::JsonValue* spans = value.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->AsArray().size(), 1u);
  EXPECT_EQ(spans->AsArray()[0].Find("name")->AsString(), "mine");
  EXPECT_EQ(
      spans->AsArray()[0].Find("children")->AsArray()[0].Find("name")
          ->AsString(),
      "recode");
}

TEST(ExportTest, JsonReportEscapesStringLabels) {
  // Tool/algorithm labels are caller-supplied free-form strings; the
  // rendered report must stay parseable and round-trip them exactly.
  obs::StatsReport report;
  report.tool = "fim \"quoted\" \\ backslash";
  report.algorithm = "tab\there\nnewline\x01 control";
  auto parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("tool")->AsString(), report.tool);
  EXPECT_EQ(parsed.value().Find("algorithm")->AsString(), report.algorithm);

  // Same for span names coming out of a trace.
  obs::Trace trace;
  { obs::Span span(&trace, "span \"with\" \\ specials\n"); }
  report.tool = "fim-mine";
  report.algorithm = "ista";
  report.trace = &trace;
  parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(
      parsed.value().Find("spans")->AsArray()[0].Find("name")->AsString(),
      "span \"with\" \\ specials\n");
}

// The extra counters (fim-stream's stream.* list) follow the MinerStats
// catalog: every pair in list order in the JSON report, the non-zero
// ones in the text report. There is no distributions section.
TEST(ExportTest, JsonReportCarriesDistributions) {
  obs::StatsReport report;
  report.tool = "fim-stream";
  report.algorithm = "stream-window";
  report.miner.isect_steps = 7;
  report.extra_counters = {{"stream.panes_rotated", 3},
                           {"stream.queries", 0},
                           {"stream.transactions_ingested", 75}};
  const std::string json = obs::RenderStatsJson(report);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("distributions"), nullptr);
  const obs::JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().size(), MinerStats{}.Counters().size() + 3);
  EXPECT_DOUBLE_EQ(counters->Find("isect_steps")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(counters->Find("stream.panes_rotated")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(counters->Find("stream.queries")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(
      counters->Find("stream.transactions_ingested")->AsNumber(), 75.0);
  // The parser sorts members, so the order is checked on the text.
  EXPECT_LT(json.find("\"kernel_elements_out\""),
            json.find("\"stream.panes_rotated\""));
  EXPECT_LT(json.find("\"stream.panes_rotated\""),
            json.find("\"stream.queries\""));
  EXPECT_LT(json.find("\"stream.queries\""),
            json.find("\"stream.transactions_ingested\""));

  const std::string text = obs::RenderStatsText(report);
  EXPECT_NE(text.find("stream.panes_rotated"), std::string::npos);
  EXPECT_NE(text.find("stream.transactions_ingested"), std::string::npos);
  EXPECT_LT(text.find("isect_steps"), text.find("stream.panes_rotated"));
  EXPECT_EQ(text.find("stream.queries"), std::string::npos);
  EXPECT_EQ(text.find("distributions"), std::string::npos);
}

TEST(ExportTest, TextReportMentionsNonZeroCountersOnly) {
  obs::StatsReport report;
  report.tool = "fim-mine";
  report.algorithm = "lcm";
  report.miner.closure_checks = 9;
  const std::string text = obs::RenderStatsText(report);
  EXPECT_NE(text.find("closure_checks"), std::string::npos);
  EXPECT_EQ(text.find("conditional_trees"), std::string::npos);
}

// --- output neutrality ------------------------------------------------

// The core contract of the whole subsystem: mining with stats and trace
// enabled produces bit-identical output to mining without, for every
// algorithm, at 1 and 4 threads; and every algorithm's "mine" span holds
// the input stage's "recode" and "dedup".
TEST(OutputNeutralityTest, StatsOnEqualsStatsOffForEveryMiner) {
  const TransactionDatabase db = GenerateRandomDense(60, 24, 0.3, 123);
  for (Algorithm algorithm : AllAlgorithms()) {
    for (unsigned threads : {1u, 4u}) {
      MinerOptions options;
      options.algorithm = algorithm;
      options.min_support = 3;
      options.num_threads = threads;

      auto plain = MineClosedCollect(db, options);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();

      MinerStats stats;
      obs::Trace trace;
      auto instrumented = MineClosedCollect(db, options, &stats, &trace);
      ASSERT_TRUE(instrumented.ok()) << instrumented.status().ToString();

      ASSERT_EQ(plain.value().size(), instrumented.value().size())
          << AlgorithmName(algorithm) << " t=" << threads;
      for (std::size_t i = 0; i < plain.value().size(); ++i) {
        EXPECT_EQ(plain.value()[i].items, instrumented.value()[i].items)
            << AlgorithmName(algorithm) << " t=" << threads << " set " << i;
        EXPECT_EQ(plain.value()[i].support, instrumented.value()[i].support)
            << AlgorithmName(algorithm) << " t=" << threads << " set " << i;
      }
      // Every miner reports how many sets it delivered.
      EXPECT_EQ(stats.sets_reported, plain.value().size())
          << AlgorithmName(algorithm) << " t=" << threads;
      EXPECT_EQ(trace.OpenDepth(), 0u);
      ASSERT_FALSE(trace.root().children.empty());
      const obs::SpanNode& mine = *trace.root().children.front();
      EXPECT_EQ(mine.name, "mine");
      // Every miner's input stage runs inside its "mine" span.
      EXPECT_NE(mine.FindChild("recode"), nullptr)
          << AlgorithmName(algorithm) << " t=" << threads;
      EXPECT_NE(mine.FindChild("dedup"), nullptr)
          << AlgorithmName(algorithm) << " t=" << threads;
    }
  }
}

// IsTa fills the intersection-family counters at every thread count.
TEST(OutputNeutralityTest, ParallelIstaFillsIntersectionCounters) {
  const TransactionDatabase db = GenerateRandomDense(200, 40, 0.25, 7);
  MinerOptions options;
  options.algorithm = Algorithm::kIsta;
  options.min_support = 4;
  options.num_threads = 4;
  MinerStats stats;
  auto result = MineClosedCollect(db, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.isect_steps, 0u);
  EXPECT_GT(stats.peak_nodes, 0u);
  EXPECT_GT(stats.final_nodes, 0u);
  EXPECT_GE(stats.peak_nodes, stats.final_nodes);
  EXPECT_EQ(stats.merge_calls, 0u);  // one repository, nothing to merge
  EXPECT_EQ(stats.sets_reported, result.value().size());
}

// --- kernel work -----------------------------------------------------

MinerStats MineWithStats(const TransactionDatabase& db, Algorithm algorithm,
                         Support min_support) {
  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = min_support;
  MinerStats stats;
  EXPECT_TRUE(MineClosed(db, options, [](auto, auto) {}, &stats).ok())
      << AlgorithmName(algorithm);
  return stats;
}

// The miners that call a kernel count each call in their own stats; the
// others report none.
TEST(KernelWorkTest, CountedByTheMinersThatCallKernels) {
  const TransactionDatabase db = GenerateRandomDense(40, 16, 0.4, 29);
  for (const Algorithm algorithm :
       {Algorithm::kCarpenterTable, Algorithm::kCharm,
        Algorithm::kFlatCumulative}) {
    const MinerStats stats = MineWithStats(db, algorithm, 3);
    EXPECT_GT(stats.kernel_calls, 0u) << AlgorithmName(algorithm);
    EXPECT_GE(stats.kernel_elements_in, stats.kernel_elements_out)
        << AlgorithmName(algorithm);
  }
  // One intersection per extension check, and one per stored set.
  const MinerStats charm = MineWithStats(db, Algorithm::kCharm, 3);
  EXPECT_EQ(charm.kernel_calls, charm.extension_checks);
  const MinerStats flat = MineWithStats(db, Algorithm::kFlatCumulative, 3);
  EXPECT_EQ(flat.kernel_calls, flat.isect_steps);

  for (const Algorithm algorithm :
       {Algorithm::kIsta, Algorithm::kLcm, Algorithm::kFpClose,
        Algorithm::kCarpenterLists}) {
    const MinerStats stats = MineWithStats(db, algorithm, 3);
    EXPECT_EQ(stats.kernel_calls, 0u) << AlgorithmName(algorithm);
    EXPECT_EQ(stats.kernel_elements_in, 0u) << AlgorithmName(algorithm);
    EXPECT_EQ(stats.kernel_elements_out, 0u) << AlgorithmName(algorithm);
  }
}

// Two runs on two threads at once each count their own kernel work
// only: the same counts as alone.
TEST(KernelWorkTest, ConcurrentRunsCountOnlyTheirOwnWork) {
  const TransactionDatabase db = GenerateRandomDense(120, 40, 0.3, 31);
  const Algorithm algorithms[] = {Algorithm::kCarpenterTable,
                                  Algorithm::kCharm};
  MinerStats solo[2];
  for (int k = 0; k < 2; ++k) solo[k] = MineWithStats(db, algorithms[k], 4);
  ASSERT_GT(solo[0].kernel_calls, 0u);
  ASSERT_GT(solo[1].kernel_calls, 0u);
  for (int round = 0; round < 3; ++round) {
    MinerStats together[2];
    std::latch start(2);
    std::vector<std::thread> threads;
    for (int k = 0; k < 2; ++k) {
      threads.emplace_back([&, k] {
        start.arrive_and_wait();
        together[k] = MineWithStats(db, algorithms[k], 4);
      });
    }
    for (auto& thread : threads) thread.join();
    for (int k = 0; k < 2; ++k) {
      const char* name = AlgorithmName(algorithms[k]);
      EXPECT_EQ(together[k].kernel_calls, solo[k].kernel_calls) << name;
      EXPECT_EQ(together[k].kernel_elements_in, solo[k].kernel_elements_in)
          << name;
      EXPECT_EQ(together[k].kernel_elements_out, solo[k].kernel_elements_out)
          << name;
    }
  }
}

// --- annotated synchronization ---------------------------------------

// Same contract style as MemoryBreakdown's internals: the helper demands
// a mutex of the breakdown's leaf rank via FIM_REQUIRES, so the
// FIM_THREAD_SAFETY CI job rejects any call site that forgot the lock.
// The mutex is named only by the annotation, which gcc does not read.
void AppendHolding([[maybe_unused]] Mutex& mutex, std::vector<int>& log,
                   int value) FIM_REQUIRES(mutex) {
  log.push_back(value);
}

TEST(SyncTest, RequiresAnnotatedHelperUnderRegistryRankMutex) {
  Mutex mutex(LockRank::kMemoryBreakdown, "obs-helper");
  std::vector<int> log;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        const MutexLock lock(mutex);
        AppendHolding(mutex, log, t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(log.size(), 4000u);
}

}  // namespace
}  // namespace fim
