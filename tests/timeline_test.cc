// Tests of the event-timeline layer: ring-buffer lane semantics
// (ordering, wrap-around drop accounting, name truncation, empty
// names), the
// null-safe TimelineScope/Phase guards, the Chrome trace-event exporter
// (valid JSON, balanced begin/end pairs, orphan/synthetic end
// re-balancing, thread_name metadata), multi-threaded lane registration
// and recording (exercised under TSan in CI), and output neutrality of
// timeline recording across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/miner.h"
#include "data/generators.h"
#include "obs/json.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fim {
namespace {

// --- lane semantics ---------------------------------------------------

TEST(TimelineLaneTest, RecordsEventsInOrder) {
  obs::Timeline timeline;
  obs::TimelineLane* lane = timeline.driver();
  EXPECT_EQ(lane->name(), "main");

  lane->Begin("mine");
  lane->Instant("checkpoint");
  lane->Counter("nodes", 42.5);
  lane->End();

  EXPECT_EQ(lane->TotalEvents(), 4u);
  EXPECT_EQ(lane->DroppedEvents(), 0u);
  const std::vector<obs::TimelineEvent> events = lane->Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, obs::TimelineEvent::Kind::kBegin);
  EXPECT_STREQ(events[0].name, "mine");
  EXPECT_EQ(events[1].kind, obs::TimelineEvent::Kind::kInstant);
  EXPECT_STREQ(events[1].name, "checkpoint");
  EXPECT_EQ(events[2].kind, obs::TimelineEvent::Kind::kCounter);
  EXPECT_STREQ(events[2].name, "nodes");
  EXPECT_DOUBLE_EQ(events[2].value, 42.5);
  EXPECT_EQ(events[3].kind, obs::TimelineEvent::Kind::kEnd);
  // Timestamps are monotone within a lane (steady clock).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TimelineLaneTest, TruncatesLongNames) {
  obs::Timeline timeline;
  obs::TimelineLane* lane = timeline.driver();
  const std::string long_name(200, 'x');
  lane->Instant(long_name);
  const auto events = lane->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name),
            std::string(obs::TimelineEvent::kNameCapacity, 'x'));
}

TEST(TimelineLaneTest, EmptyNamesRecordAsEmptyStrings) {
  // End() and an empty instant name pass a string_view whose data() is
  // null. A two-slot ring makes the instant reuse the slot that held
  // "span", which must come out empty.
  obs::Timeline timeline(/*capacity_per_lane=*/2);
  obs::TimelineLane* lane = timeline.driver();
  lane->Begin("span");
  lane->End();
  lane->Instant(std::string_view());
  const auto events = lane->Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::TimelineEvent::Kind::kEnd);
  EXPECT_STREQ(events[0].name, "");
  EXPECT_EQ(events[1].kind, obs::TimelineEvent::Kind::kInstant);
  EXPECT_STREQ(events[1].name, "");
}

TEST(TimelineLaneTest, RingWrapKeepsNewestAndCountsDrops) {
  obs::Timeline timeline(/*capacity_per_lane=*/8);
  obs::TimelineLane* lane = timeline.driver();
  for (int i = 0; i < 20; ++i) {
    lane->Counter("i", static_cast<double>(i));
  }
  EXPECT_EQ(lane->TotalEvents(), 20u);
  EXPECT_EQ(lane->DroppedEvents(), 12u);
  EXPECT_EQ(timeline.DroppedEvents(), 12u);
  const auto events = lane->Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the newest 8, still in recording order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(12 + i));
  }
}

TEST(TimelineTest, LanesGetSequentialIdsAndSharedEpoch) {
  obs::Timeline timeline;
  EXPECT_EQ(timeline.NumLanes(), 1u);
  obs::TimelineLane* worker = timeline.AddLane("worker-0");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->name(), "worker-0");
  EXPECT_EQ(timeline.NumLanes(), 2u);
  const auto lanes = timeline.Lanes();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0]->name(), "main");
  EXPECT_EQ(lanes[1]->name(), "worker-0");
}

// --- guards -----------------------------------------------------------

TEST(TimelineScopeTest, NullLaneIsNoOp) {
  obs::TimelineScope scope(nullptr, "phase");
  scope.End();
  scope.End();  // idempotent
  obs::Phase phase(nullptr, nullptr, "phase");
  phase.End();
  phase.End();
}

TEST(TimelineScopeTest, EndIsIdempotentOnRealLane) {
  obs::Timeline timeline;
  obs::TimelineLane* lane = timeline.driver();
  {
    obs::TimelineScope scope(lane, "phase");
    scope.End();
    // Destructor must not emit a second end.
  }
  EXPECT_EQ(lane->TotalEvents(), 2u);
  const auto events = lane->Snapshot();
  EXPECT_EQ(events[0].kind, obs::TimelineEvent::Kind::kBegin);
  EXPECT_EQ(events[1].kind, obs::TimelineEvent::Kind::kEnd);
}

TEST(TimelineScopeTest, PhaseFeedsBothTraceAndLane) {
  obs::Trace trace;
  obs::Timeline timeline;
  {
    obs::Phase phase(&trace, timeline.driver(), "mine");
  }
  ASSERT_FALSE(trace.root().children.empty());
  EXPECT_EQ(trace.root().children.front()->name, "mine");
  EXPECT_EQ(timeline.driver()->TotalEvents(), 2u);
}

// --- Chrome trace export ----------------------------------------------

// Per-tid begin/end balance check over a parsed trace document.
void ExpectBalancedTrace(const obs::JsonValue& doc,
                         std::size_t expect_lanes) {
  const obs::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, int> depth;           // tid -> open begins
  std::map<double, bool> named;          // tid -> has thread_name meta
  for (const obs::JsonValue& event : events->AsArray()) {
    const std::string ph = event.Find("ph")->AsString();
    const double tid = event.Find("tid")->AsNumber();
    if (ph == "B") {
      ++depth[tid];
    } else if (ph == "E") {
      ASSERT_GT(depth[tid], 0) << "unmatched E on tid " << tid;
      --depth[tid];
    } else if (ph == "M") {
      EXPECT_EQ(event.Find("name")->AsString(), "thread_name");
      named[tid] = true;
    } else {
      EXPECT_TRUE(ph == "i" || ph == "C") << "unexpected phase " << ph;
    }
    EXPECT_GE(event.Find("ts")->AsNumber(), 0.0);
  }
  for (const auto& [tid, open] : depth) {
    EXPECT_EQ(open, 0) << "unclosed begin on tid " << tid;
  }
  EXPECT_EQ(named.size(), expect_lanes);
}

TEST(ChromeTraceTest, ExportsValidBalancedJson) {
  obs::Timeline timeline;
  obs::TimelineLane* main = timeline.driver();
  obs::TimelineLane* worker = timeline.AddLane("worker-0");
  main->Begin("mine");
  worker->Begin("shard");
  worker->Counter("nodes", 17.0);
  worker->End();
  main->Instant("merged");
  main->End();

  obs::TraceMeta meta;
  meta.tool = "fim-test";
  meta.algorithm = "ista";
  const std::string json = RenderChromeTrace(timeline, meta);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& doc = parsed.value();
  ExpectBalancedTrace(doc, 2);

  const obs::JsonValue* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("schema")->AsString(), "fim-trace-v1");
  EXPECT_EQ(other->Find("tool")->AsString(), "fim-test");
  EXPECT_EQ(other->Find("algorithm")->AsString(), "ista");
  EXPECT_DOUBLE_EQ(other->Find("num_lanes")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(other->Find("dropped_events")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(other->Find("skipped_orphan_ends")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(other->Find("synthesized_ends")->AsNumber(), 0.0);

  // The counter event carries its value in args.
  bool saw_counter = false;
  for (const obs::JsonValue& event : doc.Find("traceEvents")->AsArray()) {
    if (event.Find("ph")->AsString() != "C") continue;
    saw_counter = true;
    EXPECT_EQ(event.Find("name")->AsString(), "nodes");
    EXPECT_DOUBLE_EQ(event.Find("args")->Find("value")->AsNumber(), 17.0);
  }
  EXPECT_TRUE(saw_counter);
}

TEST(ChromeTraceTest, RebalancesOverflowedAndUnclosedLanes) {
  obs::Timeline timeline(/*capacity_per_lane=*/4);
  obs::TimelineLane* lane = timeline.driver();
  // The begin is overwritten by the instants, so its end arrives
  // orphaned and must be skipped.
  lane->Begin("lost");
  lane->Instant("a");
  lane->Instant("b");
  lane->Instant("c");
  lane->Instant("d");
  lane->End();
  // An unclosed begin (still in the ring) must get a synthetic end.
  obs::TimelineLane* open_lane = timeline.AddLane("open");
  open_lane->Begin("unfinished");

  obs::TraceMeta meta;
  meta.tool = "fim-test";
  const std::string json = RenderChromeTrace(timeline, meta);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBalancedTrace(parsed.value(), 2);
  const obs::JsonValue* other = parsed.value().Find("otherData");
  EXPECT_GE(other->Find("dropped_events")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(other->Find("skipped_orphan_ends")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(other->Find("synthesized_ends")->AsNumber(), 1.0);
}

// --- concurrency (TSan coverage) --------------------------------------

TEST(TimelineTest, ConcurrentLaneRegistrationAndRecording) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 5000;
  obs::Timeline timeline;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timeline, t]() {
      obs::TimelineLane* lane =
          timeline.AddLane("worker-" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        obs::TimelineScope scope(lane, "work");
        lane->Counter("i", static_cast<double>(i));
      }
    });
  }
  // The driver lane records concurrently, and cross-thread reads of the
  // aggregate accessors must be safe while writers run.
  for (int i = 0; i < 1000; ++i) {
    timeline.driver()->Instant("tick");
    (void)timeline.NumLanes();
    (void)timeline.DroppedEvents();
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(timeline.NumLanes(), 1u + kThreads);
  for (const obs::TimelineLane* lane : timeline.Lanes()) {
    if (lane->name() == "main") continue;
    EXPECT_EQ(lane->TotalEvents(),
              static_cast<std::uint64_t>(3 * kEventsPerThread));
  }
  obs::TraceMeta meta;
  meta.tool = "fim-test";
  auto parsed = obs::ParseJson(RenderChromeTrace(timeline, meta));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBalancedTrace(parsed.value(), 1u + kThreads);
}

// --- output neutrality ------------------------------------------------

// Recording a timeline must never change the mined output, sequential or
// parallel. (The --stats/--trace counterpart lives in obs_test.cc; this
// covers the MinerOptions::timeline path through the chunked recoding and
// the prune events on the driver lane.)
TEST(TimelineNeutralityTest, TimelineOnEqualsTimelineOff) {
  const TransactionDatabase db = GenerateRandomDense(60, 24, 0.3, 123);
  for (unsigned threads : {1u, 4u}) {
    MinerOptions options;
    options.algorithm = Algorithm::kIsta;
    options.min_support = 3;
    options.num_threads = threads;

    auto plain = MineClosedCollect(db, options);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    obs::Timeline timeline;
    options.timeline = &timeline;
    auto traced = MineClosedCollect(db, options);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();

    ASSERT_EQ(plain.value().size(), traced.value().size()) << "t=" << threads;
    for (std::size_t i = 0; i < plain.value().size(); ++i) {
      EXPECT_EQ(plain.value()[i].items, traced.value()[i].items)
          << "t=" << threads << " set " << i;
      EXPECT_EQ(plain.value()[i].support, traced.value()[i].support)
          << "t=" << threads << " set " << i;
    }

    // The parallel run fans out into recoding lanes; the exported trace
    // must stay well-formed either way.
    if (threads > 1) {
      EXPECT_GT(timeline.NumLanes(), 1u);
    }
    obs::TraceMeta meta;
    meta.tool = "fim-test";
    meta.algorithm = "ista";
    auto parsed = obs::ParseJson(RenderChromeTrace(timeline, meta));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectBalancedTrace(parsed.value(), timeline.NumLanes());
  }
}

}  // namespace
}  // namespace fim
