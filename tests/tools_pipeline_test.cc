// End-to-end pipeline test of the command-line tools:
// fim-gen -> (fim-discretize) -> fim-mine -> parsed results verified
// against the library and the definitional closedness check.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/miner.h"
#include "data/fimi_io.h"
#include "data/result_io.h"
#include "obs/json.h"
#include "obs/miner_stats.h"
#include "verify/closedness.h"
#include "verify/compare.h"

namespace fim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

int RunCmd(const std::string& cmd) { return std::system(cmd.c_str()); }

/// Like RunCmd but decodes the wait status into the child's exit code.
int ExitCode(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Parses a Chrome trace file, checks per-tid begin/end balance, and
/// returns the number of distinct lanes (thread_name metadata events).
std::size_t CheckChromeTraceFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = obs::ParseJson(buffer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return 0;
  const obs::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("otherData")->Find("schema")->AsString(),
            "fim-trace-v1");
  std::map<double, int> depth;
  std::map<double, bool> named;
  for (const obs::JsonValue& event : doc.Find("traceEvents")->AsArray()) {
    const std::string ph = event.Find("ph")->AsString();
    const double tid = event.Find("tid")->AsNumber();
    if (ph == "B") {
      ++depth[tid];
    } else if (ph == "E") {
      EXPECT_GT(depth[tid], 0) << "unmatched E on tid " << tid;
      --depth[tid];
    } else if (ph == "M") {
      named[tid] = true;
    }
  }
  for (const auto& [tid, open] : depth) {
    EXPECT_EQ(open, 0) << "unclosed begin on tid " << tid;
  }
  return named.size();
}

TEST(ToolsPipelineTest, GenerateMineVerify) {
  const std::string data = TempPath("pipeline_data.fimi");
  const std::string result = TempPath("pipeline_result.txt");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) +
                " -p basket -c 0.02 -r 9 " + data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -a carpenter-table -s 5 " +
                data + " " + result),
            0);

  auto db = ReadFimiFile(data);
  ASSERT_TRUE(db.ok());
  auto mined = ReadClosedSetsFile(result);
  ASSERT_TRUE(mined.ok());

  // Sound by definition...
  ASSERT_TRUE(VerifyClosedSets(db.value(), mined.value(), 5).ok());
  // ...and identical to the library's in-process result.
  MinerOptions options;
  options.min_support = 5;
  auto expected = MineClosedCollect(db.value(), options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), mined.value()))
      << DiffResults(expected.value(), mined.value());
}

TEST(ToolsPipelineTest, ExpressionDiscretizeMine) {
  const std::string matrix = TempPath("pipeline_expr.tsv");
  const std::string data = TempPath("pipeline_expr.fimi");
  const std::string result = TempPath("pipeline_expr_result.txt");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p expression -c 0.05 -r 4 " +
                matrix + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_DISCRETIZE_BINARY) + " -t " + matrix + " " +
                data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -a ista -S 30 " + data +
                " " + result),
            0);

  auto db = ReadFimiFile(data);
  ASSERT_TRUE(db.ok());
  auto mined = ReadClosedSetsFile(result);
  ASSERT_TRUE(mined.ok());
  ASSERT_FALSE(mined.value().empty());
  const Support smin = static_cast<Support>(
      (db.value().NumTransactions() * 30 + 99) / 100);
  EXPECT_TRUE(VerifyClosedSets(db.value(), mined.value(), smin).ok());
}

TEST(ToolsPipelineTest, MaximalOutputIsSubsetOfClosed) {
  const std::string data = TempPath("pipeline_max.fimi");
  const std::string closed_out = TempPath("pipeline_closed.txt");
  const std::string maximal_out = TempPath("pipeline_maximal.txt");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 11 " +
                data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 4 " + data + " " +
                closed_out),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -m -s 4 " + data + " " +
                maximal_out),
            0);

  auto closed = ReadClosedSetsFile(closed_out);
  auto maximal = ReadClosedSetsFile(maximal_out);
  ASSERT_TRUE(closed.ok());
  ASSERT_TRUE(maximal.ok());
  ASSERT_FALSE(maximal.value().empty());
  EXPECT_LE(maximal.value().size(), closed.value().size());
  // Every maximal set appears among the closed sets with equal support.
  for (const auto& m : maximal.value()) {
    bool found = false;
    for (const auto& c : closed.value()) {
      if (c.items == m.items && c.support == m.support) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << ItemsToString(m.items);
  }
}


TEST(ToolsPipelineTest, VerifyAcceptsCorrectAndRejectsCorrupted) {
  const std::string data = TempPath("pipeline_verify.fimi");
  const std::string good = TempPath("pipeline_verify_good.txt");
  const std::string bad = TempPath("pipeline_verify_bad.txt");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 21 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 6 " + data + " " +
                   good),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_VERIFY_BINARY) + " -s 6 " + data + " " +
                   good + " 2>/dev/null"),
            0);

  // Corrupt one support value: verification must fail.
  {
    std::ifstream in(good);
    std::ofstream out(bad);
    std::string line;
    bool corrupted = false;
    while (std::getline(in, line)) {
      if (!corrupted && !line.empty()) {
        line = line.substr(0, line.find('(')) + "(99999)";
        corrupted = true;
      }
      out << line << "\n";
    }
  }
  EXPECT_NE(RunCmd(std::string(FIM_VERIFY_BINARY) + " -s 6 " + data + " " +
                   bad + " 2>/dev/null"),
            0);
}

// --self-check runs the validators over the weighted rows the miners
// mine: adjacent copies of a row fold into one row of the matrix.
TEST(ToolsPipelineTest, SelfCheckPassesOnRepeatedRows) {
  const std::string data = TempPath("pipeline_selfcheck.fimi");
  const std::string log = TempPath("pipeline_selfcheck.log");
  {
    std::ofstream out(data);
    out << "0 1 2\n0 1 2\n0 1 2\n1 3\n0 1 2\n2 3\n2 3\n";
  }
  ASSERT_EQ(ExitCode(std::string(FIM_VERIFY_BINARY) + " --self-check " +
                     data + " 2>" + log),
            0);
  std::ifstream in(log);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("carpenter matrix OK (4 x 4)"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("fim-verify: self-check OK"), std::string::npos)
      << text.str();
}

// --self-check mines nothing: a minimum support would be dropped
// silently, so it is a usage error (exit 2) before or after the input.
TEST(ToolsPipelineTest, SelfCheckRejectsTheFlagsItIgnores) {
  const std::string data = TempPath("pipeline_selfcheck_flags.fimi");
  {
    std::ofstream out(data);
    out << "0 1 2\n1 3\n2 3\n";
  }
  const std::string verify =
      std::string(FIM_VERIFY_BINARY) + " --self-check ";
  EXPECT_EQ(ExitCode(verify + "-s 7 " + data + " 2>/dev/null"), 2);
  EXPECT_EQ(ExitCode(verify + data + " -s 7 2>/dev/null"), 2);
  EXPECT_EQ(ExitCode(verify + data + " 2>/dev/null"), 0);
}

TEST(ToolsPipelineTest, RulesToolEmitsValidRules) {
  const std::string data = TempPath("pipeline_rules.fimi");
  const std::string out = TempPath("pipeline_rules.txt");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.03 -r 15 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_RULES_BINARY) +
                   " -s 5 -c 0.5 -k 20 " + data + " " + out + " 2>/dev/null"),
            0);
  std::ifstream in(out);
  std::string line;
  std::size_t rules = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_NE(line.find(" -> "), std::string::npos) << line;
    ++rules;
  }
  EXPECT_GT(rules, 0u);
  EXPECT_LE(rules, 20u);
}

TEST(ToolsPipelineTest, QuantileDiscretizeProducesMineableData) {
  const std::string matrix = TempPath("pipeline_q.tsv");
  const std::string data = TempPath("pipeline_q.fimi");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p expression -c 0.05 "
                   "-r 6 " + matrix + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_DISCRETIZE_BINARY) + " -Q 0.08 -t " +
                   matrix + " " + data + " 2>/dev/null"),
            0);
  auto db = ReadFimiFile(data);
  ASSERT_TRUE(db.ok());
  EXPECT_GT(db.value().NumTransactions(), 0u);
  // Roughly 16% of the matrix entries become items (two 8% tails).
  const double occupancy =
      static_cast<double>(db.value().TotalItemOccurrences()) /
      (static_cast<double>(db.value().NumTransactions()) *
       static_cast<double>(db.value().NumItems() / 2));
  EXPECT_NEAR(occupancy, 0.16, 0.03);
}

TEST(ToolsPipelineTest, StatsJsonValidatesAndLeavesOutputUntouched) {
  const std::string data = TempPath("pipeline_stats.fimi");
  const std::string plain_out = TempPath("pipeline_stats_plain.txt");
  const std::string stats_out = TempPath("pipeline_stats_result.txt");
  const std::string stats_json = TempPath("pipeline_stats.json");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 17 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 -t 4 " + data +
                   " " + plain_out),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 -t 4 " +
                   "--stats=json --stats-out=" + stats_json + " " + data +
                   " " + stats_out),
            0);

  // Output neutrality end to end: the result file is identical with and
  // without --stats.
  auto plain = ReadClosedSetsFile(plain_out);
  auto with_stats = ReadClosedSetsFile(stats_out);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_stats.ok());
  ASSERT_FALSE(plain.value().empty());
  EXPECT_TRUE(SameResults(plain.value(), with_stats.value()));

  // The report parses and carries the fim-stats-v2 schema with the full
  // counter catalog and the span tree.
  std::ifstream in(stats_json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = obs::ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& report = parsed.value();
  EXPECT_EQ(report.Find("schema")->AsString(), "fim-stats-v2");
  EXPECT_EQ(report.Find("tool")->AsString(), "fim-mine");
  EXPECT_EQ(report.Find("algorithm")->AsString(), "ista");
  EXPECT_DOUBLE_EQ(report.Find("min_support")->AsNumber(), 5.0);
  EXPECT_DOUBLE_EQ(report.Find("threads")->AsNumber(), 4.0);
  EXPECT_EQ(static_cast<std::size_t>(report.Find("num_sets")->AsNumber()),
            plain.value().size());
  EXPECT_GT(report.Find("peak_rss_bytes")->AsNumber(), 0.0);
  const obs::JsonValue* counters = report.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().size(), MinerStats{}.Counters().size());
  EXPECT_GT(counters->Find("isect_steps")->AsNumber(), 0.0);
  EXPECT_EQ(static_cast<std::size_t>(
                counters->Find("sets_reported")->AsNumber()),
            plain.value().size());
  const obs::JsonValue* spans = report.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  bool saw_mine = false;
  for (const auto& span : spans->AsArray()) {
    if (span.Find("name")->AsString() == "mine") saw_mine = true;
  }
  EXPECT_TRUE(saw_mine);
}

TEST(ToolsPipelineTest, BinaryFormatMinesIdentically) {
  const std::string text = TempPath("pipeline_bin.fimi");
  const std::string binary = TempPath("pipeline_bin.fimb");
  const std::string out_text = TempPath("pipeline_bin_text.txt");
  const std::string out_binary = TempPath("pipeline_bin_binary.txt");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 31 " +
                   text + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) +
                   " -p basket -c 0.02 -r 31 -b " + binary + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 " + text + " " +
                   out_text),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 " + binary + " " +
                   out_binary),
            0);
  auto a = ReadClosedSetsFile(out_text);
  auto b = ReadClosedSetsFile(out_binary);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameResults(a.value(), b.value()));
  EXPECT_FALSE(a.value().empty());
}
TEST(ToolsPipelineTest, TraceOutIsValidMultiLaneChromeTrace) {
  const std::string data = TempPath("pipeline_trace.fimi");
  const std::string plain_out = TempPath("pipeline_trace_plain.txt");
  const std::string traced_out = TempPath("pipeline_trace_result.txt");
  const std::string trace = TempPath("pipeline_trace.json");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 41 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 -t 4 " + data +
                   " " + plain_out),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 -t 4 " +
                   "--trace-out=" + trace + " " + data + " " + traced_out),
            0);

  // Output neutrality end to end: tracing never changes the result.
  auto plain = ReadClosedSetsFile(plain_out);
  auto traced = ReadClosedSetsFile(traced_out);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(traced.ok());
  ASSERT_FALSE(plain.value().empty());
  EXPECT_TRUE(SameResults(plain.value(), traced.value()));

  // A 4-thread run fans into recoding lanes: more than one tid.
  EXPECT_GT(CheckChromeTraceFile(trace), 1u);
}

TEST(ToolsPipelineTest, StreamTraceStatsAndSamplerOutputs) {
  const std::string data = TempPath("pipeline_stream_obs.fimi");
  const std::string plain_out = TempPath("pipeline_stream_obs_plain.txt");
  const std::string obs_out = TempPath("pipeline_stream_obs_result.txt");
  const std::string trace = TempPath("pipeline_stream_obs_trace.json");
  const std::string stats = TempPath("pipeline_stream_obs_stats.json");

  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 43 " +
                   data + " 2>/dev/null"),
            0);
  constexpr std::size_t kPane = 25;
  constexpr std::size_t kWindow = 3;
  const std::string stream_args = " -q -s 5 --pane=" + std::to_string(kPane) +
                                  " --window=" + std::to_string(kWindow) + " ";
  ASSERT_EQ(RunCmd(std::string(FIM_STREAM_BINARY) + stream_args + data + " " +
                   plain_out + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_STREAM_BINARY) + stream_args +
                   "--stats=json --stats-out=" + stats +
                   " --trace-out=" + trace + " " + data + " " + obs_out +
                   " 2>/dev/null"),
            0);

  // Output neutrality end to end.
  auto plain = ReadClosedSetsFile(plain_out);
  auto observed = ReadClosedSetsFile(obs_out);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(observed.ok());
  EXPECT_TRUE(SameResults(plain.value(), observed.value()));

  // Trace: the miner records on the driver lane only.
  EXPECT_GE(CheckChromeTraceFile(trace), 1u);

  // Stats report: fim-stats-v2 with the stream counters of this input
  // (one final query, no checkpoint) and the miner's phase spans.
  auto db = ReadFimiFile(data);
  ASSERT_TRUE(db.ok());
  const std::size_t rows = db.value().NumTransactions();
  const std::size_t rotated = rows / kPane;
  ASSERT_GT(rotated, kWindow);  // so rotated - (kWindow - 1) panes expired
  std::ifstream stats_in(stats);
  std::stringstream buffer;
  buffer << stats_in.rdbuf();
  auto report = obs::ParseJson(buffer.str());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().Find("schema")->AsString(), "fim-stats-v2");
  EXPECT_EQ(report.value().Find("tool")->AsString(), "fim-stream");
  const obs::JsonValue* counters = report.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("stream.transactions_ingested")->AsNumber(),
            static_cast<double>(rows));
  EXPECT_EQ(counters->Find("stream.panes_rotated")->AsNumber(),
            static_cast<double>(rotated));
  EXPECT_EQ(counters->Find("stream.panes_expired")->AsNumber(),
            static_cast<double>(rotated - (kWindow - 1)));
  EXPECT_EQ(counters->Find("stream.queries")->AsNumber(), 1.0);
  EXPECT_EQ(report.value().Find("distributions"), nullptr);
  const obs::JsonValue* spans = report.value().Find("spans");
  ASSERT_NE(spans, nullptr);
  bool saw_rotate = false;
  bool saw_query = false;
  for (const auto& span : spans->AsArray()) {
    if (span.Find("name")->AsString() == "rotate") saw_rotate = true;
    if (span.Find("name")->AsString() == "query") saw_query = true;
  }
  EXPECT_TRUE(saw_rotate);
  EXPECT_TRUE(saw_query);
}

TEST(ToolsPipelineTest, StatsDiffGatesRegressions) {
  const std::string baseline = TempPath("pipeline_diff_base.json");
  const std::string same = TempPath("pipeline_diff_same.json");
  const std::string regressed = TempPath("pipeline_diff_regressed.json");
  const std::string fewer_sets = TempPath("pipeline_diff_sets.json");
  const std::string missing = TempPath("pipeline_diff_missing.json");

  auto write = [](const std::string& path, const std::string& body) {
    std::ofstream out(path);
    out << body;
  };
  write(baseline,
        R"({"schema":"fim-stats-v2","tool":"fim-mine","algorithm":"ista",)"
        R"("num_sets":42,"counters":{"isect_steps":100,"merge_calls":3}})");
  write(same,
        R"({"schema":"fim-stats-v2","tool":"fim-mine","algorithm":"ista",)"
        R"("num_sets":42,"counters":{"isect_steps":100,"merge_calls":3}})");
  write(regressed,
        R"({"schema":"fim-stats-v2","tool":"fim-mine","algorithm":"ista",)"
        R"("num_sets":42,"counters":{"isect_steps":200,"merge_calls":3}})");
  write(fewer_sets,
        R"({"schema":"fim-stats-v2","tool":"fim-mine","algorithm":"ista",)"
        R"("num_sets":41,"counters":{"isect_steps":100,"merge_calls":3}})");
  write(missing,
        R"({"schema":"fim-stats-v2","tool":"fim-mine","algorithm":"ista",)"
        R"("num_sets":42,"counters":{"merge_calls":3}})");

  const std::string diff = std::string(FIM_STATS_DIFF_BINARY) + " ";
  // Identical reports pass.
  EXPECT_EQ(ExitCode(diff + baseline + " " + same + " 2>/dev/null"), 0);
  // An injected counter regression fails...
  EXPECT_EQ(ExitCode(diff + baseline + " " + regressed + " 2>/dev/null"), 1);
  // ...unless the tolerance covers the +100% increase.
  EXPECT_EQ(ExitCode(diff + "--rel-tol=1.5 " + baseline + " " + regressed +
                     " 2>/dev/null"),
            0);
  // num_sets is an output cardinality: any change fails, in any
  // direction, regardless of tolerance.
  EXPECT_EQ(ExitCode(diff + "--rel-tol=9 --abs-tol=9 " + baseline + " " +
                     fewer_sets + " 2>/dev/null"),
            1);
  // A vanished counter is a structure mismatch; unreadable input is a
  // usage/parse error (exit 2).
  EXPECT_EQ(ExitCode(diff + baseline + " " + missing + " 2>/dev/null"), 1);
  EXPECT_EQ(ExitCode(diff + baseline + " " + baseline + ".nope 2>/dev/null"),
            2);

  // Tolerances are checked: a value that is not a finite number >= 0
  // would switch the gate off (nan, 1e999) or read as 0 (abc), so it is
  // a usage error, not a pass over the +100% regression.
  for (const char* flag :
       {"--rel-tol=nan", "--abs-tol=1e999", "--rel-tol=abc", "--abs-tol=-1",
        "--mem-rel-tol=inf", "--mem-abs-tol=64k", "--rel-tol="}) {
    EXPECT_EQ(ExitCode(diff + flag + " " + baseline + " " + regressed +
                       " 2>/dev/null"),
              2)
        << flag;
  }

  // Zero baseline: any increase has infinite relative growth, so it
  // fails under the default tolerances, but an absolute tolerance wide
  // enough to cover the increase admits it.
  const std::string zero_base = TempPath("pipeline_diff_zero.json");
  const std::string one_more = TempPath("pipeline_diff_one.json");
  write(zero_base,
        R"({"schema":"fim-stats-v2","num_sets":7,)"
        R"("counters":{"isect_steps":100,"prune_calls":0}})");
  write(one_more,
        R"({"schema":"fim-stats-v2","num_sets":7,)"
        R"("counters":{"isect_steps":100,"prune_calls":1}})");
  EXPECT_EQ(ExitCode(diff + zero_base + " " + one_more + " 2>/dev/null"), 1);
  EXPECT_EQ(ExitCode(diff + "--abs-tol=2 " + zero_base + " " + one_more +
                     " 2>/dev/null"),
            0);

  // Non-finite guard: the JSON layer rejects Inf-valued numbers
  // outright (1e999 overflows strtod), so a poisoned report is a parse
  // error (exit 2), never a silent pass or a bogus comparison.
  const std::string inf_report = TempPath("pipeline_diff_inf.json");
  write(inf_report,
        R"({"schema":"fim-stats-v2","num_sets":7,)"
        R"("counters":{"isect_steps":1e999}})");
  EXPECT_EQ(ExitCode(diff + inf_report + " " + inf_report + " 2>/dev/null"),
            2);

  // Schema-version skew: a v1 baseline still gates a v2 candidate —
  // shared counters compare, newer top-level fields ride along.
  const std::string v1_base = TempPath("pipeline_diff_v1.json");
  const std::string v2_same = TempPath("pipeline_diff_v2_same.json");
  const std::string v2_regressed = TempPath("pipeline_diff_v2_regressed.json");
  write(v1_base,
        R"({"schema":"fim-stats-v1","num_sets":7,)"
        R"("counters":{"isect_steps":100}})");
  write(v2_same,
        R"({"schema":"fim-stats-v2","num_sets":7,"kernel_tier":"avx2",)"
        R"("counters":{"isect_steps":100}})");
  write(v2_regressed,
        R"({"schema":"fim-stats-v2","num_sets":7,"kernel_tier":"avx2",)"
        R"("counters":{"isect_steps":250}})");
  EXPECT_EQ(ExitCode(diff + v1_base + " " + v2_same + " 2>/dev/null"), 0);
  EXPECT_EQ(ExitCode(diff + v1_base + " " + v2_regressed + " 2>/dev/null"),
            1);

  // End to end: a real fim-mine report diffed against itself passes,
  // including the timing fields.
  const std::string data = TempPath("pipeline_diff.fimi");
  const std::string result = TempPath("pipeline_diff_result.txt");
  const std::string report = TempPath("pipeline_diff_report.json");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 47 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 --stats=json " +
                   "--stats-out=" + report + " " + data + " " + result),
            0);
  EXPECT_EQ(ExitCode(diff + "--time " + report + " " + report +
                     " 2>/dev/null"),
            0);
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

/// A leaf of a memory components tree as the JSON report renders it.
std::string RenderLeaf(const std::string& name, long long self_bytes,
                       long long total_bytes) {
  return "{\"name\":\"" + name + "\",\"self_bytes\":" +
         std::to_string(self_bytes) + ",\"total_bytes\":" +
         std::to_string(total_bytes) + ",\"children\":[]}";
}

/// The largest leaf of a memory components tree.
struct MemoryLeaf {
  std::string name;
  std::string path;  // slash-joined component names
  long long bytes = -1;
};

void FindLargestLeaf(const obs::JsonValue& component,
                     const std::string& prefix, MemoryLeaf* leaf) {
  const std::string& name = component.Find("name")->AsString();
  const auto& children = component.Find("children")->AsArray();
  for (const obs::JsonValue& child : children) {
    FindLargestLeaf(child, prefix + name + "/", leaf);
  }
  const auto bytes =
      static_cast<long long>(component.Find("total_bytes")->AsNumber());
  if (children.empty() && bytes > leaf->bytes) {
    *leaf = {name, prefix + name, bytes};
  }
}

// fim-stats-diff gates every structure of a --mem-stats report: the
// REGRESSION line names the component that grew, by its path in the
// breakdown tree, and a structure one side lacks is tolerated.
TEST(ToolsPipelineTest, StatsDiffNamesTheStructureThatGrew) {
  const std::string data = TempPath("pipeline_structure.fimi");
  const std::string report = TempPath("pipeline_structure.json");
  const std::string grown = TempPath("pipeline_structure_grown.json");
  const std::string removed = TempPath("pipeline_structure_removed.json");
  const std::string err = TempPath("pipeline_structure.err");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.05 -r 42 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 --mem-stats " +
                   "--stats=json --stats-out=" + report + " " + data +
                   " /dev/null"),
            0);
  const std::string text = ReadText(report);
  auto parsed = obs::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  MemoryLeaf leaf;
  for (const obs::JsonValue& component :
       parsed.value().Find("memory")->Find("components")->AsArray()) {
    FindLargestLeaf(component, "", &leaf);
  }
  // The leaf is large enough to clear the absolute floor when doubled,
  // and its rendering picks it out of the report.
  ASSERT_GT(leaf.bytes, 65536) << leaf.path;
  const std::string rendered = RenderLeaf(leaf.name, leaf.bytes, leaf.bytes);
  const std::size_t at = text.find(rendered);
  ASSERT_NE(at, std::string::npos) << rendered;
  ASSERT_EQ(text.find(rendered, at + 1), std::string::npos) << rendered;

  // Double the leaf's total_bytes, and only that.
  WriteText(grown,
            std::string(text).replace(
                at, rendered.size(),
                RenderLeaf(leaf.name, leaf.bytes, 2 * leaf.bytes)));
  const std::string diff =
      std::string(FIM_STATS_DIFF_BINARY) + " --mem-abs-tol=65536 ";
  EXPECT_EQ(ExitCode(diff + report + " " + grown + " 2>" + err), 1);
  const std::string lines = ReadText(err);
  EXPECT_NE(lines.find("REGRESSION: report: memory." + leaf.path + " "),
            std::string::npos)
      << lines;
  EXPECT_EQ(lines.find("REGRESSION", lines.find("REGRESSION") + 1),
            std::string::npos)
      << lines;

  // Drop the leaf, with the comma that separates it from a sibling, from
  // one side: absence is never a mismatch.
  std::size_t begin = at;
  std::size_t end = at + rendered.size();
  if (text[begin - 1] == ',') {
    --begin;
  } else if (text[end] == ',') {
    ++end;
  }
  const std::string without = std::string(text).erase(begin, end - begin);
  ASSERT_TRUE(obs::ParseJson(without).ok());
  WriteText(removed, without);
  EXPECT_EQ(ExitCode(diff + report + " " + removed + " 2>/dev/null"), 0);
  EXPECT_EQ(ExitCode(diff + removed + " " + report + " 2>/dev/null"), 0);
}

// Values past the 32-bit range fail loudly in every reader of FIMI-style
// lines, instead of wrapping around into another set.
TEST(ToolsPipelineTest, OutOfRangeIdsAndSupportsAreRejected) {
  const std::string data = TempPath("pipeline_range.fimi");
  WriteText(data, "0 1\n0 1\n0 2\n");
  const std::string verify =
      std::string(FIM_VERIFY_BINARY) + " -s 2 " + data + " ";
  const std::string honest = TempPath("pipeline_range_honest.txt");
  WriteText(honest, "0 (3)\n0 1 (2)\n");
  EXPECT_EQ(ExitCode(verify + honest + " 2>/dev/null"), 0);
  // 4294967296 wraps to item 0 and 4294967299 to support 3: both forged
  // files would pass for the honest one.
  const std::string forged_item = TempPath("pipeline_range_item.txt");
  const std::string forged_support = TempPath("pipeline_range_support.txt");
  WriteText(forged_item, "4294967296 (3)\n0 1 (2)\n");
  WriteText(forged_support, "0 (4294967299)\n0 1 (2)\n");
  EXPECT_EQ(ExitCode(verify + forged_item + " 2>/dev/null"), 1);
  EXPECT_EQ(ExitCode(verify + forged_support + " 2>/dev/null"), 1);

  // fim-stream takes and refuses exactly the lines fim-mine does, with
  // the same message.
  const std::string wide = TempPath("pipeline_range_wide.fimi");
  WriteText(wide, "0 1\n4294967296 1\n0 1\n");
  const std::string mine_err = TempPath("pipeline_range_mine.err");
  const std::string stream_err = TempPath("pipeline_range_stream.err");
  EXPECT_EQ(ExitCode(std::string(FIM_MINE_BINARY) + " -q -s 2 " + wide +
                     " /dev/null 2>" + mine_err),
            1);
  EXPECT_EQ(ExitCode(std::string(FIM_STREAM_BINARY) + " -q -s 2 " + wide +
                     " /dev/null 2>" + stream_err),
            1);
  EXPECT_NE(ReadText(mine_err).find("line 2: item id out of range"),
            std::string::npos)
      << ReadText(mine_err);
  EXPECT_EQ(ReadText(stream_err), ReadText(mine_err));
}

// A set holds an item once: fim-verify fails on a result line that
// repeats one, naming the line and the item, where dropping the repeat
// made this file pass for the honest "0 (3)" / "0 1 (2)".
TEST(ToolsPipelineTest, VerifyRejectsARepeatedItem) {
  const std::string data = TempPath("pipeline_repeat.fimi");
  WriteText(data, "0 1\n0 1\n0 2\n");
  const std::string result = TempPath("pipeline_repeat.txt");
  WriteText(result, "0 0 (3)\n0 1 (2)\n");
  const std::string err = TempPath("pipeline_repeat.err");
  EXPECT_EQ(ExitCode(std::string(FIM_VERIFY_BINARY) + " -s 2 " + data + " " +
                     result + " >/dev/null 2>" + err),
            1);
  EXPECT_NE(ReadText(err).find("line 1: item 0 repeats"), std::string::npos)
      << ReadText(err);
}

// Real-valued flags and the thread count are checked against the ranges
// the usage texts give: a value outside is a usage error (exit 2) before
// any work — "nan" passed the old `scale <= 0` test and crashed fim-gen,
// "abc" mined at confidence 0. The thread counts are rejected before a
// thread starts, on a two-row input.
TEST(ToolsPipelineTest, NumericFlagsOutsideTheirRangeAreUsageErrors) {
  const std::string data = TempPath("pipeline_flags.fimi");
  WriteText(data, "0 1\n0 1\n");
  const std::string matrix = TempPath("pipeline_flags.tsv");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p expression -c 0.02 " +
                   matrix + " 2>/dev/null"),
            0);
  const std::string quiet = " >/dev/null 2>&1";
  const std::string gen_out = TempPath("pipeline_flags_gen.fimi");
  for (const char* scale : {"nan", "abc", "0", "-1", "1.5", "1e9", "inf"}) {
    EXPECT_EQ(ExitCode(std::string(FIM_GEN_BINARY) + " -p basket -c " +
                       scale + " " + gen_out + quiet),
              2)
        << "fim-gen -c " << scale;
  }
  const std::string rules = std::string(FIM_RULES_BINARY) + " -s 1 ";
  for (const char* confidence : {"abc", "nan", "-0.1", "1.5", "inf"}) {
    EXPECT_EQ(ExitCode(rules + "-c " + confidence + " " + data +
                       " /dev/null" + quiet),
              2)
        << "fim-rules -c " << confidence;
  }
  EXPECT_EQ(ExitCode(rules + "-c 0.5 " + data + " /dev/null" + quiet), 0);
  const std::string discretize = std::string(FIM_DISCRETIZE_BINARY) + " ";
  const std::string discretized = TempPath("pipeline_flags_disc.fimi");
  // -u at or above -o leaves no neutral band: every value would become
  // an item.
  for (const char* flag :
       {"-o nan", "-o inf", "-o abc", "-u nan", "-u -inf", "-u 1x",
        "-Q abc", "-Q nan", "-Q 0", "-Q 0.5", "-Q -0.1", "-o 0.5 -u 0.6",
        "-o 0.2 -u 0.2"}) {
    EXPECT_EQ(ExitCode(discretize + flag + " " + matrix + " " + discretized +
                       quiet),
              2)
        << "fim-discretize " << flag;
  }
  // The summary line names the mode that ran.
  const std::string summary = TempPath("pipeline_flags_disc.err");
  EXPECT_EQ(ExitCode(discretize + "-o 0.2 -u -0.2 " + matrix + " " +
                     discretized + " 2>" + summary),
            0);
  EXPECT_NE(ReadText(summary).find("(thresholds +0.20/-0.20)"),
            std::string::npos)
      << ReadText(summary);
  EXPECT_EQ(ExitCode(discretize + "-Q 0.1 " + matrix + " " + discretized +
                     " 2>" + summary),
            0);
  EXPECT_NE(ReadText(summary).find("(quantile tails 0.1)"),
            std::string::npos)
      << ReadText(summary);
  EXPECT_EQ(ReadText(summary).find("thresholds"), std::string::npos)
      << ReadText(summary);
  for (const char* threads : {"1025", "4294967295"}) {
    EXPECT_EQ(ExitCode(std::string(FIM_MINE_BINARY) + " -t " + threads +
                       " " + data + " /dev/null" + quiet),
              2)
        << "fim-mine -t " << threads;
  }
  // At support 0 every set would be frequent: each tool that takes -s
  // rejects it before it reads the input.
  for (const char* binary : {FIM_MINE_BINARY, FIM_RULES_BINARY,
                             FIM_VERIFY_BINARY, FIM_STREAM_BINARY}) {
    EXPECT_EQ(ExitCode(std::string(binary) + " -s 0 " + data + " /dev/null" +
                       quiet),
              2)
        << binary << " -s 0";
  }
}

TEST(ToolsPipelineTest, TracingIsOutputNeutralAndReportsRusage) {
  const std::string data = TempPath("pipeline_traced.fimi");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.02 -r 53 " +
                   data + " 2>/dev/null"),
            0);

  // --trace-out and --stats change nothing about the mined output at 1
  // and 4 threads, the trace is valid, and the stats report carries the
  // process's rusage and the kernel tier.
  for (const int threads : {1, 4}) {
    const std::string suffix = "_t" + std::to_string(threads);
    const std::string plain_out = TempPath("pipeline_traced_plain" + suffix);
    const std::string traced_out =
        TempPath("pipeline_traced_result" + suffix);
    const std::string trace = TempPath("pipeline_traced_trace" + suffix);
    const std::string stats = TempPath("pipeline_traced_stats" + suffix);
    const std::string mine = std::string(FIM_MINE_BINARY) + " -q -s 5 -t " +
                             std::to_string(threads) + " ";
    ASSERT_EQ(RunCmd(mine + data + " " + plain_out), 0);
    ASSERT_EQ(RunCmd(mine + "--trace-out=" + trace +
                     " --stats=json --stats-out=" + stats + " " + data + " " +
                     traced_out + " 2>/dev/null"),
              0);

    // Output neutrality end to end: observing never changes the result.
    auto plain = ReadClosedSetsFile(plain_out);
    auto traced = ReadClosedSetsFile(traced_out);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(traced.ok());
    ASSERT_FALSE(plain.value().empty());
    EXPECT_TRUE(SameResults(plain.value(), traced.value()));
    EXPECT_GE(CheckChromeTraceFile(trace), 1u);

    // The rusage object and the kernel tier are top-level fields of
    // every report (this is Linux/POSIX in CI).
    std::ifstream stats_in(stats);
    std::stringstream buffer;
    buffer << stats_in.rdbuf();
    auto parsed = obs::ParseJson(buffer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const obs::JsonValue& report = parsed.value();
    EXPECT_EQ(report.Find("schema")->AsString(), "fim-stats-v2");
    EXPECT_EQ(report.Find("perf"), nullptr);
    const obs::JsonValue* tier = report.Find("kernel_tier");
    ASSERT_NE(tier, nullptr);
    EXPECT_TRUE(tier->AsString() == "scalar" || tier->AsString() == "avx2")
        << tier->AsString();
    const obs::JsonValue* rusage = report.Find("rusage");
    ASSERT_NE(rusage, nullptr);
    ASSERT_TRUE(rusage->is_object());
    for (const char* key :
         {"user_seconds", "system_seconds", "minor_faults", "major_faults",
          "voluntary_ctx_switches", "involuntary_ctx_switches"}) {
      ASSERT_NE(rusage->Find(key), nullptr) << key;
      EXPECT_GE(rusage->Find(key)->AsNumber(), 0.0) << key;
    }
    EXPECT_GT(rusage->Find("minor_faults")->AsNumber(), 0.0);
    // cpu_seconds is a delta of the same process totals.
    EXPECT_LE(report.Find("cpu_seconds")->AsNumber(),
              rusage->Find("user_seconds")->AsNumber() +
                  rusage->Find("system_seconds")->AsNumber());
  }
}

// cpu_seconds is the CPU of every thread of the process over the timed
// run (getrusage), not the driving thread's clock: at 4 threads LCM
// mines its subtrees on worker threads, so the report's CPU clearly
// exceeds the CPU the driving thread spends in its `mine` span.
TEST(ToolsPipelineTest, CpuSecondsCountsWorkerThreads) {
  const std::string data = TempPath("pipeline_cpu.fimi");
  const std::string stats = TempPath("pipeline_cpu.json");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p yeast -c 0.5 -r 42 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -a lcm -s 20 -t 4 " +
                   "--stats=json --stats-out=" + stats + " " + data +
                   " /dev/null"),
            0);
  std::ifstream in(stats);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = obs::ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& report = parsed.value();
  double mine_cpu = -1.0;
  for (const auto& span : report.Find("spans")->AsArray()) {
    if (span.Find("name")->AsString() == "mine") {
      mine_cpu = span.Find("cpu_seconds")->AsNumber();
    }
  }
  ASSERT_GE(mine_cpu, 0.0);
  const double cpu = report.Find("cpu_seconds")->AsNumber();
  EXPECT_GT(cpu, 1.5 * mine_cpu) << "cpu_seconds " << cpu
                                 << ", driving thread's mine span "
                                 << mine_cpu;
}

// fim-mine writes its result in 64 KiB chunks, each in a `write` span
// under the span open at the time: IsTa writes from its report callback,
// so the chunks nest in mine/report/write and `report` alone times the
// walk of the tree. The last chunk is written after mining, at the top.
TEST(ToolsPipelineTest, StatsTellMiningFromWriting) {
  const std::string data = TempPath("pipeline_write.fimi");
  const std::string result = TempPath("pipeline_write.txt");
  const std::string stats = TempPath("pipeline_write.json");
  ASSERT_EQ(RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.05 -r 42 " +
                   data + " 2>/dev/null"),
            0);
  ASSERT_EQ(RunCmd(std::string(FIM_MINE_BINARY) + " -q -s 5 --stats=json " +
                   "--stats-out=" + stats + " " + data + " " + result),
            0);
  ASSERT_GT(ReadText(result).size(), std::size_t{64} << 10);
  auto parsed = obs::ParseJson(ReadText(stats));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The span named `name` in the array `spans` (nullable), or nullptr.
  auto find_span = [](const obs::JsonValue* spans,
                      const char* name) -> const obs::JsonValue* {
    if (spans == nullptr) return nullptr;
    for (const obs::JsonValue& span : spans->AsArray()) {
      if (span.Find("name")->AsString() == name) return &span;
    }
    return nullptr;
  };
  const obs::JsonValue* spans = parsed.value().Find("spans");
  const obs::JsonValue* mine = find_span(spans, "mine");
  ASSERT_NE(mine, nullptr);
  const obs::JsonValue* report = find_span(mine->Find("children"), "report");
  ASSERT_NE(report, nullptr);
  const obs::JsonValue* write = find_span(report->Find("children"), "write");
  ASSERT_NE(write, nullptr) << ReadText(stats);
  EXPECT_GE(write->Find("count")->AsNumber(), 1.0);
  EXPECT_NE(find_span(spans, "write"), nullptr);
}

// Retired flags fail loudly instead of being taken for file names.
TEST(ToolsPipelineTest, RetiredFlagsAreUsageErrors) {
  const std::string data = TempPath("pipeline_retired.fimi");
  {
    std::ofstream out(data);
    out << "0 1\n0 1\n";
  }
  const std::string quiet = " " + data + " /dev/null >/dev/null 2>&1";
  EXPECT_EQ(ExitCode(std::string(FIM_MINE_BINARY) + " --perf-counters" +
                     quiet),
            2);
  EXPECT_EQ(ExitCode(std::string(FIM_MINE_BINARY) + " --kernel=scalar" +
                     quiet),
            2);
  // Names of retired algorithms are unknown algorithms.
  for (const char* algorithm : {"cobbler", "transposed"}) {
    EXPECT_EQ(ExitCode(std::string(FIM_MINE_BINARY) + " -a " + algorithm +
                       quiet),
              2)
        << "fim-mine -a " << algorithm;
  }
  EXPECT_EQ(ExitCode(std::string(FIM_VERIFY_BINARY) + " --perf-counters" +
                     quiet),
            2);
  EXPECT_EQ(ExitCode(std::string(FIM_STREAM_BINARY) + " --perf-counters" +
                     quiet),
            2);
  // The sampling profiler, and fim-verify's observers of its reference
  // run (fim-mine observes the same run).
  const std::string path = TempPath("pipeline_retired.out");
  for (const std::string& flag :
       {std::string("--profile"), "--profile=" + path}) {
    for (const char* binary :
         {FIM_MINE_BINARY, FIM_STREAM_BINARY, FIM_VERIFY_BINARY}) {
      EXPECT_EQ(ExitCode(std::string(binary) + " " + flag + quiet), 2)
          << binary << " " << flag;
    }
  }
  for (const std::string& flag :
       {std::string("--stats"), std::string("--stats=json"),
        "--stats-out=" + path, "--trace-out=" + path,
        std::string("--mem-stats")}) {
    EXPECT_EQ(ExitCode(std::string(FIM_VERIFY_BINARY) + " -s 1 " + flag +
                       quiet),
              2)
        << "fim-verify " << flag;
  }
  EXPECT_EQ(ExitCode(std::string(FIM_STATS_DIFF_BINARY) +
                     " --structure-only" + quiet),
            2);
}

// A tool whose result cannot be written exits 1 and names its output,
// instead of exiting 0 with the result lost. Every write to /dev/full
// fails with ENOSPC, as on a full disk. Returns the input to mine, or ""
// when the device is missing.
// ctest runs the three tools' tests below at once, so each names its
// own files by `tool`.
std::string CannotWriteInput(const std::string& tool) {
  if (!std::filesystem::exists("/dev/full")) return "";
  const std::string data = TempPath("pipeline_full_" + tool + ".fimi");
  if (RunCmd(std::string(FIM_GEN_BINARY) + " -p basket -c 0.1 -r 11 " +
             data + " 2>/dev/null") != 0) {
    ADD_FAILURE() << "fim-gen failed";
  }
  return data;
}

void ExpectCannotWrite(const std::string& tool, const std::string& command) {
  const std::string err = TempPath("pipeline_full_" + tool + ".err");
  EXPECT_EQ(ExitCode(command + " 2>" + err), 1) << command;
  EXPECT_NE(ReadText(err).find("error: cannot write /dev/full"),
            std::string::npos)
      << command << ": " << ReadText(err);
}

TEST(ToolsPipelineTest, MineExitsOneWhenItsResultCannotBeWritten) {
  const std::string data = CannotWriteInput("mine");
  if (data.empty()) GTEST_SKIP() << "no /dev/full";
  const std::string mine = std::string(FIM_MINE_BINARY) + " -q -s 5 ";
  ExpectCannotWrite("mine", mine + data + " /dev/full");
  ExpectCannotWrite("mine", mine + "-m " + data + " /dev/full");
  ExpectCannotWrite("mine", mine + "-t 4 -a lcm " + data + " /dev/full");
}

TEST(ToolsPipelineTest, StreamExitsOneWhenItsResultCannotBeWritten) {
  const std::string data = CannotWriteInput("stream");
  if (data.empty()) GTEST_SKIP() << "no /dev/full";
  const std::string stream = std::string(FIM_STREAM_BINARY) + " -q -s 5 ";
  ExpectCannotWrite("stream", stream + data + " /dev/full");
  ExpectCannotWrite("stream",
                    stream + "--query-every=100 " + data + " /dev/full");
}

TEST(ToolsPipelineTest, RulesExitsOneWhenItsResultCannotBeWritten) {
  const std::string data = CannotWriteInput("rules");
  if (data.empty()) GTEST_SKIP() << "no /dev/full";
  ExpectCannotWrite("rules", std::string(FIM_RULES_BINARY) + " -s 5 " + data +
                                 " /dev/full");
}

}  // namespace
}  // namespace fim
