// Tests of the benchmark sweep harness itself: DNF skipping, per-support
// count agreement, process CPU, CSV and JSON output, and flag parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "common/timer.h"
#include "data/generators.h"

namespace fim::bench {
namespace {

TEST(BenchUtilTest, RunsAllCellsAndCountsAgree) {
  const TransactionDatabase db = GenerateRandomDense(10, 8, 0.4, 5);
  SweepOptions options;
  options.algorithms = {Algorithm::kIsta, Algorithm::kLcm};
  options.supports = {4, 2, 1};
  options.point_time_limit_seconds = 60.0;
  const SweepResult result = RunSweep(db, options);
  ASSERT_EQ(result.points.size(), 6u);
  for (Support smin : options.supports) {
    const SweepPoint* a = result.Find(Algorithm::kIsta, smin);
    const SweepPoint* b = result.Find(Algorithm::kLcm, smin);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->ran);
    EXPECT_TRUE(b->ran);
    EXPECT_EQ(a->num_sets, b->num_sets) << "smin " << smin;
  }
}

TEST(BenchUtilTest, ZeroBudgetSkipsAfterFirstPoint) {
  const TransactionDatabase db = GenerateRandomDense(10, 8, 0.4, 6);
  SweepOptions options;
  options.algorithms = {Algorithm::kIsta};
  options.supports = {4, 2, 1};
  options.point_time_limit_seconds = 0.0;  // everything exceeds 0 seconds
  const SweepResult result = RunSweep(db, options);
  EXPECT_TRUE(result.Find(Algorithm::kIsta, 4)->ran);
  EXPECT_FALSE(result.Find(Algorithm::kIsta, 2)->ran);
  EXPECT_FALSE(result.Find(Algorithm::kIsta, 1)->ran);
}

TEST(BenchUtilTest, ProcessCpuSecondsCountsWorkerThreads) {
  // A worker's own CPU time is part of the process's, so the process
  // delta around the worker covers it (1 ms of slack for rounding).
  double worker_seconds = 0.0;
  const double before = ProcessCpuSeconds();
  std::thread worker([&worker_seconds] {
    CpuTimer timer;
    while (timer.Seconds() < 0.05) {
    }
    worker_seconds = timer.Seconds();
  });
  worker.join();
  const double process_seconds = ProcessCpuSeconds() - before;
  EXPECT_GE(worker_seconds, 0.05);
  EXPECT_LE(worker_seconds, process_seconds + 0.001);
}

TEST(BenchUtilTest, CsvOutput) {
  const TransactionDatabase db = GenerateRandomDense(6, 5, 0.5, 7);
  SweepOptions options;
  options.algorithms = {Algorithm::kIsta};
  options.supports = {2};
  const SweepResult result = RunSweep(db, options);
  const std::string path = ::testing::TempDir() + "/sweep.csv";
  WriteCsv(path, result);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "algorithm,min_support,seconds,num_sets,ran");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row.rfind("ista,2,", 0), 0u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(BenchUtilTest, JsonOutput) {
  const auto point = [](Algorithm algorithm, double seconds, bool ran) {
    SweepPoint p;
    p.algorithm = algorithm;
    p.min_support = 5;
    p.seconds = seconds;
    p.num_sets = 42;
    p.ran = ran;
    return p;
  };
  SweepResult result;
  result.points.push_back(point(Algorithm::kIsta, 1.25, true));
  result.points.push_back(point(Algorithm::kLcm, 0.5, false));
  const std::string path = ::testing::TempDir() + "/sweep.json";
  WriteJson(path, "mini", 0.5, result);
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"bench\": \"mini\""), std::string::npos);
  EXPECT_NE(json.find("\"scale\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_threads\": "), std::string::npos);
  EXPECT_NE(json.find("{\"algorithm\": \"ista\", \"min_support\": 5, "
                      "\"seconds\": 1.25, \"num_sets\": 42, \"ran\": true"),
            std::string::npos);
  // A skipped point carries no payload.
  EXPECT_NE(json.find("{\"algorithm\": \"lcm\", \"min_support\": 5, "
                      "\"seconds\": 0.5, \"num_sets\": 42, \"ran\": false}"),
            std::string::npos);
  // Well-formed: one '[' and one ']', balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), 1);
  EXPECT_EQ(std::count(json.begin(), json.end(), ']'), 1);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(BenchUtilTest, JsonOutputCarriesObservabilityPayloadWhenPresent) {
  SweepPoint p;
  p.algorithm = Algorithm::kIsta;
  p.min_support = 3;
  p.seconds = 0.75;
  p.num_sets = 9;
  p.ran = true;
  p.cpu_seconds = 1.5;
  p.stats.isect_steps = 123;
  p.stats.sets_reported = 9;
  SweepResult result;
  result.points.push_back(p);
  const std::string path = ::testing::TempDir() + "/sweep_stats.json";
  WriteJson(path, "mini", 1.0, result);
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"peak_rss_bytes\": "), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {\"isect_steps\": 123, "
                      "\"sets_reported\": 9}"),
            std::string::npos);
  // Zero counters stay out of bench reports (they record what happened).
  EXPECT_EQ(json.find("\"prune_calls\""), std::string::npos);
}

TEST(BenchUtilTest, SweepPointsCarryMinerCounters) {
  const TransactionDatabase db = GenerateRandomDense(8, 6, 0.5, 11);
  SweepOptions options;
  options.algorithms = {Algorithm::kIsta};
  options.supports = {2};
  const SweepResult result = RunSweep(db, options);
  const SweepPoint* p = result.Find(Algorithm::kIsta, 2);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->ran);
  EXPECT_EQ(p->stats.sets_reported, p->num_sets);
  EXPECT_GT(p->stats.isect_steps, 0u);
  EXPECT_GE(p->cpu_seconds, 0.0);
}

TEST(BenchUtilTest, JsonOutputFromSweep) {
  const TransactionDatabase db = GenerateRandomDense(6, 5, 0.5, 7);
  SweepOptions options;
  options.algorithms = {Algorithm::kIsta};
  options.supports = {2};
  const SweepResult result = RunSweep(db, options);
  const std::string path = ::testing::TempDir() + "/sweep2.json";
  WriteJson(path, "mini", 1.0, result);
  EXPECT_NE(ReadFile(path).find("\"algorithm\": \"ista\""),
            std::string::npos);
}

TEST(BenchUtilTest, ParseBenchArgs) {
  const char* argv[] = {"prog", "--scale=0.5", "--limit=12",
                        "--csv=/tmp/x.csv", "--json=/tmp/x.json"};
  BenchArgs args = ParseBenchArgs(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.scale, 0.5);
  EXPECT_DOUBLE_EQ(args.limit, 12.0);
  EXPECT_EQ(args.csv_path, "/tmp/x.csv");
  EXPECT_EQ(args.json_path, "/tmp/x.json");

  const char* argv2[] = {"prog", "--full"};
  BenchArgs full = ParseBenchArgs(2, const_cast<char**>(argv2));
  EXPECT_DOUBLE_EQ(full.scale, 1.0);

  BenchArgs defaults = ParseBenchArgs(1, const_cast<char**>(argv2));
  EXPECT_LT(defaults.scale, 0.0);
  EXPECT_LT(defaults.limit, 0.0);
  EXPECT_TRUE(defaults.csv_path.empty());
  EXPECT_TRUE(defaults.json_path.empty());

  // What the benches do not know is a usage error, as in the tools: a
  // misspelt --json must not run a bench that writes no report.
  const auto parse = [](const char* arg) {
    const char* bad_argv[] = {"prog", arg};
    ParseBenchArgs(2, const_cast<char**>(bad_argv));
  };
  EXPECT_EXIT(parse("--junk"), ::testing::ExitedWithCode(2), "--junk");
  EXPECT_EXIT(parse("--jsn=f8.json"), ::testing::ExitedWithCode(2), "--jsn");
  for (const char* bad : {"--scale=abc", "--scale=nan", "--scale=-1",
                          "--limit=1e999", "--limit=5s"}) {
    EXPECT_EXIT(parse(bad), ::testing::ExitedWithCode(2), "") << bad;
  }
}

}  // namespace
}  // namespace fim::bench
