// Tests of the benchmark sweep harness itself: DNF skipping, per-support
// count agreement, process CPU, CSV output, and flag parsing.

#include <gtest/gtest.h>

#include <fstream>
#include <algorithm>
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

TEST(BenchUtilTest, JsonOutput) {
  const auto point = [](const char* algorithm, double seconds, bool ran) {
    JsonPoint p;
    p.algorithm = algorithm;
    p.min_support = 5;
    p.seconds = seconds;
    p.num_sets = 42;
    p.ran = ran;
    return p;
  };
  std::vector<JsonPoint> points;
  points.push_back(point("ista-1t", 1.25, true));
  points.push_back(point("ista-4t", 0.5, false));
  const std::string path = ::testing::TempDir() + "/sweep.json";
  WriteJson(path, "parallel_ista", 0.5, points);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"bench\": \"parallel_ista\""), std::string::npos);
  EXPECT_NE(json.find("\"scale\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_threads\": "), std::string::npos);
  EXPECT_NE(json.find("{\"algorithm\": \"ista-1t\", \"min_support\": 5, "
                      "\"seconds\": 1.25, \"num_sets\": 42, \"ran\": true}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ran\": false"), std::string::npos);
  // Well-formed: one '[' and one ']', balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), 1);
  EXPECT_EQ(std::count(json.begin(), json.end(), ']'), 1);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(BenchUtilTest, JsonOutputCarriesObservabilityPayloadWhenPresent) {
  std::vector<JsonPoint> points;
  JsonPoint p;
  p.algorithm = "ista-2t";
  p.min_support = 3;
  p.seconds = 0.75;
  p.num_sets = 9;
  p.ran = true;
  p.cpu_seconds = 1.5;
  p.stats.isect_steps = 123;
  p.stats.sets_reported = 9;
  p.has_stats = true;
  points.push_back(p);
  const std::string path = ::testing::TempDir() + "/sweep_stats.json";
  WriteJson(path, "parallel_ista", 1.0, points);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
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
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"algorithm\": \"ista\""), std::string::npos);
}

TEST(BenchUtilTest, ParseBenchArgs) {
  const char* argv[] = {"prog", "--scale=0.5", "--limit=12",
                        "--csv=/tmp/x.csv", "--json=/tmp/x.json", "--junk"};
  BenchArgs args = ParseBenchArgs(6, const_cast<char**>(argv));
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
}

}  // namespace
}  // namespace fim::bench
