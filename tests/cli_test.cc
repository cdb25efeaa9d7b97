// End-to-end test of the fim-mine command-line tool, plus the
// unknown-option check every tool shares, on fim-mine and fim-stream
// (paths injected by CMake via FIM_MINE_BINARY and FIM_STREAM_BINARY).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

int RunCli(const std::string& args) {
  const std::string cmd = std::string(FIM_MINE_BINARY) + " " + args;
  return std::system(cmd.c_str());
}

// Runs `command` in `dir` (created if missing), so a file the tool
// writes under a relative name lands there. Returns the exit code.
int ExitCodeIn(const std::string& dir, const std::string& command) {
  std::filesystem::create_directories(dir);
  const int status = std::system(("cd " + dir + " && " + command).c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CliTest, MinesClosedSetsFromFimiFile) {
  const std::string input = TempPath("cli_input.fimi");
  const std::string output = TempPath("cli_output.txt");
  {
    std::ofstream f(input);
    f << "0 1\n0 1\n0 1 2\n2\n";
  }
  ASSERT_EQ(RunCli("-q -s 2 " + input + " " + output), 0);
  const std::string result = ReadFile(output);
  // Closed sets with support >= 2: {0,1} (3) and {2} (2).
  EXPECT_NE(result.find("0 1 (3)"), std::string::npos);
  EXPECT_NE(result.find("2 (2)"), std::string::npos);
}

TEST(CliTest, AllAlgorithmsAgreeOnSetCount) {
  const std::string input = TempPath("cli_input2.fimi");
  {
    std::ofstream f(input);
    f << "0 1 2\n0 3 4\n1 2 3\n0 1 2 3\n1 2\n0 1 3\n3 4\n2 3 4\n";
  }
  std::string first;
  for (const char* alg : {"ista", "carpenter-lists", "carpenter-table",
                          "flat-cumulative", "fpclose", "lcm"}) {
    const std::string output = TempPath(std::string("cli_out_") + alg);
    ASSERT_EQ(RunCli(std::string("-q -a ") + alg + " -s 3 " + input + " " +
                     output),
              0)
        << alg;
    std::string content = ReadFile(output);
    // Normalize: count lines (sets) — order may differ per algorithm.
    const auto count = std::count(content.begin(), content.end(), '\n');
    if (first.empty()) {
      first = std::to_string(count);
    } else {
      EXPECT_EQ(std::to_string(count), first) << alg;
    }
  }
}

TEST(CliTest, PercentSupport) {
  const std::string input = TempPath("cli_input3.fimi");
  const std::string output = TempPath("cli_out3.txt");
  {
    std::ofstream f(input);
    for (int i = 0; i < 10; ++i) f << "0 1\n";
    f << "2\n";
  }
  // 50% of 11 transactions -> min support 6: only {0,1}.
  ASSERT_EQ(RunCli("-q -S 50 " + input + " " + output), 0);
  const std::string result = ReadFile(output);
  EXPECT_NE(result.find("0 1 (10)"), std::string::npos);
  EXPECT_EQ(result.find("2 ("), std::string::npos);
}

TEST(CliTest, MissingInputFails) {
  EXPECT_NE(RunCli("-q /definitely/not/here.fimi"), 0);
}

TEST(CliTest, BadAlgorithmFails) {
  const std::string input = TempPath("cli_input4.fimi");
  {
    std::ofstream f(input);
    f << "0\n";
  }
  EXPECT_NE(RunCli("-q -a nope " + input), 0);
}

// A misspelt flag fails with the usage text and exit code 2 in every
// tool; it must not be taken for the output file name. "-" still names
// stdout.
TEST(CliTest, UnknownOptionFailsWithoutCreatingAFile) {
  const std::string dir = TempPath("cli_unknown_option");
  const std::string input = TempPath("cli_input5.fimi");
  {
    std::ofstream f(input);
    f << "0 1\n0 1\n2\n";
  }
  for (const std::string binary : {FIM_MINE_BINARY, FIM_STREAM_BINARY}) {
    std::filesystem::remove(dir + "/--bogus");
    EXPECT_EQ(ExitCodeIn(dir, binary + " -q -s 2 " + input +
                                  " --bogus 2>/dev/null"),
              2)
        << binary;
    EXPECT_FALSE(std::filesystem::exists(dir + "/--bogus")) << binary;
    EXPECT_EQ(ExitCodeIn(dir, binary + " -q -s 2 " + input + " - >/dev/null"),
              0)
        << binary;
  }
}

// A support that does not fit, or a percentage that is not a number in
// [0, 100], fails with exit code 2 before any mining: it must not wrap
// around or fall back to another support.
void ExpectRejectedWithoutOutput(const std::string& flag) {
  const std::string dir = TempPath("cli_bad_support");
  const std::string input = TempPath("cli_input6.fimi");
  {
    std::ofstream f(input);
    f << "0 1\n0 1\n2\n";
  }
  std::filesystem::remove(dir + "/out.txt");
  EXPECT_EQ(ExitCodeIn(dir, std::string(FIM_MINE_BINARY) + " -q " + flag +
                                " " + input + " out.txt 2>/dev/null"),
            2)
      << flag;
  EXPECT_FALSE(std::filesystem::exists(dir + "/out.txt")) << flag;
}

TEST(CliTest, SupportAboveTheLimitFails) {
  ExpectRejectedWithoutOutput("-s 4294967297");
}

TEST(CliTest, PercentThatIsNotANumberFails) {
  ExpectRejectedWithoutOutput("-S abc");
}

TEST(CliTest, NegativePercentFails) { ExpectRejectedWithoutOutput("-S -5"); }

}  // namespace
