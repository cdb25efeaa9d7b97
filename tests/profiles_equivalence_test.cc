// Integration: all closed-set miners agree on (small instances of) the
// four evaluation-profile data sets — the exact data shapes the paper's
// figures use — with soundness verified against the definition.

#include <gtest/gtest.h>

#include <ostream>

#include "api/miner.h"
#include "data/profiles.h"
#include "verify/closedness.h"
#include "verify/compare.h"

namespace fim {
namespace {

struct ProfileCase {
  const char* name;
  TransactionDatabase (*make)(double, uint64_t);
  double scale;
  Support min_support;
};

// Without a printer gtest shows the case as raw bytes, pointers included,
// so the listed test names would change with every build's load address.
void PrintTo(const ProfileCase& c, std::ostream* os) { *os << c.name; }

class ProfileEquivalenceTest : public ::testing::TestWithParam<ProfileCase> {
};

TEST_P(ProfileEquivalenceTest, AllMinersAgreeAndAreSound) {
  const ProfileCase& c = GetParam();
  const TransactionDatabase db = c.make(c.scale, 7);

  MinerOptions reference;
  reference.algorithm = Algorithm::kIsta;
  reference.min_support = c.min_support;
  auto expected = MineClosedCollect(db, reference);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected.value().empty()) << "degenerate test case";
  ASSERT_TRUE(
      VerifyClosedSets(db, expected.value(), c.min_support).ok());

  for (Algorithm algorithm : AllAlgorithms()) {
    if (algorithm == Algorithm::kIsta) continue;
    MinerOptions options;
    options.algorithm = algorithm;
    options.min_support = c.min_support;
    auto mined = MineClosedCollect(db, options);
    ASSERT_TRUE(mined.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(SameResults(expected.value(), mined.value()))
        << c.name << " / " << AlgorithmName(algorithm) << "\n"
        << DiffResults(expected.value(), mined.value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProfileEquivalenceTest,
    ::testing::Values(
        ProfileCase{"yeast", &MakeYeastLike, 0.02, 8},
        ProfileCase{"ncbi60", &MakeNcbi60Like, 0.05, 62},
        ProfileCase{"thrombin", &MakeThrombinLike, 0.01, 30},
        ProfileCase{"webview", &MakeWebviewLike, 0.01, 2}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
}  // namespace fim
