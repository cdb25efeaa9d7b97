// Unit tests of the closed-set result serialization.

#include <gtest/gtest.h>

#include "api/miner.h"
#include "data/generators.h"
#include "data/result_io.h"
#include "verify/compare.h"

namespace fim {
namespace {

TEST(ResultIoTest, RenderFormat) {
  const std::vector<ClosedItemset> sets = {{{3, 17, 42}, 57}, {{5}, 9}};
  EXPECT_EQ(ClosedSetsToString(sets), "3 17 42 (57)\n5 (9)\n");
}

TEST(ResultIoTest, ParseBasic) {
  auto parsed = ParseClosedSets("3 17 42 (57)\n# comment\n5 (9)\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].items, (std::vector<ItemId>{3, 17, 42}));
  EXPECT_EQ(parsed.value()[0].support, 57u);
  EXPECT_EQ(parsed.value()[1].items, (std::vector<ItemId>{5}));
}

TEST(ResultIoTest, ParseRejectsMalformed) {
  EXPECT_FALSE(ParseClosedSets("1 2 3\n").ok());        // missing support
  EXPECT_FALSE(ParseClosedSets("1 (x)\n").ok());        // bad support
  EXPECT_FALSE(ParseClosedSets("1 (2) 3\n").ok());      // trailing items
  EXPECT_FALSE(ParseClosedSets("a (2)\n").ok());        // bad item
  EXPECT_FALSE(ParseClosedSets("1 (2\n").ok());         // unclosed paren
  EXPECT_FALSE(ParseClosedSets("1 (2) (3)\n").ok());    // two supports
  EXPECT_FALSE(ParseClosedSets("+1 (2)\n").ok());       // signed item
}

// Item ids and supports are 32-bit: a value past either range is an
// error naming its line, never a wrap-around that passes for another set
// ("4294967296 (3)" for "0 (3)").
TEST(ResultIoTest, ParseRejectsValuesPastTheirRange) {
  auto item = ParseClosedSets("0 1 (2)\n4294967296 (3)\n");
  ASSERT_FALSE(item.ok());
  EXPECT_EQ(item.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(item.status().message(), "line 2: item id out of range");
  auto support = ParseClosedSets("# forged\n0 1 (2)\n0 (4294967299)\n");
  ASSERT_FALSE(support.ok());
  EXPECT_EQ(support.status().message(), "line 3: support out of range");
  EXPECT_FALSE(ParseClosedSets("0 (18446744073709551619)\n").ok());
  // The largest id and the largest support still parse.
  auto widest = ParseClosedSets("4294967294 (4294967295)\n");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value()[0].items, (std::vector<ItemId>{4294967294u}));
  EXPECT_EQ(widest.value()[0].support, 4294967295u);
}

// A set holds an item once: a line that repeats one is an error naming
// the line and the item, not a set with the repeat dropped. Items in
// another order still parse, ascending.
TEST(ResultIoTest, ParseRejectsARepeatedItem) {
  auto repeated = ParseClosedSets("0 1 (2)\n3 0 3 (3)\n");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(repeated.status().message(), "line 2: item 3 repeats");
  EXPECT_EQ(ParseClosedSets("0 0 (3)\n").status().message(),
            "line 1: item 0 repeats");
  auto unordered = ParseClosedSets("7 2 5 (4)\n");
  ASSERT_TRUE(unordered.ok()) << unordered.status().ToString();
  EXPECT_EQ(unordered.value()[0].items, (std::vector<ItemId>{2, 5, 7}));
}

TEST(ResultIoTest, EmptyItemsAllowedOnParse) {
  // "(4)" parses as the empty set with support 4 (tools may emit it for
  // diagnostic purposes); the miners themselves never produce it.
  auto parsed = ParseClosedSets("(4)\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value()[0].items.empty());
}

TEST(ResultIoTest, FileRoundTripOfRealMiningOutput) {
  const TransactionDatabase db = GenerateRandomDense(12, 9, 0.4, 4242);
  MinerOptions options;
  options.min_support = 2;
  auto mined = MineClosedCollect(db, options);
  ASSERT_TRUE(mined.ok());
  const std::string path = ::testing::TempDir() + "/result_roundtrip.txt";
  ASSERT_TRUE(WriteClosedSetsFile(mined.value(), path).ok());
  auto back = ReadClosedSetsFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(SameResults(mined.value(), back.value()))
      << DiffResults(mined.value(), back.value());
}

TEST(ResultIoTest, MissingFile) {
  EXPECT_EQ(ReadClosedSetsFile("/no/file").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace fim
