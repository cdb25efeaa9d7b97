// Unit tests of the database loaders: ReadFimiFile over files larger
// than one read chunk, FimiScanner fed in pieces of any size, the FIMI
// line rules every piece size keeps, and the FIMB round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/binary_io.h"
#include "data/fimi_io.h"

namespace fim {
namespace {

std::string WriteTemp(const std::string& name, std::string_view bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

// The flat tables and the item bases of two databases are equal.
void ExpectSameDatabase(const TransactionDatabase& actual,
                        const TransactionDatabase& expected) {
  EXPECT_EQ(actual.NumItems(), expected.NumItems());
  EXPECT_TRUE(std::ranges::equal(actual.offsets(), expected.offsets()));
  EXPECT_TRUE(std::ranges::equal(actual.items(), expected.items()));
}

// Feeds `text` to a FimiScanner in pieces of `piece` bytes.
Result<TransactionDatabase> ScanInPieces(std::string_view text,
                                         std::size_t piece) {
  TransactionDatabase db;
  FimiScanner scanner(&db);
  for (std::size_t pos = 0; pos < text.size(); pos += piece) {
    scanner.Feed(text.substr(pos, piece));
  }
  if (Status status = scanner.Finish(); !status.ok()) return status;
  return db;
}

// `text` loads to `expected` from a file, in one piece and in pieces of
// several sizes.
void ExpectLoads(const std::string& name, std::string_view text,
                 const TransactionDatabase& expected) {
  auto read = ReadFimiFile(WriteTemp(name, text));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameDatabase(read.value(), expected);
  auto parsed = ParseFimi(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameDatabase(parsed.value(), expected);
  for (std::size_t piece : {1u, 2u, 3u, 7u, 64u}) {
    auto scanned = ScanInPieces(text, piece);
    ASSERT_TRUE(scanned.ok()) << piece << ": " << scanned.status().ToString();
    ExpectSameDatabase(scanned.value(), expected);
  }
}

// `text` fails to load with `message`, from a file, in one piece and in
// pieces of several sizes.
void ExpectFails(const std::string& name, std::string_view text,
                 const std::string& message) {
  auto read = ReadFimiFile(WriteTemp(name, text));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(read.status().message(), message);
  auto parsed = ParseFimi(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), message);
  for (std::size_t piece : {1u, 5u, 4096u}) {
    auto scanned = ScanInPieces(text, piece);
    ASSERT_FALSE(scanned.ok()) << piece;
    EXPECT_EQ(scanned.status().message(), message) << piece;
  }
}

// Appends `row` to `text` as one line, ids separated by `separator`.
void AppendLine(std::string* text, const std::vector<ItemId>& row,
                const char* separator = " ", const char* ending = "\n") {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) *text += separator;
    *text += std::to_string(row[i]);
  }
  *text += ending;
}

TEST(FimiLoaderTest, ReadsRowsAcrossChunkBoundaries) {
  std::string text;
  std::vector<std::vector<ItemId>> rows;
  // Short rows, then a comment that ends three bytes before the first
  // chunk boundary, so the first id of the next row straddles it.
  for (ItemId k = 0; text.size() + 40 < kFimiReadChunkBytes; ++k) {
    rows.push_back({k % 7, 10 + k % 13});
    AppendLine(&text, rows.back());
  }
  text += '#' + std::string(kFimiReadChunkBytes - 3 - text.size() - 2, 'x');
  text += '\n';
  ASSERT_EQ(text.size(), kFimiReadChunkBytes - 3);
  rows.push_back({678, 12345});
  text += "12345 678\n";
  // A line longer than a whole chunk, in descending order.
  std::vector<ItemId> long_row;
  for (ItemId i = 30000; i > 0; --i) long_row.push_back(i);
  AppendLine(&text, long_row);
  std::reverse(long_row.begin(), long_row.end());
  rows.push_back(long_row);
  ASSERT_GT(text.size(), 3 * kFimiReadChunkBytes);
  // The last line has no newline.
  rows.push_back({2, 4});
  text += "4 2";

  const TransactionDatabase expected =
      TransactionDatabase::FromTransactions(rows);
  ExpectLoads("chunks.fimi", text, expected);
  EXPECT_EQ(expected.Row(rows.size() - 3).size(), 2u);
  EXPECT_EQ(expected.NumItems(), 30001u);
}

TEST(FimiLoaderTest, LineEndingsCommentsAndBlankLines) {
  // CRLF endings, '#' and blank lines, whitespace-only lines (dropped:
  // no empty transaction is kept), tabs, and no final newline.
  const std::string text =
      "1 2\r\n\r\n# comment 9 9\r\n \t \r\n\n3\t4  \r\n#\n\v\f\n7 5";
  ExpectLoads("line_rules.fimi", text,
              TransactionDatabase::FromTransactions({{1, 2}, {3, 4}, {5, 7}}));
  for (const std::string empty : {"", "\n", "\r\n\r\n", "# only", " \t"}) {
    ExpectLoads("empty.fimi", empty, TransactionDatabase());
  }
}

TEST(FimiLoaderTest, UnsortedAndRepeatedIdsAreNormalized) {
  const TransactionDatabase expected =
      TransactionDatabase::FromTransactions({{1, 3, 5}, {2}, {8, 9}, {0, 4}});
  ExpectLoads("unsorted.fimi", "5 3 5 1\n2 2 2\n9 8\n0 4\n", expected);
  EXPECT_EQ(expected.Row(0).size(), 3u);
  EXPECT_EQ(expected.TotalItemOccurrences(), 8u);
}

TEST(FimiLoaderTest, ErrorsAfterTheFirstChunkNameTheirLine) {
  // Comment, blank and whitespace-only lines count as lines too.
  std::string text;
  std::size_t lines = 0;
  while (text.size() < 2 * kFimiReadChunkBytes) {
    text += "1 22 333\n# 1\n\n \r\n";
    lines += 4;
  }
  // The largest id below kInvalidItem loads; kInvalidItem does not.
  const std::string largest = std::to_string(kInvalidItem - 1);
  auto widest = ParseFimi(text + largest + "\n");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().NumItems(), std::size_t{kInvalidItem});
  const std::string at_line = "line " + std::to_string(lines + 1) + ": ";
  ExpectFails("invalid_item.fimi",
              text + "7 " + std::to_string(kInvalidItem) + " 8\n1\n",
              at_line + "item id out of range");
  ExpectFails("long_item.fimi", text + "99999999999999999999999",
              at_line + "item id out of range");
  ExpectFails("bad_char.fimi", text + "4 5x\n", at_line +
                                                    "unexpected character 'x'");
  ExpectFails("inner_hash.fimi", text + "4 #5\n",
              at_line + "unexpected character '#'");
}

TEST(FimiLoaderTest, ReadFimiFileEqualsParseFimi) {
  // Rows of every length from 0 to 40, ids in varying order and widths,
  // with CRLF and LF endings, over several chunks.
  std::string text;
  uint64_t state = 7;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<ItemId>(state >> 40);
  };
  while (text.size() < 5 * kFimiReadChunkBytes / 2) {
    std::vector<ItemId> row(next() % 41);
    for (ItemId& item : row) item = next() % (1u << (next() % 20));
    const char* separator = next() % 4 == 0 ? "\t " : " ";
    AppendLine(&text, row, separator, next() % 5 == 0 ? "\r\n" : "\n");
  }
  auto parsed = ParseFimi(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GT(parsed.value().NumTransactions(), 1000u);
  ExpectLoads("random.fimi", text, parsed.value());
}

TEST(FimiLoaderTest, FimbRoundTripKeepsTheFlatTable) {
  std::string text;
  for (ItemId k = 0; k < 5000; ++k) {
    AppendLine(&text, {k % 97, 100 + k % 31, k % 11});
  }
  auto db = ParseFimi(text);
  ASSERT_TRUE(db.ok());
  const std::string path = ::testing::TempDir() + "/roundtrip_flat.fimb";
  ASSERT_TRUE(WriteBinaryFile(db.value(), path).ok());
  auto back = ReadBinaryFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameDatabase(back.value(), db.value());
  auto dispatched = ReadDatabaseFile(path);
  ASSERT_TRUE(dispatched.ok());
  ExpectSameDatabase(dispatched.value(), db.value());
}

TEST(FimiLoaderTest, FimbCountsPastTheFileFailBeforeAllocating) {
  // 2^40 transactions in a file that holds none: the reader sizes
  // nothing by the header and fails at the first missing row.
  std::string bytes = "FIMB";
  auto put = [&bytes](auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint32_t{1});
  put(uint64_t{10});
  put(uint64_t{1} << 40);
  auto result = ReadBinaryFile(WriteTemp("huge_count.fimb", bytes));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "truncated FIMB transaction header");
}

}  // namespace
}  // namespace fim
