// Unit tests of the FIMB binary database format.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "data/binary_io.h"
#include "data/fimi_io.h"
#include "data/generators.h"

namespace fim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryIoTest, RoundTrip) {
  const TransactionDatabase db = GenerateRandomDense(50, 40, 0.2, 99);
  const std::string path = TempPath("roundtrip.fimb");
  ASSERT_TRUE(WriteBinaryFile(db, path).ok());
  auto back = ReadBinaryFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().transactions(), db.transactions());
  EXPECT_EQ(back.value().NumItems(), db.NumItems());
}

TEST(BinaryIoTest, PreservesDeclaredItemBase) {
  TransactionDatabase db = TransactionDatabase::FromTransactions({{1}});
  db.SetNumItems(100);  // declared larger than any occurring item
  const std::string path = TempPath("itembase.fimb");
  ASSERT_TRUE(WriteBinaryFile(db, path).ok());
  auto back = ReadBinaryFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumItems(), 100u);
}

TEST(BinaryIoTest, RejectsNonBinaryFile) {
  const std::string path = TempPath("not_binary.txt");
  {
    std::ofstream out(path);
    out << "1 2 3\n";
  }
  auto result = ReadBinaryFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {3, 4}});
  const std::string path = TempPath("truncated.fimb");
  ASSERT_TRUE(WriteBinaryFile(db, path).ok());
  // Chop the last bytes off.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_FALSE(ReadBinaryFile(path).ok());
}

// Writes a FIMB file by hand: the header, then `words` (transaction
// lengths and item ids) as raw u32s.
std::string WriteRawFimb(const std::string& name, uint64_t num_items,
                         uint64_t num_transactions,
                         const std::vector<uint32_t>& words) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("FIMB", 4);
  io::WritePod(out, uint32_t{1});
  io::WritePod(out, num_items);
  io::WritePod(out, num_transactions);
  for (uint32_t word : words) io::WritePod(out, word);
  return path;
}

// Header fields the reader cannot hold are rejected before anything is
// sized by them, instead of aborting the process with bad_alloc.
TEST(BinaryIoTest, RejectsHeaderFieldsItCannotHold) {
  // num_items beyond the item-id range.
  auto huge_base = ReadBinaryFile(
      WriteRawFimb("huge_base.fimb", uint64_t{1} << 40, 0, {}));
  ASSERT_FALSE(huge_base.ok());
  EXPECT_EQ(huge_base.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_base.status().message().find("item-id range"),
            std::string::npos)
      << huge_base.status().ToString();
  EXPECT_FALSE(ReadBinaryFile(WriteRawFimb("past_base.fimb",
                                           uint64_t{kInvalidItem} + 1, 0, {}))
                   .ok());
  // The largest base whose ids all lie below kInvalidItem still reads.
  auto widest = ReadBinaryFile(WriteRawFimb("widest_base.fimb",
                                            kInvalidItem, 1, {1, 7}));
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().NumItems(), std::size_t{kInvalidItem});

  // A transaction longer than the item base: 0xFFFFFFF0 items would be
  // a 16 GiB buffer.
  auto long_row = ReadBinaryFile(
      WriteRawFimb("long_row.fimb", 10, 1, {0xFFFFFFF0u, 1, 2}));
  ASSERT_FALSE(long_row.ok());
  EXPECT_EQ(long_row.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(long_row.status().message().find("claims 4294967280 items"),
            std::string::npos)
      << long_row.status().ToString();
  // A transaction longer than the rest of the file, under a base that
  // would admit it.
  auto past_end = ReadBinaryFile(
      WriteRawFimb("past_end.fimb", kInvalidItem, 1, {0xFFFFFFF0u, 1, 2}));
  ASSERT_FALSE(past_end.ok());
  EXPECT_NE(past_end.status().message().find("at most 2 fit"),
            std::string::npos)
      << past_end.status().ToString();
  // Exactly what the file holds still reads.
  auto exact = ReadBinaryFile(
      WriteRawFimb("exact.fimb", 10, 2, {2, 1, 3, 1, 9}));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value().transactions(),
            (std::vector<std::vector<ItemId>>{{1, 3}, {9}}));
}

TEST(BinaryIoTest, AutoDetectDispatch) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 2}, {1, 2}});
  const std::string binary = TempPath("auto.fimb");
  const std::string text = TempPath("auto.fimi");
  ASSERT_TRUE(WriteBinaryFile(db, binary).ok());
  ASSERT_TRUE(WriteFimiFile(db, text).ok());
  auto from_binary = ReadDatabaseFile(binary);
  auto from_text = ReadDatabaseFile(text);
  ASSERT_TRUE(from_binary.ok());
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(from_binary.value().transactions(), db.transactions());
  EXPECT_EQ(from_text.value().transactions(), db.transactions());
}

TEST(BinaryIoTest, MissingFile) {
  EXPECT_EQ(ReadBinaryFile("/no/such.fimb").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadDatabaseFile("/no/such.fimb").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace fim
