#include "data/binary_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "data/fimi_io.h"

namespace fim {

namespace {

constexpr char kMagic[4] = {'F', 'I', 'M', 'B'};
constexpr uint32_t kVersion = 1;

using io::ReadPod;
using io::WritePod;

}  // namespace

Status WriteBinaryFile(const TransactionDatabase& db,
                       const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(db.NumItems()));
  WritePod(out, static_cast<uint64_t>(db.NumTransactions()));
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::span<const ItemId> t = db.Row(k);
    WritePod(out, static_cast<uint32_t>(t.size()));
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(ItemId)));
  }
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Result<TransactionDatabase> ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a FIMB file");
  }
  uint32_t version = 0;
  uint64_t num_items = 0;
  uint64_t num_transactions = 0;
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported FIMB version");
  }
  if (!ReadPod(in, &num_items) || !ReadPod(in, &num_transactions)) {
    return Status::InvalidArgument("truncated FIMB header");
  }
  // Item ids lie below kInvalidItem, as in ParseFimi.
  if (num_items > kInvalidItem) {
    return Status::InvalidArgument("FIMB num_items " +
                                   std::to_string(num_items) +
                                   " beyond the item-id range");
  }
  // The header's counts are checked against the bytes the file holds
  // before anything is sized by them.
  const std::streamoff body_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(body_begin);
  if (!in || body_begin < 0 || file_end < body_begin) {
    return Status::IoError("cannot determine the size of " + path);
  }
  uint64_t bytes_left = static_cast<uint64_t>(file_end - body_begin);

  // The body is a run of u32 words (each row's length, then its ids),
  // read in pieces of kFimiReadChunkBytes, a whole number of words, or
  // less for a smaller body; a row may straddle pieces. Each id goes
  // straight into the database.
  static_assert(kFimiReadChunkBytes % sizeof(uint32_t) == 0);
  std::vector<uint32_t> words(static_cast<std::size_t>(
      std::clamp<uint64_t>((bytes_left + 3) / sizeof(uint32_t), 1,
                           kFimiReadChunkBytes / sizeof(uint32_t))));
  TransactionDatabase db;
  uint64_t k = 0;         // rows read
  uint64_t ids_left = 0;  // ids of row k still to read
  bool in_row = false;    // row k's length has been read
  while (k < num_transactions) {
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(uint32_t)));
    if (in.bad()) return Status::IoError("read failure on " + path);
    const std::size_t num_words =
        static_cast<std::size_t>(in.gcount()) / sizeof(uint32_t);
    for (std::size_t p = 0; p < num_words && k < num_transactions;) {
      if (!in_row) {
        const uint32_t length = words[p++];
        if (bytes_left < sizeof(length)) {
          return Status::InvalidArgument("truncated FIMB transaction header");
        }
        bytes_left -= sizeof(length);
        if (length > num_items || length * sizeof(ItemId) > bytes_left) {
          return Status::InvalidArgument(
              "FIMB transaction " + std::to_string(k) + " claims " +
              std::to_string(length) + " items; at most " +
              std::to_string(std::min<uint64_t>(
                  num_items, bytes_left / sizeof(ItemId))) +
              " fit the item base and the file");
        }
        bytes_left -= length * sizeof(ItemId);
        ids_left = length;
        in_row = true;
      }
      const std::size_t take = static_cast<std::size_t>(
          std::min<uint64_t>(ids_left, num_words - p));
      for (const uint32_t id : std::span(words).subspan(p, take)) {
        if (id >= num_items) {
          return Status::InvalidArgument("FIMB item id out of bounds");
        }
        db.PushItem(id);
      }
      p += take;
      ids_left -= take;
      if (ids_left == 0) {
        db.EndTransaction();
        ++k;
        in_row = false;
      }
    }
    if (!in) break;  // a short read: the end of the file
  }
  if (k < num_transactions) {
    return Status::InvalidArgument(in_row
                                       ? "truncated FIMB transaction"
                                       : "truncated FIMB transaction header");
  }
  db.SetNumItems(static_cast<std::size_t>(num_items));
  db.ShrinkToFit();
  return db;
}

Result<TransactionDatabase> ReadDatabaseFile(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return Status::IoError("cannot open " + path);
  char magic[4] = {0, 0, 0, 0};
  probe.read(magic, sizeof(magic));
  probe.close();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
    return ReadBinaryFile(path);
  }
  return ReadFimiFile(path);
}

}  // namespace fim
