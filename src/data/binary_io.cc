#include "data/binary_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

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
  for (const auto& t : db.transactions()) {
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

  TransactionDatabase db;
  std::vector<ItemId> items;
  for (uint64_t k = 0; k < num_transactions; ++k) {
    uint32_t length = 0;
    if (bytes_left < sizeof(length) || !ReadPod(in, &length)) {
      return Status::InvalidArgument("truncated FIMB transaction header");
    }
    bytes_left -= sizeof(length);
    if (length > num_items || length * sizeof(ItemId) > bytes_left) {
      return Status::InvalidArgument(
          "FIMB transaction " + std::to_string(k) + " claims " +
          std::to_string(length) + " items; at most " +
          std::to_string(std::min<uint64_t>(num_items,
                                            bytes_left / sizeof(ItemId))) +
          " fit the item base and the file");
    }
    bytes_left -= length * sizeof(ItemId);
    items.resize(length);
    in.read(reinterpret_cast<char*>(items.data()),
            static_cast<std::streamsize>(length * sizeof(ItemId)));
    if (!in) return Status::InvalidArgument("truncated FIMB transaction");
    for (ItemId i : items) {
      if (i >= num_items) {
        return Status::InvalidArgument("FIMB item id out of bounds");
      }
    }
    db.AddTransaction(items);
  }
  db.SetNumItems(static_cast<std::size_t>(num_items));
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
