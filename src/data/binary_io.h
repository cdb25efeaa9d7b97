#ifndef FIM_DATA_BINARY_IO_H_
#define FIM_DATA_BINARY_IO_H_

#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/status.h"
#include "data/transaction_database.h"

namespace fim::io {

/// Raw little-endian scalar I/O shared by the binary formats (FIMB
/// databases, fim-stream-v2 checkpoints).
/// The library only targets little-endian platforms, so the in-memory
/// representation is the wire representation.
template <typename T>
void WritePod(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value),
            static_cast<std::streamsize>(sizeof(value)));
}

/// Reads one scalar; returns false on a short read (truncated input).
template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value),
          static_cast<std::streamsize>(sizeof(*value)));
  return static_cast<bool>(in);
}

}  // namespace fim::io

namespace fim {

/// Compact binary database format ("FIMB"): parsing FIMI text dominates
/// the load time of the larger synthetic data sets, so the tools can
/// also exchange databases in this format. Layout (little-endian):
///   char[4]  magic "FIMB"
///   u32      version (1)
///   u64      num_items
///   u64      num_transactions
///   per transaction: u32 length, then `length` u32 item ids (ascending)
Status WriteBinaryFile(const TransactionDatabase& db,
                       const std::string& path);

/// Reads a FIMB file; validates magic, version, and item bounds.
Result<TransactionDatabase> ReadBinaryFile(const std::string& path);

/// Reads a database file of either format, dispatching on the magic
/// bytes (FIMB binary, otherwise FIMI text).
Result<TransactionDatabase> ReadDatabaseFile(const std::string& path);

}  // namespace fim

#endif  // FIM_DATA_BINARY_IO_H_
