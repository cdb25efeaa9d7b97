#ifndef FIM_DATA_FIMI_IO_H_
#define FIM_DATA_FIMI_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/transaction_database.h"

namespace fim {

/// ReadFimiFile reads the file in pieces of this size, or of the file's
/// size when that is smaller.
inline constexpr std::size_t kFimiReadChunkBytes = std::size_t{64} << 10;

/// Reads a database in FIMI text format (one transaction per line,
/// whitespace-separated non-negative integer item ids; blank lines and
/// lines starting with '#' are skipped), one chunk at a time through a
/// FimiScanner.
Result<TransactionDatabase> ReadFimiFile(const std::string& path);

/// Parses FIMI text from a string (same format as ReadFimiFile): the whole
/// text is one piece for a FimiScanner.
Result<TransactionDatabase> ParseFimi(std::string_view text);

/// Scans one FIMI line (without its newline) into `items`: the
/// whitespace-separated decimal item ids in file order, unsorted. Returns
/// false with the reason in `error` on any other character or on an id
/// of kInvalidItem or above. Its digit/space rules are FimiScanner's;
/// fim-stream and the result reader scan their lines with it.
bool ParseFimiLine(std::string_view line, std::vector<ItemId>* items,
                   std::string* error);

/// The FIMI loader: takes the text in pieces of any size, split anywhere
/// (a line may run through many pieces), and appends each line's ids
/// straight to the database as one transaction. Errors name their line:
/// "line N: unexpected character 'x'" or "line N: item id out of range".
class FimiScanner {
 public:
  explicit FimiScanner(TransactionDatabase* db) : db_(db) {}

  /// Scans the next piece of the text. After an error, returns it again
  /// and scans nothing more.
  Status Feed(std::string_view piece);

  /// Ends the text, whose last line needs no newline, and shrinks the
  /// database's arrays to fit.
  Status Finish();

 private:
  void EndLine();

  TransactionDatabase* db_;
  Status status_;
  uint64_t line_ = 1;
  bool line_start_ = true;  // no character of the line seen yet
  bool comment_ = false;    // the line starts with '#'
  uint64_t id_ = 0;         // the id a piece ended in, when id_open_
  bool id_open_ = false;
};

/// Writes a database in FIMI text format. Overwrites `path`.
Status WriteFimiFile(const TransactionDatabase& db, const std::string& path);

/// Renders a database as FIMI text (for tests and small outputs).
std::string ToFimiString(const TransactionDatabase& db);

}  // namespace fim

#endif  // FIM_DATA_FIMI_IO_H_
