#ifndef FIM_DATA_FIMI_IO_H_
#define FIM_DATA_FIMI_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/transaction_database.h"

namespace fim {

/// Reads a database in FIMI text format (one transaction per line,
/// whitespace-separated non-negative integer item ids; blank lines and
/// lines starting with '#' are skipped).
Result<TransactionDatabase> ReadFimiFile(const std::string& path);

/// Parses FIMI text from a string (same format as ReadFimiFile).
Result<TransactionDatabase> ParseFimi(std::string_view text);

/// Scans one FIMI line (without its newline) into `items`: the
/// whitespace-separated decimal item ids in file order, unsorted. Returns
/// false with the reason in `error` on any other character or on an id
/// of kInvalidItem or above. The one scanner of FIMI-style lines:
/// ParseFimi, fim-stream and the result reader all use it.
bool ParseFimiLine(std::string_view line, std::vector<ItemId>* items,
                   std::string* error);

/// Writes a database in FIMI text format. Overwrites `path`.
Status WriteFimiFile(const TransactionDatabase& db, const std::string& path);

/// Renders a database as FIMI text (for tests and small outputs).
std::string ToFimiString(const TransactionDatabase& db);

}  // namespace fim

#endif  // FIM_DATA_FIMI_IO_H_
