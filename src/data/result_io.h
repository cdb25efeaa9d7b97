#ifndef FIM_DATA_RESULT_IO_H_
#define FIM_DATA_RESULT_IO_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"

namespace fim {

/// Appends one set in the classic miner output format to `out`: items
/// space-separated, absolute support in parentheses, then a newline:
/// "3 17 42 (57)\n". Every writer of result lines (the functions below,
/// fim-mine and fim-stream) formats through it.
void AppendClosedSet(std::string* out, std::span<const ItemId> items,
                     Support support);

/// Writes mined sets in that format, one set per line.
Status WriteClosedSetsFile(const std::vector<ClosedItemset>& sets,
                           const std::string& path);

/// Renders the same format to a string.
std::string ClosedSetsToString(const std::vector<ClosedItemset>& sets);

/// Parses the format back (for result pipelines and round-trip tests).
/// The items of a line come back ascending; a line that repeats an item
/// is InvalidArgument naming the line and the item.
Result<std::vector<ClosedItemset>> ParseClosedSets(std::string_view text);

/// Reads a result file written by WriteClosedSetsFile / fim-mine.
Result<std::vector<ClosedItemset>> ReadClosedSetsFile(
    const std::string& path);

}  // namespace fim

#endif  // FIM_DATA_RESULT_IO_H_
