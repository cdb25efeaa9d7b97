#include "data/result_io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "data/fimi_io.h"

namespace fim {

std::string ClosedSetsToString(const std::vector<ClosedItemset>& sets) {
  std::string out;
  for (const auto& set : sets) {
    for (std::size_t i = 0; i < set.items.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(set.items[i]);
    }
    out += " (";
    out += std::to_string(set.support);
    out += ")\n";
  }
  return out;
}

Status WriteClosedSetsFile(const std::vector<ClosedItemset>& sets,
                           const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ClosedSetsToString(sets);
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

namespace {

// Parses "3 17 42 (57)": the items are a FIMI line, scanned by
// ParseFimiLine; the support is a decimal count in parentheses, and
// nothing but whitespace may follow it.
bool ParseLine(std::string_view line, ClosedItemset* set,
               std::string* error) {
  const std::size_t open = line.find('(');
  if (!ParseFimiLine(line.substr(0, open), &set->items, error)) return false;
  if (open == std::string_view::npos) {
    *error = "missing support";
    return false;
  }
  const std::size_t digits_begin = open + 1;
  std::size_t pos = digits_begin;
  uint64_t value = 0;
  while (pos < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[pos]))) {
    value = value * 10 + static_cast<uint64_t>(line[pos] - '0');
    if (value > std::numeric_limits<Support>::max()) {
      *error = "support out of range";
      return false;
    }
    ++pos;
  }
  if (pos == digits_begin || pos >= line.size() || line[pos] != ')') {
    *error = "malformed support";
    return false;
  }
  if (line.find_first_not_of(" \t\n\v\f\r", pos + 1) !=
      std::string_view::npos) {
    *error = "text after the support";
    return false;
  }
  set->support = static_cast<Support>(value);
  NormalizeItems(&set->items);
  return true;
}

}  // namespace

Result<std::vector<ClosedItemset>> ParseClosedSets(std::string_view text) {
  std::vector<ClosedItemset> sets;
  std::string error;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    ++line_no;
    const bool last = end == text.size();
    start = end + 1;
    if (!line.empty() && line[0] != '#') {
      ClosedItemset set;
      if (!ParseLine(line, &set, &error)) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": " + error);
      }
      sets.push_back(std::move(set));
    }
    if (last) break;
  }
  return sets;
}

Result<std::vector<ClosedItemset>> ReadClosedSetsFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failure on " + path);
  return ParseClosedSets(buffer.str());
}

}  // namespace fim
