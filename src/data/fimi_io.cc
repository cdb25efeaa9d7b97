#include "data/fimi_io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>

namespace fim {

bool ParseFimiLine(std::string_view line, std::vector<ItemId>* items,
                   std::string* error) {
  items->clear();
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos >= line.size()) break;
    if (!std::isdigit(static_cast<unsigned char>(line[pos]))) {
      *error = "unexpected character '" + std::string(1, line[pos]) + "'";
      return false;
    }
    uint64_t value = 0;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
      value = value * 10 + static_cast<uint64_t>(line[pos] - '0');
      if (value > kInvalidItem - 1) {
        *error = "item id out of range";
        return false;
      }
      ++pos;
    }
    items->push_back(static_cast<ItemId>(value));
  }
  return true;
}

Result<TransactionDatabase> ParseFimi(std::string_view text) {
  TransactionDatabase db;
  std::vector<ItemId> items;
  std::string error;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    ++line_no;
    start = end + 1;
    if (line.empty() || line[0] == '#') {
      if (end == text.size()) break;
      continue;
    }
    if (!ParseFimiLine(line, &items, &error)) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     error);
    }
    db.AddTransaction(items);
    if (end == text.size()) break;
  }
  return db;
}

Result<TransactionDatabase> ReadFimiFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failure on " + path);
  return ParseFimi(buffer.str());
}

std::string ToFimiString(const TransactionDatabase& db) {
  std::string out;
  for (const auto& t : db.transactions()) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(t[i]);
    }
    out += '\n';
  }
  return out;
}

Status WriteFimiFile(const TransactionDatabase& db, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ToFimiString(db);
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

}  // namespace fim
