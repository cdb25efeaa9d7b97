#include "data/fimi_io.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace fim {

namespace {

// The digit/space rules of a FIMI line, shared by ParseFimiLine and
// FimiScanner: ids are runs of decimal digits below kInvalidItem,
// separated by whitespace. Scans [p, end) up to the first '\n', resuming
// the id in `*id` when `*open`, and hands every id it completes to
// `push`; an id still open at the stop stays in *id / *open. Returns the
// position of the '\n' (or `end`), or nullptr with the reason in `error`.
template <typename Push>
const char* ScanIds(const char* p, const char* end, uint64_t* id, bool* open,
                    std::string* error, const Push& push) {
  uint64_t value = *id;
  bool in_id = *open;
  for (; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= '0' && c <= '9') {
      value = value * 10 + (c - '0');
      if (value >= kInvalidItem) {
        *error = "item id out of range";
        return nullptr;
      }
      in_id = true;
    } else if (c == ' ' || (c >= '\t' && c <= '\r')) {  // std::isspace
      if (c == '\n') break;
      if (in_id) push(static_cast<ItemId>(value));
      value = 0;
      in_id = false;
    } else {
      *error = "unexpected character '" + std::string(1, *p) + "'";
      return nullptr;
    }
  }
  *id = value;
  *open = in_id;
  return p;
}

}  // namespace

bool ParseFimiLine(std::string_view line, std::vector<ItemId>* items,
                   std::string* error) {
  items->clear();
  const auto push = [items](ItemId id) { items->push_back(id); };
  uint64_t id = 0;
  bool open = false;
  const char* p = line.data();
  const char* const end = p + line.size();
  // A '\n' inside the line separates ids like any other whitespace.
  while ((p = ScanIds(p, end, &id, &open, error, push)) != end) {
    if (p == nullptr) return false;
    if (open) push(static_cast<ItemId>(id));
    id = 0;
    open = false;
    ++p;
  }
  if (open) push(static_cast<ItemId>(id));
  return true;
}

Status FimiScanner::Feed(std::string_view piece) {
  if (!status_.ok()) return status_;
  const char* p = piece.data();
  const char* const end = p + piece.size();
  std::string error;
  while (p != end) {
    if (line_start_) {
      line_start_ = false;
      comment_ = *p == '#';
    }
    if (comment_) {
      p = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (p == nullptr) break;
    } else {
      p = ScanIds(p, end, &id_, &id_open_, &error,
                  [this](ItemId id) { db_->PushItem(id); });
      if (p == nullptr) {
        status_ = Status::InvalidArgument("line " + std::to_string(line_) +
                                          ": " + error);
        break;
      }
      if (p == end) break;
    }
    EndLine();
    ++p;
  }
  return status_;
}

Status FimiScanner::Finish() {
  if (status_.ok() && !line_start_) EndLine();
  if (status_.ok()) db_->ShrinkToFit();
  return status_;
}

void FimiScanner::EndLine() {
  if (id_open_) db_->PushItem(static_cast<ItemId>(id_));
  id_ = 0;
  id_open_ = false;
  db_->EndTransaction();
  ++line_;
  line_start_ = true;
  comment_ = false;
}

Result<TransactionDatabase> ParseFimi(std::string_view text) {
  TransactionDatabase db;
  FimiScanner scanner(&db);
  scanner.Feed(text);
  if (Status status = scanner.Finish(); !status.ok()) return status;
  return db;
}

Result<TransactionDatabase> ReadFimiFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  // No larger than the file, so a small input touches no more memory.
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::vector<char> buffer(
      size_error ? kFimiReadChunkBytes
                 : std::clamp<std::uintmax_t>(size, 1, kFimiReadChunkBytes));
  TransactionDatabase db;
  FimiScanner scanner(&db);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    if (in.bad()) return Status::IoError("read failure on " + path);
    const std::string_view piece(buffer.data(),
                                 static_cast<std::size_t>(in.gcount()));
    if (Status status = scanner.Feed(piece); !status.ok()) return status;
  }
  if (Status status = scanner.Finish(); !status.ok()) return status;
  return db;
}

std::string ToFimiString(const TransactionDatabase& db) {
  std::string out;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::span<const ItemId> t = db.Row(k);
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
