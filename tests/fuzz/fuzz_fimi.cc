// libFuzzer harness for the FIMI text reader — the parser every tool
// points at user-supplied files. Any input must either parse cleanly or
// come back as a Status. The scanner fed the input in pieces, split at
// offsets derived from the input, must give what one piece gives: the
// same rows, or the same error text. A database that parsed must
// survive the render/re-parse round trip (ToFimiString output is by
// construction valid FIMI).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "data/fimi_io.h"

namespace {

bool SameTable(const fim::TransactionDatabase& a,
               const fim::TransactionDatabase& b) {
  return a.NumItems() == b.NumItems() &&
         std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.items(), b.items());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Parsing is linear, but the round trip below holds the database and
  // two text copies at once; 1 MiB keeps the fuzzer out of OOM land.
  if (size > (size_t{1} << 20)) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  auto db = fim::ParseFimi(text);

  // Pieces of 1 to 16 bytes, their lengths taken from the bytes they
  // start at, so a fuzzer that moves a line also moves the cuts.
  fim::TransactionDatabase pieces;
  fim::FimiScanner scanner(&pieces);
  for (size_t pos = 0; pos < size;) {
    const size_t length = std::min<size_t>(1 + (data[pos] ^ pos) % 16,
                                           size - pos);
    scanner.Feed(text.substr(pos, length));
    pos += length;
  }
  const fim::Status status = scanner.Finish();
  if (status.ok() != db.ok()) __builtin_trap();
  if (!db.ok()) {
    if (status.message() != db.status().message()) __builtin_trap();
    return 0;
  }
  if (!SameTable(pieces, db.value())) __builtin_trap();

  const std::string rendered = fim::ToFimiString(db.value());
  auto again = fim::ParseFimi(rendered);
  if (!again.ok()) __builtin_trap();
  if (!SameTable(again.value(), db.value())) __builtin_trap();
  return 0;
}
