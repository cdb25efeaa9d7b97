// Seed-corpus generator for the fuzz harnesses. Binary seeds (the
// fim-stream-v2 checkpoints) are produced from the live serializer at
// build time instead of being checked in, so the corpora track format
// changes automatically; the text FIMI seeds live in
// tests/fuzz/corpus/fimi/ under version control. Usage:
//
//   fuzz_make_seeds <output-dir>
//
// creates <output-dir>/{fimi,stream,miners}/ and fills each with a
// handful of valid blobs, the loaders' ones plus a truncated and a
// bit-flipped variant (the loaders must reject those cleanly, and the
// mutants give the fuzzer a head start on the interesting error paths).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/fimi_io.h"
#include "data/transaction_database.h"
#include "stream/stream_miner.h"

namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  FIM_CHECK(out.good()) << "cannot create seed " << (dir / name).string();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FIM_CHECK(out.good()) << "short write for seed " << (dir / name).string();
}

// Valid blob plus the two canonical mutants every loader must survive.
void WriteSeedFamily(const std::filesystem::path& dir, const std::string& stem,
                     const std::string& bytes) {
  WriteSeed(dir, stem + ".bin", bytes);
  if (bytes.size() > 8)
    WriteSeed(dir, stem + "_truncated.bin", bytes.substr(0, bytes.size() / 2));
  if (!bytes.empty()) {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(flipped[flipped.size() / 2]) ^ 0x5a);
    WriteSeed(dir, stem + "_bitflip.bin", flipped);
  }
}

// The example stream from the paper-derived tests: small, with
// overlapping itemsets and rows that repeat both next to each other and
// far apart, so the checkpointed panes hold rows of weight > 1.
const std::vector<std::vector<fim::ItemId>>& SampleTransactions() {
  static const std::vector<std::vector<fim::ItemId>> kTransactions = {
      {0, 1, 2}, {0, 1, 2}, {1, 2, 3}, {0, 2, 3, 4}, {4},
      {0, 1},    {2, 3},    {0, 1, 2}, {0, 1, 2, 3, 4},
  };
  return kTransactions;
}

// A fuzz_miners input: the support and item-count bytes, then each row as
// a copy marker when an earlier row equals it, else as its item mask.
std::string MinerSeed(int min_support, int num_items,
                      const std::vector<std::vector<fim::ItemId>>& rows) {
  std::string bytes = {static_cast<char>(min_support - 1),
                       static_cast<char>(num_items - 1)};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::size_t earlier = 0;
    while (earlier < r && rows[earlier] != rows[r]) ++earlier;
    if (earlier < r) {
      bytes += static_cast<char>(0x80 | earlier);
      continue;
    }
    unsigned mask = 0;
    for (fim::ItemId item : rows[r]) mask |= 1u << item;
    bytes += static_cast<char>(mask >> 8);
    bytes += static_cast<char>(mask & 0xff);
  }
  return bytes;
}

std::string StreamCheckpoint(std::size_t pane_size, std::size_t window_panes) {
  fim::StreamMinerOptions options;
  options.max_items = 8;
  options.pane_size = pane_size;
  options.window_panes = window_panes;
  fim::StreamMiner miner(options);
  for (const auto& txn : SampleTransactions())
    FIM_CHECK(miner.AddTransaction(txn).ok());
  std::ostringstream out;
  FIM_CHECK(miner.CheckpointTo(out).ok());
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path fimi_dir = root / "fimi";
  const std::filesystem::path stream_dir = root / "stream";
  const std::filesystem::path miners_dir = root / "miners";
  std::filesystem::create_directories(fimi_dir);
  std::filesystem::create_directories(stream_dir);
  std::filesystem::create_directories(miners_dir);

  // FIMI: render the sample database through the real writer (the
  // checked-in corpus under tests/fuzz/corpus/fimi/ covers the
  // hand-written edge cases; this one tracks the writer).
  fim::TransactionDatabase db;
  for (const auto& txn : SampleTransactions()) db.AddTransaction(txn);
  WriteSeed(fimi_dir, "sample.fimi", fim::ToFimiString(db));

  // Miners: small databases whose rows repeat next to each other and
  // far apart, at supports that keep some sets and drop others.
  for (int min_support : {2, 3}) {
    WriteSeed(miners_dir, "sample_s" + std::to_string(min_support) + ".bin",
              MinerSeed(min_support, 5, SampleTransactions()));
  }
  WriteSeed(miners_dir, "runs_s4.bin",
            MinerSeed(4, 12,
                      {{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {4, 5, 6},
                       {4, 5, 6}, {0, 1, 4, 5, 11}, {0, 1, 2, 3}, {2, 3, 6},
                       {2, 3, 6}, {7, 8, 9, 10, 11}, {7, 8, 9, 10, 11},
                       {0, 7}, {1, 2, 3, 8}, {4, 5, 6}}));
  WriteSeed(miners_dir, "nested_s1.bin",
            MinerSeed(1, 6,
                      {{0}, {0, 1}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {0, 1},
                       {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5}, {0}, {5}}));

  WriteSeedFamily(stream_dir, "stream_landmark", StreamCheckpoint(0, 0));
  WriteSeedFamily(stream_dir, "stream_window", StreamCheckpoint(4, 3));

  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
