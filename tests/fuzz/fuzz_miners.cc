// libFuzzer harness that checks the miners against the subset-intersection
// oracle (verify/oracle.h). The bytes decode into a small database, with
// repeated rows common, and a minimum support:
//
//   byte 0     the minimum support, 1 + byte % 6
//   byte 1     the number of items, 1 + byte % 12
//   then rows  a byte with its top bit set copies an earlier row (its low
//              seven bits modulo the rows so far); any other byte gives
//              the row's item mask: its low four bits, then the next byte
//
// up to the oracle's 16 rows. Every miner must report exactly the
// oracle's sets: all seven algorithms, over the database and over the
// database cut into one, two and three folded tables, IsTa at 4 threads,
// and a landmark stream miner queried after a checkpoint round trip. Then
// the database written twice, mined at twice the support, must give the
// same sets with doubled supports. A mismatch traps.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "api/miner.h"
#include "stream/stream_miner.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace {

using fim::ClosedItemset;

void Require(bool condition) {
  if (!condition) __builtin_trap();
}

void RequireSame(const fim::Result<std::vector<ClosedItemset>>& mined,
                 const std::vector<ClosedItemset>& expected) {
  Require(mined.ok() && fim::SameResults(expected, mined.value()));
}

// The transactions of `db` cut into `parts` consecutive runs, each
// folded into one table of weighted input rows.
std::vector<fim::WeightedTransactions> FoldedParts(
    const fim::TransactionDatabase& db, std::size_t parts) {
  const auto& transactions = db.transactions();
  std::vector<fim::WeightedTransactions> tables;
  for (std::size_t p = 0; p < parts; ++p) {
    const fim::TransactionDatabase part =
        fim::TransactionDatabase::FromTransactions(
            {transactions.begin() + p * transactions.size() / parts,
             transactions.begin() + (p + 1) * transactions.size() / parts},
            db.NumItems());
    tables.push_back(std::move(fim::FoldRows(part).front()));
  }
  return tables;
}

// Every batch miner over `db` and over its folded tables, and IsTa at 4
// threads, on `db` at `min_support`.
void RequireMinersAgree(const fim::TransactionDatabase& db,
                        fim::Support min_support,
                        const std::vector<ClosedItemset>& expected) {
  std::vector<std::vector<fim::WeightedTransactions>> splits;
  for (std::size_t parts : {1u, 2u, 3u}) {
    splits.push_back(FoldedParts(db, parts));
  }
  fim::MinerOptions options;
  options.min_support = min_support;
  for (fim::Algorithm algorithm : fim::AllAlgorithms()) {
    options.algorithm = algorithm;
    RequireSame(fim::MineClosedCollect(db, options), expected);
    for (const auto& tables : splits) {
      std::vector<const fim::WeightedTransactions*> pointers;
      for (const auto& table : tables) pointers.push_back(&table);
      fim::ClosedSetCollector collector;
      Require(fim::MineClosed(pointers, db.NumItems(), options,
                              collector.AsCallback())
                  .ok());
      Require(fim::SameResults(expected, collector.TakeSets()));
    }
  }
  options.algorithm = fim::Algorithm::kIsta;
  options.num_threads = 4;
  RequireSame(fim::MineClosedCollect(db, options), expected);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  const fim::Support min_support = 1 + data[0] % 6;
  const std::size_t num_items = 1 + data[1] % 12;
  std::vector<std::vector<fim::ItemId>> rows;
  for (size_t i = 2;
       i < size && rows.size() < fim::kOracleMaxTransactions; ++i) {
    if ((data[i] & 0x80) != 0 && !rows.empty()) {
      rows.push_back(rows[(data[i] & 0x7f) % rows.size()]);
      continue;
    }
    if (i + 1 == size) break;
    const unsigned mask = (data[i] & 0x0f) << 8 | data[i + 1];
    ++i;
    std::vector<fim::ItemId> row;
    for (std::size_t item = 0; item < num_items; ++item) {
      if ((mask >> item & 1) != 0) row.push_back(item);
    }
    if (!row.empty()) rows.push_back(std::move(row));
  }
  const fim::TransactionDatabase db =
      fim::TransactionDatabase::FromTransactions(rows, num_items);
  auto oracle = fim::OracleClosedSets(db, min_support);
  Require(oracle.ok());
  RequireMinersAgree(db, min_support, oracle.value());

  fim::StreamMinerOptions landmark;
  landmark.max_items = num_items;
  fim::StreamMiner stream(landmark);
  for (const auto& row : db.transactions()) {
    Require(stream.AddTransaction(row).ok());
  }
  std::stringstream checkpoint;
  Require(stream.CheckpointTo(checkpoint).ok());
  auto restored = fim::StreamMiner::RestoreFrom(checkpoint);
  Require(restored.ok());
  RequireSame(restored.value()->QueryCollect(min_support), oracle.value());

  const std::vector<std::vector<fim::ItemId>> once = db.transactions();
  std::vector<std::vector<fim::ItemId>> twice = once;
  twice.insert(twice.end(), once.begin(), once.end());
  std::vector<ClosedItemset> doubled = oracle.value();
  for (ClosedItemset& set : doubled) set.support *= 2;
  RequireMinersAgree(
      fim::TransactionDatabase::FromTransactions(twice, num_items),
      2 * min_support, doubled);
  return 0;
}
