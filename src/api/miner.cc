#include "api/miner.h"

#include <algorithm>

#include "obs/memory.h"
#include "obs/timeline.h"

#include "carpenter/carpenter.h"
#include "cumulative/flat_cumulative.h"
#include "enumeration/charm.h"
#include "enumeration/fpclose.h"
#include "enumeration/lcm.h"
#include "ista/ista.h"

namespace fim {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kIsta:
      return "ista";
    case Algorithm::kCarpenterLists:
      return "carpenter-lists";
    case Algorithm::kCarpenterTable:
      return "carpenter-table";
    case Algorithm::kFlatCumulative:
      return "flat-cumulative";
    case Algorithm::kFpClose:
      return "fpclose";
    case Algorithm::kLcm:
      return "lcm";
    case Algorithm::kCharm:
      return "charm";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(std::string_view name) {
  for (Algorithm algorithm : AllAlgorithms()) {
    if (name == AlgorithmName(algorithm)) return algorithm;
  }
  return Status::NotFound("unknown algorithm '" + std::string(name) + "'");
}

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm>& all = *new std::vector<Algorithm>{
      Algorithm::kIsta,          Algorithm::kCarpenterLists,
      Algorithm::kCarpenterTable, Algorithm::kFlatCumulative,
      Algorithm::kFpClose,       Algorithm::kLcm,
      Algorithm::kCharm,
  };
  return all;
}

namespace {

/// The signature every miner's core shares: mine the weighted stream
/// `rows` over the item codes [0, num_items) and report through
/// `callback`, which decodes the sets to input item ids.
using MinerCore = void (*)(WeightedTransactions rows, std::size_t num_items,
                           const MinerOptions& options,
                           const ClosedSetCallback& callback,
                           MinerStats* stats, obs::Trace* trace);

/// How an algorithm's weighted stream is built, and the core that mines
/// it (docs/ALGORITHMS.md gives the reasons for each order). A database's
/// transactions are folded under FoldFor(transaction_order) in one chunk
/// per thread, or with `fold_by_hash` by hash in one chunk, which keeps
/// the order of first occurrence; RecodeTables then builds the rows in
/// one pass.
struct Recipe {
  MinerCore core;
  ItemOrder item_order;
  bool drop_infrequent;  // the items below min_support, up front (§3.2)
  TransactionOrder transaction_order;
  bool fold_by_hash;

  Support min_item_support(const MinerOptions& options) const {
    return drop_infrequent ? options.min_support : 1;
  }
};

/// The checks both entry points make before any work, and the reset of
/// `*stats`: the recipe of `options`, or InvalidArgument for a support of
/// 0 or an unknown algorithm.
Result<Recipe> Prepare(const MinerOptions& options, MinerStats* stats) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (stats != nullptr) *stats = MinerStats{};
  const ItemOrder item_order = options.item_order;
  const bool elimination = options.item_elimination;
  const TransactionOrder order = options.transaction_order;
  switch (options.algorithm) {
    case Algorithm::kIsta:
      return Recipe{MineIsta, item_order, elimination, order, false};
    case Algorithm::kCarpenterTable:
      return Recipe{MineCarpenterTable, item_order, elimination, order, false};
    case Algorithm::kCarpenterLists:
      return Recipe{MineCarpenterLists, item_order, elimination, order, false};
    case Algorithm::kFlatCumulative:
      return Recipe{MineFlatCumulative, ItemOrder::kNone, elimination, order,
                    false};
    case Algorithm::kLcm:
      return Recipe{MineLcm, ItemOrder::kFrequencyDescending, true,
                    TransactionOrder::kSizeAscending, false};
    case Algorithm::kCharm:
      return Recipe{MineCharm, ItemOrder::kFrequencyAscending, true,
                    TransactionOrder::kNone, true};
    case Algorithm::kFpClose:
      return Recipe{MineFpClose, ItemOrder::kFrequencyDescending, true,
                    TransactionOrder::kNone, true};
  }
  return Status::InvalidArgument("unknown algorithm");
}

obs::TimelineLane* DriverLane(const MinerOptions& options) {
  return options.timeline != nullptr ? options.timeline->driver() : nullptr;
}

/// The input stage both entry points share once the input is folded into
/// tables of weighted raw rows: the item codes from the tables' weighted
/// item counts (span "recode"), then the rows mapped, folded and ordered
/// (span "dedup").
WeightedTransactions RecodeRows(
    const Recipe& recipe, std::span<const WeightedTransactions* const> tables,
    std::size_t num_items, const MinerOptions& options, obs::Trace* trace,
    Recoding* recoding) {
  obs::TimelineLane* const lane = DriverLane(options);
  obs::Phase recode_phase(trace, lane, "recode");
  *recoding = ComputeRecoding(tables, num_items, recipe.item_order,
                              recipe.min_item_support(options));
  recode_phase.End();

  obs::Phase dedup_phase(trace, lane, "dedup");
  return RecodeTables(tables, *recoding, recipe.transaction_order);
}

/// The stage both entry points share once the stream is built: records
/// it, and runs the core with a callback that counts the reported sets
/// and decodes each into input item ids, ascending. Every core calls its
/// callback on the calling thread (the fan-outs emit through
/// RunTasksInOrder, api/task_pool.h), so one buffer serves every set.
void MineRows(const Recipe& recipe, const Recoding& recoding,
              WeightedTransactions rows, const MinerOptions& options,
              const ClosedSetCallback& callback, MinerStats* stats,
              obs::Trace* trace) {
  if (rows.NumRows() == 0) return;
  if (options.memory != nullptr) {
    options.memory->Record(rows.ApproxMemoryUsage());
  }
  if (stats != nullptr) stats->weighted_transactions = rows.NumRows();
  std::vector<ItemId> decoded;
  const ClosedSetCallback decode = [&](std::span<const ItemId> items,
                                       Support support) {
    if (stats != nullptr) ++stats->sets_reported;
    decoded.clear();
    for (ItemId code : items) decoded.push_back(recoding.new_to_old[code]);
    std::sort(decoded.begin(), decoded.end());
    callback(decoded, support);
  };
  recipe.core(std::move(rows), recoding.num_kept(), options, decode, stats,
              trace);
}

}  // namespace

Status MineClosed(const TransactionDatabase& db, const MinerOptions& options,
                  const ClosedSetCallback& callback, MinerStats* stats,
                  obs::Trace* trace) {
  const Result<Recipe> prepared = Prepare(options, stats);
  if (!prepared.ok()) return prepared.status();
  const Recipe& recipe = prepared.value();

  // Every algorithm mines inside one "mine" span (and one "mine" timeline
  // event pair on the driver lane), with the input stage below it.
  obs::TimelineLane* const lane = DriverLane(options);
  obs::Phase mine_phase(trace, lane, "mine");

  // The transactions are folded first, so the database is read once: the
  // item counts and the mapping read only the folded rows. The folded
  // tables are freed before the core runs.
  Recoding recoding;
  WeightedTransactions rows = [&] {
    obs::Phase fold_phase(trace, lane, "dedup");
    const std::vector<WeightedTransactions> folded =
        recipe.fold_by_hash
            ? FoldRows(db)
            : FoldRows(db, FoldFor(recipe.transaction_order),
                       options.num_threads, options.timeline);
    fold_phase.End();
    std::vector<const WeightedTransactions*> tables;
    for (const WeightedTransactions& table : folded) tables.push_back(&table);
    return RecodeRows(recipe, tables, db.NumItems(), options, trace,
                      &recoding);
  }();
  MineRows(recipe, recoding, std::move(rows), options, callback, stats, trace);
  return Status::OK();
}

Status MineClosed(std::span<const WeightedTransactions* const> tables,
                  std::size_t num_items, const MinerOptions& options,
                  const ClosedSetCallback& callback, MinerStats* stats,
                  obs::Trace* trace) {
  const Result<Recipe> prepared = Prepare(options, stats);
  if (!prepared.ok()) return prepared.status();
  if (Status status = CheckTables(tables, num_items); !status.ok()) {
    return status;
  }
  const Recipe& recipe = prepared.value();
  Recoding recoding;
  WeightedTransactions rows =
      RecodeRows(recipe, tables, num_items, options, trace, &recoding);
  MineRows(recipe, recoding, std::move(rows), options, callback, stats, trace);
  return Status::OK();
}

Result<std::vector<ClosedItemset>> MineClosedCollect(
    const TransactionDatabase& db, const MinerOptions& options,
    MinerStats* stats, obs::Trace* trace) {
  ClosedSetCollector collector;
  Status status = MineClosed(db, options, collector.AsCallback(), stats, trace);
  if (!status.ok()) return status;
  collector.SortCanonical();
  return collector.TakeSets();
}

}  // namespace fim
