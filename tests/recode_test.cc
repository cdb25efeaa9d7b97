// Unit tests of item recoding and transaction reordering (§3.4
// preprocessing), of the weighted stream built in the same pass, and of
// the decoding of the mined sets back to input item ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "api/miner.h"
#include "data/generators.h"
#include "data/recode.h"
#include "data/transpose.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

TransactionDatabase SmallDb() {
  // Frequencies: item0: 3, item1: 1, item2: 2, item3: 0 (declared only).
  TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {0, 2}, {0, 2}});
  db.SetNumItems(4);
  return db;
}

TEST(RecodeTest, FrequencyAscendingGivesRarestCodeZero) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  // Unused item 3 is dropped entirely.
  EXPECT_EQ(r.num_kept(), 3u);
  EXPECT_EQ(r.old_to_new[3], kInvalidItem);
  // freq(1)=1 < freq(2)=2 < freq(0)=3.
  EXPECT_EQ(r.old_to_new[1], 0u);
  EXPECT_EQ(r.old_to_new[2], 1u);
  EXPECT_EQ(r.old_to_new[0], 2u);
  EXPECT_EQ(r.new_to_old, (std::vector<ItemId>{1, 2, 0}));
}

TEST(RecodeTest, FrequencyDescendingReverses) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyDescending, 1);
  EXPECT_EQ(r.old_to_new[0], 0u);
  EXPECT_EQ(r.old_to_new[2], 1u);
  EXPECT_EQ(r.old_to_new[1], 2u);
}

TEST(RecodeTest, NoneKeepsRelativeOrderOfKeptItems) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 1);
  EXPECT_EQ(r.new_to_old, (std::vector<ItemId>{0, 1, 2}));
}

TEST(RecodeTest, MinSupportDropsInfrequentItems) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 2);
  EXPECT_EQ(r.num_kept(), 2u);  // items 0 and 2 survive
  EXPECT_EQ(r.old_to_new[1], kInvalidItem);
}

TEST(RecodeTest, ApplyMapsAndDropsEmptyTransactions) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 2);
  const TransactionDatabase coded =
      ApplyRecoding(db, r, TransactionOrder::kNone);
  // {0,1} loses item 1 -> {0}; others map fully.
  EXPECT_EQ(coded.NumTransactions(), 3u);
  EXPECT_EQ(coded.NumItems(), 2u);
  for (const auto& t : coded.transactions()) {
    for (ItemId i : t) EXPECT_LT(i, 2u);
  }
}

TEST(RecodeTest, SizeAscendingOrdersBySizeThenDescendingLex) {
  TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {2}, {0, 1}, {1, 2}});
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 1);
  const TransactionDatabase coded =
      ApplyRecoding(db, r, TransactionOrder::kSizeAscending);
  ASSERT_EQ(coded.NumTransactions(), 4u);
  EXPECT_EQ(coded.transaction(0).size(), 1u);
  EXPECT_EQ(coded.transaction(1).size(), 2u);
  EXPECT_EQ(coded.transaction(2).size(), 2u);
  EXPECT_EQ(coded.transaction(3).size(), 3u);
  // Same-size tiebreak: lexicographic on the descending item sequence:
  // {0,1} reads (1,0), {1,2} reads (2,1) -> {0,1} first.
  EXPECT_EQ(coded.transaction(1), (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(coded.transaction(2), (std::vector<ItemId>{1, 2}));
}

TEST(RecodeTest, SizeDescendingReverses) {
  TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{2}, {0, 1, 2}});
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 1);
  const TransactionDatabase coded =
      ApplyRecoding(db, r, TransactionOrder::kSizeDescending);
  EXPECT_EQ(coded.transaction(0).size(), 3u);
  EXPECT_EQ(coded.transaction(1).size(), 1u);
}

// SmallDb's frequency-ascending codes are item 1 -> 0, item 2 -> 1 and
// item 0 -> 2, so IsTa mines its closed set {0, 1} as codes {0, 2};
// MineClosed decodes every set back to the input ids the oracle reports.
TEST(RecodeTest, DecodeRoundTrip) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  ASSERT_EQ(r.old_to_new[0], 2u);
  ASSERT_EQ(r.old_to_new[1], 0u);
  const auto mined = MineClosedCollect(db, MinerOptions{});
  ASSERT_TRUE(mined.ok());
  const auto expected = OracleClosedSets(db, 1);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), mined.value()));
  EXPECT_NE(std::ranges::find(mined.value(), ClosedItemset{{0, 1}, 1}),
            mined.value().end());
}

// The closed set {0, 2} of SmallDb is mined as codes {1, 2}, which read
// {2, 0} in input ids; the callback MineClosed hands the core translates
// each set, sorts it ascending and passes its support through.
TEST(RecodeTest, DecodingCallbackTranslatesAndSorts) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  ASSERT_EQ(r.new_to_old, (std::vector<ItemId>{1, 2, 0}));
  ClosedSetCollector collector;
  MinerStats stats;
  ASSERT_TRUE(
      MineClosed(db, MinerOptions{}, collector.AsCallback(), &stats).ok());
  EXPECT_EQ(stats.sets_reported, collector.size());
  for (const ClosedItemset& set : collector.sets()) {
    EXPECT_TRUE(std::ranges::is_sorted(set.items)) << ItemsToString(set.items);
  }
  EXPECT_NE(std::ranges::find(collector.sets(), ClosedItemset{{0, 2}, 2}),
            collector.sets().end());
}

TEST(RecodeTest, MineClosedReportsInputIdsAscending) {
  // Item i lies in i + 1 of the nine rows, so the frequency-descending
  // codes reverse the id order: item 7 gets code 0. Every algorithm
  // takes that order but CHARM (ascending) and flat cumulative (input
  // ids); each must report its sets in input ids, ascending, as the
  // oracle does, through the fan-outs' emission at 4 threads too.
  std::vector<std::vector<ItemId>> rows(9);
  for (ItemId t = 0; t < 9; ++t) {
    for (ItemId i = 0; i < 8; ++i) {
      if ((t + 3 * i) % 9 <= i) rows[t].push_back(i);
    }
  }
  const TransactionDatabase db = TransactionDatabase::FromTransactions(rows);
  ASSERT_EQ(ComputeRecoding(db, ItemOrder::kFrequencyDescending, 1).new_to_old,
            (std::vector<ItemId>{7, 6, 5, 4, 3, 2, 1, 0}));
  const auto expected = OracleClosedSets(db, 1);
  ASSERT_TRUE(expected.ok());
  for (Algorithm algorithm : AllAlgorithms()) {
    for (unsigned threads : {1u, 4u}) {
      MinerOptions options;
      options.algorithm = algorithm;
      options.item_order = ItemOrder::kFrequencyDescending;
      options.num_threads = threads;
      ClosedSetCollector collector;
      MinerStats stats;
      ASSERT_TRUE(MineClosed(db, options, collector.AsCallback(), &stats).ok());
      for (const ClosedItemset& set : collector.sets()) {
        EXPECT_TRUE(std::ranges::is_sorted(set.items) &&
                    std::ranges::adjacent_find(set.items) == set.items.end())
            << AlgorithmName(algorithm) << " threads " << threads;
      }
      EXPECT_EQ(stats.sets_reported, collector.size())
          << AlgorithmName(algorithm) << " threads " << threads;
      EXPECT_TRUE(SameResults(expected.value(), collector.TakeSets()))
          << AlgorithmName(algorithm) << " threads " << threads;
    }
  }
}

// --- FoldRows + RecodeTables: the weighted stream -----------------------

using Rows = std::vector<std::pair<std::vector<ItemId>, Support>>;

// The rows of `coded`, with every run of equal adjacent rows folded into
// one row weighted by the run length.
Rows MergeRuns(const TransactionDatabase& coded) {
  Rows rows;
  for (const auto& t : coded.transactions()) {
    if (!rows.empty() && rows.back().first == t) {
      ++rows.back().second;
    } else {
      rows.emplace_back(t, 1);
    }
  }
  return rows;
}

Rows RowsOf(const WeightedTransactions& stream) {
  EXPECT_EQ(stream.offsets.size(), stream.NumRows() + 1);
  EXPECT_EQ(stream.offsets.front(), 0u);
  EXPECT_EQ(stream.offsets.back(), stream.items.size());
  Rows rows;
  for (std::size_t r = 0; r < stream.NumRows(); ++r) {
    const std::span<const ItemId> row = stream.Row(r);
    rows.emplace_back(std::vector<ItemId>(row.begin(), row.end()),
                      stream.weights[r]);
  }
  return rows;
}

// The recoded rows by definition, one per transaction, in the order the
// weighted stream must follow: each transaction mapped through the
// recoding (eliminated items dropped, codes ascending), empty rows
// dropped, then a stable sort by size with same-size rows compared on
// their descending item sequence.
std::vector<std::vector<ItemId>> ReferenceRecoding(
    const TransactionDatabase& db, const Recoding& recoding,
    TransactionOrder order) {
  std::vector<std::vector<ItemId>> rows;
  for (const auto& t : db.transactions()) {
    std::vector<ItemId> coded;
    for (ItemId i : t) {
      if (i < recoding.old_to_new.size() &&
          recoding.old_to_new[i] != kInvalidItem) {
        coded.push_back(recoding.old_to_new[i]);
      }
    }
    std::sort(coded.begin(), coded.end());
    if (!coded.empty()) rows.push_back(std::move(coded));
  }
  if (order == TransactionOrder::kNone) return rows;
  const bool ascending = order == TransactionOrder::kSizeAscending;
  std::stable_sort(rows.begin(), rows.end(),
                   [ascending](const std::vector<ItemId>& a,
                               const std::vector<ItemId>& b) {
                     if (a.size() != b.size()) {
                       return ascending == (a.size() < b.size());
                     }
                     return std::lexicographical_compare(
                         a.rbegin(), a.rend(), b.rbegin(), b.rend());
                   });
  return rows;
}

constexpr TransactionOrder kOrders[] = {TransactionOrder::kNone,
                                        TransactionOrder::kSizeAscending,
                                        TransactionOrder::kSizeDescending};

std::vector<const WeightedTransactions*> Pointers(
    const std::vector<WeightedTransactions>& tables) {
  std::vector<const WeightedTransactions*> pointers;
  for (const WeightedTransactions& table : tables) pointers.push_back(&table);
  return pointers;
}

// The weighted stream the miners build from `db`: its transactions
// folded in `chunks` chunks, then mapped, folded and ordered in one pass.
WeightedTransactions FoldAndRecode(const TransactionDatabase& db,
                                   const Recoding& recoding,
                                   TransactionOrder order,
                                   unsigned chunks = 1) {
  const std::vector<WeightedTransactions> folded =
      FoldRows(db, FoldFor(order), chunks);
  return RecodeTables(Pointers(folded), recoding, order);
}

// Every transaction order x 1/2/3/8 chunks, against the reference: the
// weighted stream folds its runs, and ApplyRecoding unfolds the stream
// back into the reference rows.
void ExpectSameAsApplyRecoding(const TransactionDatabase& db,
                               const Recoding& recoding,
                               const std::string& what) {
  for (TransactionOrder order : kOrders) {
    const TransactionDatabase reference = TransactionDatabase::FromTransactions(
        ReferenceRecoding(db, recoding, order));
    const Rows expected = MergeRuns(reference);
    for (unsigned chunks : {1u, 2u, 3u, 8u}) {
      ASSERT_EQ(RowsOf(FoldAndRecode(db, recoding, order, chunks)), expected)
          << what << " order " << static_cast<int>(order) << " chunks "
          << chunks;
      ASSERT_EQ(ApplyRecoding(db, recoding, order, chunks).transactions(),
                reference.transactions())
          << what << " order " << static_cast<int>(order) << " chunks "
          << chunks;
    }
  }
}

TEST(RecodeWeightedTest, MatchesApplyRecodingOnRandomDatabases) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // Six items over forty rows: rows repeat, adjacent and apart.
    const TransactionDatabase db = GenerateRandomDense(40, 6, 0.5, seed * 97);
    EXPECT_LT(FoldAndRecode(db, ComputeRecoding(db, ItemOrder::kNone, 1),
                            TransactionOrder::kSizeAscending)
                  .NumRows(),
              db.NumTransactions());
    for (ItemOrder item_order :
         {ItemOrder::kNone, ItemOrder::kFrequencyAscending,
          ItemOrder::kFrequencyDescending}) {
      for (Support min_item_support : {1u, 12u, 25u}) {
        ExpectSameAsApplyRecoding(
            db, ComputeRecoding(db, item_order, min_item_support),
            "seed " + std::to_string(seed) + " item order " +
                std::to_string(static_cast<int>(item_order)) + " smin " +
                std::to_string(min_item_support));
      }
    }
  }
}

TEST(RecodeWeightedTest, RowsEmptiedByItemElimination) {
  // Items 6 and 7 fall below min support 3: the rows {6} and {7} vanish,
  // so the {5} rows around {6} become adjacent, and so do {0,1} and
  // {0,1,6}, which loses item 6. Three chunks put the runs across chunk
  // boundaries.
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{5}, {6}, {5}, {0, 1}, {0, 1, 6}, {7}, {0, 1, 5}});
  const Recoding recoding =
      ComputeRecoding(db, ItemOrder::kFrequencyAscending, 3);
  ASSERT_EQ(recoding.old_to_new[6], kInvalidItem);
  ASSERT_EQ(recoding.old_to_new[7], kInvalidItem);
  ExpectSameAsApplyRecoding(db, recoding, "emptied rows");
  const WeightedTransactions stream =
      FoldAndRecode(db, recoding, TransactionOrder::kNone, 3);
  ASSERT_EQ(stream.NumRows(), 3u);
  EXPECT_EQ(stream.weights, (std::vector<Support>{2, 2, 1}));
}

TEST(RecodeWeightedTest, OneRowRepeatedManyTimes) {
  std::vector<std::vector<ItemId>> rows(1000, std::vector<ItemId>{1, 2, 3});
  rows.push_back({0, 2});
  const TransactionDatabase db = TransactionDatabase::FromTransactions(rows);
  const Recoding recoding =
      ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  ExpectSameAsApplyRecoding(db, recoding, "repeated row");
  for (TransactionOrder order : kOrders) {
    for (unsigned chunks : {1u, 8u}) {
      const WeightedTransactions stream =
          FoldAndRecode(db, recoding, order, chunks);
      ASSERT_EQ(stream.NumRows(), 2u);
      EXPECT_EQ(stream.weights[0] + stream.weights[1], 1001u);
      EXPECT_EQ(std::max(stream.weights[0], stream.weights[1]), 1000u);
    }
  }
}

TEST(RecodeWeightedTest, MoreThreadsThanRows) {
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}});
  const Recoding recoding =
      ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  ExpectSameAsApplyRecoding(db, recoding, "three rows");
  EXPECT_EQ(FoldAndRecode(db, recoding, TransactionOrder::kSizeAscending, 16)
                .NumRows(),
            2u);
}

// Tables of raw rows: table j holds rows [cuts[j - 1], cuts[j]) (from
// row 0 for j = 0), folded under `fold`.
std::vector<WeightedTransactions> CutIntoTables(
    const std::vector<std::vector<ItemId>>& rows,
    const std::vector<std::size_t>& cuts, RowFold fold) {
  std::vector<WeightedTransactions> tables;
  std::size_t begin = 0;
  for (std::size_t end : cuts) {
    RowFolder folder(fold);
    for (std::size_t r = begin; r < end; ++r) folder.Add(rows[r], 1);
    tables.push_back(folder.Take());
    begin = end;
  }
  return tables;
}

TEST(RecodeWeightedTest, TablesFoldAsTheirConcatenation) {
  // Item 9 falls below min support 2, so {0,1,9} maps to {0,1}: the run
  // of {0,1} crosses the first cut and the run of {2} the second, and
  // the hash fold meets {0,1} in all three tables.
  const std::vector<std::vector<ItemId>> rows = {
      {0, 1}, {0, 1}, {0, 1, 9}, {2}, {2}, {0, 1}};
  TransactionDatabase db = TransactionDatabase::FromTransactions(rows);
  const Recoding recoding = ComputeRecoding(db, ItemOrder::kNone, 2);
  ASSERT_EQ(recoding.old_to_new[9], kInvalidItem);
  const Rows expected[] = {
      {{{0, 1}, 3}, {{2}, 2}, {{0, 1}, 1}},  // kNone: adjacent runs
      {{{2}, 2}, {{0, 1}, 4}},               // kSizeAscending
      {{{0, 1}, 4}, {{2}, 2}},               // kSizeDescending
  };
  for (std::size_t o = 0; o < std::size(kOrders); ++o) {
    const std::vector<WeightedTransactions> tables =
        CutIntoTables(rows, {2, 4, 6}, FoldFor(kOrders[o]));
    EXPECT_EQ(RowsOf(RecodeTables(Pointers(tables), recoding, kOrders[o])),
              expected[o])
        << "order " << o;
  }

  // Random rows with repeats, cut into k tables at random points: the
  // tables and their concatenation into one table give the same rows.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const TransactionDatabase random = GenerateRandomDense(40, 5, 0.5, seed);
    std::vector<std::vector<ItemId>> raw;
    for (std::size_t t = 0; t < random.NumTransactions(); ++t) {
      raw.push_back(random.transaction(t));
    }
    const Recoding coded = ComputeRecoding(random, ItemOrder::kNone, 20);
    for (TransactionOrder order : kOrders) {
      for (std::size_t k : {2u, 3u, 7u}) {
        std::vector<std::size_t> cuts;
        for (std::size_t c = 1; c < k; ++c) {
          cuts.push_back((c * raw.size() + seed) / k);
        }
        cuts.push_back(raw.size());
        const std::vector<WeightedTransactions> tables =
            CutIntoTables(raw, cuts, FoldFor(order));
        WeightedTransactions concatenation;
        for (const WeightedTransactions& table : tables) {
          for (std::size_t r = 0; r < table.NumRows(); ++r) {
            concatenation.AddRow(table.Row(r), table.weights[r]);
          }
        }
        const WeightedTransactions* const whole = &concatenation;
        ASSERT_EQ(RowsOf(RecodeTables(Pointers(tables), coded, order)),
                  RowsOf(RecodeTables({&whole, 1}, coded, order)))
            << "seed " << seed << " order " << static_cast<int>(order)
            << " tables " << k;
      }
    }
  }
}

TEST(RecodeWeightedTest, EmptyDatabase) {
  const TransactionDatabase db;
  const Recoding recoding =
      ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  for (unsigned chunks : {1u, 4u}) {
    const WeightedTransactions stream = FoldAndRecode(
        db, recoding, TransactionOrder::kSizeAscending, chunks);
    EXPECT_EQ(stream.NumRows(), 0u);
    EXPECT_EQ(stream.offsets, (std::vector<std::size_t>{0}));
    EXPECT_TRUE(stream.items.empty());
  }
}

TEST(RecodeWeightedTest, MemoryUsageNamesTheThreeArrays) {
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}});
  const WeightedTransactions stream = FoldAndRecode(
      db, ComputeRecoding(db, ItemOrder::kNone, 1),
      TransactionOrder::kSizeAscending);
  const obs::MemoryComponent usage = stream.ApproxMemoryUsage();
  EXPECT_EQ(usage.name, "weighted-stream");
  ASSERT_EQ(usage.children.size(), 3u);
  EXPECT_EQ(usage.children[0].name, "offsets");
  EXPECT_EQ(usage.children[1].name, "items");
  EXPECT_EQ(usage.children[2].name, "weights");
  EXPECT_GE(usage.TotalBytes(), 3 * sizeof(std::size_t) +
                                    3 * sizeof(ItemId) + 2 * sizeof(Support));
}

TEST(TransposeTest, SwapsItemsAndTransactions) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 2}, {1, 2}, {2}});
  const TransactionDatabase t = Transpose(db);
  // Item 0 -> {t0}, item 1 -> {t1}, item 2 -> {t0,t1,t2}.
  ASSERT_EQ(t.NumTransactions(), 3u);
  EXPECT_EQ(t.transaction(0), (std::vector<ItemId>{0}));
  EXPECT_EQ(t.transaction(1), (std::vector<ItemId>{1}));
  EXPECT_EQ(t.transaction(2), (std::vector<ItemId>{0, 1, 2}));
  EXPECT_EQ(t.NumItems(), 3u);
}

TEST(TransposeTest, DoubleTransposeIsIdentityWhenNoEmptyRows) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {1, 2}, {0, 2}});
  const TransactionDatabase back = Transpose(Transpose(db));
  EXPECT_EQ(back.transactions(), db.transactions());
}

TEST(TransposeTest, SkipsUnusedItems) {
  TransactionDatabase db = TransactionDatabase::FromTransactions({{5}});
  // Items 0..4 unused: they produce no transposed transactions.
  const TransactionDatabase t = Transpose(db);
  EXPECT_EQ(t.NumTransactions(), 1u);
  EXPECT_EQ(t.transaction(0), (std::vector<ItemId>{0}));
}

}  // namespace
}  // namespace fim
