// Unit tests of the row-bitset canonicity test of row enumeration
// (carpenter/row_bitsets.h): the masking of the rows before j and
// outside the cover, at the 64-row word boundaries of the bitsets.
// DifferentialLargeTest.RowCountsAroundBitsetWordBoundaries checks the
// miners that use it end to end.

#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "carpenter/row_bitsets.h"
#include "common/rng.h"
#include "data/itemset.h"
#include "data/recode.h"

namespace fim {
namespace {

// The definition: no row before j outside `cover` contains `items`.
bool CanonicalByScan(const WeightedTransactions& rows,
                     std::span<const ItemId> items,
                     const std::vector<bool>& cover, Tid j) {
  for (Tid r = 0; r < j; ++r) {
    if (!cover[r] && IsSubsetSorted(items, rows.Row(r))) return false;
  }
  return true;
}

// Every row holds item 0; the witness row also holds items 1 and 2, and
// the decoy row only item 1. So {0} has every row as a witness, {1} the
// witness and the decoy, and {2} and {1, 2} the witness alone.
WeightedTransactions WitnessRows(Tid n, Tid witness, Tid decoy) {
  WeightedTransactions rows;
  for (Tid r = 0; r < n; ++r) {
    std::vector<ItemId> row{0};
    if (r == witness || r == decoy) row.push_back(1);
    if (r == witness) row.push_back(2);
    rows.AddRow(row, 1);
  }
  return rows;
}

TEST(RowBitsetsTest, WitnessesAtWordBoundaries) {
  const std::vector<std::vector<ItemId>> sets = {{0}, {1}, {2}, {1, 2},
                                                 {0, 1, 2}};
  for (const Tid n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    // The first word and the last one, on both sides of each boundary.
    std::set<Tid> witnesses;
    for (const Tid w : {0u, 1u, 62u, 63u, 64u, 65u, n - 2, n - 1}) {
      if (w < n) witnesses.insert(w);
    }
    std::set<Tid> positions;
    for (const Tid j : {0u, 63u, 64u, 65u, n - 1, n}) {
      if (j <= n) positions.insert(j);
    }
    for (const Tid witness : witnesses) {
      // The decoy sits a word away, so the AND of items 1 and 2 has to
      // clear it in another word than the witness.
      const Tid decoy = (witness + 64) % n == witness
                            ? n  // one word only: no decoy
                            : (witness + 64) % n;
      const WeightedTransactions rows = WitnessRows(n, witness, decoy);
      for (const bool covered : {false, true}) {
        for (const Tid j : positions) {
          RowBitsets bitsets(rows, 3);
          std::vector<bool> cover(n, false);
          if (covered) {
            bitsets.Cover(witness);
            cover[witness] = true;
          }
          for (const std::vector<ItemId>& items : sets) {
            EXPECT_EQ(bitsets.IsCanonical(items, j),
                      CanonicalByScan(rows, items, cover, j))
                << "rows " << n << ", witness " << witness
                << (covered ? " (covered)" : "") << ", decoy " << decoy
                << ", j " << j << ", items of size " << items.size();
          }
          // Only the witness holds {1, 2}.
          EXPECT_EQ(bitsets.IsCanonical(std::vector<ItemId>{1, 2}, j),
                    covered || witness >= j)
              << "rows " << n << ", witness " << witness << ", j " << j;
        }
      }
    }
  }
}

TEST(RowBitsetsTest, UncoverFromKeepsTheRowsBefore) {
  for (const Tid n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    for (const Tid witness : {0u, 63u, 64u, n - 1}) {
      if (witness >= n) continue;
      const WeightedTransactions rows = WitnessRows(n, witness, n);
      for (const Tid from : {0u, 63u, 64u, 65u, n - 1, n}) {
        if (from > n) continue;
        RowBitsets bitsets(rows, 3);
        for (Tid r = 0; r < n; ++r) bitsets.Cover(r);
        bitsets.UncoverFrom(from);
        // The witness stays covered exactly when it lies before `from`.
        EXPECT_EQ(bitsets.IsCanonical(std::vector<ItemId>{2}, n),
                  witness < from)
            << "rows " << n << ", witness " << witness << ", from " << from;
      }
    }
  }
}

TEST(RowBitsetsTest, MatchesTheDefinitionOnRandomRows) {
  Rng rng(21);
  for (const Tid n : {1u, 63u, 64u, 65u, 129u, 200u}) {
    const std::size_t num_items = 6;
    WeightedTransactions rows;
    for (Tid r = 0; r < n; ++r) {
      std::vector<ItemId> row;
      for (ItemId i = 0; i < num_items; ++i) {
        if (rng.Uniform(100) < 60) row.push_back(i);
      }
      rows.AddRow(row, 1);
    }
    for (int trial = 0; trial < 40; ++trial) {
      RowBitsets bitsets(rows, num_items);
      std::vector<bool> cover(n, false);
      for (Tid r = 0; r < n; ++r) {
        if (rng.Uniform(100) < 30) {
          bitsets.Cover(r);
          cover[r] = true;
        }
      }
      std::vector<ItemId> items;
      for (ItemId i = 0; i < num_items; ++i) {
        if (rng.Uniform(100) < 40) items.push_back(i);
      }
      for (Tid j = 0; j <= n; ++j) {
        ASSERT_EQ(bitsets.IsCanonical(items, j),
                  CanonicalByScan(rows, items, cover, j))
            << "rows " << n << ", trial " << trial << ", j " << j;
      }
    }
  }
}

}  // namespace
}  // namespace fim
