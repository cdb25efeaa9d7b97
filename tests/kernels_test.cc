// Property tests for the runtime-dispatched intersection kernels
// (src/kernels/): every available tier must agree element-for-element
// with std::set_intersection on sorted duplicate-free uint32_t inputs —
// the contract that keeps the miners' closed-set output bit-identical
// under every FIM_KERNEL setting. Also covers the galloping kernel, the
// adaptive front door, the occurrence-row filter and the selection API.

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/intersect.h"

namespace fim::kernels {
namespace {

using U32s = std::vector<std::uint32_t>;

U32s Reference(const U32s& a, const U32s& b) {
  U32s out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Calls a raw kernel's intersect with the contract-required slack
// (capacity >= min(na, nb) + kIntersectPad) and trims to the result.
U32s RunIntersect(const IntersectKernel& kernel, const U32s& a, const U32s& b) {
  U32s out(std::min(a.size(), b.size()) + kIntersectPad, 0xDEADBEEF);
  const std::size_t n =
      kernel.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
  out.resize(n);
  return out;
}

U32s SortedUnique(std::mt19937& rng, std::size_t count, std::uint32_t max) {
  std::set<std::uint32_t> values;
  std::uniform_int_distribution<std::uint32_t> dist(0, max);
  while (values.size() < count) values.insert(dist(rng));
  return U32s(values.begin(), values.end());
}

// The canonical shape catalog every kernel must handle: empty operands,
// disjoint ranges, identical lists, strict subsets, strongly skewed
// lengths, dense (consecutive) runs, and block-boundary sizes around the
// 4- and 8-lane SIMD widths.
std::vector<std::pair<U32s, U32s>> ShapeCatalog() {
  std::vector<std::pair<U32s, U32s>> shapes;
  shapes.push_back({{}, {}});
  shapes.push_back({{}, {1, 2, 3}});
  shapes.push_back({{1, 2, 3}, {}});
  shapes.push_back({{1, 3, 5, 7}, {2, 4, 6, 8}});          // disjoint interleaved
  shapes.push_back({{1, 2, 3, 4}, {10, 11, 12, 13}});      // disjoint ranges
  shapes.push_back({{5, 6, 7, 8}, {5, 6, 7, 8}});          // equal
  shapes.push_back({{2, 4, 6}, {1, 2, 3, 4, 5, 6, 7}});    // subset
  shapes.push_back({{42}, {42}});
  shapes.push_back({{42}, {41}});
  // Block-boundary sizes: 1..17 elements against 1..17 elements with a
  // 50% overlap pattern exercises every SIMD tail path.
  for (std::size_t na = 1; na <= 17; ++na) {
    for (std::size_t nb : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                           std::size_t{15}, std::size_t{17}}) {
      U32s a, b;
      for (std::size_t i = 0; i < na; ++i) a.push_back(2 * i);
      for (std::size_t i = 0; i < nb; ++i) b.push_back(3 * i);
      shapes.push_back({a, b});
    }
  }
  // The shape that motivated kIntersectPad: all matches come from the
  // still-current block of the shorter side, so the match count reaches
  // min(na, nb) while the SIMD loop still has a full-vector store ahead.
  {
    U32s b = {5, 6, 7, 8, 100, 101, 102, 103};
    U32s a;
    for (std::uint32_t v = 1; v <= 8; ++v) a.push_back(v);
    for (std::uint32_t v = 100; v <= 103; ++v) a.push_back(v);
    shapes.push_back({a, b});
    shapes.push_back({b, a});
  }
  // Dense consecutive runs with a shifted overlap.
  {
    U32s a, b;
    for (std::uint32_t v = 0; v < 200; ++v) a.push_back(v);
    for (std::uint32_t v = 100; v < 300; ++v) b.push_back(v);
    shapes.push_back({a, b});
  }
  // Strongly skewed lengths (also exercises the gallop cutover through
  // the adaptive front door).
  {
    std::mt19937 rng(7);
    U32s longer = SortedUnique(rng, 4096, 1u << 20);
    U32s shorter;
    for (std::size_t i = 0; i < longer.size(); i += 97) {
      shorter.push_back(longer[i]);
    }
    shorter.push_back((1u << 20) + 1);  // one element past the long list
    std::sort(shorter.begin(), shorter.end());
    shapes.push_back({shorter, longer});
    shapes.push_back({longer, shorter});
  }
  return shapes;
}

TEST(KernelsTest, EveryKernelMatchesSetIntersectionOnShapeCatalog) {
  const auto kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  const auto shapes = ShapeCatalog();
  for (const IntersectKernel* kernel : kernels) {
    for (const auto& [a, b] : shapes) {
      EXPECT_EQ(RunIntersect(*kernel, a, b), Reference(a, b))
          << "kernel " << kernel->name << ", na=" << a.size()
          << ", nb=" << b.size();
    }
  }
}

TEST(KernelsTest, EveryKernelMatchesSetIntersectionOnRandomInputs) {
  std::mt19937 rng(20260808);
  const auto kernels = AvailableKernels();
  for (int round = 0; round < 200; ++round) {
    std::uniform_int_distribution<std::size_t> len(0, 400);
    // Mix universes so expected overlap ranges from dense to rare.
    const std::uint32_t max = (round % 3 == 0)   ? 255
                              : (round % 3 == 1) ? 4095
                                                 : (1u << 24);
    const std::size_t na = len(rng);
    const std::size_t nb = len(rng);
    const U32s a = SortedUnique(rng, std::min<std::size_t>(na, max / 2), max);
    const U32s b = SortedUnique(rng, std::min<std::size_t>(nb, max / 2), max);
    const U32s want = Reference(a, b);
    for (const IntersectKernel* kernel : kernels) {
      EXPECT_EQ(RunIntersect(*kernel, a, b), want)
          << "kernel " << kernel->name << ", round " << round;
    }
  }
}

TEST(KernelsTest, GallopMatchesSetIntersection) {
  std::mt19937 rng(99);
  for (int round = 0; round < 50; ++round) {
    const U32s b = SortedUnique(rng, 2000, 1u << 18);
    std::uniform_int_distribution<std::size_t> len(0, 60);
    U32s a = SortedUnique(rng, len(rng), 1u << 18);
    // Seed some guaranteed hits.
    for (std::size_t i = 0; i < b.size(); i += 211) a.push_back(b[i]);
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    U32s out(a.size());
    const std::size_t n =
        GallopIntersect(a.data(), a.size(), b.data(), b.size(), out.data());
    out.resize(n);
    EXPECT_EQ(out, Reference(a, b)) << "round " << round;
  }
}

TEST(KernelsTest, AdaptiveIntersectMatchesOnSkewAndBalance) {
  std::mt19937 rng(3);
  for (const std::size_t ratio : {std::size_t{1}, std::size_t{4},
                                  kGallopRatio - 1, kGallopRatio,
                                  4 * kGallopRatio}) {
    const U32s longer = SortedUnique(rng, 1024, 1u << 16);
    const U32s shorter = SortedUnique(rng, 1024 / ratio, 1u << 16);
    U32s out(std::min(longer.size(), shorter.size()) + kIntersectPad);
    const std::size_t n = Intersect(shorter.data(), shorter.size(),
                                    longer.data(), longer.size(), out.data());
    out.resize(n);
    EXPECT_EQ(out, Reference(shorter, longer)) << "ratio " << ratio;
  }
}

TEST(KernelsTest, IntersectIntoReusesBufferAndTrims) {
  U32s out{9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  IntersectInto(U32s{1, 2, 3, 4}, U32s{2, 4, 6}, &out);
  EXPECT_EQ(out, (U32s{2, 4}));
  IntersectInto(U32s{}, U32s{2, 4, 6}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(KernelsTest, FilterRowMatchesAReferenceLoop) {
  // Row entries: zeros, small counts, and values on both sides of 2^31,
  // where a signed comparison would go wrong.
  std::mt19937 rng(17);
  std::vector<std::uint32_t> row(1024);
  const std::uint32_t big[] = {0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                               UINT32_MAX};
  std::uniform_int_distribution<std::uint32_t> pick(0, 9);
  for (auto& cell : row) {
    const std::uint32_t p = pick(rng);
    cell = p < 3 ? 0 : p < 8 ? p - 2 : big[rng() % 4];
  }
  std::uniform_int_distribution<std::uint32_t> any(1, UINT32_MAX);
  for (const IntersectKernel* kernel : AvailableKernels()) {
    for (std::size_t n = 0; n <= 40; ++n) {
      for (const std::uint32_t threshold :
           {1u, 2u, 3u, 5u, any(rng), 0x80000000u, UINT32_MAX}) {
        const U32s items = SortedUnique(rng, n, 1023);
        U32s want;
        std::size_t present = 0;
        for (const std::uint32_t item : items) {
          if (row[item] != 0) ++present;
          if (row[item] >= threshold) want.push_back(item);
        }
        // The slack lanes may be written; the guard past them may not.
        U32s out(items.size() + kIntersectPad + 1, 0xDEADBEEF);
        const RowFilterCounts counts = kernel->filter_row(
            items.data(), items.size(), row.data(), threshold, out.data());
        EXPECT_EQ(counts.present, present)
            << kernel->name << " n=" << n << " threshold=" << threshold;
        EXPECT_EQ(out.back(), 0xDEADBEEF) << kernel->name << " n=" << n;
        out.resize(counts.kept);
        EXPECT_EQ(out, want)
            << kernel->name << " n=" << n << " threshold=" << threshold;
      }
    }
  }
}

// --- selection API ----------------------------------------------------

TEST(KernelsTest, AvailableKernelsStartsWithScalar) {
  const auto kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front()->id, KernelId::kScalar);
  EXPECT_STREQ(kernels.front()->name, "scalar");
  for (const IntersectKernel* kernel : kernels) {
    EXPECT_TRUE(CpuSupports(kernel->id)) << kernel->name;
  }
}

}  // namespace
}  // namespace fim::kernels
