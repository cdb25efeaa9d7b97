// AVX2 tier: 8-wide shuffle-based sorted-u32 intersection and a
// gather-based occurrence-row filter for Carpenter's matrix path. The
// block intersection compares every lane of one 8-element block with
// every lane of the other (8-lane permutes) and left-packs the matches
// through a 256-entry permutation table. Compiled with -mavx2 (see
// src/CMakeLists.txt); the runtime dispatcher never hands this tier to a
// CPU without AVX2.

#include "kernels/intersect.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace fim::kernels {

namespace {

// Left-packing permutations for _mm256_permutevar8x32_epi32: entry m
// moves the lanes whose bit is set in m to the front, in order.
struct PermuteTable {
  alignas(32) std::uint32_t lanes[256][8];
};

constexpr PermuteTable BuildPermuteTable() {
  PermuteTable table{};
  for (int mask = 0; mask < 256; ++mask) {
    int out_lane = 0;
    for (std::uint32_t lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) table.lanes[mask][out_lane++] = lane;
    }
    for (; out_lane < 8; ++out_lane) table.lanes[mask][out_lane] = 0;
  }
  return table;
}

constexpr PermuteTable kPermutes = BuildPermuteTable();

// Cyclic 8-lane rotations 1..7 for the all-pairs comparison.
constexpr PermuteTable BuildRotations() {
  PermuteTable table{};
  for (int r = 0; r < 8; ++r) {
    for (std::uint32_t lane = 0; lane < 8; ++lane) {
      table.lanes[r][lane] = (lane + static_cast<std::uint32_t>(r)) % 8;
    }
  }
  return table;
}

constexpr PermuteTable kRotations = BuildRotations();

std::size_t Avx2Intersect(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      const __m256i rot = _mm256_permutevar8x32_epi32(
          vb, _mm256_load_si256(
                  reinterpret_cast<const __m256i*>(kRotations.lanes[r])));
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, rot));
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        va, _mm256_load_si256(
                reinterpret_cast<const __m256i*>(kPermutes.lanes[mask])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), packed);
    k += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mask)));
    const std::uint32_t a_max = a[i + 7];
    const std::uint32_t b_max = b[j + 7];
    if (a_max <= b_max) i += 8;
    if (b_max <= a_max) j += 8;
  }
  while (i < na && j < nb) {
    const std::uint32_t va = a[i];
    const std::uint32_t vb = b[j];
    if (va < vb) {
      ++i;
    } else if (vb < va) {
      ++j;
    } else {
      out[k++] = va;
      ++i;
      ++j;
    }
  }
  return k;
}

RowFilterCounts Avx2FilterRow(const std::uint32_t* items, std::size_t n,
                              const std::uint32_t* row,
                              std::uint32_t threshold, std::uint32_t* out) {
  RowFilterCounts counts{0, 0};
  const __m256i zero = _mm256_setzero_si256();
  const __m256i vthreshold = _mm256_set1_epi32(static_cast<int>(threshold));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vitems =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i));
    const __m256i entries = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(row), vitems, 4);
    const unsigned zeros = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(entries, zero))));
    // Unsigned entry >= threshold: max(entry, threshold) == entry.
    const unsigned kept = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_max_epu32(entries, vthreshold), entries))));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        vitems, _mm256_load_si256(
                    reinterpret_cast<const __m256i*>(kPermutes.lanes[kept])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + counts.kept),
                        packed);
    counts.present += 8 - static_cast<std::size_t>(std::popcount(zeros));
    counts.kept += static_cast<std::size_t>(std::popcount(kept));
  }
  // The last 0-7 items as in the scalar tier: a masked gather of the
  // tail measured no faster.
  for (; i < n; ++i) {
    const std::uint32_t item = items[i];
    const std::uint32_t entry = row[item];
    counts.present += entry != 0;
    out[counts.kept] = item;
    counts.kept += entry >= threshold;
  }
  return counts;
}

constexpr IntersectKernel kAvx2Kernel = {
    KernelId::kAvx2, "avx2",
    &Avx2Intersect, &Avx2FilterRow,
};

}  // namespace

const IntersectKernel* Avx2Kernel() { return &kAvx2Kernel; }

}  // namespace fim::kernels

#else  // !defined(__AVX2__)

namespace fim::kernels {

const IntersectKernel* Avx2Kernel() { return nullptr; }

}  // namespace fim::kernels

#endif  // defined(__AVX2__)
