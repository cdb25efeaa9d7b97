#ifndef FIM_KERNELS_INTERSECT_H_
#define FIM_KERNELS_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fim::kernels {

/// Runtime-dispatched intersection kernels for the hot paths (see
/// docs/PERFORMANCE.md). Every miner that intersects sorted u32 id
/// sequences — tid lists, item lists — goes through this interface; the
/// implementation behind it is chosen once per process, at first use,
/// from the CPU's feature set (CPUID) or the FIM_KERNEL environment
/// variable.
///
/// Contract: all kernels are EXACT drop-in replacements for
/// std::set_intersection over sorted, duplicate-free uint32_t ranges —
/// same elements, same order, for every input. The property tests in
/// tests/kernels_test.cc enforce element-for-element agreement, which is
/// what keeps the miners' closed-set output bit-identical under every
/// FIM_KERNEL setting.
///
/// The kernels are pure functions: apart from the tier chosen once,
/// they keep no state. A miner that calls one counts the call in its
/// own MinerStats (MinerStats::CountKernelCall).

/// Identifies one registered implementation tier.
enum class KernelId : int {
  kScalar = 0,  // portable C++, the reference implementation
  kAvx2 = 1,    // AVX2 8-wide shuffle-based block intersection
};

/// Store slack the `intersect` kernels require beyond the result bound:
/// `out` must have capacity >= min(na, nb) + kIntersectPad. The SIMD
/// tier always stores a full vector at out+k, and k can legitimately
/// reach min(na, nb) while blocks remain (the matches so far may all
/// come from the still-current block of the shorter side), so the write
/// may extend up to 8 lanes past the result bound. IntersectInto
/// provides the slack automatically. `filter_row` needs the same slack
/// past its n items.
inline constexpr std::size_t kIntersectPad = 8;

/// What IntersectKernel::filter_row found in one row.
struct RowFilterCounts {
  std::size_t present;  // items with a non-zero entry
  std::size_t kept;     // items written: entry >= threshold
};

/// One implementation tier: a table of raw kernels sharing a contract.
/// All function pointers are non-null (tiers fall back to the scalar
/// routine for ops they do not accelerate).
struct IntersectKernel {
  KernelId id;
  const char* name;  // "scalar" | "avx2"

  /// Writes the intersection of the sorted duplicate-free ranges
  /// [a, a+na) and [b, b+nb) to `out` (capacity >= min(na, nb) +
  /// kIntersectPad; lanes past the returned count hold garbage) and
  /// returns the number of elements written. `out` must not alias either
  /// input: the SIMD tier stores full vectors at out+k and may re-read an
  /// input block that did not advance, so even the shrinking `out == a`
  /// pattern that is safe for the scalar merge would corrupt the input.
  std::size_t (*intersect)(const std::uint32_t* a, std::size_t na,
                           const std::uint32_t* b, std::size_t nb,
                           std::uint32_t* out);

  /// One row step of Carpenter's matrix path (paper §3.1.2): counts the
  /// items i of `items` with row[i] != 0 (`present`) and writes those
  /// with row[i] >= threshold to `out` in order (`kept`). `threshold`
  /// must be >= 1, so the kept items are present; every item must be
  /// below 2^31. `out` must have capacity n + kIntersectPad (lanes past
  /// `kept` hold garbage) and must not alias `items`.
  RowFilterCounts (*filter_row)(const std::uint32_t* items, std::size_t n,
                                const std::uint32_t* row,
                                std::uint32_t threshold, std::uint32_t* out);
};

/// The kernel tier selected for this process. First call selects:
/// honours FIM_KERNEL=scalar|avx2 when set (falling back to the best
/// supported tier, with a warning on stderr, if the named tier is not
/// available on this CPU), otherwise picks the best tier CPUID reports.
const IntersectKernel& Active();

/// The tiers supported on this machine, scalar first.
std::vector<const IntersectKernel*> AvailableKernels();

// ---------------------------------------------------------------------------
// Adaptive front doors used by the miners.

/// Length ratio above which the adaptive intersection switches from the
/// block-merge kernel to galloping: one-sided binary search wins once
/// the longer list is ~16x the shorter one (see BENCH_kernels.json for
/// the measured crossover on the committed sweeps).
inline constexpr std::size_t kGallopRatio = 16;

/// Adaptive sorted intersection: galloping for skewed length ratios
/// (>= kGallopRatio), the active tier's block-merge kernel otherwise.
/// Same contract as IntersectKernel::intersect.
std::size_t Intersect(const std::uint32_t* a, std::size_t na,
                      const std::uint32_t* b, std::size_t nb,
                      std::uint32_t* out);

/// Convenience span versions writing into a reusable vector (resized to
/// the result; existing capacity is reused — no allocation once warm).
void IntersectInto(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::vector<std::uint32_t>* out);

/// Galloping intersection (exposed for the bench and the property
/// tests; Intersect() calls it automatically). Requires na <= nb.
std::size_t GallopIntersect(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out);

// ---------------------------------------------------------------------------
// Raw tier tables (registration; exposed so tests and the bench can pin
// one tier regardless of the active selection). Null when the binary
// was built without the tier's instruction-set support.

const IntersectKernel* ScalarKernel();
const IntersectKernel* Avx2Kernel();  // null unless compiled for x86 AVX2

/// True when the running CPU supports the tier (always true for scalar).
bool CpuSupports(KernelId id);

}  // namespace fim::kernels

#endif  // FIM_KERNELS_INTERSECT_H_
