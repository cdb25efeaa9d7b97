// Kernel registry, runtime dispatch, counters, and the scalar reference
// implementations. The AVX2 tier lives in its own translation unit
// (intersect_avx2.cc) compiled with -mavx2; this file must stay
// buildable on any CPU.

#include "kernels/intersect.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/sync.h"

#if defined(__x86_64__) || defined(__i386__)
#define FIM_KERNELS_X86 1
#else
#define FIM_KERNELS_X86 0
#endif

namespace fim::kernels {

namespace {

// ---------------------------------------------------------------------------
// Per-thread counters. The hot loops pay one non-RMW relaxed store per
// kernel call (single writer: the owning thread); snapshots sum the
// registered blocks plus the totals of exited threads. TSan-clean.

struct LocalCounters;

struct CounterRegistry {
  Mutex mutex{LockRank::kKernelCounters, "KernelCounters"};
  std::vector<LocalCounters*> live FIM_GUARDED_BY(mutex);
  CounterSnapshot retired FIM_GUARDED_BY(mutex);
};

CounterRegistry& Registry() {
  static CounterRegistry& registry = *new CounterRegistry();
  return registry;
}

struct LocalCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> elements_in{0};
  std::atomic<std::uint64_t> elements_out{0};

  LocalCounters() {
    CounterRegistry& registry = Registry();
    const MutexLock lock(registry.mutex);
    registry.live.push_back(this);
  }

  ~LocalCounters() {
    CounterRegistry& registry = Registry();
    const MutexLock lock(registry.mutex);
    registry.retired.calls += calls.load(std::memory_order_relaxed);
    registry.retired.elements_in +=
        elements_in.load(std::memory_order_relaxed);
    registry.retired.elements_out +=
        elements_out.load(std::memory_order_relaxed);
    std::erase(registry.live, this);
  }
};

LocalCounters& Local() {
  thread_local LocalCounters counters;
  return counters;
}

// Single-writer relaxed add: no lock prefix, safe to read racily.
void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.

std::size_t ScalarIntersect(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
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
  CountCall(na + nb, k);
  return k;
}

std::size_t ScalarFilterNonzero(const std::uint32_t* items, std::size_t n,
                                const std::uint32_t* row, std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t item = items[i];
    if (row[item] != 0) out[k++] = item;
  }
  CountCall(n, k);
  return k;
}

constexpr IntersectKernel kScalarKernel = {
    KernelId::kScalar, "scalar",
    &ScalarIntersect, &ScalarFilterNonzero,
};

// ---------------------------------------------------------------------------
// Selection.

const IntersectKernel* BestSupported() {
  if (const IntersectKernel* avx2 = Avx2Kernel();
      avx2 != nullptr && CpuSupports(KernelId::kAvx2)) {
    return avx2;
  }
  return &kScalarKernel;
}

const IntersectKernel* FindByName(std::string_view name) {
  if (name == "scalar") return &kScalarKernel;
  if (name == "avx2") return Avx2Kernel();
  return nullptr;
}

bool Supported(const IntersectKernel* kernel) {
  return kernel != nullptr && CpuSupports(kernel->id);
}

const IntersectKernel* SelectAtStartup() {
  const char* env = std::getenv("FIM_KERNEL");
  const IntersectKernel* selected = nullptr;
  if (env != nullptr && env[0] != '\0') {
    const IntersectKernel* requested = FindByName(env);
    if (Supported(requested)) {
      selected = requested;
    } else {
      std::fprintf(stderr,
                   "fim: FIM_KERNEL=%s is not available on this CPU/build; "
                   "falling back to the best supported kernel\n",
                   env);
    }
  }
  if (selected == nullptr) selected = BestSupported();
  return selected;
}

}  // namespace

void CountCall(std::size_t elements_in, std::size_t elements_out) {
  LocalCounters& local = Local();
  Bump(local.calls, 1);
  Bump(local.elements_in, elements_in);
  Bump(local.elements_out, elements_out);
}

const IntersectKernel* ScalarKernel() { return &kScalarKernel; }

bool CpuSupports(KernelId id) {
  switch (id) {
    case KernelId::kScalar:
      return true;
    case KernelId::kAvx2:
#if FIM_KERNELS_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const IntersectKernel& Active() {
  static const IntersectKernel* const selected = SelectAtStartup();
  return *selected;
}

std::vector<const IntersectKernel*> AvailableKernels() {
  std::vector<const IntersectKernel*> kernels{&kScalarKernel};
  if (const IntersectKernel* avx2 = Avx2Kernel();
      avx2 != nullptr && CpuSupports(KernelId::kAvx2)) {
    kernels.push_back(avx2);
  }
  return kernels;
}

CounterSnapshot Counters() {
  CounterRegistry& registry = Registry();
  const MutexLock lock(registry.mutex);
  CounterSnapshot snapshot = registry.retired;
  for (const LocalCounters* local : registry.live) {
    snapshot.calls += local->calls.load(std::memory_order_relaxed);
    snapshot.elements_in +=
        local->elements_in.load(std::memory_order_relaxed);
    snapshot.elements_out +=
        local->elements_out.load(std::memory_order_relaxed);
  }
  return snapshot;
}

std::size_t GallopIntersect(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out) {
  // One-sided binary search: for each element of the short list, gallop
  // forward through the long list (exponential probe, then bisect the
  // bracketed range). O(na * log(nb/na)) — the win on skewed pairs.
  std::size_t k = 0;
  std::size_t lo = 0;
  for (std::size_t i = 0; i < na && lo < nb; ++i) {
    const std::uint32_t needle = a[i];
    // Exponential probe from the current frontier.
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < nb && b[hi] < needle) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    // Bisect [lo, hi) for the first element >= needle.
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (b[mid] < needle) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < nb && b[lo] == needle) {
      out[k++] = needle;
      ++lo;
    }
  }
  CountCall(na + nb, k);
  return k;
}

std::size_t Intersect(const std::uint32_t* a, std::size_t na,
                      const std::uint32_t* b, std::size_t nb,
                      std::uint32_t* out) {
  if (na == 0 || nb == 0) return 0;
  // Adaptive cutover: one-sided galloping beats even the SIMD merge once
  // the lengths diverge by kGallopRatio (the merge must still stream the
  // whole long list; galloping skips most of it).
  if (na > nb) {
    if (na >= kGallopRatio * nb) return GallopIntersect(b, nb, a, na, out);
  } else if (nb >= kGallopRatio * na) {
    return GallopIntersect(a, na, b, nb, out);
  }
  return Active().intersect(a, na, b, nb, out);
}

void IntersectInto(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::vector<std::uint32_t>* out) {
  // kIntersectPad of slack for the SIMD tier's full-vector stores.
  const std::size_t cap = std::min(a.size(), b.size()) + kIntersectPad;
  out->resize(cap);
  const std::size_t n =
      Intersect(a.data(), a.size(), b.data(), b.size(), out->data());
  out->resize(n);
}

}  // namespace fim::kernels
