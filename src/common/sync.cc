#include "common/sync.h"

#include <vector>

#include "common/check.h"

namespace fim {

namespace internal {

#ifdef FIM_ENABLE_DCHECKS

namespace {

struct HeldLock {
  const void* mutex;
  LockRank rank;
  const char* name;
};

/// The calling thread's acquisition stack, outermost first. Debug-only
/// and tiny (lock nesting in this codebase is depth <= 2), so a plain
/// vector is fine.
thread_local std::vector<HeldLock> held_locks;

const char* DisplayName(const char* name) {
  return (name != nullptr && name[0] != '\0') ? name : "<unnamed>";
}

}  // namespace

void LockRankCheckAcquire(const void* mutex, LockRank rank,
                          const char* name) {
  for (const HeldLock& held : held_locks) {
    FIM_CHECK(held.mutex != mutex)
        << "lock-rank: recursive acquisition of fim::Mutex "
        << DisplayName(name) << " (rank " << static_cast<std::uint32_t>(rank)
        << ") — fim::Mutex is non-recursive, this would self-deadlock";
    FIM_CHECK(static_cast<std::uint32_t>(held.rank) <
              static_cast<std::uint32_t>(rank))
        << "lock-rank inversion: acquiring " << DisplayName(name) << " (rank "
        << static_cast<std::uint32_t>(rank) << ") while holding "
        << DisplayName(held.name) << " (rank "
        << static_cast<std::uint32_t>(held.rank)
        << "); locks must be acquired in strictly increasing rank order "
           "(see the lock-rank table in docs/STATIC_ANALYSIS.md)";
  }
}

void LockRankRecordAcquire(const void* mutex, LockRank rank,
                           const char* name) {
  held_locks.push_back(HeldLock{mutex, rank, name});
}

void LockRankRecordRelease(const void* mutex) {
  // Locks are almost always released innermost-first, so scan from the
  // back; out-of-order release (unlock not matching the top) is legal
  // for a mutex, only the ordering of acquisitions matters for ranks.
  for (std::size_t i = held_locks.size(); i > 0; --i) {
    if (held_locks[i - 1].mutex == mutex) {
      held_locks.erase(held_locks.begin() +
                       static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
  FIM_CHECK(false)
      << "lock-rank: releasing a fim::Mutex the thread does not hold";
}

#endif  // FIM_ENABLE_DCHECKS

}  // namespace internal

}  // namespace fim
