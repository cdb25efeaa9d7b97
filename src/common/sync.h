#ifndef FIM_COMMON_SYNC_H_
#define FIM_COMMON_SYNC_H_

// Annotated synchronization primitives: fim::Mutex and fim::MutexLock
// wrap the std primitives and carry Clang Thread Safety Analysis
// capability attributes, so a build with -Wthread-safety (the
// FIM_THREAD_SAFETY CMake option) statically proves that every access to
// a FIM_GUARDED_BY field happens under its lock. On non-Clang compilers
// the attributes expand to nothing and the wrappers behave exactly like
// the std types they hold.
//
// In addition every fim::Mutex is constructed with a LockRank. Debug
// builds (FIM_ENABLE_DCHECKS) maintain a thread-local stack of held
// ranks and abort on any acquisition that is not strictly rank-
// increasing, turning a potential deadlock (lock-order inversion) into a
// deterministic test failure at the first wrong acquisition — see
// docs/STATIC_ANALYSIS.md for the rank table.

#include <cstdint>
#include <mutex>

#if defined(__clang__)
#define FIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FIM_THREAD_ANNOTATION(x)
#endif

/// Declares a class to be a lockable capability ("mutex").
#define FIM_CAPABILITY(x) FIM_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires in its constructor and releases
/// in its destructor.
#define FIM_SCOPED_CAPABILITY FIM_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: reads and writes require holding `x`.
#define FIM_GUARDED_BY(x) FIM_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field annotation: the pointee is protected by `x`.
#define FIM_PT_GUARDED_BY(x) FIM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function annotation: the caller must hold the listed capabilities.
#define FIM_REQUIRES(...) \
  FIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function annotation: acquires the listed capabilities.
#define FIM_ACQUIRE(...) \
  FIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function annotation: releases the listed capabilities.
#define FIM_RELEASE(...) \
  FIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function annotation: the caller must NOT hold the listed capabilities
/// (the function acquires them itself; guards against self-deadlock).
#define FIM_EXCLUDES(...) FIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function annotation: asserts the capability is held without acquiring.
#define FIM_ASSERT_CAPABILITY(x) FIM_THREAD_ANNOTATION(assert_capability(x))

/// Function annotation: returns a reference to the capability guarding
/// the returned data.
#define FIM_RETURN_CAPABILITY(x) FIM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs
/// a comment explaining why the access is safe.
#define FIM_NO_THREAD_SAFETY_ANALYSIS \
  FIM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace fim {

/// Deadlock-freedom ranks, one per mutex site in the codebase. Locks
/// must be acquired in strictly increasing rank order on every thread;
/// a mutex whose critical sections never acquire another lock (a leaf)
/// gets the highest rank among the locks it can be nested under. The
/// gaps leave room for future subsystems (fim-serve, distributed
/// mining) without renumbering.
enum class LockRank : std::uint32_t {
  /// StreamMiner::mutex_ — seal / rotate / freeze protocol. Lowest rank:
  /// a miner critical section may register timeline lanes, never the
  /// other way around.
  kStreamMiner = 100,

  /// Timeline::mutex_ — lane registration only (recording is lock-free).
  kTimeline = 300,

  /// kernels::CounterRegistry mutex — thread-local counter-block
  /// registration and snapshots. A leaf: held only while splicing a TLS
  /// block in/out or summing a snapshot.
  kKernelCounters = 350,

  /// obs::PerfDomainCollector::mutex_ — per-domain CPU and work-step
  /// sample appends from worker threads. A leaf: Record copies one
  /// sample into a vector and takes no other lock.
  kPerfDomains = 375,

  /// obs::MemoryBreakdown::mutex_ — memory-component snapshot records
  /// from miners and tools. A leaf like the perf-domain collector:
  /// Record merges one component tree and takes no other lock.
  kMemoryBreakdown = 390,

  /// For tests and tools that need an unordered standalone lock.
  kLeaf = 1000,
};

namespace internal {

#ifdef FIM_ENABLE_DCHECKS
/// Aborts via FIM_CHECK when acquiring `mutex` would violate the rank
/// order against the calling thread's currently held locks. Called
/// before blocking on the lock, so an inversion fails deterministically
/// instead of deadlocking intermittently.
void LockRankCheckAcquire(const void* mutex, LockRank rank, const char* name);

/// Records `mutex` as held by the calling thread.
void LockRankRecordAcquire(const void* mutex, LockRank rank, const char* name);

/// Removes `mutex` from the calling thread's held set.
void LockRankRecordRelease(const void* mutex);
#endif  // FIM_ENABLE_DCHECKS

}  // namespace internal

/// A std::mutex carrying a thread-safety capability and a deadlock rank.
/// Prefer MutexLock for scoped acquisition; Lock/Unlock exist for the
/// few places that need explicit control.
class FIM_CAPABILITY("mutex") Mutex {
 public:
  /// `name` is used in lock-rank failure messages only; it must outlive
  /// the mutex (string literals do).
  explicit Mutex(LockRank rank, const char* name = "")
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FIM_ACQUIRE() {
#ifdef FIM_ENABLE_DCHECKS
    internal::LockRankCheckAcquire(this, rank_, name_);
#endif
    mu_.lock();
#ifdef FIM_ENABLE_DCHECKS
    internal::LockRankRecordAcquire(this, rank_, name_);
#endif
  }

  void Unlock() FIM_RELEASE() {
#ifdef FIM_ENABLE_DCHECKS
    internal::LockRankRecordRelease(this);
#endif
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII lock guard over a fim::Mutex (the annotated replacement for
/// std::lock_guard / std::scoped_lock on one mutex).
class FIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FIM_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() FIM_RELEASE() { mutex_.Unlock(); }

 private:
  Mutex& mutex_;
};

}  // namespace fim

#endif  // FIM_COMMON_SYNC_H_
