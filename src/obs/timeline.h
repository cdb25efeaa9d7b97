#ifndef FIM_OBS_TIMELINE_H_
#define FIM_OBS_TIMELINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "obs/trace.h"

namespace fim::obs {

/// One recorded timeline event. Fixed 64-byte layout: the name is copied
/// into the event (truncated if longer than kNameCapacity), so recording
/// never allocates and never holds a reference into caller memory. The
/// fields have no initializers, so a lane's ring is allocated without
/// being written (see TimelineLane); value-initialize a standalone event
/// (`TimelineEvent event{};`).
struct TimelineEvent {
  enum class Kind : std::uint8_t {
    kBegin,    // opens a phase on the lane's stack
    kEnd,      // closes the innermost open phase
    kInstant,  // a point-in-time marker
    kCounter,  // a named value sample
  };

  static constexpr std::size_t kNameCapacity = 46;  // excl. terminator

  std::uint64_t ts_ns;  // nanoseconds since the Timeline epoch
  double value;         // kCounter only
  Kind kind;
  char name[kNameCapacity + 1];  // NUL-terminated, possibly truncated
};
static_assert(sizeof(TimelineEvent) == 64, "TimelineEvent should stay compact");

/// A single-writer event lane, one per recording thread. Events go into a
/// fixed-capacity ring: when the ring is full the oldest events are
/// overwritten and counted — never a silent truncation; the exporter and
/// DroppedEvents() expose the exact number lost. The ring is allocated
/// but not initialized, so only the slots written so far become resident
/// and count towards the peak RSS; Snapshot() reads only those.
///
/// Thread contract: exactly one thread calls the recording methods of a
/// lane (the thread the lane was created for). The write index is
/// published with a release store per event (one relaxed load + one
/// release store, no CAS, no locks), so any thread that has synchronized
/// with the writer — e.g. joined it, which every driver does before
/// exporting — reads fully written events. TSan-clean by construction.
class TimelineLane {
 public:
  TimelineLane(std::string name, std::size_t capacity,
               std::chrono::steady_clock::time_point epoch)
      : name_(std::move(name)),
        epoch_(epoch),
        capacity_(capacity),
        slots_(std::make_unique_for_overwrite<TimelineEvent[]>(capacity)) {}

  TimelineLane(const TimelineLane&) = delete;
  TimelineLane& operator=(const TimelineLane&) = delete;

  void Begin(std::string_view name) {
    Push(TimelineEvent::Kind::kBegin, name, 0.0);
  }

  /// Closes the innermost open phase (Chrome "E" events need no name).
  void End() { Push(TimelineEvent::Kind::kEnd, {}, 0.0); }

  void Instant(std::string_view name) {
    Push(TimelineEvent::Kind::kInstant, name, 0.0);
  }

  void Counter(std::string_view name, double value) {
    Push(TimelineEvent::Kind::kCounter, name, value);
  }

  const std::string& name() const { return name_; }

  /// Events recorded over the lane's lifetime (including overwritten
  /// ones).
  std::uint64_t TotalEvents() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Events lost to ring overwrite (the oldest ones).
  std::uint64_t DroppedEvents() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return head > capacity_ ? head - capacity_ : 0;
  }

  /// Copies the surviving events out in recording order. Only call after
  /// synchronizing with the writing thread (join).
  std::vector<TimelineEvent> Snapshot() const;

 private:
  void Push(TimelineEvent::Kind kind, std::string_view name, double value);

  const std::string name_;
  const std::chrono::steady_clock::time_point epoch_;
  const std::size_t capacity_;
  const std::unique_ptr<TimelineEvent[]> slots_;
  // Monotone write index; slot = head_ % capacity. Only the owning
  // thread writes it (release store after filling the slot).
  std::atomic<std::uint64_t> head_{0};
};

/// A per-run collection of timeline lanes — the event-level counterpart
/// of the aggregating obs::Trace. The driving thread records into the
/// built-in "main" lane (`driver()`); every worker thread registers its
/// own lane with `AddLane` (mutex-protected registration, lock-free
/// recording afterwards). All lanes share one epoch, so their timestamps
/// interleave correctly in the exported trace.
///
/// Memory is bounded: each lane owns `capacity` preallocated 64-byte
/// slots and overflow overwrites the oldest events, counted per lane.
class Timeline {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

  explicit Timeline(std::size_t capacity_per_lane = kDefaultCapacity);

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// The driving thread's lane (always present, named "main"). Reads a
  /// pointer cached at construction, so it is safe to call while other
  /// threads register lanes (AddLane may reallocate the lane vector).
  TimelineLane* driver() { return driver_; }

  /// Registers a new lane for the calling worker thread. Safe to call
  /// from any thread; the returned lane must only be written by its
  /// thread. Lane pointers stay valid for the Timeline's lifetime.
  TimelineLane* AddLane(std::string name) FIM_EXCLUDES(mutex_);

  /// Number of lanes registered so far.
  std::size_t NumLanes() const FIM_EXCLUDES(mutex_);

  /// Sum of DroppedEvents over all lanes.
  std::uint64_t DroppedEvents() const FIM_EXCLUDES(mutex_);

  /// Snapshot of the lane pointers (indexed by lane id, i.e. trace tid).
  std::vector<const TimelineLane*> Lanes() const FIM_EXCLUDES(mutex_);

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

 private:
  const std::size_t capacity_per_lane_;
  const std::chrono::steady_clock::time_point epoch_;
  /// Guards lane registration only; recording on a lane is lock-free.
  mutable Mutex mutex_{LockRank::kTimeline, "Timeline"};
  std::vector<std::unique_ptr<TimelineLane>> lanes_ FIM_GUARDED_BY(mutex_);
  TimelineLane* driver_ = nullptr;  // == lanes_[0], vector-independent
};

/// RAII begin/end guard over a lane; a nullptr lane makes it a no-op, so
/// instrumented code needs no branches (same contract as obs::Span).
class TimelineScope {
 public:
  TimelineScope(TimelineLane* lane, std::string_view name) : lane_(lane) {
    if (lane_ != nullptr) lane_->Begin(name);
  }

  TimelineScope(const TimelineScope&) = delete;
  TimelineScope& operator=(const TimelineScope&) = delete;

  /// Closes the scope now; the destructor then does nothing.
  void End() {
    if (lane_ != nullptr) {
      lane_->End();
      lane_ = nullptr;
    }
  }

  ~TimelineScope() { End(); }

 private:
  TimelineLane* lane_;
};

/// Combined phase guard: one aggregated span in `trace` plus one
/// begin/end event pair on `lane`, either of which may be nullptr. This
/// is what the miners use so every phase shows up in both the --stats
/// span tree and the --trace-out timeline with a single guard object.
class Phase {
 public:
  Phase(Trace* trace, TimelineLane* lane, std::string_view name)
      : span_(trace, name), scope_(lane, name) {}

  void End() {
    span_.End();
    scope_.End();
  }

 private:
  Span span_;
  TimelineScope scope_;
};

/// Identification stamped into the exported trace's otherData section.
struct TraceMeta {
  std::string tool;       // "fim-mine", "fim-stream", ...
  std::string algorithm;  // free-form label, may be empty
};

/// Renders the timeline as Chrome trace-event JSON (`fim-trace-v1`),
/// loadable directly in chrome://tracing and Perfetto. One trace tid per
/// lane; lane names become thread_name metadata events. Begin/end pairs
/// are re-balanced per lane: orphan ends (their begin was overwritten)
/// are skipped and unclosed begins get a synthetic end at the lane's
/// last timestamp, so the output always contains exactly matched B/E
/// pairs; the otherData section reports dropped_events,
/// skipped_orphan_ends and synthesized_ends. Only call after the
/// recording threads have quiesced.
std::string RenderChromeTrace(const Timeline& timeline, const TraceMeta& meta);

/// RenderChromeTrace to a file; IoError when the file cannot be written.
Status WriteChromeTraceFile(const Timeline& timeline, const TraceMeta& meta,
                            const std::string& path);

}  // namespace fim::obs

#endif  // FIM_OBS_TIMELINE_H_
