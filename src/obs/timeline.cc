#include "obs/timeline.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/json.h"

namespace fim::obs {

void TimelineLane::Push(TimelineEvent::Kind kind, std::string_view name,
                        double value) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  TimelineEvent& slot = slots_[head % capacity_];
  slot.ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  slot.value = value;
  slot.kind = kind;
  // End() passes an empty name whose data() may be null, which memcpy
  // must not see even for zero bytes.
  const std::size_t n = std::min(name.size(), TimelineEvent::kNameCapacity);
  if (n > 0) std::memcpy(slot.name, name.data(), n);
  // Zero the rest of the name too: every byte of a written slot is set,
  // so Snapshot() copies no uninitialized memory.
  std::memset(slot.name + n, 0, sizeof(slot.name) - n);
  head_.store(head + 1, std::memory_order_release);
}

std::vector<TimelineEvent> TimelineLane::Snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t capacity = capacity_;
  const std::uint64_t first = head > capacity ? head - capacity : 0;
  std::vector<TimelineEvent> events;
  events.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t i = first; i < head; ++i) {
    events.push_back(slots_[i % capacity]);
  }
  return events;
}

Timeline::Timeline(std::size_t capacity_per_lane)
    : capacity_per_lane_(std::max<std::size_t>(capacity_per_lane, 2)),
      epoch_(std::chrono::steady_clock::now()) {
  lanes_.push_back(
      std::make_unique<TimelineLane>("main", capacity_per_lane_, epoch_));
  driver_ = lanes_.front().get();
}

TimelineLane* Timeline::AddLane(std::string name) {
  const MutexLock lock(mutex_);
  lanes_.push_back(std::make_unique<TimelineLane>(
      std::move(name), capacity_per_lane_, epoch_));
  return lanes_.back().get();
}

std::size_t Timeline::NumLanes() const {
  const MutexLock lock(mutex_);
  return lanes_.size();
}

std::uint64_t Timeline::DroppedEvents() const {
  const MutexLock lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& lane : lanes_) dropped += lane->DroppedEvents();
  return dropped;
}

std::vector<const TimelineLane*> Timeline::Lanes() const {
  const MutexLock lock(mutex_);
  std::vector<const TimelineLane*> lanes;
  lanes.reserve(lanes_.size());
  for (const auto& lane : lanes_) lanes.push_back(lane.get());
  return lanes;
}

namespace {

/// Emits the shared ph/pid/tid/ts fields. Chrome trace timestamps are
/// microseconds.
void EventHeader(JsonWriter* writer, const char* phase, std::uint64_t tid,
                 std::uint64_t ts_ns) {
  writer->Key("ph");
  writer->String(phase);
  writer->Key("pid");
  writer->Number(std::uint64_t{1});
  writer->Key("tid");
  writer->Number(tid);
  writer->Key("ts");
  writer->Number(static_cast<double>(ts_ns) / 1000.0);
}

struct LaneExportStats {
  std::uint64_t skipped_orphan_ends = 0;
  std::uint64_t synthesized_ends = 0;
};

/// Writes one lane's events as exactly matched B/E pairs plus instants
/// and counters. Ring overwrite can orphan an end (its begin was lost)
/// or leave a begin unclosed (its end was never recorded or was
/// overwritten... impossible for ends, but the run may also have been
/// exported mid-phase); orphan ends are dropped and unclosed begins get
/// a synthetic end at the lane's last timestamp so the trace is always
/// well-formed.
void ExportLane(const TimelineLane& lane, std::uint64_t tid,
                JsonWriter* writer, LaneExportStats* stats) {
  // thread_name metadata so Perfetto labels the track.
  writer->BeginObject();
  writer->Key("name");
  writer->String("thread_name");
  EventHeader(writer, "M", tid, 0);
  writer->Key("args");
  writer->BeginObject();
  writer->Key("name");
  writer->String(lane.name());
  writer->EndObject();
  writer->EndObject();

  const std::vector<TimelineEvent> events = lane.Snapshot();
  std::vector<const char*> open;  // names of currently open begins
  std::uint64_t last_ts = 0;
  for (const TimelineEvent& event : events) {
    last_ts = std::max(last_ts, event.ts_ns);
    switch (event.kind) {
      case TimelineEvent::Kind::kBegin:
        open.push_back(event.name);
        writer->BeginObject();
        writer->Key("name");
        writer->String(event.name);
        EventHeader(writer, "B", tid, event.ts_ns);
        writer->EndObject();
        break;
      case TimelineEvent::Kind::kEnd:
        if (open.empty()) {
          ++stats->skipped_orphan_ends;
          break;
        }
        writer->BeginObject();
        writer->Key("name");
        writer->String(open.back());
        open.pop_back();
        EventHeader(writer, "E", tid, event.ts_ns);
        writer->EndObject();
        break;
      case TimelineEvent::Kind::kInstant:
        writer->BeginObject();
        writer->Key("name");
        writer->String(event.name);
        EventHeader(writer, "i", tid, event.ts_ns);
        writer->Key("s");
        writer->String("t");
        writer->EndObject();
        break;
      case TimelineEvent::Kind::kCounter:
        writer->BeginObject();
        writer->Key("name");
        writer->String(event.name);
        EventHeader(writer, "C", tid, event.ts_ns);
        writer->Key("args");
        writer->BeginObject();
        writer->Key("value");
        writer->Number(event.value);
        writer->EndObject();
        writer->EndObject();
        break;
    }
  }
  while (!open.empty()) {
    ++stats->synthesized_ends;
    writer->BeginObject();
    writer->Key("name");
    writer->String(open.back());
    open.pop_back();
    EventHeader(writer, "E", tid, last_ts);
    writer->EndObject();
  }
}

}  // namespace

std::string RenderChromeTrace(const Timeline& timeline, const TraceMeta& meta) {
  const std::vector<const TimelineLane*> lanes = timeline.Lanes();

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("displayTimeUnit");
  writer.String("ms");
  writer.Key("traceEvents");
  writer.BeginArray();
  LaneExportStats stats;
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    ExportLane(*lanes[tid], tid, &writer, &stats);
  }
  writer.EndArray();
  writer.Key("otherData");
  writer.BeginObject();
  writer.Key("schema");
  writer.String("fim-trace-v1");
  writer.Key("tool");
  writer.String(meta.tool);
  writer.Key("algorithm");
  writer.String(meta.algorithm);
  writer.Key("num_lanes");
  writer.Number(static_cast<std::uint64_t>(lanes.size()));
  writer.Key("dropped_events");
  writer.Number(timeline.DroppedEvents());
  writer.Key("skipped_orphan_ends");
  writer.Number(stats.skipped_orphan_ends);
  writer.Key("synthesized_ends");
  writer.Number(stats.synthesized_ends);
  writer.EndObject();
  writer.EndObject();
  std::string out = std::move(writer).Take();
  out.push_back('\n');
  return out;
}

Status WriteChromeTraceFile(const Timeline& timeline, const TraceMeta& meta,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << RenderChromeTrace(timeline, meta);
  out.flush();
  if (!out) {
    return Status::IoError("error writing " + path);
  }
  return Status::OK();
}

}  // namespace fim::obs
