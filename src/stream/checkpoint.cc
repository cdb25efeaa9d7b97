// Checkpoint/restore of a StreamMiner — the `fim-stream-v2` container
// format. Layout (little-endian, see docs/STREAMING.md):
//
//   char[4] "FIMS", u32 version (2)
//   u64 max_items, u64 pane_size, u64 window_panes
//   u64 transactions_ingested, u64 fill, u64 current_pane
//   u64 weighted_additions, u64 panes_rotated, u64 panes_expired,
//   u64 queries, u64 checkpoint_bytes_written, u64 checkpoint_bytes_read
//   u32 num_panes, then per live pane, oldest first:
//     u64 pane, u32 num_rows, then per row:
//       u32 weight, u32 length, ItemId[length]
//   char[4] "SMND" end marker
//
// The panes hold the covered transactions as distinct rows with weights,
// so a restored miner answers every later query exactly as the
// checkpointed one would. Restore validates everything — header
// coherence, that the panes are exactly the live ones, every row and
// weight, each pane's weight sum, and the end marker — and returns a
// clean InvalidArgument on any corruption or truncation.

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "data/binary_io.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "stream/stream_miner.h"

namespace fim {

namespace {

constexpr char kCheckpointMagic[4] = {'F', 'I', 'M', 'S'};
constexpr char kCheckpointEnd[4] = {'S', 'M', 'N', 'D'};
constexpr uint32_t kCheckpointVersion = 2;

/// Backstop against a corrupt header creating a miner whose every query
/// allocates per-item tables of gigabytes; 16M items stays two orders of
/// magnitude above the largest real dataset (webview, ~1M items).
constexpr uint64_t kMaxCheckpointItems = uint64_t{1} << 24;

using io::ReadPod;
using io::WritePod;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("fim-stream-v2 checkpoint: " + what);
}

void WritePane(std::ostream& out, uint64_t pane,
               const WeightedTransactions& rows) {
  WritePod(out, pane);
  WritePod(out, static_cast<uint32_t>(rows.NumRows()));
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    WritePod(out, rows.weights[r]);
    WritePod(out, static_cast<uint32_t>(rows.Row(r).size()));
    for (ItemId item : rows.Row(r)) WritePod(out, item);
  }
}

/// Reads pane `pane` into `folder`: its rows must be distinct normalized
/// transactions over `max_items` items, with weights >= 1 that sum to
/// `weight`.
Status ReadPane(std::istream& in, uint64_t pane, uint64_t weight,
                uint64_t max_items, RowFolder* folder) {
  const std::string name = "pane " + std::to_string(pane);
  uint64_t stored_pane = 0;
  uint32_t num_rows = 0;
  if (!ReadPod(in, &stored_pane) || !ReadPod(in, &num_rows)) {
    return Corrupt("truncated pane table");
  }
  if (stored_pane != pane) {
    return Corrupt("pane " + std::to_string(stored_pane) +
                   " outside the window (expected " + name + ")");
  }
  uint64_t sum = 0;
  std::vector<ItemId> row;
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t row_weight = 0;
    uint32_t length = 0;
    if (!ReadPod(in, &row_weight) || !ReadPod(in, &length)) {
      return Corrupt("truncated " + name);
    }
    if (row_weight == 0) return Corrupt(name + " holds a row of weight 0");
    sum += row_weight;
    if (sum > weight) {
      return Corrupt(name + " weighs more than its " + std::to_string(weight) +
                     " transactions");
    }
    if (length == 0 || length > max_items) {
      return Corrupt(name + " holds a row of length " +
                     std::to_string(length));
    }
    row.resize(length);
    for (ItemId& item : row) {
      if (!ReadPod(in, &item)) return Corrupt("truncated " + name);
    }
    for (uint32_t k = 0; k < length; ++k) {
      if (row[k] >= max_items || (k > 0 && row[k] <= row[k - 1])) {
        return Corrupt(name + " holds a row that is not a normalized "
                       "transaction");
      }
    }
    const std::size_t held = folder->rows().NumRows();
    folder->Add(row, row_weight);
    if (folder->rows().NumRows() == held) {
      return Corrupt(name + " holds a row twice");
    }
  }
  if (sum != weight) {
    return Corrupt(name + " weighs " + std::to_string(sum) + ", not " +
                   std::to_string(weight));
  }
  return Status::OK();
}

}  // namespace

Status StreamMiner::CheckpointTo(std::ostream& out) {
  obs::Phase checkpoint_phase(options_.trace, lane_, "checkpoint");
  FrozenState frozen;
  {
    const MutexLock lock(mutex_);
    frozen = FreezeLocked();
  }
  // Everything below writes immutable shared panes and private copies,
  // so ingest and queries proceed concurrently with the write.
  const std::streampos begin = out.tellp();
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  WritePod(out, kCheckpointVersion);
  WritePod(out, static_cast<uint64_t>(options_.max_items));
  WritePod(out, static_cast<uint64_t>(options_.pane_size));
  WritePod(out, static_cast<uint64_t>(options_.window_panes));
  WritePod(out, frozen.ingested);
  WritePod(out, frozen.fill);
  WritePod(out, frozen.current_pane);
  WritePod(out, frozen.counters.weighted_additions);
  WritePod(out, frozen.counters.panes_rotated);
  WritePod(out, frozen.counters.panes_expired);
  WritePod(out, frozen.counters.queries);
  WritePod(out, frozen.counters.checkpoint_bytes_written);
  WritePod(out, frozen.counters.checkpoint_bytes_read);
  const bool filling = frozen.filling.NumRows() > 0;
  WritePod(out, static_cast<uint32_t>(frozen.completed.size() +
                                      (filling ? 1 : 0)));
  uint64_t pane = frozen.current_pane - frozen.completed.size();
  for (const Pane& completed : frozen.completed) {
    WritePane(out, pane++, *completed);
  }
  if (filling) WritePane(out, pane, frozen.filling);
  out.write(kCheckpointEnd, sizeof(kCheckpointEnd));
  out.flush();
  if (!out) return Status::IoError("write failure while checkpointing");
  const std::streampos end = out.tellp();
  const std::uint64_t bytes =
      (begin >= 0 && end >= 0 && end > begin)
          ? static_cast<std::uint64_t>(end - begin)
          : 0;
  {
    const MutexLock lock(mutex_);
    counters_.checkpoint_bytes_written += bytes;
  }
  return Status::OK();
}

Status StreamMiner::Checkpoint(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return CheckpointTo(out);
}

Result<std::unique_ptr<StreamMiner>> StreamMiner::RestoreFrom(
    std::istream& in, obs::Trace* trace, obs::Timeline* timeline) {
  const std::streampos begin = in.tellg();
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Corrupt("bad magic (not a stream checkpoint)");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Corrupt("truncated header");
  if (version != kCheckpointVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  uint64_t max_items = 0;
  uint64_t pane_size = 0;
  uint64_t window_panes = 0;
  uint64_t ingested = 0;
  uint64_t fill = 0;
  uint64_t current_pane = 0;
  if (!ReadPod(in, &max_items) || !ReadPod(in, &pane_size) ||
      !ReadPod(in, &window_panes) || !ReadPod(in, &ingested) ||
      !ReadPod(in, &fill) || !ReadPod(in, &current_pane)) {
    return Corrupt("truncated header");
  }
  if (max_items == 0 || max_items > kMaxCheckpointItems) {
    return Corrupt("implausible item universe size " +
                   std::to_string(max_items));
  }
  if ((pane_size == 0) != (window_panes == 0)) {
    return Corrupt("pane_size/window_panes must select one mode");
  }
  if (pane_size > 0) {
    if (current_pane != ingested / pane_size || fill != ingested % pane_size) {
      return Corrupt("pane bookkeeping inconsistent with stream position");
    }
  } else if (fill != 0 || current_pane != 0) {
    return Corrupt("landmark checkpoint carries pane bookkeeping");
  }

  StreamStats counters;
  counters.transactions_ingested = ingested;
  if (!ReadPod(in, &counters.weighted_additions) ||
      !ReadPod(in, &counters.panes_rotated) ||
      !ReadPod(in, &counters.panes_expired) ||
      !ReadPod(in, &counters.queries) ||
      !ReadPod(in, &counters.checkpoint_bytes_written) ||
      !ReadPod(in, &counters.checkpoint_bytes_read)) {
    return Corrupt("truncated counters");
  }

  // The live panes follow from the header: the completed panes of the
  // window, then the filling pane if it holds transactions (landmark
  // mode: the one pane, holding the whole stream).
  const uint64_t first_pane =
      pane_size > 0 && current_pane >= window_panes - 1
          ? current_pane - (window_panes - 1)
          : 0;
  const uint64_t completed = current_pane - first_pane;
  const uint64_t filling_weight = pane_size > 0 ? fill : ingested;
  constexpr uint64_t kLimit = std::numeric_limits<Support>::max();
  if (filling_weight > kLimit ||
      (completed > 0 && pane_size > (kLimit - filling_weight) / completed)) {
    return Corrupt("the window holds more transactions than a support can "
                   "count");
  }
  uint32_t num_panes = 0;
  if (!ReadPod(in, &num_panes)) return Corrupt("truncated pane table");
  if (num_panes != completed + (filling_weight > 0 ? 1 : 0)) {
    return Corrupt(std::to_string(num_panes) + " panes stored, but the " +
                   "window holds " + std::to_string(completed) +
                   " completed panes and " + std::to_string(filling_weight) +
                   " filling transactions");
  }
  std::vector<Pane> panes;
  for (uint64_t pane = first_pane; pane < current_pane; ++pane) {
    RowFolder folder(RowFold::kHash);
    Status status = ReadPane(in, pane, pane_size, max_items, &folder);
    if (!status.ok()) return status;
    panes.push_back(
        std::make_shared<const WeightedTransactions>(folder.Take()));
  }
  RowFolder filling(RowFold::kHash);
  if (filling_weight > 0) {
    Status status =
        ReadPane(in, current_pane, filling_weight, max_items, &filling);
    if (!status.ok()) return status;
  }
  char end_marker[4];
  in.read(end_marker, sizeof(end_marker));
  if (!in || std::memcmp(end_marker, kCheckpointEnd, sizeof(end_marker)) != 0) {
    return Corrupt("missing end marker (truncated checkpoint)");
  }

  StreamMinerOptions options;
  options.max_items = static_cast<std::size_t>(max_items);
  options.pane_size = static_cast<std::size_t>(pane_size);
  options.window_panes = static_cast<std::size_t>(window_panes);
  options.trace = trace;
  options.timeline = timeline;
  auto miner = std::make_unique<StreamMiner>(options);
  const std::streampos end = in.tellg();
  const std::uint64_t bytes =
      (begin >= 0 && end >= 0 && end > begin)
          ? static_cast<std::uint64_t>(end - begin)
          : 0;
  counters.checkpoint_bytes_read += bytes;
  {
    // The miner is not shared yet; the lock exists to satisfy the
    // guarded-field contract (and costs one uncontended acquisition).
    const MutexLock lock(miner->mutex_);
    miner->completed_ = std::move(panes);
    miner->filling_ = std::move(filling);
    miner->ingested_ = ingested;
    miner->fill_ = fill;
    miner->current_pane_ = current_pane;
    miner->counters_ = counters;
  }
  return miner;
}

Result<std::unique_ptr<StreamMiner>> StreamMiner::Restore(
    const std::string& path, obs::Trace* trace, obs::Timeline* timeline) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return RestoreFrom(in, trace, timeline);
}

}  // namespace fim
