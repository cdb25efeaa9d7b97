#include "api/miner.h"

#include "kernels/intersect.h"
#include "obs/memory.h"
#include "obs/timeline.h"

#include "carpenter/carpenter.h"
#include "carpenter/cobbler.h"
#include "cumulative/flat_cumulative.h"
#include "enumeration/charm.h"
#include "enumeration/fpclose.h"
#include "enumeration/transposed.h"
#include "enumeration/lcm.h"
#include "ista/ista.h"

namespace fim {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kIsta:
      return "ista";
    case Algorithm::kCarpenterLists:
      return "carpenter-lists";
    case Algorithm::kCarpenterTable:
      return "carpenter-table";
    case Algorithm::kFlatCumulative:
      return "flat-cumulative";
    case Algorithm::kFpClose:
      return "fpclose";
    case Algorithm::kLcm:
      return "lcm";
    case Algorithm::kCharm:
      return "charm";
    case Algorithm::kTransposed:
      return "transposed";
    case Algorithm::kCobbler:
      return "cobbler";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(std::string_view name) {
  for (Algorithm algorithm : AllAlgorithms()) {
    if (name == AlgorithmName(algorithm)) return algorithm;
  }
  return Status::NotFound("unknown algorithm '" + std::string(name) + "'");
}

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm>& all = *new std::vector<Algorithm>{
      Algorithm::kIsta,          Algorithm::kCarpenterLists,
      Algorithm::kCarpenterTable, Algorithm::kFlatCumulative,
      Algorithm::kFpClose,       Algorithm::kLcm,
      Algorithm::kCharm,         Algorithm::kTransposed,
      Algorithm::kCobbler,
  };
  return all;
}

namespace {

Status MineClosedDispatch(const TransactionDatabase& db,
                          const MinerOptions& options,
                          const ClosedSetCallback& callback, MinerStats* stats,
                          obs::Trace* trace) {
  switch (options.algorithm) {
    case Algorithm::kIsta: {
      IstaOptions ista;
      ista.min_support = options.min_support;
      ista.item_order = options.item_order;
      ista.transaction_order = options.transaction_order;
      ista.item_elimination = options.item_elimination;
      ista.num_threads = options.num_threads;
      ista.timeline = options.timeline;
      ista.perf_domains = options.perf_domains;
      ista.memory = options.memory;
      return MineClosedIsta(db, ista, callback, stats, trace);
    }
    case Algorithm::kCarpenterLists:
    case Algorithm::kCarpenterTable: {
      CarpenterOptions carpenter;
      carpenter.min_support = options.min_support;
      carpenter.item_order = options.item_order;
      carpenter.transaction_order = options.transaction_order;
      carpenter.item_elimination = options.item_elimination;
      carpenter.memory = options.memory;
      if (options.algorithm == Algorithm::kCarpenterLists) {
        return MineClosedCarpenterLists(db, carpenter, callback, stats);
      }
      return MineClosedCarpenterTable(db, carpenter, callback, stats);
    }
    case Algorithm::kFlatCumulative: {
      FlatCumulativeOptions flat;
      flat.min_support = options.min_support;
      flat.item_elimination = options.item_elimination;
      flat.transaction_order = options.transaction_order;
      flat.memory = options.memory;
      return MineClosedFlatCumulative(db, flat, callback, stats);
    }
    case Algorithm::kFpClose: {
      FpCloseOptions fpclose;
      fpclose.min_support = options.min_support;
      fpclose.memory = options.memory;
      return MineClosedFpClose(db, fpclose, callback, stats);
    }
    case Algorithm::kLcm: {
      LcmOptions lcm;
      lcm.min_support = options.min_support;
      lcm.num_threads = options.num_threads;
      lcm.memory = options.memory;
      return MineClosedLcm(db, lcm, callback, stats);
    }
    case Algorithm::kCharm: {
      CharmOptions charm;
      charm.min_support = options.min_support;
      charm.memory = options.memory;
      return MineClosedCharm(db, charm, callback, stats);
    }
    case Algorithm::kTransposed: {
      TransposedOptions transposed;
      transposed.min_support = options.min_support;
      transposed.memory = options.memory;
      return MineClosedTransposed(db, transposed, callback, stats);
    }
    case Algorithm::kCobbler: {
      CobblerOptions cobbler;
      cobbler.min_support = options.min_support;
      cobbler.item_order = options.item_order;
      cobbler.transaction_order = options.transaction_order;
      cobbler.item_elimination = options.item_elimination;
      cobbler.memory = options.memory;
      return MineClosedCobbler(db, cobbler, callback, stats);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace

Status MineClosed(const TransactionDatabase& db, const MinerOptions& options,
                  const ClosedSetCallback& callback, MinerStats* stats,
                  obs::Trace* trace) {
  // Every algorithm mines inside one "mine" span (and one "mine"
  // timeline event pair on the driver lane); IsTa nests its internal
  // phases below it.
  obs::TimelineLane* lane =
      options.timeline != nullptr ? options.timeline->driver() : nullptr;
  obs::Phase mine_phase(trace, lane, "mine");
  // The per-family entry points reset *stats before filling it, so the
  // kernel delta must be applied after the dispatch returns. The
  // snapshots are exact here: every family joins its workers before
  // returning, so all thread-local kernel counters are quiescent.
  const kernels::CounterSnapshot before = kernels::Counters();
  // Allocations of the driving thread during the mine are tagged kMine;
  // IsTa tags its prefix tree kIstaTree.
  obs::MemDomainScope mem_domain(obs::MemDomain::kMine);
  const Status status = MineClosedDispatch(db, options, callback, stats, trace);
  if (stats != nullptr) {
    const kernels::CounterSnapshot after = kernels::Counters();
    stats->kernel_calls += after.calls - before.calls;
    stats->kernel_elements_in += after.elements_in - before.elements_in;
    stats->kernel_elements_out += after.elements_out - before.elements_out;
  }
  return status;
}

Result<std::vector<ClosedItemset>> MineClosedCollect(
    const TransactionDatabase& db, const MinerOptions& options,
    MinerStats* stats, obs::Trace* trace) {
  ClosedSetCollector collector;
  Status status = MineClosed(db, options, collector.AsCallback(), stats, trace);
  if (!status.ok()) return status;
  collector.SortCanonical();
  return collector.TakeSets();
}

}  // namespace fim
