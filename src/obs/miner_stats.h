#ifndef FIM_OBS_MINER_STATS_H_
#define FIM_OBS_MINER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fim {

/// The uniform execution-statistics snapshot every miner family fills
/// (optional output of MineClosed).
/// Fields are plain counters written by the single thread that owns the
/// respective mining state; parallel drivers keep one instance per
/// worker and aggregate with MergeFrom at their merge/reduction stage,
/// so the hot loops never touch shared state. Instrumentation is
/// output-neutral: mining results are bit-identical whether a snapshot
/// is requested or not.
///
/// Not every field is meaningful for every algorithm; unused fields stay
/// zero. The catalog (names, grouping, semantics) is documented in
/// docs/OBSERVABILITY.md.
struct MinerStats {
  // --- intersection family (IsTa, flat cumulative) ---------------------
  std::size_t isect_steps = 0;     // repository nodes visited / pairwise
                                   // set intersections while intersecting
  std::size_t peak_nodes = 0;      // max repository size
  std::size_t final_nodes = 0;     // repository size at report time
  std::size_t prune_calls = 0;     // item-elimination prunes
  std::size_t merge_calls = 0;     // pairwise repository merges (stream
                                   // snapshots; batch IsTa never merges)
  std::size_t weighted_transactions = 0;  // stream length after dedup
                                          // (every family)

  // --- transaction-set enumeration family (Carpenter table and lists) --
  std::size_t nodes_visited = 0;  // row-enumeration nodes expanded
  std::size_t repo_sets = 0;      // flat cumulative: distinct sets stored
  std::size_t repo_hits = 0;      // children the canonicity test prunes

  // --- item-set enumeration family (LCM, CHARM, FP-close) --------------
  std::size_t extension_checks = 0;   // candidate extensions examined
  std::size_t closure_checks = 0;     // closure computations / merges
  std::size_t subsume_checks = 0;     // subsumption comparisons
  std::size_t conditional_trees = 0;  // FP-close conditional projections
  std::size_t candidate_sets = 0;     // candidates before closed filter

  // --- universal --------------------------------------------------------
  std::size_t sets_reported = 0;  // closed sets delivered to the callback

  // --- intersection kernels (src/kernels/, docs/PERFORMANCE.md): counted
  //     by the miners that call them (Carpenter table, CHARM, flat
  //     cumulative) through CountKernelCall.
  std::size_t kernel_calls = 0;         // kernel invocations
  std::size_t kernel_elements_in = 0;   // input elements streamed
  std::size_t kernel_elements_out = 0;  // result elements produced

  /// Counts one kernel call that read `elements_in` elements and wrote
  /// `elements_out`.
  void CountKernelCall(std::size_t elements_in, std::size_t elements_out) {
    ++kernel_calls;
    kernel_elements_in += elements_in;
    kernel_elements_out += elements_out;
  }

  /// Aggregates a worker's snapshot into this one:
  /// peak_nodes and final_nodes take the maximum, everything else sums.
  void MergeFrom(const MinerStats& other);

  /// The full counter catalog as (name, value) pairs in a stable order —
  /// zero entries included, so exports always carry the whole schema.
  std::vector<std::pair<const char*, std::uint64_t>> Counters() const;
};

}  // namespace fim

#endif  // FIM_OBS_MINER_STATS_H_
