#ifndef FIMBENCH_WORKLOADS_H_
#define FIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "api/miner.h"
#include "data/transaction_database.h"
#include "harness.h"

namespace fim::bench {

/// The generated databases the workloads run on, each from its
/// historical generator and generator seed.
enum class Dataset {
  kYeast,        // MakeYeastLike(0.5, 42): 300 tx x 6316 items
  kBasketLarge,  // 2M basket rows over 200 items, generator seed 7
  kBasketJunky,  // 3000 basket rows over 100 items, generator seed 7
  kStream,       // 20k basket rows over 200 items, generator seed 21
};

/// One workload: a database plus the operation the benchmark times on
/// it. A batch workload times one MineClosed call per answer; a stream
/// workload times, per answer, the ingest of the transactions since the
/// previous query plus one Query.
struct Workload {
  const char* name;
  Dataset dataset;
  Support min_support;

  // Batch: the timed algorithm and the untimed reference it is checked
  // against.
  Algorithm algorithm = Algorithm::kIsta;
  bool parallel = false;  // ParallelThreads() threads instead of 1
  Algorithm reference = Algorithm::kFpClose;

  // Stream: landmark when pane_size == 0.
  bool stream = false;
  std::size_t pane_size = 0;
  std::size_t window_panes = 0;
  std::size_t first_query = 0;  // transactions ingested before query 0
  std::size_t query_every = 0;  // transactions between queries

  /// Digest of the reference output in the base labelling, committed at
  /// full and at --quick scale. It does not depend on --seed (see
  /// Encode), so every run is checked against it. Batch workloads check
  /// their answer; stream workloads the final query when it covers the
  /// whole stream (landmark).
  std::optional<Digest> expected;
  std::optional<Digest> expected_quick;
};

const std::vector<Workload>& Workloads();

/// nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);

/// Worker threads of the parallel workloads: min(4, hardware threads).
unsigned ParallelThreads();

/// The options of a batch workload's timed MineClosed call.
MinerOptions AnswerOptions(const Workload& workload);

/// The dataset in its base labelling; --quick shrinks it so that every
/// workload runs in well under a second.
TransactionDatabase BaseDatabase(Dataset dataset, bool quick);

/// One --seed's encoding of a base database: the transactions in a
/// random order and, with `relabel_items`, the items under a random
/// renaming. Mining work and output are the same up to the renaming for
/// every seed, so seeds differ in their input bytes but not in the
/// workload they measure. Seed 0 is the identity.
struct Encoding {
  TransactionDatabase db;
  std::vector<ItemId> to_base;  // encoded item -> base item
};
Encoding Encode(const TransactionDatabase& base, std::uint64_t seed,
                bool relabel_items);

/// For a stream workload over `num_transactions` transactions: how many
/// transactions have been ingested when each query runs.
std::vector<std::size_t> QueryPoints(const Workload& workload,
                                     std::size_t num_transactions);

/// Index of the first transaction a query covers after `ingested`
/// transactions (the StreamMiner window: the filling pane plus the
/// window_panes - 1 panes before it; 0 in landmark mode).
std::size_t WindowStart(const Workload& workload, std::size_t ingested);

/// Whether query `index` of `num_queries` is checked against a reference
/// (every tenth and the last).
bool IsCheckedQuery(std::size_t index, std::size_t num_queries);

}  // namespace fim::bench

#endif  // FIMBENCH_WORKLOADS_H_
