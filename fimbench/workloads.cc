#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "data/generators.h"
#include "data/profiles.h"

namespace fim::bench {

const std::vector<Workload>& Workloads() {
  // Every workload times one kind of answer, so that each end-to-end
  // metric means one thing per workload. The pairs a queued change needs
  // (one workload that runs its mechanism, one that skips it) are noted
  // per workload; README.md has the full table.
  static const std::vector<Workload> kWorkloads = {
      // The paper's regime, few transactions and many items: the IsTa
      // prefix tree does the work, with no kernel calls. The control for
      // kernel changes and, at one thread, for parallel-driver changes.
      {.name = "yeast-ista",
       .dataset = Dataset::kYeast,
       .min_support = 20,
       .algorithm = Algorithm::kIsta,
       .reference = Algorithm::kCarpenterTable,
       .expected = Digest{28180, 8002862274301580096ULL},
       .expected_quick = Digest{180, 7385951798371039320ULL}},
      // Carpenter row enumeration over the suffix-count matrix: ~16M
      // kernel calls per answer, the target of kernel changes.
      {.name = "yeast-carpenter-table",
       .dataset = Dataset::kYeast,
       .min_support = 20,
       .algorithm = Algorithm::kCarpenterTable,
       .reference = Algorithm::kIsta,
       .expected = Digest{28180, 8002862274301580096ULL},
       .expected_quick = Digest{180, 7385951798371039320ULL}},
      // Item-set enumeration with closure checks: ~17M kernel calls per
      // answer (the CbO-style LCM early-stopping intersections target).
      {.name = "yeast-lcm",
       .dataset = Dataset::kYeast,
       .min_support = 30,
       .algorithm = Algorithm::kLcm,
       .reference = Algorithm::kIsta,
       .expected = Digest{9737, 4809971742520962057ULL},
       .expected_quick = Digest{179, 13424909470990688784ULL}},
      // 2M rows that deduplicate to ~2.6k weighted transactions: the data
      // layer (load, recode) dominates and the database outgrows the L3.
      {.name = "basket-large-ista",
       .dataset = Dataset::kBasketLarge,
       .min_support = 500,
       .algorithm = Algorithm::kIsta,
       .expected = Digest{6355, 10194026643063490905ULL},
       .expected_quick = Digest{6355, 6901519662822726323ULL}},
      // The same data through the sharded driver: parallel recode and
      // shard mining.
      {.name = "basket-large-ista-par",
       .dataset = Dataset::kBasketLarge,
       .min_support = 500,
       .algorithm = Algorithm::kIsta,
       .parallel = true,
       .expected = Digest{6355, 10194026643063490905ULL},
       .expected_quick = Digest{6355, 6901519662822726323ULL}},
      // Weak deduplication: the sharded driver's merge does ~7x the
      // sequential intersection work and dominates; the data layer is ~1%.
      {.name = "basket-junky-ista-par",
       .dataset = Dataset::kBasketJunky,
       .min_support = 30,
       .algorithm = Algorithm::kIsta,
       .parallel = true,
       .expected = Digest{998, 11256244397090849664ULL},
       .expected_quick = Digest{200, 3724090068387732076ULL}},
      // Writes beside reads: ingest 200 transactions, then query the
      // whole history. No recoding, so the control for data-layer changes.
      {.name = "stream-landmark",
       .dataset = Dataset::kStream,
       .min_support = 8,
       .stream = true,
       .first_query = 200,
       .query_every = 200,
       .expected = Digest{17919, 6797871736423450430ULL},
       .expected_quick = Digest{17686, 4189420932319046840ULL}},
      // A 16 x 128-transaction sliding window queried every 180
      // transactions: each query folds ~17 pane trees.
      {.name = "stream-window",
       .dataset = Dataset::kStream,
       .min_support = 8,
       .stream = true,
       .pane_size = 128,
       .window_panes = 16,
       .first_query = 2048,
       .query_every = 180,
       // Every window covers a --seed-dependent slice of the stream.
       .expected = std::nullopt,
       .expected_quick = std::nullopt},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

unsigned ParallelThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

MinerOptions AnswerOptions(const Workload& workload) {
  MinerOptions options;
  options.algorithm = workload.algorithm;
  options.min_support = workload.min_support;
  options.num_threads = workload.parallel ? ParallelThreads() : 1;
  return options;
}

TransactionDatabase BaseDatabase(Dataset dataset, bool quick) {
  MarketBasketConfig basket;
  switch (dataset) {
    case Dataset::kYeast:
      return MakeYeastLike(quick ? 0.1 : 0.5, 42);
    case Dataset::kBasketLarge:
      // Rows are pure pattern subsets, so millions of them collapse onto
      // a few thousand distinct transactions.
      basket.num_items = 200;
      basket.num_transactions = quick ? 50000 : 2000000;
      basket.avg_transaction_size = 1.0;
      basket.num_patterns = 20;
      basket.pattern_probability = 1.0;
      basket.pattern_keep_probability = 0.9;
      basket.avg_pattern_size = 6;
      basket.seed = 7;
      break;
    case Dataset::kBasketJunky:
      basket.num_items = 100;
      basket.num_transactions = quick ? 1000 : 3000;
      basket.avg_transaction_size = 6.0;
      basket.num_patterns = 20;
      basket.avg_pattern_size = 4;
      basket.seed = 7;
      break;
    case Dataset::kStream:
      basket.num_items = 200;
      basket.num_transactions = quick ? 4000 : 20000;
      basket.avg_transaction_size = 2.0;
      basket.num_patterns = 25;
      basket.pattern_probability = 0.9;
      basket.pattern_keep_probability = 0.85;
      basket.avg_pattern_size = 5;
      basket.seed = 21;
      break;
  }
  return GenerateMarketBasket(basket);
}

Encoding Encode(const TransactionDatabase& base, std::uint64_t seed,
                bool relabel_items) {
  Rng rng(seed);
  auto shuffle = [&rng](auto& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[rng.Uniform(i)]);
    }
  };
  std::vector<ItemId> to_encoded(base.NumItems());
  std::iota(to_encoded.begin(), to_encoded.end(), ItemId{0});
  std::vector<std::size_t> order(base.NumTransactions());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (seed != 0) {
    if (relabel_items) shuffle(to_encoded);
    shuffle(order);
  }

  Encoding encoding;
  encoding.to_base.resize(to_encoded.size());
  for (std::size_t item = 0; item < to_encoded.size(); ++item) {
    encoding.to_base[to_encoded[item]] = static_cast<ItemId>(item);
  }
  for (std::size_t k : order) {
    std::vector<ItemId> items = base.transaction(k);
    for (ItemId& item : items) item = to_encoded[item];
    encoding.db.AddTransaction(std::move(items));
  }
  encoding.db.SetNumItems(base.NumItems());
  return encoding;
}

std::vector<std::size_t> QueryPoints(const Workload& workload,
                                     std::size_t num_transactions) {
  std::vector<std::size_t> points;
  for (std::size_t p = workload.first_query; p <= num_transactions;
       p += workload.query_every) {
    points.push_back(p);
  }
  return points;
}

std::size_t WindowStart(const Workload& workload, std::size_t ingested) {
  if (workload.pane_size == 0) return 0;
  const std::size_t pane = ingested / workload.pane_size;
  if (pane + 1 < workload.window_panes) return 0;
  return (pane + 1 - workload.window_panes) * workload.pane_size;
}

bool IsCheckedQuery(std::size_t index, std::size_t num_queries) {
  return index % 10 == 9 || index + 1 == num_queries;
}

}  // namespace fim::bench
