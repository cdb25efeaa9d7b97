// Micro benchmarks of the IsTa prefix tree (google-benchmark):
// transaction insertion + intersection throughput, the prune pass and
// the report pass.

#include <benchmark/benchmark.h>

#include "data/generators.h"
#include "ista/prefix_tree.h"

namespace {

using namespace fim;

TransactionDatabase MakeDb(std::size_t num_transactions,
                           std::size_t num_items, double density,
                           uint64_t seed) {
  return GenerateRandomDense(num_transactions, num_items, density, seed);
}

void BM_IstaAddTransaction(benchmark::State& state) {
  const auto db = MakeDb(static_cast<std::size_t>(state.range(0)), 200, 0.1,
                         7);
  for (auto _ : state) {
    IstaPrefixTree tree(db.NumItems());
    for (const auto& t : db.transactions()) tree.AddTransaction(t);
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.NumTransactions()));
}
BENCHMARK(BM_IstaAddTransaction)->Arg(64)->Arg(256)->Arg(1024);

void BM_IstaReport(benchmark::State& state) {
  const auto db = MakeDb(256, 200, 0.1, 7);
  IstaPrefixTree tree(db.NumItems());
  for (const auto& t : db.transactions()) tree.AddTransaction(t);
  for (auto _ : state) {
    std::size_t count = 0;
    tree.Report(static_cast<Support>(state.range(0)),
                [&count](std::span<const ItemId>, Support) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IstaReport)->Arg(2)->Arg(8)->Arg(32);

void BM_IstaPrune(benchmark::State& state) {
  const auto db = MakeDb(256, 200, 0.1, 7);
  const auto remaining = std::vector<Support>(db.NumItems(), 0);
  for (auto _ : state) {
    state.PauseTiming();
    IstaPrefixTree tree(db.NumItems());
    for (const auto& t : db.transactions()) tree.AddTransaction(t);
    state.ResumeTiming();
    tree.Prune(static_cast<Support>(state.range(0)), remaining);
    benchmark::DoNotOptimize(tree.NodeCount());
  }
}
BENCHMARK(BM_IstaPrune)->Arg(2)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
