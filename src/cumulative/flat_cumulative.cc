#include "cumulative/flat_cumulative.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "obs/memory.h"

namespace fim {

namespace {

struct VectorHash {
  std::size_t operator()(const std::vector<ItemId>& v) const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (ItemId i : v) {
      h ^= i;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

using Repository =
    std::unordered_map<std::vector<ItemId>, Support, VectorHash>;

}  // namespace

void MineFlatCumulative(WeightedTransactions rows, std::size_t /*num_items*/,
                        const MinerOptions& options,
                        const ClosedSetCallback& callback, MinerStats* stats,
                        obs::Trace* /*trace*/) {
  Repository repo;
  // Intersections of the new row with every stored set, keyed by the
  // resulting set; the value is the largest source support (the weight of
  // the earlier rows containing the result).
  Repository updates;
  Support total_weight = 0;
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    const std::span<const ItemId> t = rows.Row(r);
    updates.clear();
    updates.emplace(std::vector<ItemId>(t.begin(), t.end()), 0);
    if (stats != nullptr) stats->isect_steps += repo.size();
    for (const auto& [stored, support] : repo) {
      std::vector<ItemId> inter = IntersectSorted(stored, t);
      if (stats != nullptr) {
        stats->CountKernelCall(stored.size() + t.size(), inter.size());
      }
      if (inter.empty()) continue;
      auto [it, inserted] = updates.emplace(std::move(inter), support);
      if (!inserted && it->second < support) it->second = support;
    }
    for (auto& [items, source_support] : updates) {
      auto [it, inserted] = repo.emplace(items, source_support);
      // A set already in the repository has its exact count there; a new
      // set inherits the best source count. Either way the new row
      // contains the set, so add its weight.
      it->second += rows.weights[r];
    }
    total_weight += rows.weights[r];
  }

  if (stats != nullptr) {
    stats->repo_sets = repo.size();
    stats->final_nodes = repo.size();
  }
  if (options.memory != nullptr) {
    // The flat repository is a node-based hash map; buckets and nodes
    // are estimated from the libstdc++ layout (one next pointer plus the
    // cached hash per node), the key buffers are exact.
    obs::MemoryComponent flat("flat-repository");
    flat.children.emplace_back("buckets",
                               repo.bucket_count() * sizeof(void*));
    flat.children.emplace_back(
        "nodes", repo.size() * (sizeof(Repository::value_type) +
                                2 * sizeof(void*)));
    std::size_t key_bytes = 0;
    for (const auto& [items, support] : repo) {
      key_bytes += items.capacity() * sizeof(ItemId);
    }
    flat.children.emplace_back("keys", key_bytes);
    options.memory->Record(std::move(flat));
  }
  for (const auto& [items, support] : repo) {
    FIM_DCHECK(!items.empty() &&
               std::is_sorted(items.begin(), items.end()) &&
               std::adjacent_find(items.begin(), items.end()) == items.end())
        << "stored sets must be non-empty, sorted, duplicate-free";
    FIM_DCHECK(support >= 1 && support <= total_weight)
        << "stored support " << support << " outside [1, " << total_weight
        << "]";
    if (support >= options.min_support) callback(items, support);
  }
}

}  // namespace fim
