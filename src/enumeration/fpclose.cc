#include "enumeration/fpclose.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "enumeration/fptree.h"
#include "obs/memory.h"

namespace fim {

namespace {

struct Candidate {
  std::vector<ItemId> items;  // sorted ascending
  Support support = 0;
};

class FpCloseMiner {
 public:
  FpCloseMiner(Support min_support, MinerStats* stats)
      : min_support_(min_support), stats_(stats) {}

  std::vector<Candidate> Run(const WeightedTransactions& rows,
                             std::size_t num_items) {
    FpTree tree(num_items);
    for (std::size_t r = 0; r < rows.NumRows(); ++r) {
      tree.Insert(rows.Row(r), rows.weights[r]);
    }
    std::vector<ItemId> prefix;
    Mine(tree, &prefix, tree.TotalTransactions());
    return std::move(candidates_);
  }

 private:
  // `prefix` holds the generator items plus all inherited perfect
  // extensions; `prefix_support` is its support. Items of `tree` with
  // full support are this level's perfect extensions; the candidate
  // closed set is prefix + extensions.
  void Mine(const FpTree& tree, std::vector<ItemId>* prefix,
            Support prefix_support) {
    const std::size_t base_size = prefix->size();
    for (std::size_t i = 0; i < tree.num_items(); ++i) {
      if (tree.ItemSupport(static_cast<ItemId>(i)) == prefix_support) {
        prefix->push_back(static_cast<ItemId>(i));
      }
    }
    if (prefix_support >= min_support_ && !prefix->empty()) {
      Candidate candidate;
      candidate.items = *prefix;
      std::sort(candidate.items.begin(), candidate.items.end());
      candidate.items.erase(
          std::unique(candidate.items.begin(), candidate.items.end()),
          candidate.items.end());
      candidate.support = prefix_support;
      if (stats_ != nullptr) ++stats_->candidate_sets;
      candidates_.push_back(std::move(candidate));
    }

    // Recurse over the non-perfect frequent items, least frequent first
    // (descending code, since codes ascend with frequency rank under
    // the kFrequencyDescending recoding of the recipe).
    for (std::size_t idx = tree.num_items(); idx > 0; --idx) {
      const ItemId item = static_cast<ItemId>(idx - 1);
      const Support supp = tree.ItemSupport(item);
      if (supp < min_support_ || supp == prefix_support) continue;

      if (stats_ != nullptr) ++stats_->conditional_trees;
      auto paths = tree.ConditionalPaths(item);
      // Count conditional item frequencies to drop infrequent items.
      std::unordered_map<ItemId, Support> freq;
      for (const auto& path : paths) {
        for (ItemId it : path.items) freq[it] += path.count;
      }
      FpTree conditional(tree.num_items());
      std::vector<ItemId> filtered;
      for (const auto& path : paths) {
        filtered.clear();
        for (ItemId it : path.items) {
          if (freq[it] >= min_support_) filtered.push_back(it);
        }
        conditional.Insert(filtered, path.count);
      }
      prefix->push_back(item);
      Mine(conditional, prefix, supp);
      prefix->pop_back();
    }

    prefix->resize(base_size);
  }

  const Support min_support_;
  MinerStats* stats_;
  std::vector<Candidate> candidates_;
};

// Keeps only candidates with no same-support proper superset among the
// candidates (processing larger sets first makes a single pass correct,
// because the closure of any non-closed candidate is itself a candidate).
std::vector<Candidate> FilterClosed(std::vector<Candidate> candidates,
                                    MinerStats* stats) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.items.size() > b.items.size();
            });
  std::unordered_map<Support, std::vector<std::size_t>> kept_by_support;
  std::vector<Candidate> kept;
  kept.reserve(candidates.size());
  for (auto& candidate : candidates) {
    bool subsumed = false;
    auto it = kept_by_support.find(candidate.support);
    if (it != kept_by_support.end()) {
      for (std::size_t k : it->second) {
        if (stats != nullptr) ++stats->subsume_checks;
        if (kept[k].items.size() >= candidate.items.size() &&
            IsSubsetSorted(candidate.items, kept[k].items)) {
          subsumed = true;
          break;
        }
      }
    }
    if (!subsumed) {
      kept_by_support[candidate.support].push_back(kept.size());
      kept.push_back(std::move(candidate));
    }
  }
  return kept;
}

}  // namespace

void MineFpClose(WeightedTransactions rows, std::size_t num_items,
                 const MinerOptions& options,
                 const ClosedSetCallback& callback, MinerStats* stats,
                 obs::Trace* /*trace*/) {
  FpCloseMiner miner(options.min_support, stats);
  std::vector<Candidate> candidates = miner.Run(rows, num_items);
  if (options.memory != nullptr) {
    // The candidate pool before the closed filter is the enumeration
    // side's largest structure (conditional trees are transient).
    obs::MemoryComponent pool("candidates");
    pool.self_bytes = candidates.capacity() * sizeof(candidates[0]);
    std::size_t item_bytes = 0;
    for (const auto& candidate : candidates) {
      item_bytes += candidate.items.capacity() * sizeof(ItemId);
    }
    pool.children.emplace_back("items", item_bytes);
    options.memory->Record(std::move(pool));
  }
  for (const auto& set : FilterClosed(std::move(candidates), stats)) {
    callback(set.items, set.support);
  }
}

}  // namespace fim
