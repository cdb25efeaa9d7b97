#include "enumeration/transposed.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/intersect.h"
#include "obs/memory.h"

namespace fim {

namespace {

class TransposedMiner {
 public:
  // The tids are the rows of `stream`, and a tid set's support is its
  // rows' summed weight. The transpose's transactions are the tid lists
  // of the item codes, so row k of the transpose stands for code k.
  TransposedMiner(WeightedTransactions stream, std::size_t num_items,
                  Support min_support, const ClosedSetCallback& callback,
                  MinerStats* stats)
      : min_support_(min_support),
        callback_(callback),
        stats_(stats),
        stream_(std::move(stream)),
        rows_(stream_.BuildVertical(num_items)) {
    weight_from_.assign(stream_.NumRows() + 1, 0);
    for (std::size_t t = stream_.NumRows(); t > 0; --t) {
      weight_from_[t - 1] = weight_from_[t] + stream_.weights[t - 1];
    }
  }

  void Run() {
    if (rows_.empty()) return;
    // closure(empty tid set) over the transpose: the tids shared by every
    // used item's list.
    std::vector<std::size_t> all_rows(rows_.size());
    for (std::size_t k = 0; k < rows_.size(); ++k) all_rows[k] = k;
    if (stats_ != nullptr) ++stats_->closure_checks;
    std::vector<Tid> root = IntersectRows(all_rows);
    if (stream_.Weight(root) >= min_support_) Report(root, all_rows);
    Extend(root, all_rows, /*core=*/static_cast<Tid>(-1));
  }

  // The transposed rows are built once and dominate the footprint; the
  // scratch vectors never exceed one row.
  void RecordMemory(obs::MemoryBreakdown* memory) const {
    if (memory == nullptr) return;
    obs::MemoryComponent transpose("transposed-rows");
    transpose.children.emplace_back("rows", obs::NestedVectorBytes(rows_));
    transpose.children.emplace_back(
        "scratch", order_.capacity() * sizeof(std::size_t) +
                       (inter_ping_.capacity() + inter_pong_.capacity()) *
                           sizeof(Tid));
    memory->Record(std::move(transpose));
  }

 private:
  // Intersection of the tid lists selected by `rows` (non-empty input).
  // Rows are visited shortest first — the running intersection never
  // exceeds the smallest operand, so starting small keeps every merge
  // (and the galloping cutover against the long rows) cheap — and the
  // intermediate results ping-pong between two reused member buffers
  // instead of allocating a fresh vector per round.
  std::vector<Tid> IntersectRows(const std::vector<std::size_t>& rows) const {
    order_.assign(rows.begin(), rows.end());
    std::sort(order_.begin(), order_.end(),
              [this](std::size_t x, std::size_t y) {
                const std::size_t sx = rows_[x].size();
                const std::size_t sy = rows_[y].size();
                return sx != sy ? sx < sy : x < y;
              });
    const std::vector<Tid>* current = &rows_[order_.front()];
    std::vector<Tid>* bufs[2] = {&inter_ping_, &inter_pong_};
    int which = 0;
    for (std::size_t k = 1; k < order_.size() && !current->empty(); ++k) {
      std::vector<Tid>* out = bufs[which];
      which ^= 1;
      const std::vector<Tid>& row = rows_[order_[k]];
      kernels::IntersectInto(*current, row, out);
      if (stats_ != nullptr) {
        stats_->CountKernelCall(current->size() + row.size(), out->size());
      }
      current = out;
    }
    return *current;  // the caller owns its result; copy out of the scratch
  }

  // Prefix-preserving closure extension over the tid universe. `p` is
  // the current closed tid set, `occ` the transpose transactions (=
  // original items) containing it.
  void Extend(const std::vector<Tid>& p, const std::vector<std::size_t>& occ,
              Tid core) {
    const Tid first = core == static_cast<Tid>(-1) ? 0 : core + 1;
    const std::uint64_t p_weight = stream_.Weight(p);
    for (Tid e = first; e < stream_.NumRows(); ++e) {
      // Look-ahead: even taking every remaining tid cannot reach the
      // minimum weight (= original minimum support).
      if (p_weight + weight_from_[e] < min_support_) break;
      if (std::binary_search(p.begin(), p.end(), e)) continue;
      if (stats_ != nullptr) ++stats_->extension_checks;
      std::vector<std::size_t> occ_e;
      occ_e.reserve(occ.size());
      for (std::size_t k : occ) {
        if (std::binary_search(rows_[k].begin(), rows_[k].end(), e)) {
          occ_e.push_back(k);
        }
      }
      if (occ_e.empty()) continue;  // support over the transpose is zero
      if (stats_ != nullptr) ++stats_->closure_checks;
      std::vector<Tid> q = IntersectRows(occ_e);
      if (!PrefixPreserved(p, q, e)) continue;
      if (stream_.Weight(q) >= min_support_) Report(q, occ_e);
      Extend(q, occ_e, e);
    }
  }

  static bool PrefixPreserved(const std::vector<Tid>& p,
                              const std::vector<Tid>& q, Tid e) {
    auto pe = std::lower_bound(p.begin(), p.end(), e);
    auto qe = std::lower_bound(q.begin(), q.end(), e);
    return (pe - p.begin()) == (qe - q.begin()) &&
           std::equal(p.begin(), pe, q.begin());
  }

  // A closed tid set K of weight >= smin maps back to the closed item set
  // g(K) = occ's codes, with K's weight as its support.
  void Report(const std::vector<Tid>& k,
              const std::vector<std::size_t>& occ) {
    const std::vector<ItemId> items(occ.begin(), occ.end());
    callback_(items, stream_.Weight(k));
  }

  const Support min_support_;
  const ClosedSetCallback& callback_;
  MinerStats* stats_;
  const WeightedTransactions stream_;
  const std::vector<std::vector<Tid>> rows_;
  std::vector<Support> weight_from_;  // weight of the tids from t on
  // IntersectRows scratch. Safe despite the recursion in Extend: each
  // IntersectRows call completes (and its result is copied out) before
  // the next one starts.
  mutable std::vector<std::size_t> order_;
  mutable std::vector<Tid> inter_ping_;
  mutable std::vector<Tid> inter_pong_;
};

}  // namespace

void MineTransposed(WeightedTransactions rows, std::size_t num_items,
                    const MinerOptions& options,
                    const ClosedSetCallback& callback, MinerStats* stats,
                    obs::Trace* /*trace*/) {
  TransposedMiner miner(std::move(rows), num_items, options.min_support,
                        callback, stats);
  miner.Run();
  miner.RecordMemory(options.memory);
}

}  // namespace fim
