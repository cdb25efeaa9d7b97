// The theory behind the intersection approach (paper §2.4/§2.5), made
// executable: covers, closures, the Galois connection between item sets
// and transaction sets, and why the closed item sets are exactly the
// intersections of transaction subsets.
//
//   $ ./examples/galois_playground

#include <cstdio>

#include "api/miner.h"
#include "verify/galois.h"

namespace {

using namespace fim;

std::string TidsToString(const std::vector<Tid>& tids) {
  std::string s = "{";
  for (std::size_t i = 0; i < tids.size(); ++i) {
    if (i > 0) s += ", ";
    s += 't';
    s += std::to_string(tids[i] + 1);
  }
  return s + "}";
}

}  // namespace

int main() {
  using namespace fim;

  // The paper's running example (items a..e -> 0..4).
  const TransactionDatabase db = TransactionDatabase::FromTransactions({
      {0, 1, 2},     // t1: a b c
      {0, 3, 4},     // t2: a d e
      {1, 2, 3},     // t3: b c d
      {0, 1, 2, 3},  // t4: a b c d
      {1, 2},        // t5: b c
      {0, 1, 3},     // t6: a b d
      {3, 4},        // t7: d e
      {2, 3, 4},     // t8: c d e
  });
  const char* names = "abcde";
  auto render = [&](std::span<const ItemId> items) {
    std::string s = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) s += ", ";
      s += names[items[i]];
    }
    return s + "}";
  };

  std::printf("The Galois connection (paper §2.5) on the running example\n");
  std::printf("==========================================================\n\n");

  // f maps item sets to their covers; g maps tid sets to intersections.
  const std::vector<ItemId> bc = {1, 2};
  const auto cover_bc = CoverOf(db, bc);
  std::printf("f(%s) = cover = %s  (support %zu)\n", render(bc).c_str(),
              TidsToString(cover_bc).c_str(), cover_bc.size());
  const auto closure_bc = IntersectionOf(db, cover_bc);
  std::printf("g(f(%s)) = closure = %s -> %s is %s\n", render(bc).c_str(),
              render(closure_bc).c_str(), render(bc).c_str(),
              closure_bc == bc ? "CLOSED" : "not closed");

  const std::vector<ItemId> just_e = {4};
  const auto closure_e = ItemClosure(db, just_e);
  std::printf("\ng(f(%s)) = %s -> %s is %s: every transaction with e "
              "also has d\n",
              render(just_e).c_str(), render(closure_e).c_str(),
              render(just_e).c_str(),
              closure_e == just_e ? "CLOSED" : "NOT closed");

  // The other closure operator, on tid sets.
  const std::vector<Tid> k = {0, 2};  // {t1, t3}
  const auto g_k = IntersectionOf(db, k);
  const auto k_closed = TidClosure(db, k);
  std::printf("\ng(%s) = %s;  f(g(%s)) = %s\n", TidsToString(k).c_str(),
              render(g_k).c_str(), TidsToString(k).c_str(),
              TidsToString(k_closed).c_str());
  std::printf("-> intersecting t1 and t3 gives %s, which also lies in the "
              "other\n   transactions of %s — the closure of the tid "
              "set.\n",
              render(g_k).c_str(), TidsToString(k_closed).c_str());

  // The bijection in action: mine closed sets and show each one's cover
  // round-trips.
  std::printf("\nClosed frequent item sets (smin 3) and their covers:\n");
  MinerOptions options;
  options.min_support = 3;
  auto mined = MineClosedCollect(db, options);
  if (!mined.ok()) return 1;
  for (const auto& set : mined.value()) {
    const auto cover = CoverOf(db, set.items);
    const auto back = IntersectionOf(db, cover);
    std::printf("  %-15s cover %-30s g(cover) = %s %s\n",
                render(set.items).c_str(), TidsToString(cover).c_str(),
                render(back).c_str(),
                back == set.items ? "(round-trips)" : "(BUG!)");
  }
  std::printf(
      "\nEvery closed set is the intersection of the transactions that\n"
      "contain it — which is exactly what IsTa and Carpenter exploit.\n");
  return 0;
}
