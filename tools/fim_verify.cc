// fim-verify: check a closed-set result file against a FIMI transaction
// file — soundness by definition (support correct, closed, frequent) and
// completeness against this library's reference miner. Intended for
// validating external miner implementations (FIMI-contest style).
//
//   fim-verify [-s minsupp] data.fimi result.txt
//   fim-verify --self-check data.fimi
//
// -s is the minimum support the result was mined at, at least 1
// (default: 2). The reference run is IsTa at default options: to
// observe it, run `fim-mine -s N --stats ...` on the same data.
//
// --self-check feeds the database, folded into the weighted rows the
// miners mine, through the library's core data structures (IsTa prefix
// tree and Carpenter occurrence matrix) and runs their
// structural-invariant validators — the same checks FIM_DCHECK wires
// into debug builds, on demand in any build. It mines nothing, so it
// rejects -s (exit 2).
//
// Exit code 0 = result is exactly the closed frequent item sets (or all
// self-checks passed); 1 = verification failed (details on stderr);
// 2 = usage error.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/miner.h"
#include "carpenter/carpenter.h"
#include "data/binary_io.h"
#include "data/fimi_io.h"
#include "data/recode.h"
#include "data/result_io.h"
#include "ista/ista.h"
#include "ista/prefix_tree.h"
#include "tool_flags.h"
#include "verify/closedness.h"
#include "verify/compare.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fim-verify [-s minsupp] data.fimi result\n"
               "       fim-verify --self-check data.fimi\n");
}

// Runs the structural-invariant validators of the core data structures
// over `db`. Returns the process exit code.
int RunSelfCheck(const fim::TransactionDatabase& db) {
  using namespace fim;

  // IsTa prefix tree: feed every weighted row (frequency-ascending codes,
  // as IsTa's recipe does) into a tree of the mode IsTa would pick, and
  // validate after the final insertion.
  const Recoding recoding =
      ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  const std::vector<WeightedTransactions> folded =
      FoldRows(db, FoldFor(TransactionOrder::kNone));
  const WeightedTransactions* const table = &folded.front();
  const WeightedTransactions rows =
      RecodeTables({&table, 1}, recoding, TransactionOrder::kNone);
  IstaPrefixTree tree(recoding.num_kept(), SparseEnoughForSignatures(rows));
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    tree.AddTransaction(rows.Row(r), rows.weights[r]);
  }
  Status status = tree.ValidateInvariants();
  if (!status.ok()) {
    std::fprintf(stderr, "SELF-CHECK FAILURE (prefix tree): %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "fim-verify: prefix tree OK (%zu nodes, %zu steps)\n",
               tree.NodeCount(), tree.StepCount());

  // Carpenter occurrence matrix (Table 1).
  const std::vector<Support> matrix =
      BuildCarpenterMatrix(rows, recoding.num_kept());
  status = ValidateCarpenterMatrix(rows, recoding.num_kept(), matrix);
  if (!status.ok()) {
    std::fprintf(stderr, "SELF-CHECK FAILURE (carpenter matrix): %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "fim-verify: carpenter matrix OK (%zu x %zu)\n",
               rows.NumRows(), recoding.num_kept());

  std::fprintf(stderr, "fim-verify: self-check OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  Support min_support = 2;
  std::string data_path;
  std::string result_path;
  bool self_check = false;
  bool min_support_given = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--self-check") == 0) {
      self_check = true;
    } else if (std::strcmp(arg, "-s") == 0) {
      if (i + 1 >= argc) {
        Usage();
        return 2;
      }
      min_support_given = true;
      min_support = tools::ParseMinSupport(argv[++i]);
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (positional == 0) {
      data_path = arg;
      ++positional;
    } else if (positional == 1) {
      result_path = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if (data_path.empty() || (result_path.empty() && !self_check) ||
      (self_check && !result_path.empty())) {
    Usage();
    return 2;
  }
  if (self_check && min_support_given) {
    std::fprintf(stderr,
                 "error: --self-check mines nothing, so it takes no -s\n");
    return 2;
  }

  auto db = ReadDatabaseFile(data_path);
  if (!db.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", data_path.c_str(),
                 db.status().ToString().c_str());
    return 1;
  }
  if (self_check) return RunSelfCheck(db.value());
  auto claimed = ReadClosedSetsFile(result_path);
  if (!claimed.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", result_path.c_str(),
                 claimed.status().ToString().c_str());
    return 1;
  }

  // Soundness: every claimed set is frequent, closed, and has the
  // claimed support.
  Status sound = VerifyClosedSets(db.value(), claimed.value(), min_support);
  if (!sound.ok()) {
    std::fprintf(stderr, "SOUNDNESS FAILURE: %s\n",
                 sound.ToString().c_str());
    return 1;
  }

  // Completeness: compare against the reference miner.
  MinerOptions options;
  options.min_support = min_support;
  auto expected = MineClosedCollect(db.value(), options);
  if (!expected.ok()) {
    std::fprintf(stderr, "reference mining failed: %s\n",
                 expected.status().ToString().c_str());
    return 1;
  }
  if (!SameResults(expected.value(), claimed.value())) {
    std::fprintf(stderr, "COMPLETENESS FAILURE:\n%s",
                 DiffResults(expected.value(), claimed.value(), 20).c_str());
    return 1;
  }
  std::fprintf(stderr,
               "fim-verify: OK — %zu closed sets match exactly (smin %u)\n",
               claimed.value().size(), min_support);
  return 0;
}
