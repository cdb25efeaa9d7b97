// fim-discretize: convert an expression matrix (TSV, genes x conditions)
// into a FIMI transaction database by thresholding log ratios, exactly as
// the paper's §4 preprocessing: values > over-threshold become
// "over-expressed" items (2*id), values < under-threshold become
// "under-expressed" items (2*id + 1).
//
//   fim-discretize [-o over] [-u under] [-Q tail] [-t] input.tsv output.fimi
//
//   -o F   over-expression threshold   (default  0.2)
//   -u F   under-expression threshold  (default -0.2); must be below -o,
//          so the values in between form a neutral band
//   -Q F   quantile mode: ignore -o/-u and put the upper and lower F
//          fraction of all values into the tails (F in (0, 0.5))
//   -t     conditions as transactions (items = genes); default is genes
//          as transactions (items = conditions)

#include <cstdio>
#include <cstring>
#include <string>

#include "data/expression.h"
#include "data/fimi_io.h"
#include "data/matrix_io.h"
#include "data/stats.h"
#include "tool_flags.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fim-discretize [-o over] [-u under] [-Q tail] [-t] "
               "input.tsv output.fimi\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  double over = 0.2;
  double under = -0.2;
  double quantile = -1.0;
  auto orientation = ExpressionOrientation::kGenesAsTransactions;
  std::string input;
  std::string output;
  const auto finite = [](double) { return true; };  // ParseReal checks it

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "-o") == 0) {
      over = tools::ParseReal("-o", next_value(), "a finite number", finite);
    } else if (std::strcmp(arg, "-u") == 0) {
      under = tools::ParseReal("-u", next_value(), "a finite number", finite);
    } else if (std::strcmp(arg, "-Q") == 0) {
      quantile = tools::ParseReal("-Q", next_value(), "a fraction in (0, 0.5)",
                                  [](double v) { return v > 0.0 && v < 0.5; });
    } else if (std::strcmp(arg, "-t") == 0) {
      orientation = ExpressionOrientation::kConditionsAsTransactions;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (input.empty() || output.empty()) {
    Usage();
    return 2;
  }
  if (quantile <= 0.0 && !(under < over)) {
    std::fprintf(stderr, "error: -u %g must be below -o %g\n", under, over);
    return 2;
  }

  auto matrix = ReadExpressionMatrixFile(input);
  if (!matrix.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 matrix.status().ToString().c_str());
    return 1;
  }
  TransactionDatabase db;
  if (quantile > 0.0) {
    auto discretized = DiscretizeQuantile(matrix.value(), orientation,
                                          quantile);
    if (!discretized.ok()) {
      std::fprintf(stderr, "%s\n",
                   discretized.status().ToString().c_str());
      return 1;
    }
    db = std::move(discretized).value();
  } else {
    db = Discretize(matrix.value(), orientation, over, under);
  }
  Status status = WriteFimiFile(db, output);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  char mode[64];
  if (quantile > 0.0) {
    std::snprintf(mode, sizeof(mode), "quantile tails %g", quantile);
  } else {
    std::snprintf(mode, sizeof(mode), "thresholds %+.2f/%+.2f", over, under);
  }
  std::fprintf(stderr, "fim-discretize: %zu x %zu matrix -> %s (%s)\n",
               matrix.value().num_genes(), matrix.value().num_conditions(),
               StatsToString(ComputeStats(db)).c_str(), mode);
  return 0;
}
