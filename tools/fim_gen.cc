// fim-gen: generate the synthetic evaluation data sets (or a generic
// market-basket / expression-matrix workload) to files, so that fim-mine
// and external tools can be run on reproducible data.
//
//   fim-gen [-p profile] [-c scale] [-r seed] [-b] output
//
//   -p NAME   yeast | ncbi60 | thrombin | webview  (FIMI output), or
//             basket (FIMI), or expression (matrix TSV)   (default yeast)
//   -c F      profile scale factor in (0, 1]               (default 0.25)
//   -r SEED   RNG seed                                     (default 42)
//   -b        write the compact FIMB binary format instead of FIMI text
//   output    file to write

#include <cstdio>
#include <cstring>
#include <string>

#include "data/expression.h"
#include "data/binary_io.h"
#include "data/fimi_io.h"
#include "data/generators.h"
#include "data/matrix_io.h"
#include "data/profiles.h"
#include "data/stats.h"
#include "tool_flags.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fim-gen [-p yeast|ncbi60|thrombin|webview|basket|"
               "expression] [-c scale] [-r seed] [-b] output\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  std::string profile = "yeast";
  double scale = 0.25;
  uint64_t seed = 42;
  bool binary = false;
  std::string output;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "-p") == 0) {
      profile = next_value();
    } else if (std::strcmp(arg, "-c") == 0) {
      scale = tools::ParseReal("-c", next_value(), "a scale in (0, 1]",
                               [](double v) { return v > 0.0 && v <= 1.0; });
    } else if (std::strcmp(arg, "-r") == 0) {
      seed = tools::ParseCount<uint64_t>("-r", next_value());
    } else if (std::strcmp(arg, "-b") == 0) {
      binary = true;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (output.empty()) {
      output = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (output.empty()) {
    Usage();
    return 2;
  }

  if (profile == "expression") {
    ExpressionConfig config;
    config.num_genes = static_cast<std::size_t>(800 * scale) + 16;
    config.num_conditions = 120;
    config.seed = seed;
    const ExpressionMatrix matrix = GenerateExpression(config);
    Status status = WriteExpressionMatrixFile(matrix, output);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "fim-gen: wrote %zu x %zu expression matrix to %s\n",
                 matrix.num_genes(), matrix.num_conditions(),
                 output.c_str());
    return 0;
  }

  TransactionDatabase db;
  if (profile == "yeast") {
    db = MakeYeastLike(scale, seed);
  } else if (profile == "ncbi60") {
    db = MakeNcbi60Like(scale, seed);
  } else if (profile == "thrombin") {
    db = MakeThrombinLike(scale, seed);
  } else if (profile == "webview") {
    db = MakeWebviewLike(scale, seed);
  } else if (profile == "basket") {
    MarketBasketConfig config;
    config.num_items = static_cast<std::size_t>(1000 * scale) + 16;
    config.num_transactions = static_cast<std::size_t>(10000 * scale) + 16;
    config.seed = seed;
    db = GenerateMarketBasket(config);
  } else {
    Usage();
    return 2;
  }

  Status status =
      binary ? WriteBinaryFile(db, output) : WriteFimiFile(db, output);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "fim-gen: wrote %s (%s) to %s\n", profile.c_str(),
               StatsToString(ComputeStats(db)).c_str(), output.c_str());
  return 0;
}
