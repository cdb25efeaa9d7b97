// fim-rules: induce association rules from a FIMI transaction file via
// closed frequent item sets (mine closed sets, reconstruct supports,
// emit single-consequent rules).
//
//   fim-rules [-a algorithm] [-s minsupp | -S percent] [-c minconf]
//             [-k maxrules] input [output]
//
//   -a NAME   mining algorithm (default ista)
//   -s N      absolute minimum support, >= 1  (default 2)
//   -S P      relative minimum support percent (overrides -s)
//   -c F      minimum confidence in [0,1]      (default 0.8)
//   -k N      print at most N rules, best lift first (default 100)
//   output    "-" or absent: stdout
//
// Output lines: "antecedent items -> consequent (supp, conf, lift)".

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "api/miner.h"
#include "common/timer.h"
#include "data/binary_io.h"
#include "data/fimi_io.h"
#include "data/stats.h"
#include "rules/rules.h"
#include "tool_flags.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fim-rules [-a algorithm] [-s minsupp | -S percent] "
               "[-c minconf] [-k maxrules] input [output]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  Algorithm algorithm = Algorithm::kIsta;
  Support min_support = 2;
  double percent = -1.0;
  double min_confidence = 0.8;
  std::size_t max_rules = 100;
  std::string input;
  std::string output = "-";

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "-a") == 0) {
      auto parsed = ParseAlgorithm(next_value());
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      algorithm = parsed.value();
    } else if (std::strcmp(arg, "-s") == 0) {
      min_support = tools::ParseMinSupport(next_value());
    } else if (std::strcmp(arg, "-S") == 0) {
      percent = tools::ParsePercent("-S", next_value());
    } else if (std::strcmp(arg, "-c") == 0) {
      min_confidence =
          tools::ParseReal("-c", next_value(), "a confidence in [0, 1]",
                           [](double v) { return v >= 0.0 && v <= 1.0; });
    } else if (std::strcmp(arg, "-k") == 0) {
      max_rules = tools::ParseCount<std::size_t>("-k", next_value());
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (tools::UnknownFlag(arg)) {
      Usage();
      return 2;
    } else if (positional == 0) {
      input = arg;
      ++positional;
    } else if (positional == 1) {
      output = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if (input.empty()) {
    Usage();
    return 2;
  }

  auto loaded = ReadDatabaseFile(input);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const TransactionDatabase& db = loaded.value();
  if (percent >= 0.0) {
    min_support = static_cast<Support>(std::ceil(
        percent / 100.0 * static_cast<double>(db.NumTransactions())));
    if (min_support == 0) min_support = 1;
  }

  MinerOptions options;
  options.algorithm = algorithm;
  options.min_support = min_support;
  WallTimer timer;
  auto mined = MineClosedCollect(db, options);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  const std::size_t num_closed = mined.value().size();

  const ClosedSetIndex index(std::move(mined).value());
  RuleOptions rule_options;
  rule_options.min_confidence = min_confidence;
  std::vector<AssociationRule> rules =
      GenerateRules(index, db.NumTransactions(), rule_options);
  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.lift != b.lift) return a.lift > b.lift;
              return a.support > b.support;
            });
  if (rules.size() > max_rules) rules.resize(max_rules);

  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (output != "-") {
    file_out.open(output, std::ios::trunc);
    if (!file_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   output.c_str());
      return 1;
    }
    out = &file_out;
  }
  for (const auto& rule : rules) {
    for (std::size_t i = 0; i < rule.antecedent.size(); ++i) {
      if (i > 0) *out << ' ';
      *out << rule.antecedent[i];
    }
    *out << " -> " << rule.consequent.front() << " (" << rule.support
         << ", " << rule.confidence << ", " << rule.lift << ")\n";
  }
  out->flush();
  if (!tools::ResultWritten(*out, output)) return 1;

  std::fprintf(stderr,
               "fim-rules: %s; %zu closed sets (smin %u), %zu rules "
               "(conf >= %.2f) in %.3fs\n",
               StatsToString(ComputeStats(db)).c_str(), num_closed,
               min_support, rules.size(), min_confidence, timer.Seconds());
  return 0;
}
