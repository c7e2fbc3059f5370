//===- bench/ablate_solver.cpp - Solver design-choice ablations -----------===//
//
// Ablates the decision-procedure optimizations DESIGN.md calls out:
//   * interval presolve on/off (with it the implied-guard answers that
//     fusion's refutes() gives without a check)
//   * concrete-evaluation witness guessing on/off
//   * checkWith result caching on/off
//
// Metric: wall time and check breakdown for a fixed fusion workload
// (Utf8Decode ⊗ ToInt and Rep ⊗ HtmlEncode plus RBBE on the latter).
//
//===----------------------------------------------------------------------===//

#include "fusion/Fusion.h"
#include "rbbe/Rbbe.h"
#include "stdlib/Transducers.h"
#include "support/Stopwatch.h"

#include <cstdio>

using namespace efc;

namespace {

struct Config {
  const char *Name;
  bool Presolve;
  bool Guess;
  bool Cache;
};

void runConfig(const Config &C) {
  TermContext Ctx;
  Solver S(Ctx);
  S.setPresolveEnabled(C.Presolve);
  S.setGuessingEnabled(C.Guess);
  S.setCacheEnabled(C.Cache);

  Stopwatch W;
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Bst F1 = fuse(Dec, ToInt, S);
  Bst C1 = eliminateUnreachableBranches(F1, S);

  Bst Rep = lib::makeRep(Ctx);
  Bst Html = lib::makeHtmlEncode(Ctx);
  Bst F2 = fuse(Rep, Html, S);
  Bst C2 = eliminateUnreachableBranches(F2, S);
  double Secs = W.seconds();

  const Solver::Stats &St = S.stats();
  printf("%-28s %7.2fs  implied=%-5llu checks=%-6llu fastU=%-5llu "
         "fastS=%-5llu guess=%-5llu cache=%-5llu cdcl=%-5llu budget=%llu\n",
         C.Name, Secs, (unsigned long long)St.Implied,
         (unsigned long long)St.Checks, (unsigned long long)St.FastUnsat,
         (unsigned long long)St.FastSat, (unsigned long long)St.GuessSat,
         (unsigned long long)St.CacheHits, (unsigned long long)St.SatCalls,
         (unsigned long long)St.BudgetExceeded);
  // Sanity: optimized configurations must produce the same structures.
  printf("%-28s          states=%u+%u branches=%u+%u\n", "",
         C1.numStates(), C2.numStates(), C1.countBranches(),
         C2.countBranches());
}

} // namespace

int main() {
  printf("Solver ablation on fusion + RBBE of Utf8Decode x ToInt and "
         "Rep x HtmlEncode:\n\n");
  Config Configs[] = {
      {"all-on", true, true, true},
      {"no-presolve", false, true, true},
      {"no-guessing", true, false, true},
      {"no-cache", true, true, false},
      {"cdcl-only", false, false, false},
  };
  for (const Config &C : Configs)
    runConfig(C);
  return 0;
}
