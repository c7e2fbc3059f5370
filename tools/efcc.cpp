//===- tools/efcc.cpp - The effectful-comprehension compiler CLI ----------===//
//
// Command-line counterpart of the paper's tool: declare a pipeline
// (decode → extract → aggregate → format → encode), fuse and optimize it,
// then either run it over a file or emit C++ for it.
//
//   efcc --regex '(?:(?:[^,\n]*,){5}(?<v>\d+),[^\n]*\n)*' \
//        --agg max --run data.csv
//   efcc --xpath /cities/city/population --agg max --emit-cpp out.cpp
//   efcc --regex ... --stats
//
// Options:
//   --regex P        extract with a regex comprehension (one capture <v>
//                    parsed as a decimal int)
//   --xpath Q        extract with an XPath comprehension (contents parsed
//                    as decimal ints)
//   --agg K          max | min | avg | none        (default: none)
//   --format K       decimal | lines | sql         (default: lines)
//   --no-rbbe        skip reachability-based branch elimination
//   --minimize       run control-state minimization
//   --opt-level N    0 = fuse only, 1 = fuse+rbbe (default), 2 =
//                    fuse+rbbe+minimize
//   --passes LIST    comma-separated IR pass list (fuse[,rbbe][,minimize])
//                    overriding the flags above; the artifact passes
//                    (vm_compile, fastpath_plan) always run
//   --rbbe-budget N  RBBE solver-check budget override (0 = library
//                    default); only re-keys the rbbe pass, so the cached
//                    fusion artifact is reused across budget changes
//   --explain-passes print the pass plan (name, kind, cacheability,
//                    options fingerprint) and, per executed pass, the
//                    entering/leaving IR hash, wall time and cache-hit
//                    flag to stdout
//   --run FILE       execute over FILE, write output bytes to stdout
//   --backend K      vm | fastpath | native   (default: fastpath)
//                    vm       = plain bytecode interpreter
//                    fastpath = byte-class dispatch tables over the VM
//                               (vm/FastPath.h; bytecode fallback for
//                               register-guarded states)
//                    native   = generated C++ compiled by the host
//                               compiler, served from the on-disk
//                               artifact cache when warm (EFC_CACHE_DIR)
//   --native         alias for --backend native
//   --emit-cpp FILE  write generated C++ to FILE
//   --stats          print pipeline statistics to stderr; with --run,
//                    also the execution ledger: how many input elements
//                    each tier consumed
//   --metrics        print the process-wide metrics registry (Prometheus
//                    text format, support/Metrics.h) to stderr at exit
//   --explain-fastpath
//                    dump per-state byte-class tables to stdout:
//                    eligible/fallback, class count, self-loop classes,
//                    the run kernels chosen for them and the residual
//                    classes with their program lengths
//   --certify        prove backend equivalence for this pipeline
//                    (verify/EquivChecker.h): bytecode vs fused rules,
//                    fast-path tables vs bytecode, codegen classifier
//                    hash.  Prints the report to stderr; exits 1 when
//                    any part is refuted (counterexamples included).
//   --certify-budget-ms N
//                    per-state certification time budget (default 5000)
//
// Pipeline assembly, fusion and backend selection all route through the
// runtime layer (runtime/PipelineCache.h), so efcc builds exactly what
// efc-serve serves.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodeGen.h"
#include "runtime/PipelineCache.h"
#include "runtime/StreamSession.h"
#include "support/EnvParse.h"
#include "support/Metrics.h"
#include "verify/EquivChecker.h"
#include "vm/Simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace efc;
using namespace efc::runtime;

namespace {

int usage(const char *Msg = nullptr) {
  if (Msg)
    fprintf(stderr, "efcc: %s\n", Msg);
  fprintf(stderr,
          "usage: efcc (--regex P | --xpath Q) [--agg max|min|avg|none]\n"
          "            [--format decimal|lines|sql] [--no-rbbe]\n"
          "            [--minimize] [--opt-level 0|1|2] [--passes LIST]\n"
          "            [--rbbe-budget N] [--stats] [--metrics]\n"
          "            [--explain-fastpath] [--explain-passes]\n"
          "            [--certify] [--certify-budget-ms N]\n"
          "            [--backend vm|fastpath|native] [--native]\n"
          "            [--run FILE] [--emit-cpp FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Regex, XPath, Agg = "none", Format = "lines";
  std::string RunFile, EmitFile, Backend = "fastpath";
  bool DoRbbe = true, DoMinimize = false, Stats = false, Metrics = false;
  bool ExplainFastPath = false, ExplainPasses = false, Certify = false;
  double CertifyBudgetMs = 5000;
  uint64_t RbbeBudget = 0;
  int OptLevel = -1; // -1: not given
  std::string PassList;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--regex") {
      if (const char *V = Next())
        Regex = V;
      else
        return usage("--regex needs a pattern");
    } else if (A == "--xpath") {
      if (const char *V = Next())
        XPath = V;
      else
        return usage("--xpath needs a query");
    } else if (A == "--agg") {
      if (const char *V = Next())
        Agg = V;
      else
        return usage("--agg needs a kind");
    } else if (A == "--format") {
      if (const char *V = Next())
        Format = V;
      else
        return usage("--format needs a kind");
    } else if (A == "--run") {
      if (const char *V = Next())
        RunFile = V;
      else
        return usage("--run needs a file");
    } else if (A == "--emit-cpp") {
      if (const char *V = Next())
        EmitFile = V;
      else
        return usage("--emit-cpp needs a file");
    } else if (A == "--no-rbbe") {
      DoRbbe = false;
    } else if (A == "--minimize") {
      DoMinimize = true;
    } else if (A == "--opt-level") {
      const char *V = Next();
      uint64_t N = 0;
      if (!V || !env::parseU64(V, N) || N > 2)
        return usage("--opt-level needs 0, 1 or 2");
      OptLevel = int(N);
    } else if (A == "--passes") {
      const char *V = Next();
      if (!V)
        return usage("--passes needs a comma-separated list");
      PassList = V;
    } else if (A == "--rbbe-budget") {
      const char *V = Next();
      if (!V || !env::parseU64(V, RbbeBudget))
        return usage("--rbbe-budget needs an unsigned solver-check count");
    } else if (A == "--explain-passes") {
      ExplainPasses = true;
    } else if (A == "--backend") {
      if (const char *V = Next())
        Backend = V;
      else
        return usage("--backend needs vm|fastpath|native");
    } else if (A == "--native") {
      Backend = "native";
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--metrics") {
      Metrics = true;
    } else if (A == "--explain-fastpath") {
      ExplainFastPath = true;
    } else if (A == "--certify") {
      Certify = true;
    } else if (A == "--certify-budget-ms") {
      if (const char *V = Next())
        CertifyBudgetMs = atof(V);
      else
        return usage("--certify-budget-ms needs a number");
    } else {
      return usage(("unknown option '" + A + "'").c_str());
    }
  }
  if (Regex.empty() == XPath.empty())
    return usage("exactly one of --regex / --xpath is required");
  if (RunFile.empty() && EmitFile.empty() && !Stats && !Metrics &&
      !ExplainFastPath && !ExplainPasses && !Certify)
    return usage(
        "nothing to do: pass --run, --emit-cpp, --stats, --metrics, "
        "--certify, --explain-fastpath or --explain-passes");
  if (OptLevel >= 0 && !PassList.empty())
    return usage("--opt-level and --passes are mutually exclusive");
  if (OptLevel >= 0) {
    DoRbbe = OptLevel >= 1;
    DoMinimize = OptLevel >= 2;
  }
  if (!PassList.empty()) {
    // Only the IR passes are selectable; the artifact passes always run.
    bool SawFuse = false;
    DoRbbe = DoMinimize = false;
    size_t Pos = 0;
    while (Pos <= PassList.size()) {
      size_t Comma = PassList.find(',', Pos);
      std::string Tok = PassList.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      Pos = Comma == std::string::npos ? PassList.size() + 1 : Comma + 1;
      if (Tok.empty())
        continue;
      if (Tok == "fuse") {
        SawFuse = true;
      } else if (Tok == "rbbe") {
        DoRbbe = true;
      } else if (Tok == "minimize") {
        DoMinimize = true;
      } else if (pipeline::PassRegistry::instance().lookup(Tok)) {
        return usage(("pass '" + Tok +
                      "' is not selectable here (vm_compile and "
                      "fastpath_plan always run)")
                         .c_str());
      } else {
        std::string Known;
        for (const std::string &N :
             pipeline::PassRegistry::instance().names())
          Known += (Known.empty() ? "" : ", ") + N;
        return usage(("unknown pass '" + Tok + "' (registered: " + Known +
                      ")")
                         .c_str());
      }
    }
    if (!SawFuse)
      return usage("--passes must include 'fuse'");
  }
  if (Backend != "vm" && Backend != "fastpath" && Backend != "native")
    return usage(("unknown backend '" + Backend + "'").c_str());
  bool Native = Backend == "native";

  PipelineSpec Spec;
  Spec.Kind = Regex.empty() ? PipelineSpec::Frontend::XPath
                            : PipelineSpec::Frontend::Regex;
  Spec.Pattern = Regex.empty() ? XPath : Regex;
  Spec.Agg = Agg;
  Spec.Format = Format;
  Spec.Rbbe = DoRbbe;
  Spec.Minimize = DoMinimize;
  Spec.RbbeBudget = RbbeBudget;

  // One-entry cache: efcc is one-shot, but going through the runtime
  // layer keeps assembly/fusion identical to efc-serve and gives --native
  // the on-disk artifact cache for free.
  PipelineCache Cache(1);
  std::string Err;
  auto P = Cache.get(Spec, /*WantNative=*/Native && !RunFile.empty(), &Err);
  if (!P) {
    fprintf(stderr, "efcc: %s\n", Err.c_str());
    return 1;
  }

  if (Stats) {
    fprintf(stderr,
            "efcc: %zu stages fused into %u states, %u branches "
            "(%.2fs, %llu solver queries, %llu implied)\n",
            P->NumStages, P->Fused->numStates(), P->Fused->countBranches(),
            P->FStats.Seconds, (unsigned long long)P->FStats.SolverChecks,
            (unsigned long long)P->FStats.Implied);
    if (DoRbbe)
      fprintf(stderr, "efcc: RBBE removed %u branches in %.2fs\n",
              P->RStats.BranchesRemoved + P->RStats.FinalBranchesRemoved,
              P->RStats.Seconds);
    if (DoMinimize)
      fprintf(stderr, "efcc: minimization: %u -> %u states\n",
              P->MStats.StatesBefore, P->MStats.StatesAfter);
    fprintf(stderr, "efcc: %s\n",
            pipeline::PassManager::cacheStats().str().c_str());
  }

  if (ExplainPasses) {
    pipeline::PipelineOptions PO;
    PO.Rbbe.ConflictBudget = 0;
    if (Spec.RbbeBudget != 0)
      PO.Rbbe.MaxSolverChecks = Spec.RbbeBudget;
    PO.FastPath = FastPathOptions::fromEnv();
    std::string Plan =
        pipeline::PassManager(
            pipeline::PassManager::defaultPasses(Spec.Rbbe, Spec.Minimize))
            .explain(PO);
    fputs(Plan.c_str(), stdout);
    for (const pipeline::PassRun &R : P->PassRuns)
      printf("  ran %s: in=%016llx out=%016llx %.3fs%s%s%s\n",
             R.PassName.c_str(), (unsigned long long)R.InHash,
             (unsigned long long)R.OutHash, R.Seconds,
             R.CacheHit ? " (cache hit)" : "",
             R.Note.empty() ? "" : " ", R.Note.c_str());
  }

  if (ExplainFastPath) {
    std::string Dump = explainFastPath(*P->Fused);
    fwrite(Dump.data(), 1, Dump.size(), stdout);
  }

  if (Certify) {
    verify::CertOptions COpts;
    COpts.StateBudgetSeconds = CertifyBudgetMs / 1000.0;
    verify::CertReport CR = verify::certifyPipeline(
        *P->Fused, *P->Vm, P->Fast ? &*P->Fast : nullptr, COpts);
    fprintf(stderr, "efcc: certify: %s\n", CR.summary().c_str());
    for (const verify::Counterexample &CE : CR.Counterexamples)
      fprintf(stderr, "efcc: counterexample: %s\n", CE.str().c_str());
    if (CR.Status == verify::CertStatus::Refuted)
      return 1;
  }

  if (!EmitFile.empty()) {
    CodeGenOptions Opts;
    Opts.FunctionName = "pipeline";
    std::ofstream F(EmitFile);
    if (!F) {
      fprintf(stderr, "efcc: cannot write %s\n", EmitFile.c_str());
      return 1;
    }
    F << generateCpp(*P->Fused, Opts);
    fprintf(stderr, "efcc: wrote %s\n", EmitFile.c_str());
  }

  if (!RunFile.empty()) {
    std::ifstream F(RunFile, std::ios::binary);
    if (!F) {
      fprintf(stderr, "efcc: cannot read %s\n", RunFile.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << F.rdbuf();
    std::string Data = Buf.str();

    // The file's bytes go through a session as they are, one byte per
    // element, on the chosen backend.
    std::optional<StreamSession> S;
    if (Native) {
      CompiledPipeline::NativeOutcome Outcome;
      NativeCompileInfo Info;
      const NativeTransducer *N = P->native(&Err, &Outcome, &Info);
      if (!N) {
        fprintf(stderr, "efcc: native backend unavailable: %s\n",
                Err.c_str());
        return 1;
      }
      if (Stats) {
        if (Info.DiskCacheHit)
          fprintf(stderr, "efcc: native: artifact cache hit (%s)\n",
                  Info.SoPath.c_str());
        else
          fprintf(stderr, "efcc: native: compiled in %.0f ms (%s)\n",
                  Info.CompileMs, Info.SoPath.c_str());
      }
      S = StreamSession::open(P, StreamSession::Backend::Native, &Err);
      if (!S) {
        fprintf(stderr, "efcc: %s\n", Err.c_str());
        return 1;
      }
    } else if (Backend == "fastpath" && P->Fast) {
      if (Stats) {
        const FastPathPlan::Stats &FS = P->Fast->stats();
        fprintf(stderr,
                "efcc: fast path: %u/%u states tabulated "
                "(%u const, %u jump, %u program actions, %u of them "
                "residual)\n",
                FS.TableStates, FS.TableStates + FS.FallbackStates,
                FS.ConstActions, FS.JumpActions, FS.ProgramActions,
                FS.ResidualActions);
        fprintf(stderr,
                "efcc: run accel: %u/%u states (%u skip, %u copy, "
                "%u const-append kernels over %u bytes)\n",
                FS.AccelStates, FS.TableStates, FS.SkipKernels,
                FS.CopyKernels, FS.ConstAppendKernels, FS.AccelBytes);
        fprintf(stderr,
                "efcc: simd: detected %s, active %s; %u nibble kernels, "
                "%u wide states (%llu memoized wide elements)\n",
                simd::levelName(simd::detectedLevel()),
                simd::levelName(simd::activeLevel()), FS.NibbleKernels,
                FS.WideStates, (unsigned long long)FS.WideMemoElements);
      }
      S = StreamSession::overFast(*P->Fast, *P->Vm);
    } else {
      S = StreamSession::overVm(*P->Vm);
    }
    if (!S->feed(Data) || !S->finish()) {
      fprintf(stderr, "efcc: input rejected by the pipeline\n");
      return 1;
    }
    if (Stats && S->backend() != StreamSession::Backend::Native)
      fprintf(stderr,
              "efcc: ledger: %zu elements: %llu run-kernel, %llu wide, "
              "%llu table, %llu program, %llu bytecode\n",
              Data.size(), (unsigned long long)S->fastRunElements(),
              (unsigned long long)S->fastWideElements(),
              (unsigned long long)S->fastTableElements(),
              (unsigned long long)S->fastProgramElements(),
              (unsigned long long)S->fastBytecodeElements());
    fwrite(S->output().data(), 1, S->output().size(), stdout);
  }
  if (Metrics) {
    // stderr, like --stats: --run output on stdout stays machine-clean.
    std::string Dump = metrics::Registry::instance().renderPrometheus();
    fwrite(Dump.data(), 1, Dump.size(), stderr);
  }
  return 0;
}
