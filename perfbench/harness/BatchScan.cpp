//===- perfbench/harness/BatchScan.cpp - Whole-input byte scans ------------===//
///
/// \file
/// batch_scan: five byte pipelines over seeded inputs far larger than the
/// caches, each scanned three ways per round through StreamSession:
/// one whole-input feed on the default fast-path backend (data-parallel
/// executor at its defaults), 64 KB feeds on the fast path, and one
/// whole-input feed on the native backend.  Compiles (native included)
/// happen only in set-up.
///
///   work_s  15 times the geometric mean, over the 15 (pipeline, way)
///           cases, of the median scan time (open + feed + finish +
///           drain): about the time to scan every input once each way,
///           with every case moving it by the same relative amount
///
//===----------------------------------------------------------------------===//

#include "Kernel.h"
#include "Pipelines.h"
#include "Refs.h"
#include "Workloads.h"

#include "data/Datasets.h"
#include "pipeline/PassManager.h"
#include "runtime/StreamSession.h"
#include "stdlib/Transducers.h"
#include "support/Stopwatch.h"

#include <cstdio>

using namespace efc;
using namespace efc::runtime;

namespace pb {
namespace {

constexpr size_t InputBytes = size_t(8) << 20;
constexpr size_t ChunkBytes = size_t(64) << 10;
/// One set-up compiles five pipelines and builds five native artifacts
/// (about 20 s); a second one would not fit the run's time budget.
constexpr unsigned SetupReps = 1;
constexpr unsigned MinRounds = 2;
constexpr double InputMb = double(InputBytes) / 1e6;

struct ScanCase {
  PipelineDef Def;
  std::string Input, Expected;
  std::shared_ptr<const CompiledPipeline> P;
  std::vector<double> WholeS, ChunkS, NativeS, FeedMs; // untraced samples
  std::vector<double> KernFastS, KernNativeS;          // traced rounds
  uint64_t RunElems = 0, SpecElems = 0, Fed = 0;
};

std::vector<ScanCase> makeCases(uint64_t Seed) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<ScanCase> Cs(5);

  Cs[0].Def = {"UTF8-lines", std::nullopt, [](TermContext &Ctx) {
                 std::vector<Bst> S;
                 S.push_back(lib::makeUtf8Decode(Ctx));
                 S.push_back(lib::makeLineCount(Ctx));
                 S.push_back(lib::makeIntToDecimal(Ctx));
                 S.push_back(lib::makeUtf8Encode(Ctx));
                 return S;
               }};
  Cs[0].Input = data::makeEnglishText(Rng.next(), InputBytes);
  Cs[0].Expected = refs::lineCount(Cs[0].Input);

  Cs[1].Def = {"HTML-utf8", std::nullopt, [](TermContext &Ctx) {
                 std::vector<Bst> S;
                 S.push_back(lib::makeUtf8Decode(Ctx));
                 S.push_back(lib::makeRep(Ctx));
                 S.push_back(lib::makeHtmlEncode(Ctx));
                 S.push_back(lib::makeUtf8Encode(Ctx));
                 return S;
               }};
  Cs[1].Input = data::makeEnglishText(Rng.next(), InputBytes);
  Cs[1].Expected = refs::htmlUtf8(Cs[1].Input);

  Cs[2].Def = {"CHSI-deaths",
               specOf("frontend=regex\n"
                      "pattern=(?:(?:[^,\\n]*,){3}(?<v>\\d+),[^\\n]*\\n)*\n"
                      "agg=max\nformat=decimal\n"),
               {}};
  Cs[2].Input = data::makeChsiCsv(Rng.next(), InputBytes, 3);
  Cs[2].Expected =
      refs::aggregate(refs::csvColumn(Cs[2].Input, 3), "max", "decimal");

  Cs[3].Def = {"CC-id",
               specOf("frontend=regex\n"
                      "pattern=(?:(?<v>\\d+),[^\\n]*\\n)*\n"
                      "agg=max\nformat=decimal\n"),
               {}};
  Cs[3].Input = data::makeCcCsv(Rng.next(), InputBytes);
  Cs[3].Expected =
      refs::aggregate(refs::csvColumn(Cs[3].Input, 0), "max", "decimal");

  Cs[4].Def = {"DBLP-oldest",
               specOf("frontend=xpath\npattern=/dblp/article/year\n"
                      "agg=min\nformat=lines\n"),
               {}};
  Cs[4].Input = data::makeDblpXml(Rng.next(), InputBytes);
  Cs[4].Expected = refs::aggregate(
      refs::xmlValues(Cs[4].Input, "/dblp/article/year"), "min", "lines");
  return Cs;
}

enum class Mode { Whole, Chunked, Native };

const char *modeName(Mode M) {
  return M == Mode::Whole ? "whole-input fast path"
         : M == Mode::Chunked ? "64 KB feeds, fast path"
                              : "whole-input native";
}

/// One scan of C.Input through a fresh session.  Seconds, or a negative
/// value after recording the failure.
double scan(ScanCase &C, Mode M, Report &R, bool Traced,
            uint64_t *ParFeeds) {
  ++R.Attempted;
  bool Native = M == Mode::Native;
  size_t Chunk = M == Mode::Chunked ? ChunkBytes : C.Input.size();
  bool ParArmed = !Native && C.P->Par && C.P->Par->eligible() &&
                  Chunk >= (size_t(8) << 20);
  Span Root("session", "scan");
  std::string Err, Out;
  Out.reserve(C.Expected.size());
  Clock::time_point T0 = Clock::now();
  auto S = StreamSession::open(
      C.P, Native ? StreamSession::Backend::Native : StreamSession::Backend::Fast,
      &Err);
  bool Ok = S.has_value();
  for (size_t Off = 0; Ok && Off < C.Input.size(); Off += Chunk) {
    size_t N = std::min(Chunk, C.Input.size() - Off);
    Clock::time_point F0 = Clock::now();
    {
      Span Feed(Native ? "codegen" : ParArmed ? "parallel" : "vm", "feed");
      Ok = S->feed(C.Input.data() + Off, N);
    }
    if (M == Mode::Chunked && !Traced)
      C.FeedMs.push_back(msSince(F0));
    Out += S->takeOutput();
  }
  Ok = Ok && S->finish();
  if (Ok)
    Out += S->takeOutput();
  double Sec = secondsBetween(T0, Clock::now());
  if (Ok && M == Mode::Chunked) {
    C.RunElems = S->fastRunElements();
    C.SpecElems = S->fastSpecElements();
    C.Fed = S->bytesIn();
  }
  if (Ok && ParFeeds)
    *ParFeeds += S->parallelFeeds();
  if (!Ok || Out != C.Expected) {
    R.mismatch("batch_scan", C.Def.Name + " (" + modeName(M) + ")",
               C.Expected, Ok ? Out : "<rejected: " + Err + ">");
    return -1;
  }
  return Sec;
}

/// Compiles every case (native included) against a fresh per-pass cache
/// and artifact directory.  Seconds, or negative after recording why.
double setUp(std::vector<ScanCase> &Cs, Report &R) {
  pipeline::PassManager::resetCacheForTests();
  freshArtifactDir("scan");
  PipelineCache Cache(16);
  Clock::time_point T0 = Clock::now();
  for (ScanCase &C : Cs) {
    std::string Err;
    C.P = compile(Cache, C.Def, /*WantNative=*/true, &Err);
    if (!C.P) {
      ++R.Failed;
      R.Mismatch = "workload batch_scan, " + C.Def.Name +
                   ": compile failed: " + Err;
      return -1;
    }
  }
  return secondsBetween(T0, Clock::now());
}

/// Input MB per second of the median scan of \p C.
double mbPerS(const ScanCase &C, const std::vector<double> &Secs) {
  double S = median(Secs);
  return S > 0 ? double(C.Input.size()) / 1e6 / S : 0;
}

} // namespace

void runBatchScan(const Options &O, Report &R) {
  std::vector<ScanCase> Cs = makeCases(O.Seed);
  fprintf(stderr, "batch_scan: seed %llu, %zu pipelines x %.1f MB:",
          (unsigned long long)O.Seed, Cs.size(), InputMb);
  for (const ScanCase &C : Cs)
    fprintf(stderr, " %s", C.Def.Name.c_str());
  fprintf(stderr, "\n");

  CompileLayers Layers;
  std::vector<double> SetupS;
  if (O.Trace) {
    // The same compiles, one pass at a time under spans.
    pipeline::PassManager::resetCacheForTests();
    PassCacheMark Mark = passCacheMark();
    freshArtifactDir("traced");
    Tracer::get().On = true;
    for (ScanCase &C : Cs) {
      std::string Err;
      C.P = tracedCompile(C.Def, /*WantNative=*/true, Layers, &Err);
      if (!C.P) {
        R.Mismatch = "workload batch_scan, " + C.Def.Name +
                     ": traced compile failed: " + Err;
        return;
      }
    }
    Tracer::get().On = false;
    Layers.report(R);
    R.layer("pipeline.pass_cache_hit_ratio", passCacheHitRatio(Mark));
  } else {
    for (unsigned I = 0; I < SetupReps; ++I) {
      double S = setUp(Cs, R);
      if (S < 0)
        return;
      SetupS.push_back(S);
    }
  }

  // Timed phase.  A traced run alternates untraced and traced rounds so
  // the tracing overhead is measured on the same process and inputs.
  std::vector<double> RoundS[2];
  uint64_t ParFeeds = 0;
  size_t SpanFrom = Tracer::get().Spans.size();
  double TracedWallMs = 0;
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0;
       Round < MinRounds * (O.Trace ? 2 : 1) ||
       secondsBetween(Start, Clock::now()) < O.Seconds;
       ++Round) {
    bool Traced = O.Trace && Round % 2 == 1;
    Tracer::get().On = Traced;
    Clock::time_point R0 = Clock::now();
    double ScanSum = 0;
    for (ScanCase &C : Cs) {
      for (Mode M : {Mode::Whole, Mode::Chunked, Mode::Native}) {
        double S = scan(C, M, R, Traced, Traced ? &ParFeeds : nullptr);
        if (S < 0)
          return;
        ScanSum += S;
        if (Traced)
          continue;
        (M == Mode::Whole     ? C.WholeS
         : M == Mode::Chunked ? C.ChunkS
                              : C.NativeS)
            .push_back(S);
      }
    }
    RoundS[Traced].push_back(ScanSum);
    if (!Traced)
      continue;
    // Kernel-only runs over the prepared element arrays.
    for (ScanCase &C : Cs) {
      kernel::Input KIn = kernel::prepare(C.Input);
      std::string Out;
      double KS;
      {
        Span K("vm", "kernel");
        KS = kernel::runFast(*C.P, KIn, &Out);
      }
      if (KS < 0 || Out != C.Expected) {
        R.mismatch("batch_scan", C.Def.Name + " (fast-path kernel)",
                   C.Expected, Out);
        return;
      }
      C.KernFastS.push_back(KS);
      {
        Span K("codegen", "kernel");
        KS = kernel::runNative(*C.P->native(), KIn, &Out);
      }
      if (KS < 0 || Out != C.Expected) {
        R.mismatch("batch_scan", C.Def.Name + " (native kernel)", C.Expected,
                   Out);
        return;
      }
      C.KernNativeS.push_back(KS);
    }
    TracedWallMs += msSince(R0);
  }
  Tracer::get().On = false;

  std::vector<double> Whole, Chunked, Native, P50, P90, P99, CaseS;
  uint64_t Feeds = 0;
  for (const ScanCase &C : Cs) {
    Whole.push_back(mbPerS(C, C.WholeS));
    Chunked.push_back(mbPerS(C, C.ChunkS));
    Native.push_back(mbPerS(C, C.NativeS));
    P50.push_back(median(C.FeedMs));
    P90.push_back(quantile(C.FeedMs, 0.90));
    P99.push_back(quantile(C.FeedMs, 0.99));
    for (const std::vector<double> *V : {&C.WholeS, &C.ChunkS, &C.NativeS})
      CaseS.push_back(median(*V));
    Feeds += C.FeedMs.size();
  }
  uint64_t Scans = Cs.size() * RoundS[0].size();

  R.e2e("setup_s", "s", median(SetupS), SetupS.size());
  R.e2e("work_s", "s", double(CaseS.size()) * geomean(CaseS), Scans);
  R.named("feed64k_p50_ms", "ms", geomean(P50), Feeds);
  R.named("feed64k_p90_ms", "ms", geomean(P90), Feeds);
  R.named("feed64k_p99_ms", "ms", geomean(P99), Feeds);
  R.named("scan_mb_s", "MB/s", geomean(Whole), Scans);
  R.named("stream_mb_s", "MB/s", geomean(Chunked), Scans);
  R.named("scan_native_mb_s", "MB/s", geomean(Native), Scans);
  for (size_t I = 0; I < Cs.size(); ++I) {
    const std::string &N = Cs[I].Def.Name;
    R.named("scan_mb_s." + N, "MB/s", Whole[I], Cs[I].WholeS.size());
    R.named("stream_mb_s." + N, "MB/s", Chunked[I], Cs[I].ChunkS.size());
    R.named("scan_native_mb_s." + N, "MB/s", Native[I], Cs[I].NativeS.size());
  }

  if (!O.Trace)
    return;
  for (size_t I = 0; I < Cs.size(); ++I) {
    const ScanCase &C = Cs[I];
    const std::string &N = C.Def.Name;
    double KernFast = median(C.KernFastS);
    R.layer("vm.fast." + N + ".mb_s", mbPerS(C, C.KernFastS));
    R.layer("vm.fast." + N + ".run_share",
            C.Fed ? double(C.RunElems) / double(C.Fed) : 0);
    R.layer("vm.fast." + N + ".spec_share",
            C.Fed ? double(C.SpecElems) / double(C.Fed) : 0);
    R.layer("parallel." + N + ".whole_over_chunk",
            Chunked[I] > 0 ? Whole[I] / Chunked[I] : 0);
    R.layer("codegen.native." + N + ".mb_s", mbPerS(C, C.KernNativeS));
    R.layer("session." + N + ".whole_mb_s", Whole[I]);
    R.layer("session." + N + ".chunk64k_mb_s", Chunked[I]);
    double ChunkS = median(C.ChunkS);
    R.layer("session." + N + ".overhead_share",
            ChunkS > 0 ? 1.0 - KernFast / ChunkS : 0);
  }
  R.layer("parallel.feeds", double(ParFeeds));
  double Untraced = median(RoundS[0]);
  R.layer("trace.overhead_share",
          Untraced > 0 ? (median(RoundS[1]) - Untraced) / Untraced : 0);
  addLayerAccounting(R, SpanFrom, TracedWallMs);
}

} // namespace pb
