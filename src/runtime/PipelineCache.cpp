//===- runtime/PipelineCache.cpp ------------------------------------------===//

#include "runtime/PipelineCache.h"

#include "frontends/regex/RegexFrontend.h"
#include "frontends/xpath/XPathFrontend.h"
#include "solver/Solver.h"
#include "stdlib/Transducers.h"
#include "support/EnvParse.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"
#include "vm/Simd.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace efc;
using namespace efc::runtime;

//===----------------------------------------------------------------------===//
// PipelineSpec
//===----------------------------------------------------------------------===//

std::string PipelineSpec::canonical() const {
  std::string S;
  S += "frontend=";
  S += Kind == Frontend::Regex ? "regex" : "xpath";
  S += "\npattern=" + Pattern;
  S += "\nagg=" + Agg;
  S += "\nformat=" + Format;
  S += "\nrbbe=";
  S += Rbbe ? '1' : '0';
  S += "\nminimize=";
  S += Minimize ? '1' : '0';
  S += "\n";
  // Emitted only when non-default so pre-existing cache keys and OPEN
  // wire frames are byte-identical.
  if (RbbeBudget != 0)
    S += "rbbe_budget=" + std::to_string(RbbeBudget) + "\n";
  return S;
}

uint64_t PipelineSpec::hash() const {
  std::string C = canonical();
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char Ch : C) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::optional<PipelineSpec> PipelineSpec::parse(const std::string &Text,
                                                std::string *Err) {
  auto Fail = [&](const std::string &M) -> std::optional<PipelineSpec> {
    if (Err)
      *Err = M;
    return std::nullopt;
  };
  PipelineSpec Spec;
  bool SawFrontend = false, SawPattern = false;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string Line = Text.substr(
        Pos, Eol == std::string::npos ? std::string::npos : Eol - Pos);
    Pos = Eol == std::string::npos ? Text.size() : Eol + 1;
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return Fail("malformed spec line: " + Line);
    std::string Key = Line.substr(0, Eq), Val = Line.substr(Eq + 1);
    if (Key == "frontend") {
      if (Val == "regex")
        Spec.Kind = Frontend::Regex;
      else if (Val == "xpath")
        Spec.Kind = Frontend::XPath;
      else
        return Fail("unknown frontend '" + Val + "'");
      SawFrontend = true;
    } else if (Key == "pattern") {
      Spec.Pattern = Val;
      SawPattern = true;
    } else if (Key == "agg") {
      Spec.Agg = Val;
    } else if (Key == "format") {
      Spec.Format = Val;
    } else if (Key == "rbbe") {
      Spec.Rbbe = Val != "0";
    } else if (Key == "minimize") {
      Spec.Minimize = Val != "0";
    } else if (Key == "rbbe_budget") {
      if (!env::parseU64(Val.c_str(), Spec.RbbeBudget))
        return Fail("malformed rbbe_budget '" + Val + "'");
    } else {
      return Fail("unknown spec key '" + Key + "'");
    }
  }
  if (!SawFrontend || !SawPattern)
    return Fail("spec needs frontend= and pattern=");
  if (Spec.Agg != "max" && Spec.Agg != "min" && Spec.Agg != "avg" &&
      Spec.Agg != "none")
    return Fail("unknown agg '" + Spec.Agg + "'");
  if (Spec.Format != "decimal" && Spec.Format != "lines" &&
      Spec.Format != "sql")
    return Fail("unknown format '" + Spec.Format + "'");
  return Spec;
}

//===----------------------------------------------------------------------===//
// Stage assembly (shared with efcc)
//===----------------------------------------------------------------------===//

std::optional<std::vector<Bst>>
efc::runtime::assembleStages(const PipelineSpec &Spec, TermContext &Ctx,
                             std::string *Err) {
  auto Fail = [&](const std::string &M) -> std::optional<std::vector<Bst>> {
    if (Err)
      *Err = M;
    return std::nullopt;
  };
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode2(Ctx));
  Bst ToInt = lib::makeToInt(Ctx);
  if (Spec.Kind == PipelineSpec::Frontend::Regex) {
    fe::RegexBstResult R =
        fe::buildRegexBst(Ctx, Spec.Pattern, {{"v", &ToInt}});
    if (!R.Result)
      return Fail("regex error: " + R.Error);
    Stages.push_back(std::move(*R.Result));
  } else {
    fe::XPathBstResult R = fe::buildXPathBst(Ctx, Spec.Pattern, ToInt);
    if (!R.Result)
      return Fail("xpath error: " + R.Error);
    Stages.push_back(std::move(*R.Result));
  }
  if (Spec.Agg == "max")
    Stages.push_back(lib::makeMax(Ctx));
  else if (Spec.Agg == "min")
    Stages.push_back(lib::makeMin(Ctx));
  else if (Spec.Agg == "avg")
    Stages.push_back(lib::makeAverage(Ctx));
  else if (Spec.Agg != "none")
    return Fail("unknown agg '" + Spec.Agg + "'");
  if (Spec.Format == "decimal")
    Stages.push_back(lib::makeIntToDecimal(Ctx));
  else if (Spec.Format == "lines")
    Stages.push_back(lib::makeIntToDecimalLines(Ctx));
  else if (Spec.Format == "sql")
    Stages.push_back(lib::makeIntWrap(Ctx, "INSERT INTO t VALUES (", ");\n"));
  else
    return Fail("unknown format '" + Spec.Format + "'");
  Stages.push_back(lib::makeUtf8Encode(Ctx));
  return Stages;
}

//===----------------------------------------------------------------------===//
// CompiledPipeline
//===----------------------------------------------------------------------===//

const NativeTransducer *
CompiledPipeline::native(std::string *Err, NativeOutcome *Outcome,
                         NativeCompileInfo *Info) const {
  std::lock_guard<std::mutex> L(NativeMu);
  bool Attempt = !NativeTried;
  if (NativeTried && !Native && NInfo.Transient &&
      std::chrono::steady_clock::now() >= NativeRetryAt) {
    // Transient failure past its backoff window: try again instead of
    // serving the stale error forever (a disk-full or OOM'd cc would
    // otherwise poison this spec for the cache's lifetime).
    Attempt = true;
    static metrics::Counter &Retries = metrics::Registry::instance().counter(
        "efc_native_retries_total",
        "Native compiles re-attempted after a transient failure");
    Retries.inc();
  }
  if (Attempt) {
    NativeTried = true;
    NativeErr.clear();
    char Tag[32];
    snprintf(Tag, sizeof(Tag), "p%016llx", (unsigned long long)Spec.hash());
    {
      // Codegen walks Fused's rule trees and may intern terms in the
      // shared TermContext; serialize with any concurrent pass run on
      // the same chain.  Lock order NativeMu -> Chain->Mu has no cycle:
      // the pass manager never calls native().
      std::unique_lock<std::mutex> ChainLock;
      if (Chain)
        ChainLock = std::unique_lock(Chain->Mu);
      Native =
          NativeTransducer::compile(*Fused, Tag, &NativeErr, &NInfo, Vm);
    }
    if (!Native && NInfo.Transient) {
      long BaseMs =
          long(env::i64("EFC_NATIVE_RETRY_MS", 1000, 0, 1 << 30));
      unsigned Shift = NativeFailures < 6 ? NativeFailures : 6;
      NativeRetryAt = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(BaseMs << Shift);
      ++NativeFailures;
    } else if (Native) {
      NativeFailures = 0;
    }
    if (Outcome)
      *Outcome = !Native              ? NativeOutcome::Failed
                 : NInfo.DiskCacheHit ? NativeOutcome::DiskHit
                                      : NativeOutcome::Compiled;
  } else if (Outcome) {
    *Outcome = Native ? NativeOutcome::Ready : NativeOutcome::Failed;
  }
  if (Info)
    *Info = NInfo;
  if (!Native) {
    if (Err)
      *Err = NativeErr;
    return nullptr;
  }
  return &*Native;
}

//===----------------------------------------------------------------------===//
// PipelineCache
//===----------------------------------------------------------------------===//

namespace {

/// Registry mirrors of PipelineCache::Stats.
struct CacheMetrics {
  metrics::Counter &Hits;
  metrics::Counter &Misses;
  metrics::Counter &Coalesced;
  metrics::Counter &NegativeHits;
  metrics::Counter &Evictions;
  metrics::Counter &Builds;
  metrics::DoubleCounter &BuildSeconds;
  metrics::Counter &PlanTableStates;
  metrics::Counter &PlanAccelStates;
  metrics::Counter &PlanRunKernels;
  metrics::Counter &PlanNibbleKernels;
  metrics::Counter &PlanWideStates;
  static CacheMetrics &get() {
    auto &R = metrics::Registry::instance();
    static CacheMetrics M{
        R.counter("efc_cache_hits_total",
                  "Pipeline lookups served from memory"),
        R.counter("efc_cache_misses_total", "Pipeline lookups that built"),
        R.counter("efc_cache_coalesced_total",
                  "Lookups that waited on another caller's build"),
        R.counter("efc_cache_negative_hits_total",
                  "Lookups served a cached spec error"),
        R.counter("efc_cache_evictions_total", "LRU evictions"),
        R.counter("efc_cache_builds_total", "Pipeline builds completed"),
        R.dcounter("efc_cache_build_seconds_total",
                   "Wall time in fusion+optimization+VM compile"),
        R.counter("efc_fastpath_plan_table_states_total",
                  "Byte-class-tabulated states across built plans"),
        R.counter("efc_fastpath_plan_accel_states_total",
                  "Run-accelerated states across built plans"),
        R.counter("efc_fastpath_plan_run_kernels_total",
                  "Run kernels across built plans"),
        R.counter("efc_fastpath_plan_nibble_kernels_total",
                  "Run kernels with a pshufb nibble encoding"),
        R.counter("efc_fastpath_plan_wide_states_total",
                  "States with a wide-domain (width > 8) table")};
    // The scan-kernel ISA level is process-wide and fixed after the
    // first probe; expose it once so dashboards can correlate
    // throughput with the dispatched instruction set.
    metrics::Registry::instance()
        .gauge("efc_simd_level",
               "Active SIMD dispatch level (0=scalar 1=sse2 2=avx2 "
               "3=avx512)")
        .set(int64_t(simd::activeLevel()));
    return M;
  }
};

/// Registry mirrors of the certification counters (EFC_CERTIFY builds).
struct CertifyMetrics {
  metrics::Counter &Certified;
  metrics::Counter &Unverified;
  metrics::Counter &Refuted;
  metrics::Counter &Timeouts;
  metrics::DoubleCounter &Seconds;
  static CertifyMetrics &get() {
    auto &R = metrics::Registry::instance();
    static CertifyMetrics M{
        R.counter("efc_certify_certified_total",
                  "Pipeline builds certified end-to-end"),
        R.counter("efc_certify_unverified_total",
                  "Pipeline builds degraded to unverified (budget/Unknown)"),
        R.counter("efc_certify_refuted_total",
                  "Pipeline builds rejected at cache admission"),
        R.counter("efc_certify_timeouts_total",
                  "Per-state certification budget exhaustions"),
        R.dcounter("efc_certify_seconds_total",
                   "Wall time spent in equivalence certification")};
    return M;
  }
};

} // namespace

PipelineCache::PipelineCache(size_t Capacity)
    : Capacity(Capacity ? Capacity : 1) {}

void PipelineCache::touch(MapEntry &E) {
  Lru.splice(Lru.begin(), Lru, E.LruIt);
}

void PipelineCache::evictOverflow() {
  // Never evict a slot that is still building: its builder will publish
  // into it and waiting callers hold references to it.
  auto It = Lru.end();
  while (Map.size() > Capacity && It != Lru.begin()) {
    --It;
    auto M = Map.find(*It);
    assert(M != Map.end());
    if (M->second.S->Building)
      continue;
    It = Lru.erase(It);
    Map.erase(M);
    ++Counters.Evictions;
    CacheMetrics::get().Evictions.inc();
  }
}

namespace {

/// The build itself: assemble the stage chain, then drive the registered
/// compile passes (pipeline/PassManager.h) over it.  Per-pass artifacts
/// are content-hash cached across specs: a spec differing only in a
/// downstream option (say RbbeBudget) re-runs `rbbe` but adopts the
/// cached `fuse` result.
std::shared_ptr<CompiledPipeline> buildPipeline(const PipelineSpec &Spec,
                                                std::string *Err) {
  // Root of the compile-phase span tree: fuse/rbbe spans open inside the
  // respective passes and nest under this one.
  trace::Span CompileSp("compile");
  CompileSp.note("spec_hash", Spec.hash());
  auto Owner = std::make_shared<TermContext>();
  auto Stages = assembleStages(Spec, *Owner, Err);
  if (!Stages)
    return nullptr;
  CompileSp.note("stages", (uint64_t)Stages->size());

  auto P = std::make_shared<CompiledPipeline>();
  P->Spec = Spec;
  P->NumStages = Stages->size();
  Stopwatch Total;

  pipeline::PassContext PC;
  PC.Chain = std::make_shared<pipeline::IrChain>(Owner);
  for (const Bst &St : *Stages)
    PC.Stages.push_back(&St);

  pipeline::PipelineOptions PO;
  PO.Rbbe.ConflictBudget = 0;
  if (Spec.RbbeBudget != 0)
    PO.Rbbe.MaxSolverChecks = Spec.RbbeBudget;
  PO.FastPath = FastPathOptions::fromEnv();

  pipeline::PassManager PM(
      pipeline::PassManager::defaultPasses(Spec.Rbbe, Spec.Minimize));
  if (!PM.run(PC, PO, Err))
    return nullptr;

  // On a fuse (or deeper) cache hit the context adopted the cached
  // artifact's chain; the entry must own *that* TermContext, not the one
  // the stages were assembled in.
  P->Chain = PC.Chain;
  P->Ctx = PC.Chain->Ctx;
  P->Fused = PC.Ir;
  P->Vm = PC.Vm;
  P->Fast = PC.Fast;
  P->FStats = PC.FStats;
  P->RStats = PC.RStats;
  P->MStats = PC.MStats;
  P->PassRuns = std::move(PC.Runs);

  // Equivalence certification (verify/EquivChecker.h), gated by
  // EFC_CERTIFY=1: prove the bytecode, the fast-path tables, and the
  // codegen classification agree with the fused rules before the entry
  // can be admitted.  The per-state budget comes from
  // EFC_CERTIFY_BUDGET_MS (default 2000); exhaustion degrades to
  // "unverified", which still serves — only "refuted" blocks admission
  // (enforced by the caller).
  if (env::flag("EFC_CERTIFY", false)) {
    trace::Span CertSp("certify");
    verify::CertOptions COpts;
    COpts.StateBudgetSeconds =
        env::f64("EFC_CERTIFY_BUDGET_MS", 2000.0, 0.0, 1e9) / 1000.0;
    // The certifier's solver works over the entry's terms and may intern
    // new ones; serialize with other pass runs on the shared chain.
    std::unique_lock<std::mutex> ChainLock(P->Chain->Mu);
    verify::CertReport CR =
        verify::certifyPipeline(*P->Fused, *P->Vm, P->Fast.get(), COpts);
    ChainLock.unlock();
    P->Cert = CR.Status;
    P->CertSummary = CR.summary();
    P->CertifySeconds = CR.Seconds;
    P->CertTimeouts = CR.TimedOutStates;
    CertSp.note("status",
                std::string_view(verify::certStatusName(CR.Status)));
    CertifyMetrics::get().Seconds.add(CR.Seconds);
  }
  P->BuildSeconds = Total.seconds();
  return P;
}

} // namespace

std::shared_ptr<const CompiledPipeline>
PipelineCache::get(const PipelineSpec &Spec, bool WantNative,
                   std::string *Err) {
  std::string Key = Spec.canonical();
  std::shared_ptr<Slot> S;
  bool Builder = false;

  {
    std::unique_lock<std::mutex> L(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      S = It->second.S;
      touch(It->second);
      if (S->Building) {
        ++Counters.Coalesced;
        CacheMetrics::get().Coalesced.inc();
        S->Cv.wait(L, [&] { return !S->Building; });
      } else if (S->Ready) {
        ++Counters.Hits;
        CacheMetrics::get().Hits.inc();
      } else {
        // Published spec *error*: deterministic (bad pattern / unknown
        // enum), so serving it from cache is correct — but it is not a
        // hit.  Transient native failures never land here; they are
        // retried at the entry level (CompiledPipeline::native).
        ++Counters.NegativeHits;
        CacheMetrics::get().NegativeHits.inc();
      }
    } else {
      S = std::make_shared<Slot>();
      Lru.push_front(Key);
      Map.emplace(Key, MapEntry{S, Lru.begin()});
      evictOverflow();
      ++Counters.Misses;
      CacheMetrics::get().Misses.inc();
      Builder = true;
    }
  }

  if (Builder) {
    std::string BuildErr;
    auto P = buildPipeline(Spec, &BuildErr);
    std::lock_guard<std::mutex> L(Mu);
    S->Building = false;
    if (P) {
      ++Counters.Builds;
      Counters.BuildSeconds += P->BuildSeconds;
      const FastPathPlan::Stats &FS = P->Fast->stats();
      Counters.FastTableStates += FS.TableStates;
      Counters.FastAccelStates += FS.AccelStates;
      Counters.FastRunKernels +=
          FS.SkipKernels + FS.CopyKernels + FS.ConstAppendKernels;
      Counters.FastNibbleKernels += FS.NibbleKernels;
      Counters.FastWideStates += FS.WideStates;
      CacheMetrics &CM = CacheMetrics::get();
      CM.Builds.inc();
      CM.BuildSeconds.add(P->BuildSeconds);
      CM.PlanTableStates.inc(FS.TableStates);
      CM.PlanAccelStates.inc(FS.AccelStates);
      CM.PlanRunKernels.inc(FS.SkipKernels + FS.CopyKernels +
                            FS.ConstAppendKernels);
      CM.PlanNibbleKernels.inc(FS.NibbleKernels);
      CM.PlanWideStates.inc(FS.WideStates);
      CertifyMetrics &XM = CertifyMetrics::get();
      Counters.CertTimeouts += P->CertTimeouts;
      XM.Timeouts.inc(P->CertTimeouts);
      switch (P->Cert) {
      case verify::CertStatus::Unchecked:
        break;
      case verify::CertStatus::Certified:
        ++Counters.CertCertified;
        XM.Certified.inc();
        break;
      case verify::CertStatus::Unverified:
        ++Counters.CertUnverified;
        XM.Unverified.inc();
        break;
      case verify::CertStatus::Refuted:
        ++Counters.CertRefuted;
        XM.Refuted.inc();
        break;
      }
      if (P->Cert == verify::CertStatus::Refuted) {
        // Certification is a cache-admission gate: a refuted entry is a
        // proven backend disagreement, so it never serves.  The error is
        // deterministic for this build and negative-cached like any other
        // spec error.
        S->Error =
            "backend equivalence refuted; refusing to serve (" +
            P->CertSummary + ")";
      } else {
        S->Ready = P;
      }
    } else {
      S->Error = BuildErr;
    }
    S->Cv.notify_all();
  }

  if (!S->Ready) {
    if (Err)
      *Err = S->Error;
    return nullptr;
  }

  if (WantNative) {
    // Outside Mu: a native compile can take seconds and must not stall
    // unrelated lookups.  The entry's own lock single-flights it.
    std::string NErr;
    CompiledPipeline::NativeOutcome Outcome;
    NativeCompileInfo NInfo;
    const NativeTransducer *N = S->Ready->native(&NErr, &Outcome, &NInfo);
    {
      std::lock_guard<std::mutex> L(Mu);
      if (Outcome == CompiledPipeline::NativeOutcome::Compiled) {
        ++Counters.NativeCompiles;
        Counters.NativeCompileMs += NInfo.CompileMs;
      } else if (Outcome == CompiledPipeline::NativeOutcome::DiskHit) {
        ++Counters.NativeDiskHits;
      }
    }
    if (!N) {
      if (Err)
        *Err = "native backend unavailable: " + NErr;
      return nullptr;
    }
  }
  return S->Ready;
}

PipelineCache::Stats PipelineCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counters;
}

size_t PipelineCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

std::string PipelineCache::Stats::str() const {
  char Buf[768];
  snprintf(Buf, sizeof(Buf),
           "hits=%llu misses=%llu coalesced=%llu negative_hits=%llu "
           "evictions=%llu "
           "builds=%llu build_s=%.3f native_compiles=%llu "
           "native_disk_hits=%llu native_compile_ms=%.1f "
           "fast_table_states=%llu fast_accel_states=%llu "
           "fast_run_kernels=%llu fast_nibble_kernels=%llu "
           "fast_wide_states=%llu "
           "cert_certified=%llu cert_unverified=%llu cert_refuted=%llu "
           "certify_timeouts=%llu",
           (unsigned long long)Hits, (unsigned long long)Misses,
           (unsigned long long)Coalesced, (unsigned long long)NegativeHits,
           (unsigned long long)Evictions,
           (unsigned long long)Builds, BuildSeconds,
           (unsigned long long)NativeCompiles,
           (unsigned long long)NativeDiskHits, NativeCompileMs,
           (unsigned long long)FastTableStates,
           (unsigned long long)FastAccelStates,
           (unsigned long long)FastRunKernels,
           (unsigned long long)FastNibbleKernels,
           (unsigned long long)FastWideStates,
           (unsigned long long)CertCertified,
           (unsigned long long)CertUnverified,
           (unsigned long long)CertRefuted,
           (unsigned long long)CertTimeouts);
  return Buf;
}
