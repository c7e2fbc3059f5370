//===- pipeline/PassManager.cpp - Run + cache + verify a pass list --------===//

#include "pipeline/PassManager.h"

#include "codegen/CppCodeGen.h"
#include "support/EnvParse.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

using namespace efc;
using namespace efc::pipeline;

PipelineOptions::PipelineOptions()
    : VerifyIr(env::flag("EFC_VERIFY_IR", false)) {}

//===----------------------------------------------------------------------===//
// PassCache: process-wide per-pass artifact LRU
//===----------------------------------------------------------------------===//

namespace {

/// LRU over (pass name, input-IR hash, options hash) -> PassArtifacts.
/// Orthogonal to the spec-keyed PipelineCache: that one caches whole
/// serving pipelines by spec string; this one caches *per-pass* results
/// by content hash, so two different specs (or a respec changing only a
/// downstream option) share upstream work.
class PassCache {
public:
  static PassCache &instance() {
    static PassCache C;
    return C;
  }

  bool lookup(std::string_view PassName, const std::string &Key,
              PassArtifacts &Out) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(Key);
    if (It == Map.end() || Capacity == 0) {
      ++stats(PassName).Misses;
      missCounter(PassName).inc();
      return false;
    }
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    Out = It->second.A;
    ++stats(PassName).Hits;
    hitCounter(PassName).inc();
    return true;
  }

  void insert(std::string_view PassName, const std::string &Key,
              PassArtifacts A) {
    std::lock_guard<std::mutex> L(Mu);
    if (Capacity == 0)
      return;
    auto It = Map.find(Key);
    if (It != Map.end()) { // lost a race; keep the incumbent
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
      return;
    }
    Lru.push_front(Key);
    Map.emplace(Key, Entry{std::move(A), Lru.begin()});
    while (Map.size() > Capacity) {
      Map.erase(Lru.back());
      Lru.pop_back();
      ++Evictions;
      (void)PassName;
      metrics::Registry::instance()
          .counter("efc_pass_cache_evictions_total",
                   "Per-pass artifact cache evictions")
          .inc();
    }
  }

  PassCacheStats snapshot() {
    std::lock_guard<std::mutex> L(Mu);
    PassCacheStats S;
    S.Entries = Map.size();
    S.Capacity = Capacity;
    S.Evictions = Evictions;
    for (const auto &[Name, Row] : PerPass)
      S.Rows.push_back({Name, Row.Hits, Row.Misses});
    return S;
  }

  void reset() {
    std::lock_guard<std::mutex> L(Mu);
    Map.clear();
    Lru.clear();
    PerPass.clear();
    Evictions = 0;
  }

private:
  PassCache()
      : Capacity(env::u64("EFC_PASS_CACHE_CAP", 64, 0, 1 << 20)) {}

  struct Entry {
    PassArtifacts A;
    std::list<std::string>::iterator LruIt;
  };
  struct Row {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };

  Row &stats(std::string_view PassName) {
    return PerPass[std::string(PassName)];
  }
  metrics::Counter &hitCounter(std::string_view PassName) {
    return metrics::Registry::instance().counter(
        "efc_pass_cache_hits_total", "Per-pass artifact cache hits",
        "pass=\"" + std::string(PassName) + "\"");
  }
  metrics::Counter &missCounter(std::string_view PassName) {
    return metrics::Registry::instance().counter(
        "efc_pass_cache_misses_total", "Per-pass artifact cache misses",
        "pass=\"" + std::string(PassName) + "\"");
  }

  std::mutex Mu;
  std::unordered_map<std::string, Entry> Map;
  std::list<std::string> Lru; // front = most recent
  std::map<std::string, Row> PerPass;
  uint64_t Evictions = 0;
  const uint64_t Capacity;
};

std::string cacheKey(std::string_view PassName, uint64_t InHash,
                     uint64_t OptHash) {
  char Buf[2 * (1 + 16) + 1]; // ":%016llx" twice, then the NUL
  snprintf(Buf, sizeof(Buf), ":%016llx:%016llx",
           (unsigned long long)InHash, (unsigned long long)OptHash);
  return std::string(PassName) + Buf;
}

IrSnapshot snapshotIr(const Bst &A) {
  IrSnapshot S;
  S.States = A.numStates();
  S.Branches = A.countBranches();
  S.InputTy = A.inputType();
  S.OutputTy = A.outputType();
  S.RegTy = A.registerType();
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// PassCacheStats
//===----------------------------------------------------------------------===//

uint64_t PassCacheStats::hits(std::string_view Pass) const {
  for (const Row &R : Rows)
    if (R.Pass == Pass)
      return R.Hits;
  return 0;
}

uint64_t PassCacheStats::misses(std::string_view Pass) const {
  for (const Row &R : Rows)
    if (R.Pass == Pass)
      return R.Misses;
  return 0;
}

std::string PassCacheStats::str() const {
  std::ostringstream OS;
  OS << "pass-cache: cap=" << Capacity << " entries=" << Entries
     << " evictions=" << Evictions;
  for (const Row &R : Rows)
    OS << " " << R.Pass << "=" << R.Hits << "/" << (R.Hits + R.Misses);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// verifyIr
//===----------------------------------------------------------------------===//

namespace efc::pipeline {

bool verifyIr(const Bst &A, std::string *Err) {
  if (A.numStates() == 0) {
    if (Err)
      *Err = "empty transducer";
    return false;
  }
  std::string WfErr;
  if (!A.wellFormed(&WfErr)) {
    if (Err)
      *Err = "not well-formed: " + WfErr;
    return false;
  }
  // Rule-tree hash determinism: the classifier hash walks every rule
  // tree structurally; two independent walks disagreeing means rule
  // construction depended on iteration order or uninitialized state.
  uint64_t H1 = classifierHash(A);
  uint64_t H2 = classifierHash(A);
  if (H1 != H2) {
    if (Err)
      *Err = "rule-tree hash is nondeterministic";
    return false;
  }
  return true;
}

} // namespace efc::pipeline

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

PassManager::PassManager(std::vector<std::string> Passes)
    : Names(std::move(Passes)) {}

std::vector<std::string> PassManager::defaultPasses(bool Rbbe, bool Minimize) {
  std::vector<std::string> P{"fuse"};
  if (Rbbe)
    P.push_back("rbbe");
  if (Minimize)
    P.push_back("minimize");
  P.push_back("vm_compile");
  P.push_back("fastpath_plan");
  return P;
}

bool PassManager::run(PassContext &PC, const PipelineOptions &O,
                      std::string *Err) const {
  auto &Reg = PassRegistry::instance();
  for (const std::string &Name : Names) {
    const Pass *P = Reg.lookup(Name);
    if (!P) {
      if (Err) {
        std::string Known;
        for (const std::string &N : Reg.names())
          Known += (Known.empty() ? "" : ", ") + N;
        *Err = "unknown pass '" + Name + "' (registered: " + Known + ")";
      }
      return false;
    }

    PassRun R;
    R.PassName = Name;
    R.InHash = P->inputHash(PC);
    uint64_t OptHash = P->optionsHash(O);

    metrics::Registry::instance()
        .counter("efc_pass_runs_total", "Compile pass executions",
                 "pass=\"" + Name + "\"")
        .inc();

    // Raw-mode contexts (no IrChain) own their TermContext on the stack;
    // cached artifacts would dangle past it, so caching requires a chain.
    bool Cacheable = O.UseCache && P->cacheable() && PC.Chain != nullptr;
    if (Cacheable) {
      std::string Key = cacheKey(Name, R.InHash, OptHash);
      PassArtifacts A;
      if (PassCache::instance().lookup(Name, Key, A)) {
        P->load(A, PC);
        if (P->transformsIr()) {
          // Adopt the cached artifact's chain: PC.Ir's terms live in
          // *its* TermContext now, and later passes must create terms —
          // and lock — there.
          if (A.Chain)
            PC.Chain = A.Chain;
          PC.IrHash = A.IrHash;
          R.OutHash = A.IrHash;
        }
        R.CacheHit = true;
        PC.Runs.push_back(std::move(R));
        continue;
      }
    }

    IrSnapshot Before;
    if (PC.Ir)
      Before = snapshotIr(*PC.Ir);

    Stopwatch W;
    bool Ok;
    std::string Note;
    {
      // Term creation (hash-consing) in the chain's TermContext is not
      // thread-safe; hold its lock for the pass body *and* the hash /
      // verify block — even "reads" like type queries may intern terms.
      // At most one chain lock is held at a time, and the PassCache
      // mutex is never taken while holding it.
      std::unique_lock<std::mutex> ChainLock;
      if (PC.Chain)
        ChainLock = std::unique_lock(PC.Chain->Mu);

      Ok = P->run(PC, O, Err, &Note);
      if (Ok && P->transformsIr()) {
        if (!PC.Ir) {
          if (Err)
            *Err = "pass '" + Name + "' produced no IR";
          Ok = false;
        } else {
          PC.IrHash = irHash(*PC.Ir);
        }
      }
      if (Ok && O.VerifyIr) {
        std::string VErr;
        if (P->transformsIr() && PC.Ir && !verifyIr(*PC.Ir, &VErr)) {
          if (Err)
            *Err = "IR invariant violated after pass '" + Name +
                   "': " + VErr;
          Ok = false;
        } else if (!P->verifyInvariants(PC, Before, &VErr)) {
          if (Err)
            *Err = "invariant violated by pass '" + Name + "': " + VErr;
          Ok = false;
        }
      }
    }
    R.Seconds = W.seconds();
    R.Note = std::move(Note);
    metrics::Registry::instance()
        .dcounter("efc_pass_seconds_total", "Compile pass wall seconds",
                  "pass=\"" + Name + "\"")
        .add(R.Seconds);
    if (!Ok)
      return false;

    if (P->transformsIr())
      R.OutHash = PC.IrHash;
    if (Cacheable) {
      PassArtifacts A;
      P->save(PC, A);
      A.Chain = PC.Chain;
      if (P->transformsIr())
        A.IrHash = PC.IrHash;
      PassCache::instance().insert(
          Name, cacheKey(Name, R.InHash, OptHash), std::move(A));
    }
    PC.Runs.push_back(std::move(R));
  }
  return true;
}

std::string PassManager::explain(const PipelineOptions &O) const {
  auto &Reg = PassRegistry::instance();
  std::ostringstream OS;
  for (const std::string &Name : Names) {
    const Pass *P = Reg.lookup(Name);
    if (!P) {
      OS << Name << ": <unknown pass>\n";
      continue;
    }
    char Opt[32];
    snprintf(Opt, sizeof(Opt), "%016llx",
             (unsigned long long)P->optionsHash(O));
    OS << Name << ": " << (P->transformsIr() ? "ir" : "plan")
       << (P->cacheable() ? ", cacheable" : ", uncached")
       << ", options=" << Opt << "\n";
  }
  return OS.str();
}

PassCacheStats PassManager::cacheStats() {
  return PassCache::instance().snapshot();
}

void PassManager::resetCacheForTests() { PassCache::instance().reset(); }
