//===- runtime/PipelineCache.h - Compiled-pipeline cache --------*- C++ -*-===//
///
/// \file
/// First layer of the serving runtime (see DESIGN.md "Runtime
/// subsystem"): a pipeline *spec* — frontend kind + pattern + aggregate +
/// format + optimization flags — content-hashes to a cache key, and the
/// cache holds the expensive derived artifacts behind that key:
///
///   * the fused + RBBE'd (+ minimized) BST,
///   * its bytecode-VM compilation, and
///   * lazily, the dlopen'd native .so (whose build is additionally
///     backed by NativeTransducer's on-disk artifact cache, so a warm
///     disk cache never invokes the host compiler).
///
/// Lookups are single-flight: N concurrent requests for the same spec
/// trigger exactly one fusion and at most one host-compiler invocation;
/// the others block until the artifact is published.  Eviction is LRU.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_RUNTIME_PIPELINECACHE_H
#define EFC_RUNTIME_PIPELINECACHE_H

#include "bst/Bst.h"
#include "bst/Minimize.h"
#include "codegen/NativeCompile.h"
#include "fusion/Fusion.h"
#include "pipeline/PassManager.h"
#include "rbbe/Rbbe.h"
#include "verify/EquivChecker.h"
#include "vm/FastPath.h"
#include "vm/Vm.h"

#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace efc::runtime {

/// Everything that determines a compiled pipeline's semantics.  The
/// pipeline shape mirrors efcc: utf8-decode → extract (regex capture or
/// XPath contents, parsed as decimal ints) → aggregate → format →
/// utf8-encode.
struct PipelineSpec {
  enum class Frontend { Regex, XPath };
  Frontend Kind = Frontend::Regex;
  std::string Pattern;          ///< regex pattern or XPath query
  std::string Agg = "none";     ///< max | min | avg | none
  std::string Format = "lines"; ///< decimal | lines | sql
  /// Reachability-based branch elimination.  Off by default: on the
  /// benchmark's served specs it removed 2 branches in all, at
  /// 0.12-0.20 s per spec (EXPERIMENTS.md "Cold compile").
  bool Rbbe = false;
  bool Minimize = false;        ///< control-state minimization
  /// RBBE solver-check budget override; 0 keeps RbbeOptions'
  /// MaxSolverChecks default.  Serialized (and therefore part of the
  /// cache key / wire format) only when non-zero, so existing keys and
  /// OPEN frames are unchanged.
  uint64_t RbbeBudget = 0;

  bool operator==(const PipelineSpec &) const = default;

  /// Stable serialization, `key=value` lines; the cache key and the wire
  /// format of efc-serve OPEN frames.
  std::string canonical() const;
  /// FNV-1a of canonical() (used for artifact tags and diagnostics).
  uint64_t hash() const;
  /// Inverse of canonical(); unknown keys and malformed values are
  /// rejected with a message in \p Err.
  static std::optional<PipelineSpec> parse(const std::string &Text,
                                           std::string *Err = nullptr);
};

/// Builds the unfused stage chain for \p Spec in \p Ctx (the shared
/// assembly used by efcc and the cache).  std::nullopt + \p Err when the
/// pattern does not compile or an enum field is unknown.
std::optional<std::vector<Bst>> assembleStages(const PipelineSpec &Spec,
                                               TermContext &Ctx,
                                               std::string *Err = nullptr);

/// A fully built cache entry.  Immutable after publication except for
/// the lazily-built native artifact (internally synchronized).
class CompiledPipeline {
public:
  PipelineSpec Spec;
  /// Owns the TermContext the artifacts' terms live in plus the lock
  /// serializing term creation there.  Shared with the per-pass artifact
  /// cache: entries whose upstream passes hit the cache alias the same
  /// chain (and the same Bst) rather than re-deriving it.
  std::shared_ptr<pipeline::IrChain> Chain;
  std::shared_ptr<TermContext> Ctx; ///< == Chain->Ctx (convenience alias)
  std::shared_ptr<const Bst> Fused; ///< fused, optimized per Spec
  std::shared_ptr<const CompiledTransducer> Vm;
  /// Byte-class dispatch tables over Vm (vm/FastPath.h); built with every
  /// entry — states the analysis cannot tabulate just stay on bytecode.
  std::shared_ptr<const FastPathPlan> Fast;
  /// Always null: a benchmark compatibility stub (pipeline/Pass.h).
  std::shared_ptr<const parallel::ParallelPlan> Par;

  FusionStats FStats;
  RbbeStats RStats;
  MinimizeStats MStats;
  size_t NumStages = 0;
  /// One row per compile pass (pass name, in/out IR hash, seconds,
  /// cache-hit flag) — `efcc --explain-passes` and diagnostics.
  std::vector<pipeline::PassRun> PassRuns;
  double BuildSeconds = 0; ///< fusion + optimization + VM compile

  /// Backend-equivalence certification verdict for this entry (see
  /// verify/EquivChecker.h).  Unchecked unless EFC_CERTIFY=1 at build
  /// time; with certification on, a Refuted verdict is a cache-admission
  /// failure — the entry is never published, so nothing refuted ever
  /// serves.  Unverified (budget exhaustion) entries serve normally; the
  /// degradation is visible here and in the cache counters.
  verify::CertStatus Cert = verify::CertStatus::Unchecked;
  std::string CertSummary;   ///< CertReport::summary() one-liner
  double CertifySeconds = 0; ///< certification wall time
  unsigned CertTimeouts = 0; ///< per-state budget exhaustions

  /// How a native() call was satisfied (for cache counters).
  enum class NativeOutcome {
    Ready,    ///< already resident in this entry
    Compiled, ///< host compiler invoked now
    DiskHit,  ///< loaded from the on-disk artifact cache
    Failed,   ///< no compiler / compile error (negative-cached)
  };

  /// The native artifact, built at most once per entry (thread-safe).
  /// nullptr when unavailable.  A *transient* failure (toolchain missing,
  /// disk full — NativeCompileInfo::Transient) is re-attempted after a
  /// backoff rather than cached forever: the delay starts at
  /// EFC_NATIVE_RETRY_MS milliseconds (default 1000, 0 = retry
  /// immediately) and doubles per consecutive failure, capped at 64x.
  /// Non-transient errors stay sticky for the life of the entry.
  const NativeTransducer *native(std::string *Err = nullptr,
                                 NativeOutcome *Outcome = nullptr,
                                 NativeCompileInfo *Info = nullptr) const;

private:
  mutable std::mutex NativeMu;
  mutable bool NativeTried = false;
  mutable std::optional<NativeTransducer> Native;
  mutable NativeCompileInfo NInfo;
  mutable std::string NativeErr;
  mutable unsigned NativeFailures = 0; ///< consecutive transient failures
  mutable std::chrono::steady_clock::time_point NativeRetryAt{};
};

/// In-memory LRU of CompiledPipelines with single-flight builds.
class PipelineCache {
public:
  struct Stats {
    uint64_t Hits = 0;         ///< served from memory
    uint64_t Misses = 0;       ///< triggered a build
    uint64_t Coalesced = 0;    ///< waited on another caller's build
    uint64_t NegativeHits = 0; ///< served a cached spec *error*
    uint64_t Evictions = 0;
    uint64_t Builds = 0;         ///< fusions performed
    uint64_t NativeCompiles = 0; ///< host-compiler invocations
    uint64_t NativeDiskHits = 0; ///< .so served from the artifact cache
    double BuildSeconds = 0;     ///< cumulative fusion+opt+VM time
    double NativeCompileMs = 0;  ///< cumulative host-compiler time
    uint64_t FastTableStates = 0; ///< fast-path plan stats, summed over
    uint64_t FastAccelStates = 0; ///< built entries (coverage telemetry)
    uint64_t FastRunKernels = 0;
    uint64_t FastNibbleKernels = 0; ///< kernels with a shufti encoding
    uint64_t FastWideStates = 0;    ///< states with a wide-domain table
    uint64_t CertCertified = 0;  ///< builds certified end-to-end
    uint64_t CertUnverified = 0; ///< builds degraded by budget/Unknown
    uint64_t CertRefuted = 0;    ///< builds rejected at admission
    uint64_t CertTimeouts = 0;   ///< per-state budget exhaustions, summed
    std::string str() const; ///< one-line rendering for stats dumps
  };

  explicit PipelineCache(size_t Capacity = 32);

  /// Returns the entry for \p Spec, building it at most once across all
  /// concurrent callers.  With \p WantNative, also ensures the native
  /// artifact exists (a VM-only entry is upgraded in place; failure to
  /// native-compile fails only native requests).  nullptr + \p Err when
  /// the spec is invalid or the build failed.
  std::shared_ptr<const CompiledPipeline>
  get(const PipelineSpec &Spec, bool WantNative = false,
      std::string *Err = nullptr);

  Stats stats() const;
  size_t size() const;

private:
  /// Single-flight slot: holds either the build-in-progress marker or
  /// the published entry / error.
  struct Slot {
    bool Building = true;
    std::shared_ptr<CompiledPipeline> Ready;
    std::string Error;
    std::condition_variable Cv;
  };
  struct MapEntry {
    std::shared_ptr<Slot> S;
    std::list<std::string>::iterator LruIt;
  };

  void touch(MapEntry &E);
  void evictOverflow(); ///< caller holds Mu

  mutable std::mutex Mu;
  size_t Capacity;
  std::list<std::string> Lru; ///< front = most recently used key
  std::unordered_map<std::string, MapEntry> Map;
  Stats Counters;
};

} // namespace efc::runtime

#endif // EFC_RUNTIME_PIPELINECACHE_H
