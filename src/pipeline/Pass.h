//===- pipeline/Pass.h - Registered compile passes over the BST -*- C++ -*-===//
///
/// \file
/// The pass-manager IR architecture for the compile pipeline (DESIGN.md
/// "Pass pipeline"): fuse → rbbe → minimize → vm_compile → fastpath_plan
/// is no longer a hard-wired call sequence inside PipelineCache (with
/// sibling copies in tests/common/Oracle and bench/common/BenchCommon) but
/// a list of *named passes* over one PassContext.  Each pass
///
///   * transforms the BST IR or derives a side artifact from it,
///   * fingerprints its own options (optionsHash) and its input IR
///     (inputHash — the IR hash of the IR *entering* the pass), so
///     per-pass artifact caching composes: changing only a downstream
///     option (RBBE budget, fastpath knobs) re-keys that pass alone and
///     reuses every upstream cached result,
///   * opens the same trace::Span names the monolithic driver used, so
///     span trees stay stable, and
///   * declares invariants that EFC_VERIFY_IR=1 checks between passes
///     (well-formedness, rule-tree hash determinism, type preservation,
///     state/branch-count monotonicity).
///
/// Passes are stateless singletons in a process-wide PassRegistry,
/// addressed by name (`efcc --passes`, PassManager::defaultPasses).
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PIPELINE_PASS_H
#define EFC_PIPELINE_PASS_H

#include "bst/Bst.h"
#include "bst/Minimize.h"
#include "fusion/Fusion.h"
#include "rbbe/Rbbe.h"
#include "vm/FastPath.h"
#include "vm/Vm.h"

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Benchmark compatibility stubs; they have no behaviour.  perfbench/
// (which changes only together with BENCHMARK.json) still reads three
// names of the removed data-parallel executor to report its parallel.*
// metrics: CompiledPipeline::Par and PassContext::Par, which point to
// this never-built plan and so are always null, and
// StreamSession::parallelFeeds(), which StreamSession inherits from
// SessionStub and which returns 0.  It also reads one name of the
// removed two-state speculation tier to report vm.fast.<P>.spec_share:
// StreamSession::fastSpecElements(), inherited from SessionStub, which
// returns 0.  Delete this block, the two Par members and
// StreamSession's base once the benchmark drops those metrics.
namespace efc::parallel {
struct ParallelPlan {
  bool eligible() const { return false; }
};
struct SessionStub {
  uint64_t parallelFeeds() const { return 0; }
  uint64_t fastSpecElements() const { return 0; }
};
} // namespace efc::parallel

namespace efc::pipeline {

/// Everything that can change a pass's output.  One options object serves
/// the whole pipeline; each pass hashes only the fields it reads.
struct PipelineOptions {
  FusionOptions Fusion;
  RbbeOptions Rbbe;
  FastPathOptions FastPath;

  /// vm_compile on a non-scalar pipeline: error (serving path) or leave
  /// the VM artifact empty and let plan passes skip (oracle over random
  /// BSTs).
  bool AllowNonScalar = false;
  /// Check IR invariants between passes.  Defaults to EFC_VERIFY_IR=1.
  bool VerifyIr;
  /// Consult/populate the process-wide per-pass artifact cache.  Only
  /// effective when the PassContext carries an IrChain (raw-mode callers
  /// that own their TermContext on the stack cannot share artifacts).
  bool UseCache = true;

  PipelineOptions(); ///< reads EFC_VERIFY_IR (support/EnvParse)
};

/// Shared ownership chain for cached artifacts: the TermContext every
/// cached BST's terms live in, plus the lock serializing term creation
/// (hash-consing) in it.  Reading terms is lock-free; passes create
/// terms, so the PassManager holds Mu for the duration of each pass run
/// on the chain.  Adopting a cached artifact makes its chain the current
/// one; the manager holds at most one chain lock at a time.
struct IrChain {
  std::shared_ptr<TermContext> Ctx;
  std::mutex Mu;
  explicit IrChain(std::shared_ptr<TermContext> C) : Ctx(std::move(C)) {}
};

/// One pass execution, for `efcc --explain-passes` and diagnostics.
struct PassRun {
  std::string PassName;
  uint64_t InHash = 0;  ///< IR hash entering the pass (cache-key input)
  uint64_t OutHash = 0; ///< IR hash after the pass (0 for plan passes)
  double Seconds = 0;
  bool CacheHit = false;
  std::string Note;
};

/// The IR and derived artifacts flowing through the pipeline.  Artifacts
/// are shared_ptr so cache entries and CompiledPipelines can alias them.
class PassContext {
public:
  /// Null in raw mode: the caller owns the TermContext (e.g. on the
  /// stack) and artifacts must not outlive it, so caching is off.
  std::shared_ptr<IrChain> Chain;
  /// Input stages for `fuse` (non-owning; alive for the duration of
  /// run()).  Untouched by every other pass.
  std::vector<const Bst *> Stages;

  std::shared_ptr<const Bst> Ir;
  /// irHash(*Ir) (codegen/CppCodeGen.h): stable across TermContexts and
  /// processes, so it keys the per-pass artifact cache and the golden
  /// tests.
  uint64_t IrHash = 0;

  std::shared_ptr<const CompiledTransducer> Vm;
  std::shared_ptr<const FastPathPlan> Fast;
  std::shared_ptr<const parallel::ParallelPlan> Par; ///< always null (stub)

  FusionStats FStats;
  RbbeStats RStats;
  MinimizeStats MStats;

  std::vector<PassRun> Runs;
};

/// Cache value: the artifacts one pass published, plus the chain keeping
/// their terms alive.
struct PassArtifacts {
  std::shared_ptr<IrChain> Chain;
  std::shared_ptr<const Bst> Ir;
  uint64_t IrHash = 0;
  std::shared_ptr<const CompiledTransducer> Vm;
  std::shared_ptr<const FastPathPlan> Fast;
  FusionStats FStats;
  RbbeStats RStats;
  MinimizeStats MStats;
};

/// Snapshot of the IR entering a pass, for invariant checks.
struct IrSnapshot {
  unsigned States = 0;
  unsigned Branches = 0;
  const Type *InputTy = nullptr;
  const Type *OutputTy = nullptr;
  const Type *RegTy = nullptr;
};

/// A named, stateless compile pass.
class Pass {
public:
  virtual ~Pass() = default;

  virtual std::string_view name() const = 0;
  /// True when run() replaces PC.Ir (fuse/rbbe/minimize); plan passes
  /// (vm_compile, fastpath_plan) derive side artifacts.
  virtual bool transformsIr() const { return true; }
  virtual bool cacheable() const { return true; }

  /// FNV fingerprint of every PipelineOptions field this pass reads.
  virtual uint64_t optionsHash(const PipelineOptions &O) const = 0;
  /// Cache-key input hash: the IR hash entering the pass.  `fuse`
  /// overrides this with the combined per-stage IR hash.
  virtual uint64_t inputHash(const PassContext &PC) const {
    return PC.IrHash;
  }

  /// Runs the pass.  False + \p Err on failure.  A pass may no-op (e.g.
  /// fastpath_plan without a VM under AllowNonScalar); it then records
  /// why via the returned note.
  virtual bool run(PassContext &PC, const PipelineOptions &O,
                   std::string *Err, std::string *Note) const = 0;

  /// Copies this pass's outputs into / out of a cache value.  The
  /// manager fills PassArtifacts::Chain.
  virtual void save(const PassContext &PC, PassArtifacts &A) const = 0;
  virtual void load(const PassArtifacts &A, PassContext &PC) const = 0;

  /// Pass-specific invariants under EFC_VERIFY_IR=1, checked after
  /// run(); the generic well-formedness/determinism checks run in the
  /// manager.  \p Before snapshots the IR entering the pass.
  virtual bool verifyInvariants(const PassContext &PC,
                                const IrSnapshot &Before,
                                std::string *Err) const {
    (void)PC;
    (void)Before;
    (void)Err;
    return true;
  }
};

/// Process-wide pass registry.  Builtin passes register on first use;
/// EFC_REGISTER_PASS adds custom ones (test mutations, experimental
/// normalizations) from any translation unit.
class PassRegistry {
public:
  static PassRegistry &instance();

  /// False (and drops \p P) when the name is already taken.
  bool add(std::unique_ptr<Pass> P);
  /// nullptr when unknown.
  const Pass *lookup(std::string_view Name) const;
  /// Registered names, registration order (builtins first).
  std::vector<std::string> names() const;

private:
  PassRegistry();
  struct Impl;
  Impl *I;
};

/// Registers \p PassClass (default-constructed) at namespace scope:
///   EFC_REGISTER_PASS(MyPass);
#define EFC_REGISTER_PASS(PassClass)                                         \
  static const bool EfcPassReg_##PassClass [[maybe_unused]] =                \
      ::efc::pipeline::PassRegistry::instance().add(                         \
          std::make_unique<PassClass>())

} // namespace efc::pipeline

#endif // EFC_PIPELINE_PASS_H
