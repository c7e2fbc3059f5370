//===- tests/common/Oracle.h - Differential equivalence oracle -*- C++ -*-===//
///
/// \file
/// The correctness gate behind every backend and transformation of this
/// repo: given a pipeline of BST stages and an input, the oracle runs the
/// composed reference interpretation (runBst stage by stage — the paper's
/// ⟦B⟧ ∘ ⟦A⟧) and asserts that every enabled execution path observes the
/// same output, including Undef rejection:
///
///   * per-stage bytecode VM chain            (BK_Vm)
///   * fuseChain, interpreted                 (BK_Fused)
///   * fuseChain, on the VM                   (BK_FusedVm)
///   * RBBE of the fused transducer, interp   (BK_Rbbe)
///   * RBBE of the fused transducer, VM       (BK_RbbeVm)
///   * byte-class fast path over fused VM     (BK_FastPath)
///   * byte-class fast path over RBBE'd VM    (BK_RbbeFast)
///   * fast path fed in tiny chunks           (BK_FastSkip: cuts inside
///     run-kernel spans, so runs must resume across feed() boundaries)
///   * generated C++ compiled to a .so        (BK_Native, host compiler)
///
/// A greedy shrinker minimizes failing (pipeline, input) pairs by stage
/// removal, state removal, rule-tree pruning and input truncation before
/// reporting.  Used by the property suites and by tools/efc-fuzz.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_TESTS_COMMON_ORACLE_H
#define EFC_TESTS_COMMON_ORACLE_H

#include "bst/Bst.h"
#include "codegen/NativeCompile.h"
#include "fusion/Fusion.h"
#include "rbbe/Rbbe.h"
#include "vm/FastPath.h"
#include "vm/Vm.h"

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace efc::testing {

/// Execution paths the oracle pins to the reference semantics.  The
/// composed reference interpretation is always run: it *is* the oracle.
enum Backend : unsigned {
  BK_Vm = 1u << 0,      ///< per-stage bytecode VM, stages chained
  BK_Fused = 1u << 1,   ///< fuseChain → reference interpreter
  BK_FusedVm = 1u << 2, ///< fuseChain → bytecode VM
  BK_Rbbe = 1u << 3,    ///< RBBE(fused) → reference interpreter
  BK_RbbeVm = 1u << 4,  ///< RBBE(fused) → bytecode VM
  BK_Native = 1u << 5,  ///< fused → generated C++ → dlopen'd .so
  BK_FastPath = 1u << 6, ///< fused → byte-class dispatch fast path
  BK_RbbeFast = 1u << 7, ///< RBBE(fused) → byte-class dispatch fast path
  /// Fast path driven through FastPathCursor in 1/3/7-element chunks, so
  /// every run-kernel span is cut inside a run at some feed() boundary.
  BK_FastSkip = 1u << 8,

  BK_Default = BK_Vm | BK_Fused | BK_FusedVm | BK_Rbbe | BK_RbbeVm |
               BK_FastPath | BK_RbbeFast | BK_FastSkip,
  BK_All = BK_Default | BK_Native,
};

/// Parses a comma-separated backend list ("vm,fused,rbbe", "all",
/// "default", "native", ...).  Returns 0 and sets \p Err on failure.
unsigned parseBackends(const std::string &Spec, std::string *Err = nullptr);

/// Human-readable names of the set bits, comma separated.
std::string backendNames(unsigned Mask);

/// One observed divergence from the reference semantics.
struct Disagreement {
  std::string Backend;  ///< name of the diverging execution path
  std::string Expected; ///< reference output ("reject" or "[v0 v1 ...]")
  std::string Got;
  std::string str() const {
    return Backend + ": expected " + Expected + ", got " + Got;
  }
};

/// Renders an input/output vector like the Disagreement fields.
std::string renderValues(std::span<const Value> Vs);

/// Construction knobs.  The RBBE budgets default far below the library's
/// own defaults: random fused products occasionally hand the backward
/// reachability search a pathological instance, and budget exhaustion is
/// conservative (branches are kept), so cheap budgets keep oracle
/// construction fast without weakening the differential check.
struct OracleOptions {
  unsigned Backends = BK_Default;
  FusionOptions Fusion;
  RbbeOptions Rbbe;
  OracleOptions() {
    Rbbe.MaxSolverChecks = 200;
    Rbbe.ConflictBudget = 16;
    Rbbe.MaxPredicateNodes = 4000;
    Rbbe.TimeBudgetSeconds = 0.5;
  }
  explicit OracleOptions(unsigned Mask) : OracleOptions() { Backends = Mask; }
};

/// Builds every derived artifact (fused, RBBE'd, VM programs, native .so)
/// once, then checks inputs against all of them.
class Oracle {
public:
  /// \p Stages must chain by type (stage i's output type equals stage
  /// i+1's input type), share one TermContext, and have scalar element
  /// types.
  explicit Oracle(std::vector<Bst> Stages,
                  const OracleOptions &Opts = OracleOptions());
  Oracle(std::vector<Bst> Stages, unsigned Backends)
      : Oracle(std::move(Stages), OracleOptions(Backends)) {}

  /// Runs \p Input through every enabled backend; std::nullopt when all
  /// observations agree with the reference interpretation.
  std::optional<Disagreement> check(std::span<const Value> Input) const;

  const std::vector<Bst> &stages() const { return Stages; }
  const Bst &fused() const { return *Fused; }

  /// False when BK_Native was requested but the host compiler (or the
  /// generated code) was unavailable; check() then skips that path.
  bool nativeAvailable() const { return Native.has_value(); }
  const std::string &nativeError() const { return NativeErr; }

private:
  std::vector<Bst> Stages;
  unsigned Backends;
  std::vector<std::optional<CompiledTransducer>> StageVms;
  // Built via the shared pass pipeline (pipeline/PassManager.h) in raw
  // mode: the caller owns the TermContext, so artifacts are per-oracle.
  std::shared_ptr<const Bst> Fused, Rbbe;
  std::shared_ptr<const CompiledTransducer> FusedVm, RbbeVm;
  std::shared_ptr<const FastPathPlan> FusedFast, RbbeFast;
  std::optional<NativeTransducer> Native;
  std::string NativeErr;
};

/// One-shot convenience wrapper.
std::optional<Disagreement> checkPipeline(std::vector<Bst> Stages,
                                          std::span<const Value> Input,
                                          unsigned Backends = BK_Default);

/// Outcome of minimizing a failing (pipeline, input) pair.
struct ShrinkResult {
  std::vector<Bst> Stages;
  std::vector<Value> Input;
  Disagreement Failure; ///< from the last failing re-check
  unsigned Attempts = 0; ///< candidate re-checks performed
  unsigned Accepted = 0; ///< candidates that kept the failure
};

/// Predicate deciding whether a candidate still fails; lets tests drive
/// the shrinker with synthetic failures.
using FailurePred = std::function<std::optional<Disagreement>(
    const std::vector<Bst> &, std::span<const Value>)>;

/// Greedy minimization under an arbitrary failure predicate: repeatedly
/// tries stage removal, input truncation, control-state removal and
/// rule-tree pruning (Ite collapse, output dropping, Undef substitution),
/// keeping any candidate for which \p StillFails holds.
ShrinkResult shrinkWith(const FailurePred &StillFails, std::vector<Bst> Stages,
                        std::vector<Value> Input, unsigned MaxAttempts = 4000);

/// Minimization against the differential oracle itself: a candidate is
/// kept when *some* backend in \p Backends still disagrees.
ShrinkResult shrink(std::vector<Bst> Stages, std::vector<Value> Input,
                    unsigned Backends, unsigned MaxAttempts = 4000);

/// "3 stages, 2+4+1 states, 17 branches, input len 5" — for reports.
std::string pipelineSummary(const std::vector<Bst> &Stages,
                            std::span<const Value> Input);

} // namespace efc::testing

#endif // EFC_TESTS_COMMON_ORACLE_H
