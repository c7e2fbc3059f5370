//===- fusion/Fusion.h - Fusion of BSTs (paper §3) --------------*- C++ -*-===//
///
/// \file
/// The incremental fusion algorithm of paper §3: builds A ⊗ B such that
/// ⟦A ⊗ B⟧ = ⟦B⟧ ∘ ⟦A⟧ by symbolically running B's rules over the output
/// lists in A's Base leaves (RUN/STEP of Figure 7), exploring only product
/// states reachable through satisfiable branches (FUSE/PROD of Figure 6).
/// The SMT solver is used incrementally: the accumulated branch context γ
/// lives in the solver's assertion stack via push/pop, and a branch is
/// kept unless the solver refutes its guard under γ (Solver::refutes).
///
//===----------------------------------------------------------------------===//

#ifndef EFC_FUSION_FUSION_H
#define EFC_FUSION_FUSION_H

#include "bst/Bst.h"
#include "solver/Solver.h"

#include <vector>

namespace efc {

/// Counters reported by one fusion run (feeds Figure 11 and the ablation
/// benchmarks).
struct FusionStats {
  unsigned ProductStates = 0;    ///< control states in the result
  unsigned BranchesPruned = 0;   ///< subtrees cut by unsat branch contexts
  unsigned ItesCollapsed = 0;    ///< redundant Ite nodes merged (R1 == R2)
  uint64_t SolverChecks = 0;     ///< refutation queries issued
  uint64_t Implied = 0;          ///< of those, implied by γ's bounds
  double Seconds = 0;            ///< wall-clock fusion time
};

struct FusionOptions {
  /// When false, branch feasibility is not checked with the solver (the
  /// §3.1 "brute force" construction); redundancy collapsing still uses
  /// structural equality only.
  bool SolverPruning = true;
  /// Remove states that cannot reach a final state afterwards.
  bool DeadEndElimination = true;
  /// Per-check CDCL conflict budget during fusion (Unknown keeps the
  /// branch, which is always sound).
  int64_t SolverBudget = 64;
};

/// Fuses \p A and \p B (requires `A.outputType() == B.inputType()`); the
/// result reads A's input type and writes B's output type, with register
/// type ρ_A × ρ_B.
Bst fuse(const Bst &A, const Bst &B, Solver &S,
         const FusionOptions &Opts = {}, FusionStats *Stats = nullptr);

/// Convenience overload that builds a solver on A's context.
Bst fuse(const Bst &A, const Bst &B);

/// Left fold of fuse over a pipeline of stages.
Bst fuseChain(const std::vector<const Bst *> &Stages, Solver &S,
              const FusionOptions &Opts = {}, FusionStats *Stats = nullptr);

} // namespace efc

#endif // EFC_FUSION_FUSION_H
