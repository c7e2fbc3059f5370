//===- fusion/Fusion.cpp - Fusion of BSTs (paper Figures 6 and 7) ---------===//

#include "fusion/Fusion.h"

#include "bst/Transform.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"
#include "term/Rewrite.h"

#include <deque>
#include <map>

using namespace efc;

namespace {

/// One fusion run.  Holds the product-state map, the frontier, and the
/// solver whose assertion stack carries the branch context γ.
class Fuser {
public:
  Fuser(const Bst &A, const Bst &B, Solver &S, const FusionOptions &Opts,
        FusionStats &Stats)
      : A(A), B(B), Ctx(A.context()), S(S), Opts(Opts), Stats(Stats),
        FusedRegTy(Ctx.pairTy(A.registerType(), B.registerType())),
        Fused(Ctx, A.inputType(), B.outputType(), FusedRegTy,
              /*NumStates=*/1, /*Init=*/0,
              Value::tuple({A.initialRegister(), B.initialRegister()})) {
    assert(A.outputType() == B.inputType() &&
           "fusion requires o_A == iota_B");
    RegVar = Fused.regVar();
    // theta_A of Figure 6: A's register variable becomes pi1(r).
    ThetaA.set(A.regVar(), Ctx.mkProj1(RegVar));
    StateIds[{A.initialState(), B.initialState()}] = 0;
    Fused.setStateName(0, name(A.initialState(), B.initialState()));
    Frontier.push_back({A.initialState(), B.initialState()});
  }

  Bst run() {
    while (!Frontier.empty()) {
      auto [P, Q] = Frontier.front();
      Frontier.pop_front();
      unsigned Id = StateIds.at({P, Q});
      Fused.setDelta(Id, fuseDelta(A.delta(P).get(), Q));
      Fused.setFinalizer(Id, fuseFin(A.finalizer(P).get(), Q, Id));
    }
    Stats.ProductStates = Fused.numStates();
    return std::move(Fused);
  }

private:
  const Bst &A;
  const Bst &B;
  TermContext &Ctx;
  Solver &S;
  const FusionOptions &Opts;
  FusionStats &Stats;
  const Type *FusedRegTy;
  Bst Fused;
  TermRef RegVar = nullptr;
  Subst ThetaA;
  std::map<std::pair<unsigned, unsigned>, unsigned> StateIds;
  std::deque<std::pair<unsigned, unsigned>> Frontier;

  std::string name(unsigned P, unsigned Q) const {
    return A.stateName(P) + "." + B.stateName(Q);
  }

  /// True unless the solver refutes \p Phi under the current context
  /// (an unproven guard keeps its branch — conservative).
  bool maySat(TermRef Phi) {
    if (!Opts.SolverPruning)
      return !Phi->isFalse();
    ++Stats.SolverChecks;
    return !S.refutes(Phi);
  }

  /// Builds a term expressing ⟦R1⟧(x, r) != ⟦R2⟧(x, r) (cf. FUSE line 7:
  /// the branching condition is redundant when this is unsat under γ).
  TermRef ruleNeq(const Rule *R1, const Rule *R2) {
    if (R1->isIte())
      return Ctx.mkIte(R1->cond(), ruleNeq(R1->thenRule().get(), R2),
                       ruleNeq(R1->elseRule().get(), R2));
    if (R2->isIte())
      return Ctx.mkIte(R2->cond(), ruleNeq(R1, R2->thenRule().get()),
                       ruleNeq(R1, R2->elseRule().get()));
    if (R1->isUndef() || R2->isUndef())
      return Ctx.boolConst(R1->isUndef() != R2->isUndef());
    if (R1->target() != R2->target() ||
        R1->outputs().size() != R2->outputs().size())
      return Ctx.trueConst();
    TermRef Neq = Ctx.mkNeq(R1->update(), R2->update());
    for (size_t I = 0; I < R1->outputs().size(); ++I)
      Neq = Ctx.mkOr(Neq, Ctx.mkNeq(R1->outputs()[I], R2->outputs()[I]));
    return Neq;
  }

  /// Merges two fused branches: drops the Ite when the branches are
  /// structurally equal or semantically equal under the context.  The
  /// semantic check builds an O(|R1| * |R2|) inequality formula, so it is
  /// only attempted for small subtrees — larger redundant pairs are
  /// almost always caught by the structural test anyway.
  RulePtr mergeBranches(TermRef Cond, RulePtr R1, RulePtr R2) {
    if (Rule::equal(R1, R2)) {
      ++Stats.ItesCollapsed;
      return R1;
    }
    if (Opts.SolverPruning) {
      unsigned L1 = R1->countBaseLeaves() + 1;
      unsigned L2 = R2->countBaseLeaves() + 1;
      if (L1 * L2 <= 16) {
        TermRef Neq = ruleNeq(R1.get(), R2.get());
        ++Stats.SolverChecks;
        if (S.refutes(Neq)) {
          ++Stats.ItesCollapsed;
          return R1;
        }
      }
    }
    return Rule::ite(Cond, std::move(R1), std::move(R2));
  }

  /// FUSE_delta of Figure 6.
  RulePtr fuseDelta(const Rule *R, unsigned Q) {
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite: {
      TermRef Phi = substitute(Ctx, R->cond(), ThetaA);
      RulePtr R1 = Rule::undef(), R2 = Rule::undef();
      if (maySat(Phi)) {
        S.push();
        S.add(Phi);
        R1 = fuseDelta(R->thenRule().get(), Q);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      TermRef NotPhi = Ctx.mkNot(Phi);
      if (maySat(NotPhi)) {
        S.push();
        S.add(NotPhi);
        R2 = fuseDelta(R->elseRule().get(), Q);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      return mergeBranches(Phi, std::move(R1), std::move(R2));
    }
    case Rule::Kind::Base: {
      // Outputs of A (over x, pi1(r)) become the symbolic inputs of B.
      std::vector<TermRef> Vs;
      Vs.reserve(R->outputs().size());
      for (TermRef O : R->outputs())
        Vs.push_back(substitute(Ctx, O, ThetaA));
      TermRef G = substitute(Ctx, R->update(), ThetaA);
      return prod(R->target(), G,
                  runB(Vs, 0, Q, Ctx.mkProj2(RegVar)));
    }
    }
    return Rule::undef();
  }

  /// RUN of Figure 7: symbolically steps B over Vs[From..], starting in
  /// control state Q with register term Sr.  Leaves carry B's target state
  /// and B's register term.
  RulePtr runB(const std::vector<TermRef> &Vs, size_t From, unsigned Q,
               TermRef Sr) {
    if (From == Vs.size())
      return Rule::base({}, Q, Sr);
    return stepB(Vs, From, B.delta(Q).get(), Sr);
  }

  /// STEP of Figure 7.
  RulePtr stepB(const std::vector<TermRef> &Vs, size_t From, const Rule *R,
                TermRef Sr) {
    Subst Theta;
    Theta.set(B.inputVar(), Vs[From]);
    Theta.set(B.regVar(), Sr);
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite: {
      TermRef Phi = substitute(Ctx, R->cond(), Theta);
      RulePtr R1 = Rule::undef(), R2 = Rule::undef();
      if (maySat(Phi)) {
        S.push();
        S.add(Phi);
        R1 = stepB(Vs, From, R->thenRule().get(), Sr);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      TermRef NotPhi = Ctx.mkNot(Phi);
      if (maySat(NotPhi)) {
        S.push();
        S.add(NotPhi);
        R2 = stepB(Vs, From, R->elseRule().get(), Sr);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      return mergeBranches(Phi, std::move(R1), std::move(R2));
    }
    case Rule::Kind::Base: {
      std::vector<TermRef> Outs;
      Outs.reserve(R->outputs().size());
      for (TermRef O : R->outputs())
        Outs.push_back(substitute(Ctx, O, Theta));
      TermRef G = substitute(Ctx, R->update(), Theta);
      return concat(std::move(Outs), runB(Vs, From + 1, R->target(), G));
    }
    }
    return Rule::undef();
  }

  /// CONCAT of Figure 7.
  RulePtr concat(std::vector<TermRef> Outs, RulePtr R) {
    if (Outs.empty())
      return R;
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite: {
      // Sequence explicitly: the else-branch argument must not move Outs
      // away before the then-branch copies it.
      RulePtr T = concat(Outs, R->thenRule());
      RulePtr E = concat(std::move(Outs), R->elseRule());
      return Rule::ite(R->cond(), std::move(T), std::move(E));
    }
    case Rule::Kind::Base: {
      std::vector<TermRef> Joined = std::move(Outs);
      Joined.insert(Joined.end(), R->outputs().begin(), R->outputs().end());
      return Rule::base(std::move(Joined), R->target(), R->update());
    }
    }
    return R;
  }

  /// PROD of Figure 6: pairs A's target state / register update with the
  /// B-side leaves produced by RUN.
  RulePtr prod(unsigned P, TermRef G, RulePtr R) {
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite:
      return Rule::ite(R->cond(), prod(P, G, R->thenRule()),
                       prod(P, G, R->elseRule()));
    case Rule::Kind::Base: {
      unsigned Id = stateId(P, R->target());
      return Rule::base(R->outputs(), Id, Ctx.mkPair(G, R->update()));
    }
    }
    return R;
  }

  unsigned stateId(unsigned P, unsigned Q) {
    auto [It, Inserted] = StateIds.try_emplace({P, Q}, 0);
    if (Inserted) {
      It->second = Fused.addState(name(P, Q));
      Frontier.push_back({P, Q});
    }
    return It->second;
  }

  /// Finalizer fusion: runs A's finalizer outputs through B and then B's
  /// finalizer.  \p SelfId is used as the (semantically ignored) target of
  /// finalizer leaves.
  RulePtr fuseFin(const Rule *R, unsigned Q, unsigned SelfId) {
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite: {
      TermRef Phi = substitute(Ctx, R->cond(), ThetaA);
      RulePtr R1 = Rule::undef(), R2 = Rule::undef();
      if (maySat(Phi)) {
        S.push();
        S.add(Phi);
        R1 = fuseFin(R->thenRule().get(), Q, SelfId);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      TermRef NotPhi = Ctx.mkNot(Phi);
      if (maySat(NotPhi)) {
        S.push();
        S.add(NotPhi);
        R2 = fuseFin(R->elseRule().get(), Q, SelfId);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      return mergeBranches(Phi, std::move(R1), std::move(R2));
    }
    case Rule::Kind::Base: {
      std::vector<TermRef> Vs;
      Vs.reserve(R->outputs().size());
      for (TermRef O : R->outputs())
        Vs.push_back(substitute(Ctx, O, ThetaA));
      return finTail(runB(Vs, 0, Q, Ctx.mkProj2(RegVar)), SelfId);
    }
    }
    return Rule::undef();
  }

  /// Rewrites RUN leaves (B state q', register term s') into applications
  /// of B's finalizer $B(q'){s'/r}.
  RulePtr finTail(RulePtr R, unsigned SelfId) {
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite:
      return Rule::ite(R->cond(), finTail(R->thenRule(), SelfId),
                       finTail(R->elseRule(), SelfId));
    case Rule::Kind::Base:
      return finB(R->outputs(), B.finalizer(R->target()).get(), R->update(),
                  SelfId);
    }
    return R;
  }

  /// Applies B's finalizer rule under {Sr/r}, concatenating \p Prefix
  /// before its outputs.
  RulePtr finB(const std::vector<TermRef> &Prefix, const Rule *R, TermRef Sr,
               unsigned SelfId) {
    Subst Theta;
    Theta.set(B.regVar(), Sr);
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Rule::undef();
    case Rule::Kind::Ite: {
      TermRef Phi = substitute(Ctx, R->cond(), Theta);
      RulePtr R1 = Rule::undef(), R2 = Rule::undef();
      if (maySat(Phi)) {
        S.push();
        S.add(Phi);
        R1 = finB(Prefix, R->thenRule().get(), Sr, SelfId);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      TermRef NotPhi = Ctx.mkNot(Phi);
      if (maySat(NotPhi)) {
        S.push();
        S.add(NotPhi);
        R2 = finB(Prefix, R->elseRule().get(), Sr, SelfId);
        S.pop();
      } else {
        ++Stats.BranchesPruned;
      }
      return mergeBranches(Phi, std::move(R1), std::move(R2));
    }
    case Rule::Kind::Base: {
      std::vector<TermRef> Outs = Prefix;
      for (TermRef O : R->outputs())
        Outs.push_back(substitute(Ctx, O, Theta));
      return Rule::base(std::move(Outs), SelfId, RegVar);
    }
    }
    return Rule::undef();
  }
};

} // namespace

Bst efc::fuse(const Bst &A, const Bst &B, Solver &S,
              const FusionOptions &Opts, FusionStats *Stats) {
  assert(&A.context() == &B.context() &&
         "fusion requires a shared term context");
  Stopwatch Timer;
  trace::Span Sp("fuse");
  FusionStats Local;
  FusionStats &St = Stats ? *Stats : Local;
  uint64_t ImpliedBefore = S.stats().Implied;
  int64_t SavedBudget = S.conflictBudget();
  S.setConflictBudget(Opts.SolverBudget);
  Fuser F(A, B, S, Opts, St);
  Bst Result = F.run();
  S.setConflictBudget(SavedBudget);
  if (Opts.DeadEndElimination)
    Result = eliminateDeadEnds(Result);
  St.ProductStates = Result.numStates();
  St.Implied = S.stats().Implied - ImpliedBefore;
  St.Seconds = Timer.seconds();

  namespace mx = metrics;
  static mx::Counter &Runs = mx::Registry::instance().counter(
      "efc_fusion_runs_total", "fuse() invocations");
  static mx::Counter &States = mx::Registry::instance().counter(
      "efc_fusion_product_states_total", "Product states in fused results");
  static mx::Counter &Pruned = mx::Registry::instance().counter(
      "efc_fusion_branches_pruned_total",
      "Branches pruned unreachable during fusion");
  static mx::Counter &Ites = mx::Registry::instance().counter(
      "efc_fusion_ites_collapsed_total", "Guard ITEs collapsed during fusion");
  static mx::DoubleCounter &Secs = mx::Registry::instance().dcounter(
      "efc_fusion_seconds_total", "Wall time spent in fuse()");
  Runs.inc();
  States.inc(St.ProductStates);
  Pruned.inc(St.BranchesPruned);
  Ites.inc(St.ItesCollapsed);
  Secs.add(St.Seconds);

  Sp.note("states", (uint64_t)St.ProductStates);
  Sp.note("branches_pruned", (uint64_t)St.BranchesPruned);
  Sp.note("solver_checks", (uint64_t)St.SolverChecks);
  Sp.note("implied", (uint64_t)St.Implied);
  return Result;
}

Bst efc::fuse(const Bst &A, const Bst &B) {
  Solver S(A.context());
  return fuse(A, B, S);
}

Bst efc::fuseChain(const std::vector<const Bst *> &Stages, Solver &S,
                   const FusionOptions &Opts, FusionStats *Stats) {
  assert(!Stages.empty());
  FusionStats Acc;
  Bst Result = cloneBst(*Stages[0]);
  for (size_t I = 1; I < Stages.size(); ++I) {
    FusionStats Step;
    Result = fuse(Result, *Stages[I], S, Opts, &Step);
    Acc.ProductStates = Step.ProductStates;
    Acc.BranchesPruned += Step.BranchesPruned;
    Acc.ItesCollapsed += Step.ItesCollapsed;
    Acc.SolverChecks += Step.SolverChecks;
    Acc.Implied += Step.Implied;
    Acc.Seconds += Step.Seconds;
  }
  if (Stats)
    *Stats = Acc;
  return Result;
}
