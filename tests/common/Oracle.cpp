//===- tests/common/Oracle.cpp - Differential equivalence oracle ----------===//

#include "common/Oracle.h"

#include "bst/Interp.h"
#include "bst/Transform.h"
#include "pipeline/PassManager.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace efc;
using namespace efc::testing;

//===----------------------------------------------------------------------===//
// Rendering and backend-mask helpers
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint64_t> rawOf(std::span<const Value> Vs) {
  std::vector<uint64_t> Out;
  Out.reserve(Vs.size());
  for (const Value &V : Vs)
    Out.push_back(V.bits());
  return Out;
}

std::string renderRaw(const std::optional<std::vector<uint64_t>> &O) {
  if (!O)
    return "reject";
  std::string S = "[";
  for (size_t I = 0; I < O->size(); ++I) {
    if (I)
      S += " ";
    S += std::to_string((*O)[I]);
  }
  return S + "]";
}

struct BackendName {
  const char *Name;
  unsigned Bit;
};

constexpr BackendName Names[] = {
    {"vm", BK_Vm},           {"fused", BK_Fused},
    {"fusedvm", BK_FusedVm}, {"rbbe", BK_Rbbe},
    {"rbbevm", BK_RbbeVm},   {"native", BK_Native},
    {"fastpath", BK_FastPath}, {"rbbefast", BK_RbbeFast},
    {"fastskip", BK_FastSkip},
};

} // namespace

std::string efc::testing::renderValues(std::span<const Value> Vs) {
  return renderRaw(rawOf(Vs));
}

unsigned efc::testing::parseBackends(const std::string &Spec,
                                     std::string *Err) {
  unsigned Mask = 0;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Tok = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() + 1 : Comma + 1;
    if (Tok.empty())
      continue;
    if (Tok == "all") {
      Mask |= BK_All;
      continue;
    }
    if (Tok == "default") {
      Mask |= BK_Default;
      continue;
    }
    if (Tok == "interp")
      continue; // the reference path is always on
    bool Found = false;
    for (const BackendName &N : Names)
      if (Tok == N.Name) {
        Mask |= N.Bit;
        Found = true;
        break;
      }
    if (!Found) {
      if (Err)
        *Err = "unknown backend '" + Tok + "'";
      return 0;
    }
  }
  if (Mask == 0 && Err)
    *Err = "empty backend list";
  return Mask;
}

std::string efc::testing::backendNames(unsigned Mask) {
  std::string S;
  for (const BackendName &N : Names)
    if (Mask & N.Bit) {
      if (!S.empty())
        S += ",";
      S += N.Name;
    }
  return S;
}

std::string efc::testing::pipelineSummary(const std::vector<Bst> &Stages,
                                          std::span<const Value> Input) {
  std::string States;
  unsigned Branches = 0;
  for (const Bst &St : Stages) {
    if (!States.empty())
      States += "+";
    States += std::to_string(St.numStates());
    Branches += St.countBranches();
  }
  return std::to_string(Stages.size()) + " stage" +
         (Stages.size() == 1 ? "" : "s") + ", " + States + " states, " +
         std::to_string(Branches) + " branches, input len " +
         std::to_string(Input.size());
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

Oracle::Oracle(std::vector<Bst> StagesIn, const OracleOptions &Opts)
    : Stages(std::move(StagesIn)), Backends(Opts.Backends) {
  assert(!Stages.empty());
  for (size_t I = 0; I + 1 < Stages.size(); ++I) {
    assert(Stages[I].outputType() == Stages[I + 1].inputType() &&
           "pipeline stages must chain by type");
    (void)I;
  }

  if (Backends & BK_Vm)
    for (const Bst &St : Stages)
      StageVms.push_back(CompiledTransducer::compile(St));

  constexpr unsigned NeedFused = BK_Fused | BK_FusedVm | BK_Rbbe |
                                 BK_RbbeVm | BK_Native | BK_FastPath |
                                 BK_RbbeFast | BK_FastSkip;
  if (!(Backends & NeedFused))
    return;

  // The same pass pipeline the serving cache runs, in raw mode: no
  // IrChain (this oracle's TermContext is caller-owned, so artifacts
  // must not outlive it and caching is off) and AllowNonScalar (random
  // property pipelines may have non-scalar element types — the VM
  // artifact then stays null and check() reports it per backend, as the
  // hand-rolled chain did).
  pipeline::PipelineOptions PO;
  PO.Fusion = Opts.Fusion;
  PO.Rbbe = Opts.Rbbe;
  PO.AllowNonScalar = true;

  auto runPasses = [&](pipeline::PassContext &PC,
                       std::vector<std::string> Passes) {
    std::string PErr;
    if (!pipeline::PassManager(std::move(Passes)).run(PC, PO, &PErr)) {
      fprintf(stderr, "oracle: pass pipeline failed: %s\n", PErr.c_str());
      abort();
    }
  };

  pipeline::PassContext PC;
  for (const Bst &St : Stages)
    PC.Stages.push_back(&St);
  std::vector<std::string> Passes{"fuse"};
  if (Backends & (BK_FusedVm | BK_FastPath | BK_FastSkip)) {
    Passes.push_back("vm_compile");
    if (Backends & (BK_FastPath | BK_FastSkip))
      Passes.push_back("fastpath_plan");
  }
  runPasses(PC, std::move(Passes));
  Fused = PC.Ir;
  FusedVm = PC.Vm;
  FusedFast = PC.Fast;

  if (Backends & (BK_Rbbe | BK_RbbeVm | BK_RbbeFast)) {
    // Branch the context: RBBE (and its VM/fast-path artifacts) derive
    // from the same fused IR without rebuilding it.
    pipeline::PassContext RC = PC;
    std::vector<std::string> RPasses{"rbbe"};
    if (Backends & (BK_RbbeVm | BK_RbbeFast))
      RPasses.push_back("vm_compile");
    if (Backends & BK_RbbeFast)
      RPasses.push_back("fastpath_plan");
    runPasses(RC, std::move(RPasses));
    Rbbe = RC.Ir;
    RbbeVm = RC.Vm;
    RbbeFast = RC.Fast;
  }
  if (Backends & BK_Native) {
    static unsigned Counter = 0;
    Native = NativeTransducer::compile(
        *Fused, "oracle" + std::to_string(Counter++), &NativeErr);
  }
}

std::optional<Disagreement>
Oracle::check(std::span<const Value> Input) const {
  // The ground truth: composed reference interpretation, ⟦Bn⟧∘...∘⟦B1⟧.
  std::optional<std::vector<Value>> Ref(
      std::in_place, std::vector<Value>(Input.begin(), Input.end()));
  for (const Bst &St : Stages) {
    Ref = runBst(St, *Ref);
    if (!Ref)
      break;
  }
  std::optional<std::vector<uint64_t>> RefRaw;
  if (Ref)
    RefRaw = rawOf(*Ref);

  auto diverges =
      [&](const char *Name,
          const std::optional<std::vector<uint64_t>> &Got)
      -> std::optional<Disagreement> {
    if (RefRaw == Got)
      return std::nullopt;
    return Disagreement{Name, renderRaw(RefRaw), renderRaw(Got)};
  };

  std::vector<uint64_t> Raw = rawOf(Input);

  if (Backends & BK_Vm) {
    std::optional<std::vector<uint64_t>> Cur(Raw);
    for (const auto &V : StageVms) {
      if (!V)
        return Disagreement{"vm", renderRaw(RefRaw),
                            "stage rejected by the VM compiler"};
      Cur = V->run(*Cur);
      if (!Cur)
        break;
    }
    if (auto D = diverges("vm", Cur))
      return D;
  }

  if (Backends & BK_Fused) {
    auto Out = runBst(*Fused, Input);
    std::optional<std::vector<uint64_t>> Got;
    if (Out)
      Got = rawOf(*Out);
    if (auto D = diverges("fused", Got))
      return D;
  }

  if (Backends & BK_FusedVm) {
    if (!FusedVm)
      return Disagreement{"fusedvm", renderRaw(RefRaw),
                          "fused stage rejected by the VM compiler"};
    if (auto D = diverges("fusedvm", FusedVm->run(Raw)))
      return D;
  }

  if (Backends & BK_Rbbe) {
    auto Out = runBst(*Rbbe, Input);
    std::optional<std::vector<uint64_t>> Got;
    if (Out)
      Got = rawOf(*Out);
    if (auto D = diverges("rbbe", Got))
      return D;
  }

  if (Backends & BK_RbbeVm) {
    if (!RbbeVm)
      return Disagreement{"rbbevm", renderRaw(RefRaw),
                          "RBBE'd stage rejected by the VM compiler"};
    if (auto D = diverges("rbbevm", RbbeVm->run(Raw)))
      return D;
  }

  if (Backends & BK_FastPath) {
    if (!FusedVm)
      return Disagreement{"fastpath", renderRaw(RefRaw),
                          "fused stage rejected by the VM compiler"};
    if (auto D = diverges("fastpath", runFastPath(*FusedFast, *FusedVm, Raw)))
      return D;
  }

  if (Backends & BK_RbbeFast) {
    if (!RbbeVm)
      return Disagreement{"rbbefast", renderRaw(RefRaw),
                          "RBBE'd stage rejected by the VM compiler"};
    if (auto D = diverges("rbbefast", runFastPath(*RbbeFast, *RbbeVm, Raw)))
      return D;
  }

  if (Backends & BK_FastSkip) {
    if (!FusedVm)
      return Disagreement{"fastskip", renderRaw(RefRaw),
                          "fused stage rejected by the VM compiler"};
    // Tiny coprime chunk sizes guarantee feed() boundaries land inside
    // any run-kernel span, so this leg proves runs resume across chunks.
    // The cursor reads the plan's own element types, like the sessions.
    for (size_t Chunk : {size_t(1), size_t(3), size_t(7)}) {
      FastPathCursor Cur(*FusedFast, *FusedVm);
      auto Got = runNarrowed(
          FusedFast->inputWidth(), FusedFast->outputWidth(), Raw,
          [&](const auto *X, size_t N, auto &Out) {
            return Cur.feed(X, N, Out);
          },
          [&](auto &Out) { return Cur.finish(Out); }, Chunk);
      if (auto D = diverges("fastskip", Got))
        return D;
    }
  }

  if ((Backends & BK_Native) && Native)
    if (auto D = diverges("native", Native->run(Raw)))
      return D;

  return std::nullopt;
}

std::optional<Disagreement>
efc::testing::checkPipeline(std::vector<Bst> Stages,
                            std::span<const Value> Input, unsigned Backends) {
  return Oracle(std::move(Stages), Backends).check(Input);
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

namespace {

/// Every node of a rule tree, pre-order.
void collectNodes(const RulePtr &R, std::vector<const Rule *> &Out) {
  Out.push_back(R.get());
  if (R->isIte()) {
    collectNodes(R->thenRule(), Out);
    collectNodes(R->elseRule(), Out);
  }
}

/// Rebuilds \p R with every occurrence of \p Target replaced by \p Repl.
RulePtr rebuildWith(const RulePtr &R, const Rule *Target,
                    const RulePtr &Repl) {
  if (R.get() == Target)
    return Repl;
  if (!R->isIte())
    return R;
  RulePtr T = rebuildWith(R->thenRule(), Target, Repl);
  RulePtr E = rebuildWith(R->elseRule(), Target, Repl);
  if (T == R->thenRule() && E == R->elseRule())
    return R;
  return Rule::ite(R->cond(), T, E);
}

/// Simplification candidates for one rule node, smallest-change first.
std::vector<RulePtr> nodeCandidates(const Rule *N) {
  std::vector<RulePtr> Cands;
  if (N->isIte()) {
    Cands.push_back(N->thenRule());
    Cands.push_back(N->elseRule());
  } else if (N->isBase()) {
    if (!N->outputs().empty()) {
      std::vector<TermRef> Outs(N->outputs().begin(),
                                N->outputs().end() - 1);
      Cands.push_back(Rule::base(std::move(Outs), N->target(), N->update()));
    }
    Cands.push_back(Rule::undef());
  }
  return Cands;
}

struct ShrinkState {
  const FailurePred &StillFails;
  std::vector<Bst> Stages;
  std::vector<Value> Input;
  Disagreement Failure;
  unsigned Attempts = 0;
  unsigned Accepted = 0;
  unsigned MaxAttempts;

  bool budgetLeft() const { return Attempts < MaxAttempts; }

  /// Re-checks a candidate; adopts it when it still fails.
  bool tryCandidate(std::vector<Bst> CandStages,
                    std::vector<Value> CandInput) {
    if (!budgetLeft())
      return false;
    ++Attempts;
    auto D = StillFails(CandStages, CandInput);
    if (!D)
      return false;
    Stages = std::move(CandStages);
    Input = std::move(CandInput);
    Failure = std::move(*D);
    ++Accepted;
    return true;
  }

  bool dropStages() {
    bool Any = false;
    for (size_t I = 0; I < Stages.size() && Stages.size() > 1;) {
      // The shortened chain must still type-check end to end, and the
      // original input must still fit the first stage.
      const Type *Prev =
          I == 0 ? Stages[0].inputType() : Stages[I - 1].outputType();
      bool Chains = I + 1 < Stages.size() ? Prev == Stages[I + 1].inputType()
                                          : true;
      if (!Chains) {
        ++I;
        continue;
      }
      std::vector<Bst> Cand;
      for (size_t J = 0; J < Stages.size(); ++J)
        if (J != I)
          Cand.push_back(Stages[J]);
      if (tryCandidate(std::move(Cand), Input))
        Any = true; // same index now names the next stage
      else
        ++I;
    }
    return Any;
  }

  bool truncateInput() {
    bool Any = false;
    // ddmin-style: remove chunks of decreasing size.
    for (size_t Chunk = std::max<size_t>(Input.size() / 2, 1);
         Chunk >= 1 && !Input.empty(); Chunk /= 2) {
      for (size_t Start = 0; Start < Input.size();) {
        std::vector<Value> Cand;
        for (size_t I = 0; I < Input.size(); ++I)
          if (I < Start || I >= Start + Chunk)
            Cand.push_back(Input[I]);
        if (Cand.size() != Input.size() && tryCandidate(Stages, std::move(Cand)))
          Any = true; // retry same window against the shorter input
        else
          Start += Chunk;
      }
      if (Chunk == 1)
        break;
    }
    return Any;
  }

  bool dropStates() {
    bool Any = false;
    for (size_t SI = 0; SI < Stages.size(); ++SI) {
      for (unsigned Q = 0; Q < Stages[SI].numStates();) {
        const Bst &St = Stages[SI];
        if (St.numStates() <= 1 || Q == St.initialState()) {
          ++Q;
          continue;
        }
        std::vector<bool> Keep(St.numStates(), true);
        Keep[Q] = false;
        std::vector<Bst> Cand = Stages;
        Cand[SI] = restrictStates(St, Keep);
        if (tryCandidate(std::move(Cand), Input))
          Any = true; // states renumbered; rescan from the same index
        else
          ++Q;
      }
    }
    return Any;
  }

  bool pruneRules() {
    bool Any = false;
    for (size_t SI = 0; SI < Stages.size(); ++SI) {
      for (unsigned Q = 0; Q < Stages[SI].numStates(); ++Q) {
        for (bool Finalizer : {false, true}) {
          bool Progress = true;
          while (Progress && budgetLeft()) {
            Progress = false;
            const RulePtr &R = Finalizer ? Stages[SI].finalizer(Q)
                                         : Stages[SI].delta(Q);
            std::vector<const Rule *> Nodes;
            collectNodes(R, Nodes);
            for (const Rule *N : Nodes) {
              for (const RulePtr &Repl : nodeCandidates(N)) {
                RulePtr NewRule = rebuildWith(R, N, Repl);
                if (Rule::equal(NewRule, R))
                  continue;
                std::vector<Bst> Cand = Stages;
                if (Finalizer)
                  Cand[SI].setFinalizer(Q, NewRule);
                else
                  Cand[SI].setDelta(Q, NewRule);
                if (tryCandidate(std::move(Cand), Input)) {
                  Any = Progress = true;
                  break; // the tree changed; re-collect nodes
                }
              }
              if (Progress)
                break;
            }
          }
        }
      }
    }
    return Any;
  }
};

} // namespace

ShrinkResult efc::testing::shrinkWith(const FailurePred &StillFails,
                                      std::vector<Bst> Stages,
                                      std::vector<Value> Input,
                                      unsigned MaxAttempts) {
  auto Seed = StillFails(Stages, Input);
  if (!Seed) // nothing to shrink: the pair does not fail
    return ShrinkResult{std::move(Stages), std::move(Input), {}, 0, 0};
  ShrinkState S{StillFails,  std::move(Stages), std::move(Input),
                *Seed,       0,                 0,
                MaxAttempts};
  bool Changed = true;
  while (Changed && S.budgetLeft()) {
    Changed = false;
    Changed |= S.dropStages();
    Changed |= S.truncateInput();
    Changed |= S.dropStates();
    Changed |= S.pruneRules();
  }
  return ShrinkResult{std::move(S.Stages), std::move(S.Input),
                      std::move(S.Failure), S.Attempts, S.Accepted};
}

ShrinkResult efc::testing::shrink(std::vector<Bst> Stages,
                                  std::vector<Value> Input, unsigned Backends,
                                  unsigned MaxAttempts) {
  FailurePred Pred = [Backends](const std::vector<Bst> &S,
                                std::span<const Value> In) {
    return checkPipeline(S, In, Backends);
  };
  return shrinkWith(Pred, std::move(Stages), std::move(Input), MaxAttempts);
}
