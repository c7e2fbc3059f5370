//===- pipeline/Passes.cpp - Builtin passes + registry --------------------===//
//
// The builtin compile passes.  fuse/rbbe do not open trace spans here —
// fuseChain and eliminateUnreachableBranches already open "fuse"/"rbbe"
// internally; minimize/vm_compile/fastpath_plan open the spans the
// monolithic PipelineCache driver used to, with identical names and
// notes, so EFC_TRACE span trees are unchanged by the refactor.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pass.h"

#include "codegen/CppCodeGen.h"
#include "solver/Solver.h"
#include "support/Trace.h"
#include "vm/Simd.h"

#include <mutex>
#include <unordered_map>

using namespace efc;
using namespace efc::pipeline;

namespace {

uint64_t fnv1a(uint64_t H, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I) {
    H ^= (V >> (I * 8)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}
constexpr uint64_t FnvInit = 0xcbf29ce484222325ull;

uint64_t bitsOf(double D) {
  uint64_t B;
  static_assert(sizeof(B) == sizeof(D));
  __builtin_memcpy(&B, &D, sizeof(B));
  return B;
}

//===----------------------------------------------------------------------===//
// fuse
//===----------------------------------------------------------------------===//

/// ⊗-fuses the stage chain (paper §3).  Keyed on the combined per-stage
/// IR hash, so any caller assembling the same stages — whatever
/// the spec or downstream options — shares one fusion.
class FusePass : public Pass {
public:
  std::string_view name() const override { return "fuse"; }

  uint64_t optionsHash(const PipelineOptions &O) const override {
    uint64_t H = FnvInit;
    H = fnv1a(H, O.Fusion.SolverPruning);
    H = fnv1a(H, O.Fusion.DeadEndElimination);
    H = fnv1a(H, uint64_t(O.Fusion.SolverBudget));
    return H;
  }

  uint64_t inputHash(const PassContext &PC) const override {
    uint64_t H = FnvInit;
    H = fnv1a(H, PC.Stages.size());
    for (const Bst *St : PC.Stages)
      H = fnv1a(H, irHash(*St));
    return H;
  }

  bool run(PassContext &PC, const PipelineOptions &O, std::string *Err,
           std::string *) const override {
    if (PC.Stages.empty()) {
      if (Err)
        *Err = "fuse: no input stages";
      return false;
    }
    // A fresh solver per pass: the output must be a function of
    // (input IR, options) alone, never of what some earlier pass left in
    // a shared solver's caches — the property per-pass caching rests on.
    Solver S(PC.Stages.front()->context());
    PC.Ir = std::make_shared<Bst>(
        fuseChain(PC.Stages, S, O.Fusion, &PC.FStats));
    return true;
  }

  void save(const PassContext &PC, PassArtifacts &A) const override {
    A.Ir = PC.Ir;
    A.FStats = PC.FStats;
  }
  void load(const PassArtifacts &A, PassContext &PC) const override {
    PC.Ir = A.Ir;
    PC.FStats = A.FStats;
  }

  bool verifyInvariants(const PassContext &PC, const IrSnapshot &,
                        std::string *Err) const override {
    if (!PC.Stages.empty() &&
        (PC.Ir->inputType() != PC.Stages.front()->inputType() ||
         PC.Ir->outputType() != PC.Stages.back()->outputType())) {
      if (Err)
        *Err = "fused boundary types differ from the stage chain's";
      return false;
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// rbbe
//===----------------------------------------------------------------------===//

/// Reachability-based branch elimination (paper §4).
class RbbePass : public Pass {
public:
  std::string_view name() const override { return "rbbe"; }

  uint64_t optionsHash(const PipelineOptions &O) const override {
    uint64_t H = FnvInit;
    H = fnv1a(H, O.Rbbe.UnderApprox);
    H = fnv1a(H, O.Rbbe.ForwardLayers);
    H = fnv1a(H, O.Rbbe.ForwardWidth);
    H = fnv1a(H, O.Rbbe.BackwardDepth);
    H = fnv1a(H, O.Rbbe.MaxPredicateNodes);
    H = fnv1a(H, O.Rbbe.MaxSolverChecks);
    H = fnv1a(H, uint64_t(O.Rbbe.ConflictBudget));
    H = fnv1a(H, bitsOf(O.Rbbe.TimeBudgetSeconds));
    return H;
  }

  bool run(PassContext &PC, const PipelineOptions &O, std::string *Err,
           std::string *) const override {
    if (!PC.Ir) {
      if (Err)
        *Err = "rbbe: no IR (run fuse first)";
      return false;
    }
    Solver S(PC.Ir->context()); // fresh per pass; see FusePass::run
    PC.Ir = std::make_shared<Bst>(
        eliminateUnreachableBranches(*PC.Ir, S, O.Rbbe, &PC.RStats));
    return true;
  }

  void save(const PassContext &PC, PassArtifacts &A) const override {
    A.Ir = PC.Ir;
    A.RStats = PC.RStats;
  }
  void load(const PassArtifacts &A, PassContext &PC) const override {
    PC.Ir = A.Ir;
    PC.RStats = A.RStats;
  }

  bool verifyInvariants(const PassContext &PC, const IrSnapshot &Before,
                        std::string *Err) const override {
    const Bst &A = *PC.Ir;
    if (A.inputType() != Before.InputTy ||
        A.outputType() != Before.OutputTy ||
        A.registerType() != Before.RegTy) {
      if (Err)
        *Err = "rbbe changed a boundary or register type";
      return false;
    }
    if (A.countBranches() > Before.Branches) {
      if (Err)
        *Err = "rbbe increased the branch count (" +
               std::to_string(Before.Branches) + " -> " +
               std::to_string(A.countBranches()) + ")";
      return false;
    }
    if (A.numStates() > Before.States) {
      if (Err)
        *Err = "rbbe increased the state count";
      return false;
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// minimize
//===----------------------------------------------------------------------===//

/// Control-state minimization (bst/Minimize.h).
class MinimizePass : public Pass {
public:
  std::string_view name() const override { return "minimize"; }

  uint64_t optionsHash(const PipelineOptions &) const override {
    return FnvInit; // no options
  }

  bool run(PassContext &PC, const PipelineOptions &, std::string *Err,
           std::string *) const override {
    if (!PC.Ir) {
      if (Err)
        *Err = "minimize: no IR (run fuse first)";
      return false;
    }
    trace::Span MinSp("minimize");
    PC.Ir = std::make_shared<Bst>(minimizeStates(*PC.Ir, &PC.MStats));
    return true;
  }

  void save(const PassContext &PC, PassArtifacts &A) const override {
    A.Ir = PC.Ir;
    A.MStats = PC.MStats;
  }
  void load(const PassArtifacts &A, PassContext &PC) const override {
    PC.Ir = A.Ir;
    PC.MStats = A.MStats;
  }

  bool verifyInvariants(const PassContext &PC, const IrSnapshot &Before,
                        std::string *Err) const override {
    const Bst &A = *PC.Ir;
    if (A.inputType() != Before.InputTy ||
        A.outputType() != Before.OutputTy ||
        A.registerType() != Before.RegTy) {
      if (Err)
        *Err = "minimize changed a boundary or register type";
      return false;
    }
    // The monotonicity contract, checked against both the recorded stats
    // and the IR itself so a stats/IR disagreement is also caught.
    if (A.numStates() > Before.States ||
        PC.MStats.StatesAfter > PC.MStats.StatesBefore ||
        PC.MStats.StatesBefore != Before.States) {
      if (Err)
        *Err = "minimize state count not monotone (" +
               std::to_string(Before.States) + " -> " +
               std::to_string(A.numStates()) + ")";
      return false;
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// vm_compile
//===----------------------------------------------------------------------===//

/// Bytecode compilation of the current IR (vm/Vm.h).
class VmCompilePass : public Pass {
public:
  std::string_view name() const override { return "vm_compile"; }
  bool transformsIr() const override { return false; }

  uint64_t optionsHash(const PipelineOptions &O) const override {
    // AllowNonScalar only changes *failure* behavior, but a cached
    // "no VM" result must not serve a strict caller; key on it.
    return fnv1a(FnvInit, O.AllowNonScalar);
  }

  bool run(PassContext &PC, const PipelineOptions &O, std::string *Err,
           std::string *Note) const override {
    if (!PC.Ir) {
      if (Err)
        *Err = "vm_compile: no IR (run fuse first)";
      return false;
    }
    trace::Span VmSp("vm_compile");
    std::optional<CompiledTransducer> Vm =
        CompiledTransducer::compile(*PC.Ir);
    if (!Vm) {
      if (O.AllowNonScalar) {
        PC.Vm.reset();
        if (Note)
          *Note = "skipped: non-scalar element types";
        return true;
      }
      if (Err)
        *Err = "pipeline has non-scalar element types";
      return false;
    }
    PC.Vm = std::make_shared<const CompiledTransducer>(std::move(*Vm));
    return true;
  }

  void save(const PassContext &PC, PassArtifacts &A) const override {
    A.Vm = PC.Vm;
  }
  void load(const PassArtifacts &A, PassContext &PC) const override {
    PC.Vm = A.Vm;
  }

  bool verifyInvariants(const PassContext &PC, const IrSnapshot &,
                        std::string *Err) const override {
    if (PC.Vm && PC.Ir && PC.Vm->numStates() != PC.Ir->numStates()) {
      if (Err)
        *Err = "VM state count differs from the IR's";
      return false;
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// fastpath_plan
//===----------------------------------------------------------------------===//

/// Byte-class dispatch tables + run kernels over the VM (vm/FastPath.h).
class FastPathPlanPass : public Pass {
public:
  std::string_view name() const override { return "fastpath_plan"; }
  bool transformsIr() const override { return false; }

  uint64_t optionsHash(const PipelineOptions &O) const override {
    uint64_t H = FnvInit;
    H = fnv1a(H, O.FastPath.RunAccel);
    H = fnv1a(H, O.FastPath.WideTables);
    return H;
  }

  bool run(PassContext &PC, const PipelineOptions &O, std::string *Err,
           std::string *Note) const override {
    if (!PC.Ir) {
      if (Err)
        *Err = "fastpath_plan: no IR (run fuse first)";
      return false;
    }
    if (!PC.Vm) {
      if (Note)
        *Note = "skipped: no VM artifact";
      return true;
    }
    trace::Span FpSp("fastpath_plan");
    PC.Fast = std::make_shared<const FastPathPlan>(
        FastPathPlan::build(*PC.Ir, *PC.Vm, O.FastPath));
    const FastPathPlan::Stats &FS = PC.Fast->stats();
    FpSp.note("table_states", (uint64_t)FS.TableStates);
    FpSp.note("accel_states", (uint64_t)FS.AccelStates);
    FpSp.note("nibble_kernels", (uint64_t)FS.NibbleKernels);
    FpSp.note("wide_states", (uint64_t)FS.WideStates);
    FpSp.note("simd_level", (uint64_t)simd::activeLevel());
    return true;
  }

  void save(const PassContext &PC, PassArtifacts &A) const override {
    A.Fast = PC.Fast;
  }
  void load(const PassArtifacts &A, PassContext &PC) const override {
    PC.Fast = A.Fast;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// PassRegistry
//===----------------------------------------------------------------------===//

struct PassRegistry::Impl {
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Pass>> Passes; // registration order
  std::unordered_map<std::string_view, const Pass *> ByName;
};

PassRegistry::PassRegistry() : I(new Impl) {
  // Builtins register here, not via static initializers: a static-library
  // TU with only registration side effects would be dead-stripped.
  for (auto *P : {static_cast<Pass *>(new FusePass),
                  static_cast<Pass *>(new RbbePass),
                  static_cast<Pass *>(new MinimizePass),
                  static_cast<Pass *>(new VmCompilePass),
                  static_cast<Pass *>(new FastPathPlanPass)})
    add(std::unique_ptr<Pass>(P));
}

PassRegistry &PassRegistry::instance() {
  static PassRegistry R;
  return R;
}

bool PassRegistry::add(std::unique_ptr<Pass> P) {
  std::lock_guard<std::mutex> L(I->Mu);
  if (I->ByName.count(P->name()))
    return false;
  const Pass *Raw = P.get();
  I->Passes.push_back(std::move(P));
  I->ByName.emplace(Raw->name(), Raw);
  return true;
}

const Pass *PassRegistry::lookup(std::string_view Name) const {
  std::lock_guard<std::mutex> L(I->Mu);
  auto It = I->ByName.find(Name);
  return It == I->ByName.end() ? nullptr : It->second;
}

std::vector<std::string> PassRegistry::names() const {
  std::lock_guard<std::mutex> L(I->Mu);
  std::vector<std::string> Out;
  for (const auto &P : I->Passes)
    Out.emplace_back(P->name());
  return Out;
}
