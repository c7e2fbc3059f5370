//===- perfbench/harness/Pipelines.cpp -------------------------------------===//

#include "Pipelines.h"

#include "pipeline/PassManager.h"

#include <cstdio>
#include <cstdlib>

using namespace efc;
using namespace efc::runtime;

namespace pb {

PipelineSpec specOf(const std::string &Text) {
  std::string Err;
  auto S = PipelineSpec::parse(Text, &Err);
  if (!S) {
    fprintf(stderr, "perfbench: bad spec (%s):\n%s\n", Err.c_str(),
            Text.c_str());
    abort();
  }
  return *S;
}

namespace {

pipeline::PipelineOptions optionsFor(const PipelineDef &D) {
  // Must match the options buildPipeline() in
  // src/runtime/PipelineCache.cpp uses for a spec.
  pipeline::PipelineOptions PO;
  PO.Rbbe.ConflictBudget = 0;
  if (D.Spec && D.Spec->RbbeBudget)
    PO.Rbbe.MaxSolverChecks = D.Spec->RbbeBudget;
  PO.FastPath = FastPathOptions::fromEnv();
  return PO;
}

std::vector<std::string> passesFor(const PipelineDef &D) {
  return pipeline::PassManager::defaultPasses(D.Spec ? D.Spec->Rbbe : true,
                                              D.Spec && D.Spec->Minimize);
}

/// Wraps a finished pass run into the entry StreamSession::open takes.
std::shared_ptr<CompiledPipeline> publish(const PipelineDef &D,
                                          size_t NumStages,
                                          pipeline::PassContext &PC) {
  auto P = std::make_shared<CompiledPipeline>();
  if (D.Spec)
    P->Spec = *D.Spec;
  else
    P->Spec.Pattern = "stages:" + D.Name; // names the native artifact
  P->NumStages = NumStages;
  P->Chain = PC.Chain;
  P->Ctx = PC.Chain->Ctx;
  P->Fused = PC.Ir;
  P->Vm = PC.Vm;
  P->Fast = PC.Fast;
  P->Par = PC.Par;
  P->FStats = PC.FStats;
  P->RStats = PC.RStats;
  P->MStats = PC.MStats;
  P->PassRuns = std::move(PC.Runs);
  return P;
}

} // namespace

namespace {

/// Span layer and name of each registered default pass.
struct PassLayer {
  const char *Pass, *Layer;
  double CompileLayers::*Ms;
};
constexpr PassLayer PassLayers[] = {
    {"fuse", "fusion", &CompileLayers::FuseMs},
    {"rbbe", "rbbe", &CompileLayers::RbbeMs},
    {"minimize", "fusion", &CompileLayers::FuseMs},
    {"vm_compile", "vm", &CompileLayers::VmCompileMs},
    {"fastpath_plan", "vm", &CompileLayers::FastPlanMs},
    {"parallel_plan", "parallel", &CompileLayers::ParPlanMs},
};

} // namespace

std::shared_ptr<const CompiledPipeline>
tracedCompile(const PipelineDef &D, bool WantNative, CompileLayers &L,
              std::string *Err) {
  uint64_t Checks0 = registryCounter("efc_solver_checks_total");
  uint64_t Unknown0 =
      registryCounter("efc_solver_results_total", "result=\"unknown\"");

  auto Owner = std::make_shared<TermContext>();
  std::vector<Bst> Stages;
  {
    Span S("frontends", "assemble");
    Clock::time_point T0 = Clock::now();
    if (D.Spec) {
      auto A = assembleStages(*D.Spec, *Owner, Err);
      if (!A)
        return nullptr;
      Stages = std::move(*A);
    } else {
      Stages = D.Stages(*Owner);
    }
    L.AssembleMs += msSince(T0);
  }

  pipeline::PassContext PC;
  PC.Chain = std::make_shared<pipeline::IrChain>(Owner);
  for (const Bst &St : Stages)
    PC.Stages.push_back(&St);
  pipeline::PipelineOptions PO = optionsFor(D);
  for (const std::string &Name : passesFor(D)) {
    const PassLayer *PL = nullptr;
    for (const PassLayer &C : PassLayers)
      if (Name == C.Pass)
        PL = &C;
    if (!PL) {
      *Err = "no layer known for pass " + Name;
      return nullptr;
    }
    Span S(PL->Layer, PL->Pass);
    Clock::time_point T0 = Clock::now();
    if (!pipeline::PassManager({Name}).run(PC, PO, Err))
      return nullptr;
    L.*(PL->Ms) += msSince(T0);
    if (Name == "fuse") {
      L.States += PC.Ir->numStates();
      L.Branches += PC.Ir->countBranches();
    } else if (Name == "rbbe") {
      L.BranchesRemoved +=
          PC.RStats.BranchesRemoved + PC.RStats.FinalBranchesRemoved;
    }
  }
  ++L.Compiles;
  auto P = publish(D, Stages.size(), PC);

  if (WantNative) {
    Span S("codegen", "native_build");
    Clock::time_point T0 = Clock::now();
    if (!P->native(Err))
      return nullptr;
    L.NativeMs += msSince(T0);
    ++L.NativeBuilds;
  }
  L.SolverChecks += registryCounter("efc_solver_checks_total") - Checks0;
  L.SolverUnknown +=
      registryCounter("efc_solver_results_total", "result=\"unknown\"") -
      Unknown0;
  return P;
}

void CompileLayers::report(Report &R) const {
  R.layer("frontends.assemble_ms", AssembleMs);
  R.layer("fusion.fuse_ms", FuseMs);
  R.layer("fusion.states", double(States));
  R.layer("fusion.branches", double(Branches));
  R.layer("rbbe.rbbe_ms", RbbeMs);
  R.layer("rbbe.branches_removed", double(BranchesRemoved));
  R.layer("solver.checks", double(SolverChecks));
  R.layer("solver.unknown", double(SolverUnknown));
  R.layer("vm.vm_compile_ms", VmCompileMs);
  R.layer("vm.fastpath_plan_ms", FastPlanMs);
  R.layer("parallel.plan_ms", ParPlanMs);
  R.layer("codegen.native_build_ms", NativeMs);
}

PassCacheMark passCacheMark() {
  PassCacheMark M;
  for (const auto &Row : pipeline::PassManager::cacheStats().Rows) {
    M.Hits += Row.Hits;
    M.Lookups += Row.Hits + Row.Misses;
  }
  return M;
}

double passCacheHitRatio(const PassCacheMark &Before) {
  PassCacheMark Now = passCacheMark();
  uint64_t Lookups = Now.Lookups - Before.Lookups;
  return Lookups ? double(Now.Hits - Before.Hits) / double(Lookups) : 0;
}

std::shared_ptr<const CompiledPipeline> compile(PipelineCache &Cache,
                                                const PipelineDef &D,
                                                bool WantNative,
                                                std::string *Err) {
  if (D.Spec)
    return Cache.get(*D.Spec, WantNative, Err);
  // With tracing off the spans are no-ops: this is the plain compile.
  CompileLayers Unused;
  return tracedCompile(D, WantNative, Unused, Err);
}

} // namespace pb
