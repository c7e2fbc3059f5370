//===- tests/pipeline/PassManagerTest.cpp - Pass pipeline golden tests ----===//
//
// The pass-manager refactor (pipeline/PassManager.h) replaced three
// hand-wired copies of fuse → rbbe → compile with one registered pass
// list plus per-pass artifact caching.  These tests pin the contract:
//
//  * golden equivalence — every fig9/fig10/fig13 pipeline compiled
//    through the pass manager is byte-identical (classifier hash and VM
//    bytecode, instruction by instruction) to the pre-refactor inline
//    sequence,
//  * cache-key precision — an RBBE-budget-only respec re-keys `rbbe` but
//    *hits* the cached `fuse` artifact (the over-invalidation bugfix),
//    and every hex digit of a pass's options hash reaches its key,
//  * cache transparency — a pass-cache hit yields the same artifacts as
//    the miss path that populated it,
//  * EFC_VERIFY_IR — a deliberately corrupted IR is caught between
//    passes with a diagnostic naming the offending pass.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "codegen/CppCodeGen.h"
#include "fusion/Fusion.h"
#include "pipeline/PassManager.h"
#include "rbbe/Rbbe.h"
#include "runtime/PipelineCache.h"
#include "solver/Solver.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace efc;

namespace {

//===----------------------------------------------------------------------===//
// Golden equivalence over the paper's pipelines
//===----------------------------------------------------------------------===//

struct GoldenCase {
  const char *Name;
  bench::BuiltPipeline (*Make)();
};

// Without this gtest prints the case as a byte dump of its pointers, and
// gtest_discover_tests copies that dump into the ctest name, which then
// changes with the load address on every build.
void PrintTo(const GoldenCase &C, std::ostream *OS) { *OS << C.Name; }

// All 17 evaluation pipelines (the efc-verify certification set).
const GoldenCase GoldenCases[] = {
    {"base64_avg", [] { return bench::makeBase64AvgPipeline(); }},
    {"csv_max", [] { return bench::makeCsvMaxPipeline(); }},
    {"base64_delta", [] { return bench::makeBase64DeltaPipeline(); }},
    {"utf8_lines", [] { return bench::makeUtf8LinesPipeline(); }},
    {"chsi_cancer", [] { return bench::makeChsiPipeline("cancer"); }},
    {"chsi_births", [] { return bench::makeChsiPipeline("births"); }},
    {"chsi_deaths", [] { return bench::makeChsiPipeline("deaths"); }},
    {"sbo_employees", [] { return bench::makeSboPipeline("employees"); }},
    {"sbo_receipts", [] { return bench::makeSboPipeline("receipts"); }},
    {"sbo_payroll", [] { return bench::makeSboPipeline("payroll"); }},
    {"cc_id", [] { return bench::makeCcIdPipeline(); }},
    {"tpcdi_sql", [] { return bench::makeTpcDiSqlPipeline(); }},
    {"pir_proteins", [] { return bench::makePirProteinsPipeline(); }},
    {"dblp_oldest", [] { return bench::makeDblpOldestPipeline(); }},
    {"mondial", [] { return bench::makeMondialPipeline(); }},
    {"utf8_toint", [] { return bench::makeUtf8ToIntPipeline(); }},
    {"html_encode", [] { return bench::makeHtmlEncodePipeline(); }},
};

void expectSameProgram(const VmProgram &Want, const VmProgram &Got,
                       const char *What, unsigned Q) {
  ASSERT_EQ(Want.Code.size(), Got.Code.size())
      << What << " program of state " << Q << " differs in length";
  for (size_t I = 0; I < Want.Code.size(); ++I) {
    const VmInstr &W = Want.Code[I], &G = Got.Code[I];
    // Field-by-field, not memcmp: VmInstr has padding bytes.
    EXPECT_EQ(unsigned(W.Op), unsigned(G.Op))
        << What << " q" << Q << " instr " << I;
    EXPECT_EQ(W.Width, G.Width) << What << " q" << Q << " instr " << I;
    EXPECT_EQ(W.Dst, G.Dst) << What << " q" << Q << " instr " << I;
    EXPECT_EQ(W.A, G.A) << What << " q" << Q << " instr " << I;
    EXPECT_EQ(W.B, G.B) << What << " q" << Q << " instr " << I;
    EXPECT_EQ(W.C, G.C) << What << " q" << Q << " instr " << I;
    EXPECT_EQ(W.Imm, G.Imm) << What << " q" << Q << " instr " << I;
  }
}

void expectSameTransducer(const CompiledTransducer &Want,
                          const CompiledTransducer &Got) {
  ASSERT_EQ(Want.numStates(), Got.numStates());
  for (unsigned Q = 0; Q < Want.numStates(); ++Q) {
    expectSameProgram(Want.deltaProgram(Q), Got.deltaProgram(Q), "delta", Q);
    expectSameProgram(Want.finalizerProgram(Q), Got.finalizerProgram(Q),
                      "finalizer", Q);
  }
}

class GoldenPipeline : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenPipeline, MatchesPreRefactorSequence) {
  const GoldenCase &C = GetParam();
  bench::BuiltPipeline P = C.Make();
  ASSERT_TRUE(P.Fused && P.CompiledFused);

  // The pre-refactor bench/common sequence, verbatim: one solver shared
  // across fusion and RBBE, the bench budgets, no pass manager.
  std::vector<const Bst *> Ptrs;
  for (const Bst &St : P.Stages)
    Ptrs.push_back(&St);
  Solver S(*P.Ctx);
  Bst Fused = fuseChain(Ptrs, S, {});
  RbbeOptions RO;
  RO.MaxSolverChecks = 1200;
  RO.MaxPredicateNodes = 8000;
  RO.ConflictBudget = 0;
  Bst Clean = eliminateUnreachableBranches(Fused, S, RO);

  EXPECT_EQ(classifierHash(Clean), classifierHash(*P.Fused))
      << C.Name << ": pass-manager IR diverged from the inline sequence";

  // The recorded pass rows must agree with the artifact they produced.
  ASSERT_FALSE(P.PassRuns.empty());
  for (const pipeline::PassRun &R : P.PassRuns)
    if (R.PassName == "rbbe")
      EXPECT_EQ(R.OutHash, irHash(*P.Fused));

  auto Want = CompiledTransducer::compile(Clean);
  ASSERT_TRUE(Want.has_value());
  expectSameTransducer(*Want, *P.CompiledFused);
}

INSTANTIATE_TEST_SUITE_P(Fig9Fig10Fig13, GoldenPipeline,
                         ::testing::ValuesIn(GoldenCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

//===----------------------------------------------------------------------===//
// Cache-key precision and cache transparency
//===----------------------------------------------------------------------===//

runtime::PipelineSpec maxSpec() {
  runtime::PipelineSpec Spec;
  Spec.Kind = runtime::PipelineSpec::Frontend::Regex;
  Spec.Pattern = "(?<v>[0-9]+)";
  Spec.Agg = "max";
  Spec.Format = "lines";
  return Spec;
}

// The over-invalidation bugfix: before the pass manager, PipelineCache
// keyed the *whole* build on the spec, so changing only the RBBE budget
// re-ran fusion from scratch.  Per-pass keys are (name, IR-entering
// hash, options-the-pass-reads hash): the budget re-keys `rbbe` alone.
TEST(PassCache, RbbeBudgetOnlyChangeReusesFusedArtifact) {
  pipeline::PassManager::resetCacheForTests();

  runtime::PipelineCache Cache(4);
  std::string Err;
  runtime::PipelineSpec Spec = maxSpec();
  Spec.Rbbe = true; // the serving default leaves RBBE out
  auto P1 = Cache.get(Spec, false, &Err);
  ASSERT_TRUE(P1) << Err;

  runtime::PipelineSpec Respec = Spec;
  Respec.RbbeBudget = 64; // different spec key → full PipelineCache miss
  auto P2 = Cache.get(Respec, false, &Err);
  ASSERT_TRUE(P2) << Err;

  pipeline::PassCacheStats St = pipeline::PassManager::cacheStats();
  EXPECT_GE(St.hits("fuse"), 1u)
      << "an RBBE-budget-only respec must reuse the cached fusion result; "
      << St.str();
  EXPECT_EQ(St.hits("rbbe"), 0u)
      << "the budget participates in rbbe's options hash; " << St.str();
  EXPECT_EQ(St.misses("rbbe"), 2u) << St.str();

  // Both builds fused the same stages: the fused-IR-entering-rbbe hash
  // is the same fuse artifact, adopted from the cache the second time.
  bool SawHit = false;
  for (const pipeline::PassRun &R : P2->PassRuns)
    if (R.PassName == "fuse") {
      EXPECT_TRUE(R.CacheHit);
      SawHit = true;
    }
  EXPECT_TRUE(SawHit);
}

TEST(PassCache, HitPathYieldsIdenticalArtifacts) {
  pipeline::PassManager::resetCacheForTests();

  // Two independent PipelineCaches: the second build misses the spec
  // cache but hits the process-wide pass cache on every pass.
  std::string Err;
  runtime::PipelineCache Cold(4), Warm(4);
  auto P1 = Cold.get(maxSpec(), false, &Err);
  ASSERT_TRUE(P1) << Err;
  auto P2 = Warm.get(maxSpec(), false, &Err);
  ASSERT_TRUE(P2) << Err;

  pipeline::PassCacheStats St = pipeline::PassManager::cacheStats();
  EXPECT_GE(St.hits("fuse"), 1u) << St.str();
  EXPECT_GE(St.hits("vm_compile"), 1u) << St.str();

  EXPECT_EQ(classifierHash(*P1->Fused), classifierHash(*P2->Fused));
  ASSERT_TRUE(P1->Vm && P2->Vm);
  expectSameTransducer(*P1->Vm, *P2->Vm);
  // Adoption, not duplication: the hit path aliases the cached chain's
  // artifacts instead of re-deriving equal copies.
  EXPECT_EQ(P1->Fused.get(), P2->Fused.get());
}

TEST(PassCache, LookupsAreAccountedPerPass) {
  pipeline::PassManager::resetCacheForTests();
  runtime::PipelineCache Cold(4), Warm(4);
  std::string Err;
  runtime::PipelineSpec Spec = maxSpec();
  ASSERT_TRUE(Cold.get(Spec, false, &Err)) << Err;
  ASSERT_TRUE(Warm.get(Spec, false, &Err)) << Err;
  // Two builds, one fuse lookup each: the stats line CI prints must add
  // up (hits + misses == lookups), or the cache-rate telemetry is lying.
  pipeline::PassCacheStats St = pipeline::PassManager::cacheStats();
  EXPECT_EQ(St.hits("fuse") + St.misses("fuse"), 2u) << St.str();
  EXPECT_GT(St.Entries, 0u) << St.str();
}

/// A cacheable plan pass whose options hash is a fixed pattern with
/// RbbeOptions::MaxSolverChecks in its lowest hex digit, so two option
/// sets can differ in that digit alone.
class LowNibblePass : public pipeline::Pass {
public:
  std::string_view name() const override { return "low_nibble"; }
  bool transformsIr() const override { return false; }
  uint64_t optionsHash(const pipeline::PipelineOptions &O) const override {
    return 0x0123456789abcde0ull | (O.Rbbe.MaxSolverChecks & 0xF);
  }
  bool run(pipeline::PassContext &, const pipeline::PipelineOptions &,
           std::string *, std::string *) const override {
    return true;
  }
  void save(const pipeline::PassContext &,
            pipeline::PassArtifacts &) const override {}
  void load(const pipeline::PassArtifacts &,
            pipeline::PassContext &) const override {}
};

EFC_REGISTER_PASS(LowNibblePass);

// The key spells out the whole options hash: a key that dropped its last
// hex digit would let these two option sets share one cached artifact.
TEST(PassCache, OptionsHashLowDigitChangesKey) {
  pipeline::PassManager::resetCacheForTests();
  pipeline::PipelineOptions A, B;
  A.Rbbe.MaxSolverChecks = 1;
  B.Rbbe.MaxSolverChecks = 2;
  const pipeline::Pass *P =
      pipeline::PassRegistry::instance().lookup("low_nibble");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->optionsHash(A) ^ P->optionsHash(B), 0x3u);

  pipeline::PassManager PM({"low_nibble"});
  for (const pipeline::PipelineOptions *O : {&A, &B}) {
    pipeline::PassContext PC; // a chain, so the pass cache is consulted
    PC.Chain =
        std::make_shared<pipeline::IrChain>(std::make_shared<TermContext>());
    std::string Err;
    ASSERT_TRUE(PM.run(PC, *O, &Err)) << Err;
  }
  pipeline::PassCacheStats St = pipeline::PassManager::cacheStats();
  EXPECT_EQ(St.misses("low_nibble"), 2u) << St.str();
  EXPECT_EQ(St.hits("low_nibble"), 0u) << St.str();
}

//===----------------------------------------------------------------------===//
// EFC_VERIFY_IR: invariant violations are caught between passes
//===----------------------------------------------------------------------===//

/// A deliberately broken pass: replaces the IR with a copy whose state-0
/// transition targets a control state that does not exist.  The generic
/// between-pass verifier (wellFormed) must refuse it.
class CorruptTargetPass : public pipeline::Pass {
public:
  std::string_view name() const override { return "corrupt_target"; }
  bool cacheable() const override { return false; }
  uint64_t optionsHash(const pipeline::PipelineOptions &) const override {
    return 0;
  }
  bool run(pipeline::PassContext &PC, const pipeline::PipelineOptions &,
           std::string *, std::string *) const override {
    Bst Bad = *PC.Ir;
    Bad.setDelta(0, Rule::base({}, Bad.numStates() + 7, Bad.regVar()));
    PC.Ir = std::make_shared<Bst>(std::move(Bad));
    return true;
  }
  void save(const pipeline::PassContext &,
            pipeline::PassArtifacts &) const override {}
  void load(const pipeline::PassArtifacts &,
            pipeline::PassContext &) const override {}
};

EFC_REGISTER_PASS(CorruptTargetPass);

TEST(VerifyIr, CorruptedIrIsCaughtBetweenPasses) {
  TermContext Ctx;
  std::string Err;
  auto Stages = runtime::assembleStages(maxSpec(), Ctx, &Err);
  ASSERT_TRUE(Stages.has_value()) << Err;

  pipeline::PassContext PC; // raw mode: no chain, no caching
  for (const Bst &St : *Stages)
    PC.Stages.push_back(&St);

  pipeline::PipelineOptions PO;
  PO.VerifyIr = true;
  pipeline::PassManager PM({"fuse", "corrupt_target"});
  EXPECT_FALSE(PM.run(PC, PO, &Err));
  EXPECT_NE(Err.find("corrupt_target"), std::string::npos)
      << "diagnostic must name the offending pass: " << Err;
  EXPECT_NE(Err.find("target state out of range"), std::string::npos) << Err;

  // The gate is the *verifier*, not the pass: without EFC_VERIFY_IR the
  // corruption flows through (which is exactly why the CI leg exists).
  pipeline::PassContext PC2;
  for (const Bst &St : *Stages)
    PC2.Stages.push_back(&St);
  PO.VerifyIr = false;
  Err.clear();
  EXPECT_TRUE(PM.run(PC2, PO, &Err)) << Err;
}

TEST(VerifyIr, RealPipelineSatisfiesAllInvariants) {
  TermContext Ctx;
  std::string Err;
  auto Stages = runtime::assembleStages(maxSpec(), Ctx, &Err);
  ASSERT_TRUE(Stages.has_value()) << Err;

  pipeline::PassContext PC;
  for (const Bst &St : *Stages)
    PC.Stages.push_back(&St);

  pipeline::PipelineOptions PO;
  PO.VerifyIr = true;
  pipeline::PassManager PM(
      pipeline::PassManager::defaultPasses(/*Rbbe=*/true, /*Minimize=*/true));
  ASSERT_TRUE(PM.run(PC, PO, &Err)) << Err;
  ASSERT_TRUE(PC.Ir && PC.Vm && PC.Fast);
  EXPECT_EQ(PC.Runs.size(), PM.passes().size());
  for (const pipeline::PassRun &R : PC.Runs)
    EXPECT_FALSE(R.CacheHit) << R.PassName << ": raw mode must not cache";
}

TEST(PassManager, UnknownPassFailsWithRegistryListing) {
  pipeline::PassContext PC;
  pipeline::PipelineOptions PO;
  std::string Err;
  EXPECT_FALSE(pipeline::PassManager({"nope", "fuse"}).run(PC, PO, &Err));
  EXPECT_NE(Err.find("unknown pass 'nope'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("fuse"), std::string::npos)
      << "diagnostic should list the registry: " << Err;
}

TEST(PassManager, DuplicateRegistrationIsRejected) {
  // The static registration above already claimed the name.
  EXPECT_FALSE(pipeline::PassRegistry::instance().add(
      std::make_unique<CorruptTargetPass>()));
}

} // namespace
