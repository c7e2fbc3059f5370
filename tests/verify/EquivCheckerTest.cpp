//===- tests/verify/EquivCheckerTest.cpp - Equivalence certification ------===//
//
// Unit tests for verify/EquivChecker.h along both axes the subsystem
// promises:
//
//  * soundness of "certified": intact pipelines certify, and the
//    classifier hash is stable across contexts/processes;
//  * power of "refuted": mutation-injection — corrupting a fast-path
//    table entry, a run-kernel classification, or a bytecode guard
//    in-memory — must each produce a concrete counterexample, never a
//    silent pass;
//  * honesty of "unverified": a zero time budget degrades every state to
//    unverified (and bumps the timeout counter) rather than claiming
//    certification.
//
// The cache-admission gate (EFC_CERTIFY) is covered at the runtime layer
// in tests/runtime/PipelineCacheTest.cpp-style fashion here too, since
// this suite links efc_runtime.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodeGen.h"
#include "codegen/NativeCompile.h"
#include "runtime/PipelineCache.h"
#include "verify/EquivChecker.h"
#include "vm/FastPath.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

using namespace efc;
using namespace efc::verify;

namespace {

/// 2 states over bv(8): state 0 echoes input; 'a' jumps to state 1, every
/// other byte self-loops (a Copy run kernel with single escape 'a').
/// State 1 counts bytes in the register and emits the count at the end.
Bst makeEchoSwitch(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 2, 0, Value::bv(8, 0));
  TermRef X = A.inputVar(), R = A.regVar();
  A.setDelta(0, Rule::ite(Ctx.mkEq(X, Ctx.bvConst(8, 'a')),
                          Rule::base({X}, 1, R), Rule::base({X}, 0, R)));
  A.setDelta(1, Rule::base({}, 1, Ctx.mkAdd(R, Ctx.bvConst(8, 1))));
  A.setFinalizer(0, Rule::base({}, 0, R));
  A.setFinalizer(1, Rule::base({R}, 1, R));
  return A;
}

class EquivCheckerTest : public ::testing::Test {
protected:
  TermContext Ctx;

  struct Built {
    CompiledTransducer T;
    FastPathPlan Plan;
  };

  Built buildFor(const Bst &A) {
    auto T = CompiledTransducer::compile(A);
    EXPECT_TRUE(T.has_value());
    FastPathPlan P = FastPathPlan::build(A, *T);
    return Built{std::move(*T), std::move(P)};
  }
};

TEST_F(EquivCheckerTest, CertifiesIntactPipeline) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Certified) << R.summary();
  EXPECT_EQ(R.StatesCertified, 2u);
  EXPECT_EQ(R.StatesRefuted, 0u);
  EXPECT_TRUE(R.Counterexamples.empty());
  EXPECT_TRUE(R.CodegenChecked);
  EXPECT_TRUE(R.CodegenOk);
  EXPECT_GT(R.TrivialMatches, 0u)
      << "shared encodings should discharge obligations by hash-consing";
}

// Mutation 1: corrupt one fast-path table entry.  Byte 'a' dispatches to
// a Const action targeting state 1; redirecting it to state 0 must be
// refuted with input 'a' as the witness.
TEST_F(EquivCheckerTest, RefutesCorruptedTableEntry) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  ASSERT_TRUE(B.Plan.stateHasTable(0));
  FastPathPlan::StateTable &ST = B.Plan.mutableStateTable(0);
  FastPathPlan::Action &Act = ST.Actions[ST.Dispatch['a']];
  ASSERT_NE(Act.K, FastPathPlan::Action::Kind::Fallback);
  ASSERT_EQ(Act.Target, 1u);
  Act.Target = 0;

  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  ASSERT_FALSE(R.Counterexamples.empty());
  const Counterexample &CE = R.Counterexamples.front();
  EXPECT_EQ(CE.Part, "table");
  EXPECT_EQ(CE.State, 0u);
  ASSERT_TRUE(CE.HasInput);
  EXPECT_EQ(CE.Input, uint64_t('a'));
  EXPECT_EQ(CE.seedInput(), std::vector<uint64_t>{uint64_t('a')});
}

// Mutation 2: corrupt a run-kernel classification.  State 0's Copy kernel
// covers every byte but 'a'; claiming 'a' is kernel-driven in the
// dispatch map (without being in the kernel's byte mask) must be refuted.
TEST_F(EquivCheckerTest, RefutesCorruptedRunKernel) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  ASSERT_TRUE(B.Plan.stateHasTable(0));
  FastPathPlan::StateTable &ST = B.Plan.mutableStateTable(0);
  ASSERT_FALSE(ST.Runs.empty()) << "echo self-loop must yield a Copy kernel";
  ASSERT_EQ(ST.RunId['a'], FastPathPlan::NoRun);
  ST.RunId['a'] = 0;

  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  ASSERT_FALSE(R.Counterexamples.empty());
  const Counterexample &CE = R.Counterexamples.front();
  EXPECT_EQ(CE.Part, "kernel");
  ASSERT_TRUE(CE.HasInput);
  EXPECT_EQ(CE.Input, uint64_t('a'));
  // Kernel witnesses replay as length-2 runs so the kernel loop engages.
  EXPECT_EQ(CE.seedInput().size(), 2u);
}

// Mutation 2b: corrupting the kernel's byte mask itself (claiming a byte
// whose bytecode action is NOT the kernel's self-loop) is also caught.
TEST_F(EquivCheckerTest, RefutesCorruptedKernelMask) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  FastPathPlan::StateTable &ST = B.Plan.mutableStateTable(0);
  ASSERT_FALSE(ST.Runs.empty());
  // Claim 'a' in both the mask and the dispatch map: membership is now
  // consistent, but 'a' is not a self-loop in the bytecode.
  ST.Runs[0].Mask['a' >> 6] |= uint64_t(1) << ('a' & 63);
  ST.Runs[0].SingleEscape = -1;
  ST.RunId['a'] = 0;

  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  ASSERT_FALSE(R.Counterexamples.empty());
  EXPECT_EQ(R.Counterexamples.front().Part, "kernel");
}

// Mutation 3: corrupt one bytecode guard in-memory.  State 0's program
// tests X == 'a'; retargeting the comparison to 'b' must be refuted with
// a concrete disagreeing input (the checker's solver finds 'a': the rule
// says "switch", the corrupted bytecode says "stay").
TEST_F(EquivCheckerTest, RefutesCorruptedBytecodeGuard) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  VmProgram &P = B.T.mutableDeltaProgram(0);
  bool Mutated = false;
  for (VmInstr &I : P.Code)
    if (I.Op == VmOp::Const && I.Imm == uint64_t('a')) {
      I.Imm = 'b';
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated) << "guard constant not found in:\n" << disassemble(P);

  CertReport R = certifyPipeline(A, B.T, /*Plan=*/nullptr);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  EXPECT_GT(R.SolverQueries, 0u)
      << "a semantic mutation must reach the solver, not pointer equality";
  ASSERT_FALSE(R.Counterexamples.empty());
  const Counterexample &CE = R.Counterexamples.front();
  EXPECT_EQ(CE.Part, "bytecode");
  EXPECT_EQ(CE.State, 0u);
  ASSERT_TRUE(CE.HasInput);
  // The two guards disagree exactly on {'a', 'b'}.
  EXPECT_TRUE(CE.Input == uint64_t('a') || CE.Input == uint64_t('b'))
      << CE.str();

  // The witness is concrete: the mutated VM visibly diverges from the
  // intact one on it (the regression-seed contract).
  auto Intact = CompiledTransducer::compile(A);
  ASSERT_TRUE(Intact.has_value());
  std::vector<uint64_t> Seed = CE.seedInput();
  std::vector<uint64_t> GoodOut, BadOut;
  CompiledTransducer::Cursor Good(*Intact), Bad(B.T);
  bool GoodAcc = true, BadAcc = true;
  for (uint64_t E : Seed) {
    GoodAcc = GoodAcc && Good.feed(E, GoodOut);
    BadAcc = BadAcc && Bad.feed(E, BadOut);
  }
  EXPECT_TRUE(GoodAcc != BadAcc || Good.state() != Bad.state() ||
              GoodOut != BadOut)
      << "counterexample must distinguish mutant from intact bytecode";
}

//===----------------------------------------------------------------------===//
// Nibble tables, wide tables: the SIMD-era obligations.
//===----------------------------------------------------------------------===//

// Mutation 4: corrupt a kernel's nibble encoding.  The shufti tables and
// the 256-bit mask drive different scan ladders (SIMD blocks vs
// SWAR/scalar tail); any membership disagreement means different ISA
// levels would find different span ends, so it must be refuted.
TEST_F(EquivCheckerTest, RefutesCorruptedNibbleTable) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  FastPathPlan::StateTable &ST = B.Plan.mutableStateTable(0);
  ASSERT_FALSE(ST.Runs.empty());
  NibbleTable &NT = ST.Runs[0].NT;
  ASSERT_TRUE(NT.Valid) << "255-byte escape-complement set is 2 rows";
  ASSERT_FALSE(NT.contains('a'));
  // Teach the shuffle tables that the escape byte is a member while the
  // mask still excludes it.
  NT.Lo['a' & 15] |= NT.Hi['a' >> 4];
  ASSERT_NE(NT.Hi['a' >> 4], 0) << "escape's hi-nibble row must be nonzero";
  ASSERT_TRUE(NT.contains('a'));

  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  ASSERT_FALSE(R.Counterexamples.empty());
  const Counterexample &CE = R.Counterexamples.front();
  EXPECT_EQ(CE.Part, "kernel");
  ASSERT_TRUE(CE.HasInput);
  EXPECT_EQ(CE.Input, uint64_t('a')) << CE.str();
}

/// bv(16) echo whose wide elements emit x+1: every element of
/// [256, 2^16) lands in one Memo class with a distinct pool value, so
/// the checker's wide sweep exercises the per-element pools.
Bst makeWidePlusOne(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(16), Ctx.bv(16), Ctx.bv(16), 1, 0, Value::bv(16, 0));
  TermRef X = A.inputVar(), R = A.regVar();
  A.setDelta(0, Rule::ite(Ctx.mkUlt(X, Ctx.bvConst(16, 256)),
                          Rule::base({X}, 0, R),
                          Rule::base({Ctx.mkAdd(X, Ctx.bvConst(16, 1))}, 0,
                                     R)));
  A.setFinalizer(0, Rule::base({}, 0, R));
  return A;
}

TEST_F(EquivCheckerTest, CertifiesWideTable) {
  Bst A = makeWidePlusOne(Ctx);
  Built B = buildFor(A);
  ASSERT_TRUE(B.Plan.stateTable(0).Wide.Has)
      << "bv(16) input must get a wide-domain table";
  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Certified) << R.summary();
}

// Mutation 6: corrupt one memoized wide-pool entry.  The driver serves
// these values without re-evaluating the rules, so a flipped element
// must be refuted with that element as the witness.
TEST_F(EquivCheckerTest, RefutesCorruptedWidePool) {
  Bst A = makeWidePlusOne(Ctx);
  Built B = buildFor(A);
  WideTable &WT = B.Plan.mutableStateTable(0).Wide;
  ASSERT_TRUE(WT.Has);
  ASSERT_FALSE(WT.EmitOff.empty());
  const uint32_t V = 300;
  ASSERT_EQ(WT.EmitOff[V + 1] - WT.EmitOff[V], 1u);
  ASSERT_EQ(WT.EmitPool[WT.EmitOff[V]], V + 1);
  WT.EmitPool[WT.EmitOff[V]] = 0xdead;

  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  ASSERT_FALSE(R.Counterexamples.empty());
  const Counterexample &CE = R.Counterexamples.front();
  EXPECT_EQ(CE.Part, "wide");
  ASSERT_TRUE(CE.HasInput);
  EXPECT_EQ(CE.Input, uint64_t(V)) << CE.str();
}

// Mutation 6b: retarget a wide class.  Structure is checked per
// (class, path) pair, so even a class shared by thousands of elements
// is caught.
TEST_F(EquivCheckerTest, RefutesCorruptedWideTarget) {
  Bst A = makeWidePlusOne(Ctx);
  Built B = buildFor(A);
  WideTable &WT = B.Plan.mutableStateTable(0).Wide;
  ASSERT_TRUE(WT.Has);
  uint16_t CI = WT.ClassOf[300];
  ASSERT_EQ(WT.Classes[CI].K, WideTable::Class::Kind::Memo);
  WT.Classes[CI].Target = 7; // out-of-range successor

  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
  ASSERT_FALSE(R.Counterexamples.empty());
  EXPECT_EQ(R.Counterexamples.front().Part, "wide");
}

//===----------------------------------------------------------------------===//
// Residual programs: byte classes whose walk stopped at a register guard
// run the subtree below it as one branching program, certified byte by
// byte against the bytecode paths that byte can take.
//===----------------------------------------------------------------------===//

/// State 0's root guard reads only the input; for bytes < 0x80 a register
/// guard heads a subtree that tests the input again, emits, updates r and
/// rejects when r > 0x40.  'L' moves to state 1, which loads the next
/// byte into r, so a witness (byte b, register r) replays as "L r b".
Bst makeRegisterGuarded(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 2, 0, Value::bv(8, 0));
  TermRef X = A.inputVar(), R = A.regVar();
  auto K = [&](uint64_t V) { return Ctx.bvConst(8, V); };
  A.setDelta(
      0,
      Rule::ite(
          Ctx.mkEq(X, K('L')), Rule::base({}, 1, R),
          Rule::ite(
              Ctx.mkUlt(X, K(0x80)),
              Rule::ite(Ctx.mkUlt(R, K(0x40)),
                        Rule::ite(Ctx.mkEq(X, K('a')),
                                  Rule::base({R}, 0, Ctx.mkAdd(R, K(1))),
                                  Rule::base({X, R}, 0, Ctx.mkAdd(R, X))),
                        Rule::ite(Ctx.mkEq(R, K(0x40)),
                                  Rule::base({K('!')}, 0, K(0)),
                                  Rule::undef())),
              Rule::base({X}, 0, R))));
  A.setDelta(1, Rule::base({}, 0, X));
  A.setFinalizer(0, Rule::base({R}, 0, R));
  A.setFinalizer(1, Rule::base({R}, 1, R));
  return A;
}

class ResidualCertTest : public EquivCheckerTest {
protected:
  /// The residual program of state 0, which every byte < 0x80 but 'L'
  /// dispatches to.
  static VmProgram &residual(Built &B) {
    FastPathPlan::StateTable &ST = B.Plan.mutableStateTable(0);
    FastPathPlan::Action &Act = ST.Actions[ST.Dispatch['0']];
    EXPECT_EQ(Act.K, FastPathPlan::Action::Kind::Program);
    return Act.Code;
  }

  /// Certifies the mutated plan and replays its first counterexample as
  /// "L r b" on the mutated fast path and on the intact bytecode: the two
  /// must visibly diverge.
  void expectRefutedAndReplayDiverges(const Bst &A, Built &B) {
    CertReport R = certifyPipeline(A, B.T, &B.Plan);
    EXPECT_EQ(R.Status, CertStatus::Refuted) << R.summary();
    ASSERT_FALSE(R.Counterexamples.empty());
    const Counterexample &CE = R.Counterexamples.front();
    EXPECT_EQ(CE.Part, "table") << CE.str();
    EXPECT_EQ(CE.State, 0u);
    ASSERT_TRUE(CE.HasInput);
    ASSERT_EQ(CE.Regs.size(), 1u) << CE.str();
    ASSERT_LT(CE.Input, 0x80u) << CE.str();
    const uint8_t In[] = {'L', uint8_t(CE.Regs[0]), uint8_t(CE.Input)};
    CompiledTransducer::Cursor Vm(B.T);
    FastPathCursor Fast(B.Plan, B.T);
    std::string VmOut, FastOut;
    bool VmOk = true;
    for (uint8_t E : In)
      VmOk = VmOk && Vm.feed(E, VmOut);
    bool FastOk = Fast.feed(In, 3, FastOut);
    VmOk = VmOk && Vm.finish(VmOut);
    FastOk = FastOk && Fast.finish(FastOut);
    EXPECT_TRUE(VmOk != FastOk || VmOut != FastOut)
        << "counterexample " << CE.str() << " must replay as a divergence";
  }
};

TEST_F(ResidualCertTest, CertifiesResidualPrograms) {
  Bst A = makeRegisterGuarded(Ctx);
  Built B = buildFor(A);
  ASSERT_EQ(B.Plan.stats().ResidualActions, 1u);
  CertReport R = certifyPipeline(A, B.T, &B.Plan);
  EXPECT_EQ(R.Status, CertStatus::Certified) << R.summary();
  EXPECT_EQ(R.StatesCertified, 2u);
}

// Mutation 7: retarget the residual program's register-guard jump to the
// instruction after it, so both outcomes run the then-arm.  For r >= 0x40
// the program now accepts where the bytecode rejects or emits '!'.
TEST_F(ResidualCertTest, RefutesCorruptedResidualJump) {
  Bst A = makeRegisterGuarded(Ctx);
  Built B = buildFor(A);
  VmProgram &P = residual(B);
  auto Jz = std::find_if(P.Code.begin(), P.Code.end(),
                         [](const VmInstr &I) { return I.Op == VmOp::Jz; });
  ASSERT_NE(Jz, P.Code.end()) << disassemble(P);
  Jz->Imm = uint64_t(Jz - P.Code.begin()) + 1;
  expectRefutedAndReplayDiverges(A, B);
}

// Mutation 8: point an Emit of the residual program at the register slot
// instead of the input slot.  It emits r where the bytecode emits x.
TEST_F(ResidualCertTest, RefutesCorruptedResidualEmit) {
  Bst A = makeRegisterGuarded(Ctx);
  Built B = buildFor(A);
  VmProgram &P = residual(B);
  const uint16_t InSlot = uint16_t(B.T.numRegSlots());
  auto Emit = std::find_if(P.Code.begin(), P.Code.end(), [&](const VmInstr &I) {
    return I.Op == VmOp::Emit && I.A == InSlot;
  });
  ASSERT_NE(Emit, P.Code.end()) << disassemble(P);
  Emit->A = 0;
  expectRefutedAndReplayDiverges(A, B);
}

// Satellite 3: a zero budget means "no time at all" — every state
// degrades to unverified (and counts as a timeout), never to certified.
// The pipeline still has no refutation, so callers may still serve it.
TEST_F(EquivCheckerTest, ZeroBudgetDegradesToUnverified) {
  Bst A = makeEchoSwitch(Ctx);
  Built B = buildFor(A);
  CertOptions Opts;
  Opts.StateBudgetSeconds = 0;
  CertReport R = certifyPipeline(A, B.T, &B.Plan, Opts);
  EXPECT_EQ(R.Status, CertStatus::Unverified) << R.summary();
  EXPECT_EQ(R.StatesCertified, 0u);
  EXPECT_EQ(R.StatesUnverified, 2u);
  EXPECT_EQ(R.TimedOutStates, 2u);
  EXPECT_EQ(R.StatesRefuted, 0u);
  EXPECT_TRUE(R.Counterexamples.empty());
}

TEST_F(EquivCheckerTest, ClassifierHashStableAcrossContexts) {
  uint64_t H1, H2;
  {
    TermContext C1;
    // Interleave unrelated terms so internal ids differ between contexts.
    C1.var("noise", C1.bv(32));
    H1 = classifierHash(makeEchoSwitch(C1));
  }
  {
    TermContext C2;
    H2 = classifierHash(makeEchoSwitch(C2));
  }
  EXPECT_EQ(H1, H2) << "hash must not depend on context-local term ids";

  TermContext C3;
  Bst Other(C3, C3.bv(8), C3.bv(8), C3.bv(8), 1, 0, Value::bv(8, 0));
  TermRef X = Other.inputVar();
  Other.setDelta(0, Rule::base({X}, 0, Other.regVar()));
  Other.setFinalizer(0, Rule::base({}, 0, Other.regVar()));
  EXPECT_NE(classifierHash(Other), H1);
}

TEST_F(EquivCheckerTest, GeneratedSourceEmbedsClassifierHash) {
  Bst A = makeEchoSwitch(Ctx);
  CodeGenOptions Opts;
  Opts.FunctionName = "probe";
  std::string Src = generateCpp(A, Opts);
  char Want[64];
  snprintf(Want, sizeof(Want), "probe_classifier_hash = 0x%llx",
           (unsigned long long)classifierHash(A));
  EXPECT_NE(Src.find(Want), std::string::npos)
      << "generated unit must carry the classifier hash";
}

TEST_F(EquivCheckerTest, NativeArtifactExportsClassifierHash) {
  Bst A = makeEchoSwitch(Ctx);
  std::string Err;
  auto N = NativeTransducer::compile(A, "equivhash", &Err);
  if (!N)
    GTEST_SKIP() << "no host compiler: " << Err;
  EXPECT_EQ(N->classifierHash(), classifierHash(A))
      << "dlopen'd .so must re-export the hash it was generated from";
}

//===----------------------------------------------------------------------===//
// Runtime integration: the EFC_CERTIFY cache-admission gate.
//===----------------------------------------------------------------------===//

class CertifyGateTest : public ::testing::Test {
protected:
  void TearDown() override {
    unsetenv("EFC_CERTIFY");
    unsetenv("EFC_CERTIFY_BUDGET_MS");
  }

  static runtime::PipelineSpec simpleSpec() {
    runtime::PipelineSpec Spec;
    Spec.Kind = runtime::PipelineSpec::Frontend::Regex;
    Spec.Pattern = "(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*";
    Spec.Agg = "max";
    Spec.Format = "decimal";
    return Spec;
  }
};

TEST_F(CertifyGateTest, CertifiedBuildServesAndCounts) {
  setenv("EFC_CERTIFY", "1", 1);
  runtime::PipelineCache Cache(4);
  std::string Err;
  auto P = Cache.get(simpleSpec(), false, &Err);
  ASSERT_NE(P, nullptr) << Err;
  EXPECT_EQ(P->Cert, CertStatus::Certified) << P->CertSummary;
  runtime::PipelineCache::Stats St = Cache.stats();
  EXPECT_EQ(St.CertCertified, 1u);
  EXPECT_EQ(St.CertRefuted, 0u);
  EXPECT_NE(St.str().find("cert_certified=1"), std::string::npos);
}

// Satellite 3, runtime half: a zero certification budget produces an
// *unverified* entry that still serves, and the timeout counter reaches
// the stats line every operator sees.
TEST_F(CertifyGateTest, ZeroBudgetStillServesAndBumpsTimeouts) {
  setenv("EFC_CERTIFY", "1", 1);
  setenv("EFC_CERTIFY_BUDGET_MS", "0", 1);
  runtime::PipelineCache Cache(4);
  std::string Err;
  auto P = Cache.get(simpleSpec(), false, &Err);
  ASSERT_NE(P, nullptr) << "unverified must serve, only refuted blocks: "
                        << Err;
  EXPECT_EQ(P->Cert, CertStatus::Unverified) << P->CertSummary;
  EXPECT_GT(P->CertTimeouts, 0u);
  runtime::PipelineCache::Stats St = Cache.stats();
  EXPECT_EQ(St.CertUnverified, 1u);
  EXPECT_GT(St.CertTimeouts, 0u);
  EXPECT_NE(St.str().find("certify_timeouts="), std::string::npos);
}

TEST_F(CertifyGateTest, OffByDefault) {
  runtime::PipelineCache Cache(4);
  std::string Err;
  auto P = Cache.get(simpleSpec(), false, &Err);
  ASSERT_NE(P, nullptr) << Err;
  EXPECT_EQ(P->Cert, CertStatus::Unchecked);
}

} // namespace
