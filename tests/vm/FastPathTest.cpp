//===- tests/vm/FastPathTest.cpp - Byte-class dispatch fast path ----------===//
//
// Unit tests for vm/FastPath.h: classification (eligibility, equivalence
// classes, sentinel padding), plan construction (action kinds, fallback
// demotion), and the mixed-mode driver (out-of-range elements, chunk
// splits, rejection semantics) — always differentially against the plain
// bytecode VM, which is the reference the fast path must match
// byte-for-byte.
//
//===----------------------------------------------------------------------===//

#include "stdlib/Transducers.h"
#include "stdlib/Values.h"
#include "support/Stopwatch.h"
#include "vm/FastPath.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace efc;

namespace {

class FastPathTest : public ::testing::Test {
protected:
  TermContext Ctx;

  static std::vector<uint64_t> rawOf(const std::vector<Value> &Vs) {
    std::vector<uint64_t> Out;
    Out.reserve(Vs.size());
    for (const Value &V : Vs)
      Out.push_back(V.bits());
    return Out;
  }

  /// Fast path and plain VM must agree exactly (output and rejection).
  void expectAgreesWithVm(const Bst &A, const std::vector<uint64_t> &In,
                          const char *What) {
    auto T = CompiledTransducer::compile(A);
    ASSERT_TRUE(T.has_value()) << What;
    FastPathPlan P = FastPathPlan::build(A, *T);
    auto Want = T->run(In);
    auto Got = runFastPath(P, *T, In);
    ASSERT_EQ(Want.has_value(), Got.has_value()) << What;
    if (Want)
      EXPECT_EQ(*Want, *Got) << What;
  }
};

/// 2 states over bv(8): state 0 echoes and jumps to 1 on 'a', else stays;
/// state 1 guards on the *register* — ineligible by construction.
Bst makeMixedEligibility(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 2, 0, Value::bv(8, 0));
  TermRef X = A.inputVar(), R = A.regVar();
  A.setDelta(0, Rule::ite(Ctx.mkEq(X, Ctx.bvConst(8, 'a')),
                          Rule::base({X}, 1, R), Rule::base({X}, 0, R)));
  A.setDelta(1, Rule::ite(Ctx.mkEq(R, Ctx.bvConst(8, 0)),
                          Rule::base({X}, 0, X), Rule::base({}, 1, R)));
  A.setFinalizer(0, Rule::base({}, 0, R));
  A.setFinalizer(1, Rule::base({}, 1, R));
  return A;
}

TEST_F(FastPathTest, ClassifyPartitionsBytesByLeaf) {
  Bst A = makeMixedEligibility(Ctx);
  ByteClassTable C = classifyDeltaByteClasses(A, 0);
  ASSERT_TRUE(C.Eligible);
  EXPECT_EQ(C.ValidBytes, 256u);
  ASSERT_EQ(C.numClasses(), 2u);
  // 'a' is alone in its class; every other byte shares the else-leaf.
  uint16_t ClassA = C.Class['a'];
  for (unsigned B = 0; B < 256; ++B)
    EXPECT_EQ(C.Class[B] == ClassA, B == 'a') << "byte " << B;

  ByteClassTable C1 = classifyDeltaByteClasses(A, 1);
  EXPECT_FALSE(C1.Eligible) << "register-reading guard must be ineligible";
}

/// 3 states over bv(8) with an 8-bit register r.  State 0's root guard
/// reads only the input; below it, for bytes < 0x80, a register guard
/// (r < 0x40) heads a subtree that tests the input again, updates r from
/// both, and rejects when r > 0x40: the shape fusion leaves where a
/// decimal formatter's register chain sits under input guards.  'L' moves
/// to state 1, which loads the next byte into r, so every register value
/// is two input bytes away.
Bst makeResidual(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 3, 0, Value::bv(8, 0));
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
                                  Rule::base({R}, 2, Ctx.mkAdd(R, K(1))),
                                  Rule::base({X, R}, 0, Ctx.mkAdd(R, X))),
                        Rule::ite(Ctx.mkEq(R, K(0x40)),
                                  Rule::base({K('!')}, 0, K(0)),
                                  Rule::undef())),
              Rule::base({Ctx.mkBvXor(X, R)}, 0, X))));
  A.setDelta(1, Rule::base({}, 0, X));
  A.setDelta(2, Rule::ite(Ctx.mkEq(X, K('z')), Rule::base({}, 0, R),
                          Rule::base({X}, 2, R)));
  for (unsigned Q = 0; Q < 3; ++Q)
    A.setFinalizer(Q, Rule::base({R}, Q, R));
  return A;
}

TEST_F(FastPathTest, RegisterGuardedSubtreeBecomesResidualClass) {
  Bst A = makeResidual(Ctx);
  ByteClassTable C = classifyDeltaByteClasses(A, 0);
  ASSERT_TRUE(C.Eligible) << "the root guard reads only the input";
  ASSERT_EQ(C.numClasses(), 3u);
  const Rule *Residual = C.Leaves[C.Class['a']];
  EXPECT_TRUE(Residual->isIte()) << "the walk stops at the register guard";
  EXPECT_EQ(C.Leaves[C.Class['0']], Residual);
  EXPECT_NE(C.Class['L'], C.Class['a']);
  EXPECT_NE(C.Class[0x80], C.Class['a']);
  EXPECT_TRUE(classifyRunKernels(A, 0, C).empty())
      << "a residual class never forms a run kernel";

  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  ASSERT_TRUE(P.stateHasTable(0));
  EXPECT_EQ(P.stats().TableStates, 3u);
  EXPECT_EQ(P.stats().ResidualActions, 1u);
  const FastPathPlan::StateTable &ST = P.stateTable(0);
  const FastPathPlan::Action &Act = ST.Actions[ST.Dispatch['a']];
  ASSERT_EQ(Act.K, FastPathPlan::Action::Kind::Program);
  EXPECT_TRUE(std::any_of(Act.Code.Code.begin(), Act.Code.Code.end(),
                          [](const VmInstr &I) { return I.Op == VmOp::Jz; }))
      << "a residual program branches:\n" << disassemble(Act.Code);
  EXPECT_NE(explainFastPath(A).find("residual program"), std::string::npos);
}

TEST_F(FastPathTest, ResidualProgramsMatchVmForEveryByteAndRegister) {
  Bst A = makeResidual(Ctx);
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  ASSERT_EQ(P.stats().ResidualActions, 1u);
  uint64_t ProgramElems = 0;
  for (unsigned V = 0; V < 256; ++V)
    for (unsigned B = 0; B < 256; ++B) {
      // 'L' then V loads r = V in state 0; B then meets the residual.
      const uint8_t In[] = {'L', uint8_t(V), uint8_t(B)};
      CompiledTransducer::Cursor Vm(*T);
      std::string VmOut;
      bool VmOk = true;
      for (uint8_t E : In)
        VmOk = VmOk && Vm.feed(E, VmOut);
      for (size_t Step : {size_t(3), size_t(1)}) {
        FastPathCursor F(P, *T);
        std::string Out;
        bool Ok = true;
        for (size_t I = 0; I < 3 && Ok; I += Step)
          Ok = F.feed(In + I, Step, Out);
        ASSERT_EQ(Ok, VmOk) << "r=" << V << " byte=" << B << " step=" << Step;
        ASSERT_EQ(Out, VmOut) << "r=" << V << " byte=" << B;
        if (!Ok)
          continue;
        ASSERT_EQ(F.state(), Vm.state()) << "r=" << V << " byte=" << B;
        // The finalizer emits r: the registers agree too.
        CompiledTransducer::Cursor VmEnd = Vm;
        std::string VmFin = VmOut;
        ASSERT_TRUE(VmEnd.finish(VmFin));
        ASSERT_TRUE(F.finish(Out));
        ASSERT_EQ(Out, VmFin) << "r=" << V << " byte=" << B;
        const FastPathCursor::RunCounters &L = F.runCounters();
        EXPECT_EQ(L.RunElements + L.WideElements + L.TableElements +
                      L.ProgramElements + L.BytecodeElements,
                  3u);
        ProgramElems += L.ProgramElements;
      }
    }
  EXPECT_GT(ProgramElems, 0u);
}

TEST_F(FastPathTest, NarrowWidthPadsWithSentinel) {
  Bst A(Ctx, Ctx.bv(4), Ctx.bv(4), Ctx.bv(4), 1, 0, Value::bv(4, 0));
  TermRef X = A.inputVar();
  A.setDelta(0, Rule::ite(Ctx.mkUlt(X, Ctx.bvConst(4, 8)),
                          Rule::base({X}, 0, A.regVar()), Rule::undef()));
  A.setFinalizer(0, Rule::base({}, 0, A.regVar()));
  ByteClassTable C = classifyDeltaByteClasses(A, 0);
  ASSERT_TRUE(C.Eligible);
  EXPECT_EQ(C.ValidBytes, 16u);
  EXPECT_EQ(C.numClasses(), 2u); // accept-leaf and Undef
  for (unsigned B = 16; B < 256; ++B)
    EXPECT_EQ(C.Class[B], C.numClasses()) << "padding byte " << B;
}

TEST_F(FastPathTest, PlanCountsTableAndFallbackStates) {
  Bst A = makeMixedEligibility(Ctx);
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  EXPECT_EQ(P.numStates(), 2u);
  EXPECT_TRUE(P.stateHasTable(0));
  EXPECT_FALSE(P.stateHasTable(1));
  EXPECT_EQ(P.stats().TableStates, 1u);
  EXPECT_EQ(P.stats().FallbackStates, 1u);
  // State 0 emits the input itself: not constant-foldable per class (the
  // 'a' class is a singleton, so it *can* fold; the else class cannot),
  // so the plan must contain at least one Program or Const action.
  EXPECT_GT(P.stats().ConstActions + P.stats().ProgramActions, 0u);
}

TEST_F(FastPathTest, RejectActionLeavesStateObservable) {
  // bv(8), state 0: reject everything but 'x'.
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 1, 0, Value::bv(8, 0));
  TermRef X = A.inputVar();
  A.setDelta(0, Rule::ite(Ctx.mkEq(X, Ctx.bvConst(8, 'x')),
                          Rule::base({X}, 0, A.regVar()), Rule::undef()));
  A.setFinalizer(0, Rule::base({}, 0, A.regVar()));
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);

  FastPathCursor C(P, *T);
  std::string Out;
  const uint8_t In[] = {'x', 'y'};
  EXPECT_TRUE(C.feed(In, 1, Out));
  unsigned Before = C.state();
  EXPECT_FALSE(C.feed(In + 1, 1, Out));
  EXPECT_EQ(C.state(), Before) << "rejection must not advance the state";
  EXPECT_EQ(Out, "x");
}

TEST_F(FastPathTest, OutOfRangeElementsUseBytecode) {
  // bv(16) input: the table covers x < 256 only; elements above must take
  // the per-element bytecode fallback and still agree with the VM.
  Bst A(Ctx, Ctx.bv(16), Ctx.bv(16), Ctx.bv(16), 1, 0, Value::bv(16, 0));
  TermRef X = A.inputVar();
  A.setDelta(0, Rule::ite(Ctx.mkUlt(X, Ctx.bvConst(16, 128)),
                          Rule::base({X}, 0, A.regVar()),
                          Rule::base({X, X}, 0, A.regVar())));
  A.setFinalizer(0, Rule::base({}, 0, A.regVar()));

  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  EXPECT_TRUE(P.stateHasTable(0)) << "16-bit input is still eligible";

  std::vector<uint64_t> In = {'a', 0x1234, 0xFF, 0x100, 0xFFFF, 0, 255};
  expectAgreesWithVm(A, In, "mixed in/out of byte range");
}

TEST_F(FastPathTest, ChunkSplitsMatchOneShot) {
  Bst A = lib::makeToInt(Ctx);
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);

  std::vector<uint64_t> In;
  for (char C : std::string("31415"))
    In.push_back(uint64_t(C));
  auto Want = runFastPath(P, *T, In);
  ASSERT_TRUE(Want.has_value());

  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    FastPathCursor C(P, *T);
    const std::vector<uint8_t> Bytes(In.begin(), In.end());
    ElemBuf<uint64_t> Out; // bv32 output
    ASSERT_TRUE(C.feed(Bytes.data(), Cut, Out));
    ASSERT_TRUE(C.feed(Bytes.data() + Cut, Bytes.size() - Cut, Out));
    ASSERT_TRUE(C.finish(Out));
    EXPECT_EQ(widenElems(Out), *Want) << "cut=" << Cut;
  }
}

TEST_F(FastPathTest, StdlibZooAgreesOnRandomInputs) {
  SplitMix64 Rng(47);
  struct Case {
    Bst A;
    unsigned InputWidth;
  };
  std::vector<Case> Cases;
  Cases.push_back({lib::makeUtf8Decode(Ctx), 8});
  Cases.push_back({lib::makeUtf8Decode2(Ctx), 8});
  Cases.push_back({lib::makeToInt(Ctx), 16});
  Cases.push_back({lib::makeBase64Decode(Ctx), 8});
  Cases.push_back({lib::makeBase64Encode(Ctx), 8});
  Cases.push_back({lib::makeHtmlEncode(Ctx), 16});
  Cases.push_back({lib::makeLineCount(Ctx), 16});
  Cases.push_back({lib::makeDelta(Ctx), 32});
  Cases.push_back({lib::makeWindowedAverage(Ctx, 4), 32});
  for (auto &C : Cases) {
    auto T = CompiledTransducer::compile(C.A);
    ASSERT_TRUE(T.has_value());
    FastPathPlan P = FastPathPlan::build(C.A, *T);
    for (int Iter = 0; Iter < 25; ++Iter) {
      std::vector<uint64_t> In;
      size_t N = Rng.below(32);
      for (size_t I = 0; I < N; ++I)
        In.push_back(Rng.below(4)
                         ? Rng.range(0x20, 0x7E)
                         : Rng.below(uint64_t(1)
                                     << std::min(C.InputWidth, 16u)));
      auto Want = T->run(In);
      auto Got = runFastPath(P, *T, In);
      ASSERT_EQ(Want.has_value(), Got.has_value()) << "iter " << Iter;
      if (Want)
        EXPECT_EQ(*Want, *Got) << "iter " << Iter;
    }
  }
}

//===----------------------------------------------------------------------===//
// Run acceleration (RunKernel classification, scanRunEnd, span resumption)
//===----------------------------------------------------------------------===//

/// bv(8), one state: silently consume 'a'..'z', echo everything else.
/// Two self-loop kernels: a 26-byte Skip and a 230-byte Copy.
Bst makeSkipLetters(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 1, 0, Value::bv(8, 0));
  TermRef X = A.inputVar(), R = A.regVar();
  A.setDelta(0, Rule::ite(Ctx.mkInRange(X, 'a', 'z'), Rule::base({}, 0, R),
                          Rule::base({X}, 0, R)));
  A.setFinalizer(0, Rule::base({}, 0, R));
  return A;
}

TEST_F(FastPathTest, RunKernelClassification) {
  Bst A = makeSkipLetters(Ctx);
  ByteClassTable C = classifyDeltaByteClasses(A, 0);
  ASSERT_TRUE(C.Eligible);
  std::vector<RunKernel> Ks = classifyRunKernels(A, 0, C);
  ASSERT_EQ(Ks.size(), 2u);
  const RunKernel *Skip = nullptr, *Copy = nullptr;
  for (const RunKernel &K : Ks) {
    if (K.K == RunKernel::Kind::Skip)
      Skip = &K;
    if (K.K == RunKernel::Kind::Copy)
      Copy = &K;
  }
  ASSERT_TRUE(Skip && Copy);
  EXPECT_EQ(Skip->Bytes, 26u);
  EXPECT_TRUE(Skip->covers('a'));
  EXPECT_TRUE(Skip->covers('z'));
  EXPECT_FALSE(Skip->covers('A'));
  EXPECT_TRUE(Skip->Emits.empty());
  EXPECT_TRUE(Skip->Writes.empty());
  EXPECT_EQ(Copy->Bytes, 230u);
  EXPECT_EQ(Copy->SingleEscape, -1) << "26 escapes, not a memchr mask";
  for (unsigned B = 0; B < 256; ++B)
    EXPECT_NE(Skip->covers(B), Copy->covers(B)) << "byte " << B;
}

TEST_F(FastPathTest, ConstantWriteSelfLoopIsARunKernel) {
  // Both branches self-loop and rewrite the register to the same constant
  // every element (the HtmlEncode shape).  The write is idempotent over a
  // span — no guard in a table state reads registers — so both classes
  // must still become kernels, and the non-escape side covers 255 bytes:
  // a single-escape (memchr-style) mask.
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 1, 0, Value::bv(8, 1));
  TermRef X = A.inputVar();
  TermRef Zero = Ctx.bvConst(8, 0);
  A.setDelta(0,
             Rule::ite(Ctx.mkEq(X, Ctx.bvConst(8, '&')),
                       Rule::base({Ctx.bvConst(8, 'X'), Ctx.bvConst(8, 'Y')},
                                  0, Zero),
                       Rule::base({X}, 0, Zero)));
  A.setFinalizer(0, Rule::base({A.regVar()}, 0, Zero));
  ByteClassTable C = classifyDeltaByteClasses(A, 0);
  ASSERT_TRUE(C.Eligible);
  std::vector<RunKernel> Ks = classifyRunKernels(A, 0, C);
  ASSERT_EQ(Ks.size(), 2u);
  const RunKernel *Copy = nullptr, *Const = nullptr;
  for (const RunKernel &K : Ks) {
    if (K.K == RunKernel::Kind::Copy)
      Copy = &K;
    if (K.K == RunKernel::Kind::ConstAppend)
      Const = &K;
  }
  ASSERT_TRUE(Copy && Const);
  EXPECT_EQ(Copy->Bytes, 255u);
  EXPECT_EQ(Copy->SingleEscape, '&');
  ASSERT_EQ(Copy->Writes.size(), 1u);
  EXPECT_EQ(Copy->Writes[0].second, 0u);
  EXPECT_EQ(Const->Bytes, 1u);
  EXPECT_EQ(Const->Emits, (std::vector<uint64_t>{'X', 'Y'}));

  // The finalizer reads the register, so the once-per-span write must be
  // observable: differential check over run-heavy inputs.
  std::vector<uint64_t> In(300, 'q');
  In[50] = '&';
  In[299] = '&';
  expectAgreesWithVm(A, In, "constant-write spans");
}

TEST_F(FastPathTest, NonConstantWriteSelfLoopIsNotAKernel) {
  // The self-loop update reads the register (r+1): a span cannot be
  // collapsed, so no kernel may cover those bytes.
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 1, 0, Value::bv(8, 0));
  TermRef R = A.regVar();
  A.setDelta(0, Rule::base({}, 0, Ctx.mkAdd(R, Ctx.bvConst(8, 1))));
  A.setFinalizer(0, Rule::base({R}, 0, R));
  ByteClassTable C = classifyDeltaByteClasses(A, 0);
  ASSERT_TRUE(C.Eligible);
  EXPECT_TRUE(classifyRunKernels(A, 0, C).empty());
}

TEST_F(FastPathTest, ScanRunEndStopsExactly) {
  RunKernel RK;
  RK.Mask = {~0ull, ~0ull, ~0ull, ~0ull};
  RK.Mask['z' >> 6] &= ~(1ull << ('z' & 63));
  RK.Bytes = 255;
  // Escape positions spanning the scalar head, SWAR/SSE2 body and tail.
  std::vector<uint64_t> Clean(100, 'a');
  for (size_t Esc : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(15),
                     size_t(31), size_t(63), size_t(64), size_t(99)}) {
    std::vector<uint64_t> Buf = Clean;
    Buf[Esc] = 'z';
    RK.SingleEscape = 'z'; // memchr-style specialization
    EXPECT_EQ(scanRunEnd(Buf.data(), 0, Buf.size(), RK), Esc);
    RK.SingleEscape = -1; // general mask loop over the same set
    EXPECT_EQ(scanRunEnd(Buf.data(), 0, Buf.size(), RK), Esc);
    // Out-of-range values end the run even when their low byte is a
    // member ('a' | 0x100 must not be mistaken for 'a').
    Buf[Esc] = uint64_t('a') | 0x100;
    RK.SingleEscape = 'z';
    EXPECT_EQ(scanRunEnd(Buf.data(), 0, Buf.size(), RK), Esc);
    RK.SingleEscape = -1;
    EXPECT_EQ(scanRunEnd(Buf.data(), 0, Buf.size(), RK), Esc);
  }
  RK.SingleEscape = 'z';
  EXPECT_EQ(scanRunEnd(Clean.data(), 0, Clean.size(), RK), Clean.size());
  EXPECT_EQ(scanRunEnd(Clean.data(), 37, Clean.size(), RK), Clean.size());
  RK.SingleEscape = -1;
  EXPECT_EQ(scanRunEnd(Clean.data(), 37, Clean.size(), RK), Clean.size());
}

TEST_F(FastPathTest, RunSpansResumeAcrossChunkCuts) {
  // A 200-'a' skip run then one echoed byte; cut at every position.  The
  // kernel must resume mid-span with no state drift, and the counters
  // must account for every element (201 = the whole input is covered by
  // the Skip + Copy kernels).
  Bst A = makeSkipLetters(Ctx);
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  EXPECT_EQ(P.stats().AccelStates, 1u);

  std::vector<uint64_t> In(200, 'a');
  In.push_back('!');
  auto Want = T->run(In);
  ASSERT_TRUE(Want.has_value());
  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    FastPathCursor C(P, *T);
    const std::vector<uint8_t> Bytes(In.begin(), In.end());
    std::string Out;
    ASSERT_TRUE(C.feed(Bytes.data(), Cut, Out));
    ASSERT_TRUE(C.feed(Bytes.data() + Cut, Bytes.size() - Cut, Out));
    ASSERT_TRUE(C.finish(Out));
    EXPECT_EQ(widenElems(Out), *Want) << "cut=" << Cut;
    EXPECT_EQ(C.runCounters().RunElements, 201u) << "cut=" << Cut;
    EXPECT_GE(C.runCounters().Runs, 2u) << "cut=" << Cut;
  }
}

TEST_F(FastPathTest, AccelOffPlanHasNoKernelsAndAgrees) {
  Bst A = makeSkipLetters(Ctx);
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathOptions Off;
  Off.RunAccel = false;
  FastPathPlan POn = FastPathPlan::build(A, *T);
  FastPathPlan POff = FastPathPlan::build(A, *T, Off);
  EXPECT_GT(POn.stats().SkipKernels + POn.stats().CopyKernels, 0u);
  EXPECT_EQ(POff.stats().AccelStates, 0u);
  EXPECT_EQ(POff.stats().AccelBytes, 0u);

  SplitMix64 Rng(11);
  for (int Iter = 0; Iter < 20; ++Iter) {
    std::vector<uint64_t> In;
    for (size_t I = 0, N = Rng.below(300); I < N; ++I)
      In.push_back(Rng.below(4) ? Rng.range('a', 'z') : Rng.below(256));
    auto Want = T->run(In);
    auto GotOn = runFastPath(POn, *T, In);
    auto GotOff = runFastPath(POff, *T, In);
    ASSERT_EQ(Want.has_value(), GotOn.has_value()) << "iter " << Iter;
    ASSERT_EQ(Want.has_value(), GotOff.has_value()) << "iter " << Iter;
    if (Want) {
      EXPECT_EQ(*Want, *GotOn) << "iter " << Iter;
      EXPECT_EQ(*Want, *GotOff) << "iter " << Iter;
    }
  }
}

TEST_F(FastPathTest, StdlibRunHeavyInputsAgree) {
  // Real stdlib transducers on inputs shaped like the fig13/fig9 hot
  // loops: long homogeneous runs, runs split by single escapes, and runs
  // ending at out-of-range elements.
  struct Case {
    Bst A;
    std::vector<uint64_t> In;
    const char *What;
  };
  std::vector<Case> Cases;
  {
    std::vector<uint64_t> In(500, 'e');
    In[250] = '<';
    Cases.push_back({lib::makeHtmlEncode(Ctx), In, "html run/escape/run"});
  }
  {
    std::vector<uint64_t> In(400, 'x');
    In.push_back('\n');
    Cases.push_back({lib::makeLineCount(Ctx), In, "linecount long line"});
  }
  {
    std::vector<uint64_t> In(300, 'a');
    In[100] = 0x2603; // out of byte range: per-element bytecode island
    Cases.push_back({lib::makeHtmlEncode(Ctx), In, "html wide element"});
  }
  {
    std::vector<uint64_t> In(256, 'A');
    Cases.push_back({lib::makeBase64Decode(Ctx), In, "base64 homogeneous"});
  }
  for (auto &C : Cases)
    expectAgreesWithVm(C.A, C.In, C.What);
}

TEST_F(FastPathTest, ExplainFastPathDescribesKernels) {
  Bst A = makeSkipLetters(Ctx);
  std::string Dump = explainFastPath(A);
  EXPECT_NE(Dump.find("state 0"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("skip"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("copy"), std::string::npos) << Dump;

  Bst B = makeMixedEligibility(Ctx);
  std::string Dump2 = explainFastPath(B);
  EXPECT_NE(Dump2.find("fallback"), std::string::npos) << Dump2;
}

TEST_F(FastPathTest, PlanSurvivesTransducerMove) {
  // The plan is plain data; moving the compiled transducer (as pipeline
  // containers do) must not invalidate it.
  Bst A = lib::makeToInt(Ctx);
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  CompiledTransducer Moved = std::move(*T);
  std::vector<uint64_t> In = {'4', '2'};
  auto Got = runFastPath(P, Moved, In);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, std::vector<uint64_t>{42u});
}

} // namespace
