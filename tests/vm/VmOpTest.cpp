//===- tests/vm/VmOpTest.cpp - Each interpreter op vs the reference -------===//
//
// Runs every pure VmOp as the one instruction under test of a tiny program
// through CompiledTransducer::Cursor, the threaded interpreter, and
// compares the emitted value with the reference term evaluator
// (term/Eval.h) on the term the rule compiler lowers to that op.  Widths
// 1, 8, 16, 32 and 64; operands include 0, 1, all-ones and the sign bit,
// so division and remainder by 0 and shift counts >= the width are
// covered at every width.
//
//===----------------------------------------------------------------------===//

#include "term/Eval.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace efc;

namespace {

class VmOpTest : public ::testing::Test {
protected:
  TermContext Ctx;
  /// Register slots 0..2 hold the operands, slot 4 (a temporary) the
  /// result; the program under test replaces state 0's transition.
  static constexpr uint16_t SA = 0, SB = 1, SC = 2, SD = 4;
  std::optional<CompiledTransducer> T;

  void SetUp() override {
    const Type *R = Ctx.tupleTy({Ctx.bv(64), Ctx.bv(64), Ctx.bv(64)});
    Bst A(Ctx, Ctx.bv(8), Ctx.bv(64), R, 1, 0,
          Value::tuple({Value::bv(64, 0), Value::bv(64, 0),
                        Value::bv(64, 0)}));
    A.setDelta(0, Rule::base({}, 0, A.regVar()));
    A.setFinalizer(0, Rule::base({}, 0, A.regVar()));
    T = CompiledTransducer::compile(A);
    ASSERT_TRUE(T.has_value());
    ASSERT_EQ(T->numRegSlots(), 3u);
    ASSERT_GT(T->numSlots(), unsigned(SD));
  }

  /// Loads \p Ops into slots 0..2, runs \p I (its operands and
  /// destination already set), emits the destination.
  uint64_t runOp(VmInstr I, std::initializer_list<uint64_t> Ops) {
    VmProgram &P = T->mutableDeltaProgram(0);
    P.Code.clear();
    uint16_t Slot = 0;
    for (uint64_t V : Ops)
      P.Code.push_back(VmInstr{VmOp::Const, 64, Slot++, 0, 0, 0, V});
    P.Code.push_back(I);
    P.Code.push_back(VmInstr{VmOp::Emit, 0, 0, SD, 0, 0, 0});
    P.Code.push_back(VmInstr{VmOp::Next, 0, 0, 0, 0, 0, 0});
    CompiledTransducer::Cursor C(*T);
    std::vector<uint64_t> Out;
    EXPECT_TRUE(C.feed(0, Out));
    EXPECT_EQ(Out.size(), 1u);
    return Out.empty() ? ~uint64_t(0) : Out[0];
  }

  static uint64_t bitsOf(const Value &V) {
    return V.isBool() ? uint64_t(V.boolValue()) : V.bits();
  }

  /// Edge operands of width \p W: 0, 1, 2, W, the largest signed value,
  /// the sign bit, all-ones minus one and all-ones (masked, distinct).
  static std::vector<uint64_t> edges(unsigned W) {
    uint64_t Mask = maskTo(W, ~uint64_t(0));
    uint64_t Sign = uint64_t(1) << (W - 1);
    std::vector<uint64_t> V = {0, 1, 2, W, Sign - 1, Sign, Mask - 1, Mask};
    for (uint64_t &X : V)
      X = maskTo(W, X);
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
    return V;
  }
};

constexpr unsigned Widths[] = {1, 8, 16, 32, 64};

TEST_F(VmOpTest, BinaryOpsMatchReference) {
  struct Case {
    VmOp Op;
    TermRef (TermContext::*Make)(TermRef, TermRef);
  };
  const Case Cases[] = {
      {VmOp::Add, &TermContext::mkAdd},   {VmOp::Sub, &TermContext::mkSub},
      {VmOp::Mul, &TermContext::mkMul},   {VmOp::UDiv, &TermContext::mkUDiv},
      {VmOp::URem, &TermContext::mkURem}, {VmOp::And, &TermContext::mkBvAnd},
      {VmOp::Or, &TermContext::mkBvOr},   {VmOp::Xor, &TermContext::mkBvXor},
      {VmOp::Shl, &TermContext::mkShl},   {VmOp::LShr, &TermContext::mkLShr},
      {VmOp::AShr, &TermContext::mkAShr}, {VmOp::Eq, &TermContext::mkEq},
      {VmOp::Ult, &TermContext::mkUlt},   {VmOp::Ule, &TermContext::mkUle},
      {VmOp::Slt, &TermContext::mkSlt},   {VmOp::Sle, &TermContext::mkSle},
  };
  for (unsigned W : Widths) {
    TermRef A = Ctx.var("a", Ctx.bv(W)), B = Ctx.var("b", Ctx.bv(W));
    for (const Case &C : Cases) {
      TermRef Tm = (Ctx.*C.Make)(A, B);
      for (uint64_t X : edges(W))
        for (uint64_t Y : edges(W)) {
          Env E;
          E.bind(A, Value::bv(W, X));
          E.bind(B, Value::bv(W, Y));
          uint64_t Want = bitsOf(evalTerm(Tm, E));
          uint64_t Got =
              runOp(VmInstr{C.Op, uint8_t(W), SD, SA, SB, 0, 0}, {X, Y});
          EXPECT_EQ(Got, Want) << vmOpName(C.Op) << " w" << W << " a=" << X
                               << " b=" << Y;
        }
    }
  }
}

TEST_F(VmOpTest, UnaryOpsMatchReference) {
  for (unsigned W : Widths) {
    TermRef A = Ctx.var("a", Ctx.bv(W));
    for (uint64_t X : edges(W)) {
      Env E;
      E.bind(A, Value::bv(W, X));
      auto check = [&](VmOp Op, TermRef Tm, uint64_t Imm, uint8_t IW) {
        uint64_t Want = bitsOf(evalTerm(Tm, E));
        uint64_t Got = runOp(VmInstr{Op, IW, SD, SA, 0, 0, Imm}, {X});
        EXPECT_EQ(Got, Want) << vmOpName(Op) << " w" << W << " imm=" << Imm
                             << " a=" << X;
      };
      check(VmOp::Mov, A, 0, uint8_t(W));
      check(VmOp::Neg, Ctx.mkNeg(A), 0, uint8_t(W));
      check(VmOp::NotBits, Ctx.mkBvNot(A), 0, uint8_t(W));
      // SExt: Width is the source width, Imm the target width.
      for (unsigned To : {W, std::min(64u, 2 * W), 64u})
        check(VmOp::SExt, Ctx.mkSExt(A, To), To, uint8_t(W));
      check(VmOp::Const, Ctx.bvConst(W, X), X, uint8_t(W));
    }
  }
}

TEST_F(VmOpTest, ExtractMatchesReference) {
  // Width is the result width, Imm the low bit, over 64-bit operands.
  TermRef A = Ctx.var("a", Ctx.bv(64));
  for (unsigned W : Widths)
    for (unsigned Lo : {0u, 3u, 64u - W}) {
      if (Lo + W > 64)
        continue;
      TermRef Tm = Ctx.mkExtract(A, Lo + W - 1, Lo);
      for (uint64_t X : edges(64)) {
        Env E;
        E.bind(A, Value::bv(64, X));
        uint64_t Want = bitsOf(evalTerm(Tm, E));
        uint64_t Got =
            runOp(VmInstr{VmOp::Extract, uint8_t(W), SD, SA, 0, 0, Lo}, {X});
        EXPECT_EQ(Got, Want) << "extract w" << W << " lo=" << Lo
                             << " a=" << X;
      }
    }
}

TEST_F(VmOpTest, BooleanOpsMatchReference) {
  TermRef P = Ctx.var("p", Ctx.boolTy()), Q = Ctx.var("q", Ctx.boolTy());
  for (uint64_t X : {0, 1})
    for (uint64_t Y : {0, 1}) {
      Env E;
      E.bind(P, Value::boolV(X != 0));
      E.bind(Q, Value::boolV(Y != 0));
      EXPECT_EQ(runOp(VmInstr{VmOp::And, 1, SD, SA, SB, 0, 0}, {X, Y}),
                bitsOf(evalTerm(Ctx.mkAnd(P, Q), E)));
      EXPECT_EQ(runOp(VmInstr{VmOp::Or, 1, SD, SA, SB, 0, 0}, {X, Y}),
                bitsOf(evalTerm(Ctx.mkOr(P, Q), E)));
      EXPECT_EQ(runOp(VmInstr{VmOp::NotBool, 1, SD, SA, 0, 0, 0}, {X}),
                bitsOf(evalTerm(Ctx.mkNot(P), E)));
    }
}

TEST_F(VmOpTest, SelectMatchesReference) {
  TermRef P = Ctx.var("p", Ctx.boolTy());
  for (unsigned W : Widths) {
    TermRef A = Ctx.var("a", Ctx.bv(W)), B = Ctx.var("b", Ctx.bv(W));
    TermRef Tm = Ctx.mkIte(P, A, B);
    for (uint64_t Cnd : {0, 1})
      for (uint64_t X : edges(W)) {
        uint64_t Y = maskTo(W, ~X);
        Env E;
        E.bind(P, Value::boolV(Cnd != 0));
        E.bind(A, Value::bv(W, X));
        E.bind(B, Value::bv(W, Y));
        EXPECT_EQ(runOp(VmInstr{VmOp::Select, uint8_t(W), SD, SA, SB, SC, 0},
                        {Cnd, X, Y}),
                  bitsOf(evalTerm(Tm, E)))
            << "select w" << W << " c=" << Cnd << " a=" << X;
      }
  }
}

TEST_F(VmOpTest, ControlOpsBranchAndCommit) {
  // Jz over both arms, Jmp past a dead Emit, Reject and Accept.
  VmProgram &P = T->mutableDeltaProgram(0);
  for (uint64_t Cnd : {0, 1}) {
    P.Code = {
        VmInstr{VmOp::Const, 64, SA, 0, 0, 0, Cnd},
        VmInstr{VmOp::Jz, 0, 0, SA, 0, 0, 5},
        VmInstr{VmOp::Const, 64, SD, 0, 0, 0, 11},
        VmInstr{VmOp::Emit, 0, 0, SD, 0, 0, 0},
        VmInstr{VmOp::Jmp, 0, 0, 0, 0, 0, 8},
        VmInstr{VmOp::Const, 64, SD, 0, 0, 0, 22},
        VmInstr{VmOp::Emit, 0, 0, SD, 0, 0, 0},
        VmInstr{VmOp::Emit, 0, 0, SD, 0, 0, 0},
        VmInstr{VmOp::Next, 0, 0, 0, 0, 0, 0},
    };
    CompiledTransducer::Cursor C(*T);
    std::vector<uint64_t> Out;
    ASSERT_TRUE(C.feed(0, Out));
    std::vector<uint64_t> Want = Cnd ? std::vector<uint64_t>{11}
                                     : std::vector<uint64_t>{22, 22};
    EXPECT_EQ(Out, Want);
  }
  P.Code = {VmInstr{VmOp::Reject, 0, 0, 0, 0, 0, 0}};
  CompiledTransducer::Cursor C(*T);
  std::vector<uint64_t> Out;
  EXPECT_FALSE(C.feed(0, Out));
  EXPECT_TRUE(C.finish(Out)) << "the finalizer ends in Accept";
}

} // namespace
