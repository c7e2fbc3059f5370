//===- tests/solver/RefutesTest.cpp - Fusion's refutation query -----------===//
//
// Solver::refutes answers "is the context conjoined with phi unsat?".  A
// guard the context's interval bounds already imply is answered without
// check(), so without presolve, guessing, bit-blasting or CDCL; any other
// guard goes through checkWith.  The property test checks both answers
// against brute force over small bitvectors.
//
//===----------------------------------------------------------------------===//

#include "common/FuzzSeed.h"
#include "solver/Solver.h"
#include "support/Stopwatch.h"
#include "term/Eval.h"

#include <gtest/gtest.h>

using namespace efc;

namespace {

class RefutesTest : public ::testing::Test {
protected:
  TermContext Ctx;
  TermRef X = Ctx.var("x", Ctx.bv(8));

  /// A decimal formatter's digit guard as UTF8Encode checks it:
  /// `(zext32(x) % 10 + 0x30)[15:0] <= 0x7f`.
  TermRef digitGuard() {
    TermRef Digit = Ctx.mkAdd(
        Ctx.mkURem(Ctx.mkZExt(X, 32), Ctx.bvConst(32, 10)),
        Ctx.bvConst(32, 0x30));
    return Ctx.mkUle(Ctx.mkExtract(Digit, 15, 0), Ctx.bvConst(16, 0x7f));
  }
};

TEST_F(RefutesTest, ImpliedGuardNeedsNoCheck) {
  Solver S(Ctx);
  S.add(Ctx.mkInRange(X, 0x30, 0x39));
  EXPECT_FALSE(S.refutes(digitGuard()));
  EXPECT_EQ(S.stats().Implied, 1u);
  EXPECT_EQ(S.stats().Checks, 0u);
  EXPECT_EQ(S.stats().SatCalls, 0u);
  EXPECT_EQ(S.stats().CacheHits, 0u);
}

TEST_F(RefutesTest, ImplicationComesFromTheContext) {
  // x - 0x30 <= 9, written as fusion writes it (an add that wraps): true
  // under 0x30 <= x <= 0x39, undecided by intervals over all of bv8.
  TermRef Phi = Ctx.mkUle(
      Ctx.mkAdd(Ctx.mkZExt(X, 32), Ctx.bvConst(32, 0xffffffd0)),
      Ctx.bvConst(32, 9));
  Solver S(Ctx);
  S.push();
  S.add(Ctx.mkInRange(X, 0x30, 0x39));
  EXPECT_FALSE(S.refutes(Phi));
  EXPECT_EQ(S.stats().Implied, 1u);
  EXPECT_EQ(S.stats().Checks, 0u);
  S.pop();
  EXPECT_FALSE(S.refutes(Phi));
  EXPECT_EQ(S.stats().Implied, 1u);
  EXPECT_EQ(S.stats().Checks, 1u);
}

TEST_F(RefutesTest, PresolveOffAsksTheSolver) {
  Solver S(Ctx);
  S.setPresolveEnabled(false);
  S.add(Ctx.mkInRange(X, 0x30, 0x39));
  EXPECT_FALSE(S.refutes(digitGuard()));
  EXPECT_EQ(S.stats().Implied, 0u);
  EXPECT_EQ(S.stats().Checks, 1u);
}

TEST_F(RefutesTest, RefutedThroughThePresolve) {
  Solver S(Ctx);
  S.add(Ctx.mkInRange(X, 0x30, 0x39));
  EXPECT_TRUE(S.refutes(Ctx.mkUle(Ctx.bvConst(8, 0x80), X)));
  EXPECT_EQ(S.stats().Implied, 0u);
  EXPECT_EQ(S.stats().FastUnsat, 1u);
  EXPECT_EQ(S.stats().SatCalls, 0u);
}

TEST_F(RefutesTest, RefutedThroughCdcl) {
  // Intervals decide neither side and no guess can witness an unsat
  // conjunction, so only CDCL refutes x == y under x ^ y == 0xff.
  TermRef Y = Ctx.var("y", Ctx.bv(8));
  Solver S(Ctx);
  S.add(Ctx.mkEq(Ctx.mkBvXor(X, Y), Ctx.bvConst(8, 0xff)));
  EXPECT_TRUE(S.refutes(Ctx.mkEq(X, Y)));
  EXPECT_EQ(S.stats().Implied, 0u);
  EXPECT_EQ(S.stats().FastUnsat, 0u);
  EXPECT_EQ(S.stats().SatCalls, 1u);
}

/// Random guards over x: bv8 and y: bv4, shaped like fusion's: range
/// conjuncts in the context, digit arithmetic in the guards.
class GuardGen {
  TermContext &Ctx;
  SplitMix64 &Rng;

public:
  GuardGen(TermContext &Ctx, SplitMix64 &Rng) : Ctx(Ctx), Rng(Rng) {}

  TermRef X = Ctx.var("x", Ctx.bv(8));
  TermRef Y = Ctx.var("y", Ctx.bv(4));

  TermRef contextConjunct() {
    TermRef A = Rng.below(2) ? X : Y;
    uint64_t Max = A == X ? 0xff : 0xf;
    uint64_t Lo = Rng.below(Max + 1), Hi = Rng.range(Lo, Max);
    switch (Rng.below(5)) {
    case 0:
      return Ctx.mkInRange(A, Lo, Hi);
    case 1:
      return Ctx.mkUle(A, Ctx.bvConst(A->type(), Hi));
    case 2:
      return Ctx.mkUlt(Ctx.bvConst(A->type(), Lo), A);
    case 3:
      return Ctx.mkEq(A, Ctx.bvConst(A->type(), Lo));
    default:
      return guard(1);
    }
  }

  TermRef guard(int Depth) {
    if (Depth > 0 && Rng.below(3) == 0) {
      TermRef A = guard(Depth - 1), B = guard(Depth - 1);
      switch (Rng.below(3)) {
      case 0:
        return Ctx.mkNot(A);
      case 1:
        return Ctx.mkAnd(A, B);
      default:
        return Ctx.mkOr(A, B);
      }
    }
    TermRef A = arith(2);
    TermRef B = Rng.below(2) ? arith(1) : Ctx.bvConst(8, Rng.below(256));
    switch (Rng.below(5)) {
    case 0:
      return Ctx.mkEq(A, B);
    case 1:
      return Ctx.mkUlt(A, B);
    case 2:
      return Ctx.mkUle(A, B);
    case 3:
      return Ctx.mkSlt(A, B);
    default:
      return Ctx.mkSle(A, B);
    }
  }

private:
  TermRef arith(int Depth) {
    if (Depth == 0 || Rng.below(4) == 0) {
      switch (Rng.below(3)) {
      case 0:
        return X;
      case 1:
        return Ctx.mkZExt(Y, 8);
      default:
        return Ctx.bvConst(8, Rng.below(256));
      }
    }
    TermRef A = arith(Depth - 1);
    TermRef C = Ctx.bvConst(8, 1 + Rng.below(255));
    switch (Rng.below(9)) {
    case 0:
      return Ctx.mkAdd(A, arith(Depth - 1));
    case 1:
      return Ctx.mkSub(A, C);
    case 2:
      return Ctx.mkMul(A, C);
    case 3:
      return Ctx.mkUDiv(A, C);
    case 4:
      return Ctx.mkURem(A, C);
    case 5:
      return Ctx.mkBvAnd(A, C);
    case 6:
      return Ctx.mkBvOr(A, arith(Depth - 1));
    case 7:
      return Ctx.mkLShrC(A, unsigned(Rng.below(8)));
    default:
      // Through a wider type and back, as formatters do.
      return Ctx.mkExtract(Ctx.mkAdd(Ctx.mkZExt(A, 16), Ctx.mkZExt(C, 16)),
                           7, 0);
    }
  }
};

TEST(RefutesProperty, AgreesWithBruteForceOnSatisfiableContexts) {
  uint64_t Seed = efc::testing::fuzzSeed(0x4EF07E5);
  SplitMix64 Rng(Seed);
  unsigned Implied = 0, Refuted = 0, Asked = 0;
  for (int T = 0; T < 300; ++T) {
    TermContext Ctx;
    GuardGen G(Ctx, Rng);
    std::vector<TermRef> Gamma;
    for (uint64_t I = 0, N = 1 + Rng.below(3); I < N; ++I)
      Gamma.push_back(G.contextConjunct());
    TermRef Phi = G.guard(1);

    // Models of the context, and whether each satisfies the guard.
    unsigned GammaModels = 0, BothModels = 0;
    for (uint64_t A = 0; A < 256; ++A)
      for (uint64_t B = 0; B < 16; ++B) {
        Env E;
        E.bind(G.X, Value::bv(8, A));
        E.bind(G.Y, Value::bv(4, B));
        bool InGamma = true;
        for (TermRef C : Gamma)
          InGamma = InGamma && evalTerm(C, E).boolValue();
        if (!InGamma)
          continue;
        ++GammaModels;
        BothModels += evalTerm(Phi, E).boolValue();
      }
    if (GammaModels == 0)
      continue; // fusion never asks under an unsatisfiable context

    // One scope per context conjunct, as fusion pushes them.
    Solver S(Ctx);
    for (TermRef C : Gamma) {
      S.push();
      S.add(C);
    }
    ++Asked;
    bool R = S.refutes(Phi);
    std::string Note = "trial " + std::to_string(T) + " " +
                       efc::testing::seedNote(Seed);
    if (R) {
      ++Refuted;
      EXPECT_EQ(BothModels, 0u) << "refuted a satisfiable guard; " << Note;
    }
    if (S.stats().Implied) {
      ++Implied;
      EXPECT_FALSE(R) << Note;
      EXPECT_EQ(BothModels, GammaModels)
          << "answered as implied, but some model of the context falsifies "
             "the guard; "
          << Note;
    }
  }
  // Every answer kind must occur, or the checks above test nothing.
  EXPECT_GT(Asked, 100u) << efc::testing::seedNote(Seed);
  EXPECT_GT(Implied, 10u) << efc::testing::seedNote(Seed);
  EXPECT_GT(Refuted, 10u) << efc::testing::seedNote(Seed);
}

} // namespace
