//===- tests/fusion/FusionTest.cpp - Fusion correctness (paper §3) --------===//
//
// The central property: ⟦A ⊗ B⟧ = ⟦B⟧ ∘ ⟦A⟧, checked on the paper's own
// example pairs and differentially on random inputs (including inputs that
// one or both stages reject).
//
//===----------------------------------------------------------------------===//

#include "bst/BstPrint.h"
#include "bst/Interp.h"
#include "fusion/Fusion.h"
#include "runtime/PipelineCache.h"
#include "stdlib/Reference.h"
#include "stdlib/Transducers.h"
#include "stdlib/Values.h"
#include "support/Stopwatch.h"

#include <gtest/gtest.h>

using namespace efc;

namespace {

class FusionTest : public ::testing::Test {
protected:
  TermContext Ctx;

  /// Composition semantics: run A, then (if accepted) run B on A's output.
  static std::optional<std::vector<Value>>
  composed(const Bst &A, const Bst &B, std::span<const Value> In) {
    auto Mid = runBst(A, In);
    if (!Mid)
      return std::nullopt;
    return runBst(B, *Mid);
  }

  /// Asserts ⟦Fused⟧(In) == ⟦B⟧(⟦A⟧(In)) for one input.
  static void expectAgrees(const Bst &A, const Bst &B, const Bst &Fused,
                           std::span<const Value> In, const char *What) {
    auto Expected = composed(A, B, In);
    auto Got = runBst(Fused, In);
    ASSERT_EQ(Expected.has_value(), Got.has_value()) << What;
    if (Expected)
      EXPECT_EQ(*Expected, *Got) << What;
  }
};

TEST_F(FusionTest, PaperSection1Example) {
  // Utf8Decode ⊗ ToInt "ends up being identical to ToInt": 2 control
  // states, ASCII-digit-only guard, multibyte branches eliminated.
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Solver S(Ctx);
  FusionStats Stats;
  Bst Fused = fuse(Dec, ToInt, S, {}, &Stats);
  EXPECT_TRUE(Fused.wellFormed());

  // Fusion alone keeps the multibyte product states: their elimination
  // needs the state-carried register constraint (∃x. r = (x & 0x3F) << 6
  // for a lead byte x), which is RBBE's job (§4) — see RbbeTest for the
  // completion of the §1 story down to 2 states.
  EXPECT_EQ(Fused.numStates(), 4u) << bstToString(Fused);
  EXPECT_GT(Stats.SolverChecks, 0u);

  expectAgrees(Dec, ToInt, Fused, lib::valuesFromBytes("1234"), "digits");
  expectAgrees(Dec, ToInt, Fused, lib::valuesFromBytes(""), "empty");
  expectAgrees(Dec, ToInt, Fused, lib::valuesFromBytes("12a4"), "letter");
  expectAgrees(Dec, ToInt, Fused, lib::valuesFromBytes("\xC5\x93"),
               "multibyte");
}

TEST_F(FusionTest, FusedUtf8ToIntBehavesLikeToInt) {
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Bst Fused = fuse(Dec, ToInt);
  auto Out = runBst(Fused, lib::valuesFromBytes("40961"));
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ((*Out)[0].bits(), 40961u);
}

TEST_F(FusionTest, DifferentialUtf8DecodeEncode) {
  // Full decoder fused with the encoder: identity on valid UTF-8.
  Bst Dec = lib::makeUtf8Decode(Ctx);
  Bst Enc = lib::makeUtf8Encode(Ctx);
  Solver S(Ctx);
  Bst Fused = fuse(Dec, Enc, S);
  EXPECT_TRUE(Fused.wellFormed());

  SplitMix64 Rng(11);
  for (int Iter = 0; Iter < 12; ++Iter) {
    // Random valid UTF-8 (reuse the reference encoder).
    std::u16string Chars;
    for (int I = 0; I < 16; ++I) {
      uint32_t Cp = uint32_t(Rng.below(Iter < 6 ? 0x800 : 0x110000));
      if (Cp >= 0xD800 && Cp <= 0xDFFF)
        Cp = 'x';
      if (Cp <= 0xFFFF) {
        Chars.push_back(char16_t(Cp));
      } else {
        uint32_t Off = Cp - 0x10000;
        Chars.push_back(char16_t(0xD800 + (Off >> 10)));
        Chars.push_back(char16_t(0xDC00 + (Off & 0x3FF)));
      }
    }
    std::string Bytes = *ref::utf8Encode(Chars);
    std::vector<Value> In = lib::valuesFromBytes(Bytes);
    expectAgrees(Dec, Enc, Fused, In, "utf8 round trip");
    auto Out = runBst(Fused, In);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(lib::bytesFromValues(*Out), Bytes) << "identity";
  }
  // Invalid inputs reject in both.
  expectAgrees(Dec, Enc, Fused, lib::valuesFromBytes("\xFFzz"), "invalid");
  expectAgrees(Dec, Enc, Fused, lib::valuesFromBytes("\xC5"), "truncated");
}

TEST_F(FusionTest, DifferentialRandomBytesThroughBase64Chain) {
  // Base64Decode ⊗ BytesToInt32: random valid and invalid inputs.
  Bst B64 = lib::makeBase64Decode(Ctx);
  Bst ToI32 = lib::makeBytesToInt32(Ctx);
  Solver S(Ctx);
  Bst Fused = fuse(B64, ToI32, S);
  EXPECT_TRUE(Fused.wellFormed());

  SplitMix64 Rng(12);
  for (int Iter = 0; Iter < 15; ++Iter) {
    std::string Raw;
    size_t N = 4 * Rng.below(5); // multiples of 4 decode to full ints
    for (size_t I = 0; I < N; ++I)
      Raw.push_back(char(Rng.below(256)));
    std::vector<Value> In = lib::valuesFromBytes(ref::base64Encode(Raw));
    expectAgrees(B64, ToI32, Fused, In, "valid base64");
  }
  // Length not divisible by 4 after decode: B rejects.
  std::string Odd = ref::base64Encode("abcde");
  expectAgrees(B64, ToI32, Fused, lib::valuesFromBytes(Odd), "partial int");
  expectAgrees(B64, ToI32, Fused, lib::valuesFromBytes("!!"), "garbage");
}

TEST_F(FusionTest, MultiOutputProducerIntoStatefulConsumer) {
  // Int32ToBytes emits 4 outputs per input; Base64Encode consumes them
  // with loop-carried state: exercises RUN over longer symbolic lists.
  Bst ToB = lib::makeInt32ToBytes(Ctx);
  Bst B64 = lib::makeBase64Encode(Ctx);
  Solver S(Ctx);
  Bst Fused = fuse(ToB, B64, S);
  EXPECT_TRUE(Fused.wellFormed());
  SplitMix64 Rng(13);
  for (int Iter = 0; Iter < 10; ++Iter) {
    std::vector<uint32_t> Ints;
    for (size_t I = 0, N = Rng.below(5); I < N; ++I)
      Ints.push_back(uint32_t(Rng.next()));
    expectAgrees(ToB, B64, Fused, lib::valuesFromInts(Ints), "ints");
  }
}

TEST_F(FusionTest, FinalizerOutputsFlowThroughConsumer) {
  // Max emits its result in the finalizer; IntToDecimal formats it.  The
  // fused finalizer must run Max's output through IntToDecimal.
  Bst Max = lib::makeMax(Ctx);
  Bst Fmt = lib::makeIntToDecimal(Ctx);
  Solver S(Ctx);
  Bst Fused = fuse(Max, Fmt, S);
  EXPECT_TRUE(Fused.wellFormed());
  std::vector<uint32_t> In = {17, 170000, 3};
  auto Out = runBst(Fused, lib::valuesFromInts(In));
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(lib::charsFromValues(*Out), u"170000");
  expectAgrees(Max, Fmt, Fused, lib::valuesFromInts(In), "max");
  expectAgrees(Max, Fmt, Fused, {}, "empty rejects");
}

TEST_F(FusionTest, ChainOfFourStages) {
  // ToInt-style end-to-end: bytes -> chars -> int (finalizer) -> decimal
  // chars -> bytes.
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Bst Fmt = lib::makeIntToDecimal(Ctx);
  Bst Enc = lib::makeUtf8Encode(Ctx);
  Solver S(Ctx);
  FusionStats Stats;
  Bst Fused = fuseChain({&Dec, &ToInt, &Fmt, &Enc}, S, {}, &Stats);
  EXPECT_TRUE(Fused.wellFormed());
  auto Out = runBst(Fused, lib::valuesFromBytes("0042"));
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(lib::bytesFromValues(*Out), "42");
  EXPECT_GT(Stats.SolverChecks, 0u);
}

TEST_F(FusionTest, RepHtmlEncodeMatchesAntiXss) {
  // §6.1: Rep ⊗ HtmlEncode is equivalent to the hand-fused AntiXss
  // encoder.
  Bst Rep = lib::makeRep(Ctx);
  Bst Html = lib::makeHtmlEncode(Ctx);
  Solver S(Ctx);
  FusionStats Stats;
  Bst Fused = fuse(Rep, Html, S, {}, &Stats);
  EXPECT_TRUE(Fused.wellFormed());

  std::vector<std::u16string> Cases = {
      u"plain text",
      u"<a href=\"x?y&z\">",
      u"\x4E2D\x6587 caf\x00E9",
      u"emoji \xD83D\xDE00 pair",
      u"lone \xD83D high",
      u"lone \xDE00 low",
      u"\xD83D\xD83D\xDE00",
  };
  for (const auto &Sc : Cases) {
    auto Out = runBst(Fused, lib::valuesFromChars(Sc));
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(lib::charsFromValues(*Out), ref::antiXssHtmlEncode(Sc));
  }
}

TEST_F(FusionTest, SelfCompositionOfHtmlEncode) {
  // §3.1 discusses double-encoding: H ⊗ H has unsatisfiable branches
  // (e.g. the guard on an escape's '&' re-entering the encoder).  Verify
  // semantics of the double encoder.
  Bst Html = lib::makeHtmlEncode(Ctx);
  Solver S(Ctx);
  FusionStats Stats;
  Bst Fused = fuse(Html, Html, S, {}, &Stats);
  EXPECT_TRUE(Fused.wellFormed());
  std::u16string In = u"a<b";
  auto Out = runBst(Fused, lib::valuesFromChars(In));
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(lib::charsFromValues(*Out), ref::htmlEncode(ref::htmlEncode(In)));
  EXPECT_GT(Stats.BranchesPruned, 0u)
      << "double-encoding must prune infeasible branches";
}

TEST_F(FusionTest, BruteForceOptionAgreesWithPruned) {
  // Ablation: disabling solver pruning must not change semantics.
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Solver S1(Ctx), S2(Ctx);
  FusionOptions NoPrune;
  NoPrune.SolverPruning = false;
  Bst Pruned = fuse(Dec, ToInt, S1);
  Bst Brute = fuse(Dec, ToInt, S2, NoPrune);
  EXPECT_GE(Brute.numStates(), Pruned.numStates());
  for (const char *In : {"123", "", "9", "12x", "\xC5\x93", "999999"}) {
    auto A = runBst(Pruned, lib::valuesFromBytes(In));
    auto B = runBst(Brute, lib::valuesFromBytes(In));
    ASSERT_EQ(A.has_value(), B.has_value()) << In;
    if (A)
      EXPECT_EQ(*A, *B) << In;
  }
}

TEST_F(FusionTest, FusedRegisterTypeIsPair) {
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Bst Fused = fuse(Dec, ToInt);
  ASSERT_TRUE(Fused.registerType()->isTuple());
  EXPECT_EQ(Fused.registerType()->arity(), 2u);
  EXPECT_EQ(Fused.registerType()->elems()[0], Dec.registerType());
  EXPECT_EQ(Fused.registerType()->elems()[1], ToInt.registerType());
}

TEST_F(FusionTest, StatsReportTime) {
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Solver S(Ctx);
  FusionStats Stats;
  fuse(Dec, ToInt, S, {}, &Stats);
  EXPECT_GE(Stats.Seconds, 0.0);
  EXPECT_GT(Stats.SolverChecks, 0u);
}

// The served echo spec's formatter guards (digit bytes below 0x80 for
// UTF8Encode) are implied by their branch context's bounds, so no check
// may run out of conflict budget.  Asked as full checks, 177 of them
// ended Unknown.
TEST_F(FusionTest, EchoSpecEndsNoCheckUnknown) {
  auto Spec = runtime::PipelineSpec::parse(
      "frontend=regex\npattern=(?:(?<v>\\d+)|\\n)*\nagg=none\n"
      "format=lines\n");
  ASSERT_TRUE(Spec);
  std::string Err;
  auto Stages = runtime::assembleStages(*Spec, Ctx, &Err);
  ASSERT_TRUE(Stages) << Err;
  std::vector<const Bst *> Ptrs;
  for (const Bst &St : *Stages)
    Ptrs.push_back(&St);
  Solver S(Ctx);
  FusionStats Stats;
  Bst Fused = fuseChain(Ptrs, S, {}, &Stats);
  EXPECT_EQ(Fused.numStates(), 6u);
  EXPECT_EQ(S.stats().BudgetExceeded, 0u) << "checks ended Unknown";
  EXPECT_GT(Stats.Implied, 0u);
  EXPECT_EQ(Stats.Implied, S.stats().Implied);
}

} // namespace
