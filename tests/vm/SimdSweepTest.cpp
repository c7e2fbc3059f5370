//===- tests/vm/SimdSweepTest.cpp - Forced-ISA differential sweeps --------===//
//
// The scan kernels are dispatched by ISA level (vm/Simd.h); on a wide
// machine only the widest kernel runs, so this suite forces every level
// the hardware can execute (setActiveLevelForTesting clamps to the
// detected level — the sweep is safe on any box) and re-runs the same
// differential checks under each:
//
//  * scanRunEnd against its scalar reference, on exact-size uint8_t and
//    uint16_t heap buffers so AVX2/AVX-512 block reads past N trip ASan.
//    Every length from 0 to 193 (three 64-byte AVX-512 strides plus a
//    tail) with an escape at every position.
//  * whole-machine oracles: the fast path (nibble run scans, byte tables
//    that change state on every element, wide-domain memo tables)
//    against the bytecode VM on synthetic machines shaped to hit each
//    tier.
//  * the native backend, whose run kernels block-scan with the host's
//    nibbleScanner(), so a forced level reaches generated code too.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeCompile.h"
#include "stdlib/Transducers.h"
#include "stdlib/Values.h"
#include "vm/FastPath.h"
#include "vm/Simd.h"

#include <gtest/gtest.h>

#include <random>

using namespace efc;

namespace {

/// Restores the active dispatch level on scope exit, so a failing sweep
/// cannot leave later tests pinned to a narrow ISA.
struct LevelGuard {
  simd::Level Saved = simd::activeLevel();
  ~LevelGuard() { simd::setActiveLevelForTesting(Saved); }
};

/// Every level this machine can actually execute, narrowest first.
std::vector<simd::Level> runnableLevels() {
  std::vector<simd::Level> Ls;
  for (int L = 0; L <= int(simd::detectedLevel()); ++L)
    Ls.push_back(simd::Level(L));
  return Ls;
}

template <class T>
size_t refScanRunEnd(const std::vector<T> &In, size_t I, size_t N,
                     const RunKernel &RK) {
  while (I < N && RK.covers(In[I]))
    ++I;
  return I;
}

template <typename Pred> RunKernel makeKernel(Pred Member) {
  RunKernel RK;
  int Escape = -1;
  unsigned Misses = 0;
  for (unsigned B = 0; B < 256; ++B) {
    if (Member(B)) {
      RK.Mask[B >> 6] |= uint64_t(1) << (B & 63);
      ++RK.Bytes;
    } else {
      Escape = int(B);
      ++Misses;
    }
  }
  if (Misses == 1)
    RK.SingleEscape = Escape;
  RK.NT = tryEncodeNibbleTable(RK.Mask);
  return RK;
}

// Lengths one short of / at / one past every vector block width.
const size_t BlockLens[] = {0,  1,  7,  8,  15, 16, 17, 31, 32,
                            33, 63, 64, 65, 95, 96, 100};

// Every length up to three AVX-512 strides of bytes plus a tail.
constexpr size_t MaxSweepLen = 193;

/// Start indices checked for one (length, escape position): the buffer
/// start, an odd offset, and the positions around the escape.
std::vector<size_t> startsFor(size_t Len, size_t Pos) {
  std::vector<size_t> Is;
  for (size_t I : {size_t(0), size_t(1), size_t(63), Pos, Pos + 1})
    if (I <= Len)
      Is.push_back(I);
  return Is;
}

/// The sweep of one element type: every length, an escape at every
/// position, under the active level.
template <class T>
void sweepRunEnd(const RunKernel &RK, simd::Level L) {
  for (size_t Len = 0; Len <= MaxSweepLen; ++Len) {
    // All members: the scan must stop exactly at N.
    std::vector<T> In(Len, T('5'));
    EXPECT_EQ(scanRunEnd(In.data(), 0, Len, RK), Len)
        << simd::levelName(L) << " len=" << Len << " elem=" << sizeof(T);
    for (size_t Pos = 0; Pos < Len; ++Pos) {
      std::vector<T> Esc(Len, T('7'));
      Esc[Pos] = ',';
      for (size_t I : startsFor(Len, Pos))
        EXPECT_EQ(scanRunEnd(Esc.data(), I, Len, RK),
                  refScanRunEnd(Esc, I, Len, RK))
            << simd::levelName(L) << " len=" << Len << " pos=" << Pos
            << " I=" << I << " elem=" << sizeof(T);
    }
  }
}

TEST(SimdSweep, ScanRunEndEveryLevelExactBuffers) {
  LevelGuard G;
  RunKernel Digits =
      makeKernel([](unsigned B) { return B >= '0' && B <= '9'; });
  ASSERT_TRUE(Digits.NT.Valid) << "digit set must be shufti-encodable";
  RunKernel Alnum = makeKernel([](unsigned B) {
    return (B >= '0' && B <= '9') || (B >= 'A' && B <= 'Z') ||
           (B >= 'a' && B <= 'z');
  });
  RunKernel NotComma = makeKernel([](unsigned B) { return B != ','; });
  ASSERT_EQ(NotComma.SingleEscape, int(','));
  for (simd::Level L : runnableLevels()) {
    ASSERT_EQ(simd::setActiveLevelForTesting(L), L);
    for (const RunKernel &RK : {Digits, Alnum, NotComma}) {
      sweepRunEnd<uint8_t>(RK, L);
      sweepRunEnd<uint16_t>(RK, L);
    }
  }
}

TEST(SimdSweep, ScanRunEndWideElementsEveryLevel) {
  LevelGuard G;
  RunKernel Digits =
      makeKernel([](unsigned B) { return B >= '0' && B <= '9'; });
  // 16-bit elements whose low byte aliases an in-set byte: the packed
  // compare must see the high byte, at every lane of every block width.
  const uint16_t Alias = uint16_t('5' + 256);
  const uint16_t High = uint16_t('5' + 0xFF00);
  for (simd::Level L : runnableLevels()) {
    ASSERT_EQ(simd::setActiveLevelForTesting(L), L);
    for (uint16_t Wide : {uint16_t(256), Alias, High, uint16_t(0xFFFF)}) {
      for (size_t Len : {size_t(16), size_t(33), size_t(65), size_t(129)}) {
        for (size_t Pos = 0; Pos < Len; ++Pos) {
          std::vector<uint16_t> In(Len, uint16_t('5'));
          In[Pos] = Wide;
          EXPECT_EQ(scanRunEnd(In.data(), 0, Len, Digits), Pos)
              << simd::levelName(L) << " wide=" << Wide << " len=" << Len
              << " pos=" << Pos;
        }
      }
    }
  }
}

TEST(SimdSweep, NibbleEncodingMatchesMaskWhenValid) {
  std::mt19937 Rng(99);
  std::uniform_int_distribution<uint64_t> Word;
  unsigned Encodable = 0;
  for (int Iter = 0; Iter < 500; ++Iter) {
    std::array<uint64_t, 4> Mask{};
    // Mix dense random masks with sparse ones (few hi-nibble rows, the
    // shape that actually encodes).
    if (Iter % 2) {
      for (auto &W : Mask)
        W = Word(Rng);
    } else {
      for (int K = 0; K < 6; ++K) {
        unsigned B = unsigned(Word(Rng) % 256);
        Mask[B >> 6] |= uint64_t(1) << (B & 63);
      }
    }
    NibbleTable NT = tryEncodeNibbleTable(Mask);
    if (!NT.Valid)
      continue;
    ++Encodable;
    for (unsigned B = 0; B < 256; ++B)
      ASSERT_EQ(NT.contains(uint8_t(B)),
                bool((Mask[B >> 6] >> (B & 63)) & 1))
          << "iter=" << Iter << " byte=" << B;
  }
  EXPECT_GT(Encodable, 0u) << "sweep never exercised a valid encoding";
}

//===----------------------------------------------------------------------===//
// Whole-machine oracles under forced levels
//===----------------------------------------------------------------------===//

class SimdOracleTest : public ::testing::Test {
protected:
  TermContext Ctx;

  /// bv(8) copy loop: '\n' emits ';', everything else copies.  The
  /// not-'\n' class becomes a single-escape Copy kernel with a valid
  /// nibble encoding.
  Bst makeCopyLoop() {
    Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 1, 0, Value::bv(8, 0));
    TermRef X = A.inputVar(), R = A.regVar();
    A.setDelta(0, Rule::ite(Ctx.mkEq(X, Ctx.bvConst(8, '\n')),
                            Rule::base({Ctx.bvConst(8, ';')}, 0, R),
                            Rule::base({X}, 0, R)));
    A.setFinalizer(0, Rule::base({}, 0, R));
    return A;
  }

  /// Two states that unconditionally ping-pong with constant emits: every
  /// element changes state through a byte-table Const action.
  Bst makePingPong() {
    Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 2, 0, Value::bv(8, 0));
    TermRef R = A.regVar();
    A.setDelta(0, Rule::base({Ctx.bvConst(8, 0x11)}, 1, R));
    A.setDelta(1, Rule::base({Ctx.bvConst(8, 0x22)}, 0, R));
    A.setFinalizer(0, Rule::base({}, 0, R));
    A.setFinalizer(1, Rule::base({}, 1, R));
    return A;
  }

  /// bv(16) echo whose wide elements emit x+1: [256, 2^16) lands in a
  /// Memo class with per-element pool values.
  Bst makeWidePlusOne() {
    Bst A(Ctx, Ctx.bv(16), Ctx.bv(16), Ctx.bv(16), 1, 0,
          Value::bv(16, 0));
    TermRef X = A.inputVar(), R = A.regVar();
    A.setDelta(0, Rule::ite(Ctx.mkUlt(X, Ctx.bvConst(16, 256)),
                            Rule::base({X}, 0, R),
                            Rule::base({Ctx.mkAdd(X, Ctx.bvConst(16, 1))},
                                       0, R)));
    A.setFinalizer(0, Rule::base({}, 0, R));
    return A;
  }

  /// Fast path vs bytecode VM on \p In, whole-shot and chunked, under
  /// the currently active level.  The whole-shot adapter takes any input;
  /// the chunked legs feed typed pieces (exact-size copies, so reads past
  /// a piece end trip ASan) and run when every element fits the input
  /// type.
  void expectOracle(const FastPathPlan &P, const CompiledTransducer &T,
                    const std::vector<uint64_t> &In, const char *What) {
    auto Ref = T.run(In);
    auto Fast = runFastPath(P, T, In);
    ASSERT_EQ(Ref.has_value(), Fast.has_value()) << What;
    if (Ref) {
      EXPECT_EQ(*Ref, *Fast) << What;
    }
    if (!fitsInputMask(In, P.inputMask()))
      return;
    for (size_t Chunk : {size_t(1), size_t(5), size_t(16), size_t(33)}) {
      FastPathCursor C(P, T);
      auto Got = runNarrowed(
          P.inputWidth(), P.outputWidth(), In,
          [&](const auto *X, size_t N, auto &Out) { return C.feed(X, N, Out); },
          [&](auto &Out) { return C.finish(Out); }, Chunk);
      EXPECT_EQ(Got, Ref) << What << " chunk=" << Chunk;
    }
  }

  /// The native unit vs bytecode VM on \p In, whole-shot and chunked,
  /// under the currently active level, with expectOracle's split between
  /// the whole-shot adapter and the typed chunked legs.
  void expectNative(const NativeTransducer &N, const CompiledTransducer &T,
                    const std::vector<uint64_t> &In, const char *What) {
    auto Ref = T.run(In);
    auto Whole = N.run(In);
    ASSERT_EQ(Ref.has_value(), Whole.has_value()) << What;
    if (Ref) {
      EXPECT_EQ(*Ref, *Whole) << What;
    }
    if (!fitsInputMask(In, N.inputMask()))
      return;
    for (size_t Chunk : {size_t(1), size_t(5), size_t(16), size_t(33)}) {
      std::vector<uint64_t> St(N.stateWords());
      N.streamInit(St.data());
      auto Got = runNarrowed(
          N.inputWidth(), N.outputWidth(), In,
          [&](const auto *X, size_t K, auto &Out) {
            return N.streamFeed(St.data(), X, K, Out);
          },
          [&](auto &Out) { return N.streamFinish(St.data(), Out); }, Chunk);
      EXPECT_EQ(Got, Ref) << What << " chunk=" << Chunk;
    }
  }
};

TEST_F(SimdOracleTest, CopyLoopEveryLevel) {
  LevelGuard G;
  Bst A = makeCopyLoop();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  ASSERT_GE(P.stats().NibbleKernels, 1u)
      << "copy loop must get a shufti-encoded kernel";

  std::mt19937 Rng(7);
  std::uniform_int_distribution<uint64_t> Val(0, 300), Byte(0, 255);
  for (simd::Level L : runnableLevels()) {
    ASSERT_EQ(simd::setActiveLevelForTesting(L), L);
    std::vector<uint64_t> Text;
    for (size_t I = 0; I < 200; ++I)
      Text.push_back(I % 37 == 0 ? uint64_t('\n') : uint64_t('a' + I % 26));
    expectOracle(P, *T, Text, simd::levelName(L));
    std::vector<uint64_t> Mixed(150), Bytes(150);
    for (auto &V : Mixed)
      V = Val(Rng); // includes out-of-range elements (bytecode fallback)
    expectOracle(P, *T, Mixed, simd::levelName(L));
    for (auto &V : Bytes)
      V = Byte(Rng); // every byte value, escapes included
    expectOracle(P, *T, Bytes, simd::levelName(L));
  }
}

TEST_F(SimdOracleTest, NativeCopyLoopEveryLevel) {
  LevelGuard G;
  Bst A = makeCopyLoop();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  std::string Err;
  // One artifact for every level: the level is read by the host scanner
  // on each feed, not baked into the unit.
  auto N = NativeTransducer::compile(A, "simd_sweep_copy", &Err);
  ASSERT_TRUE(N.has_value()) << Err;

  std::mt19937 Rng(7);
  std::uniform_int_distribution<uint64_t> Val(0, 300), Byte(0, 255);
  for (simd::Level L : runnableLevels()) {
    ASSERT_EQ(simd::setActiveLevelForTesting(L), L);
    for (size_t Len : BlockLens) {
      // One run to the end of an exact-size buffer, and the same run
      // with an escape in the last element.
      std::vector<uint64_t> Run(Len, uint64_t('a'));
      expectNative(*N, *T, Run, simd::levelName(L));
      if (Len) {
        Run.back() = '\n';
        expectNative(*N, *T, Run, simd::levelName(L));
      }
    }
    std::vector<uint64_t> Text;
    for (size_t I = 0; I < 200; ++I)
      Text.push_back(I % 37 == 0 ? uint64_t('\n') : uint64_t('a' + I % 26));
    expectNative(*N, *T, Text, simd::levelName(L));
    std::vector<uint64_t> Mixed(150), Bytes(150);
    for (auto &V : Mixed)
      V = Val(Rng); // includes out-of-range elements (bytecode fallback)
    expectNative(*N, *T, Mixed, simd::levelName(L));
    for (auto &V : Bytes)
      V = Byte(Rng); // every byte value, escapes included
    expectNative(*N, *T, Bytes, simd::levelName(L));
  }
}

TEST_F(SimdOracleTest, AlternatingStatesEveryLevel) {
  LevelGuard G;
  Bst A = makePingPong();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  ASSERT_EQ(P.stats().TableStates, 2u) << "both states must get a table";

  for (simd::Level L : runnableLevels()) {
    ASSERT_EQ(simd::setActiveLevelForTesting(L), L);
    for (size_t Len : BlockLens) {
      std::vector<uint64_t> In(Len, uint64_t('x'));
      expectOracle(P, *T, In, simd::levelName(L));
    }
  }
}

TEST_F(SimdOracleTest, WideTableChunkedFeedsEveryLevel) {
  LevelGuard G;
  Bst A = makeWidePlusOne();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  ASSERT_TRUE(P.stateTable(0).Wide.Has)
      << "bv(16) input must get a wide-domain table";

  std::mt19937 Rng(23);
  std::uniform_int_distribution<uint64_t> Elem(0, (1u << 16) - 1);
  std::vector<uint64_t> In(300);
  for (auto &V : In)
    V = Elem(Rng);
  In[17] = 255;   // straddle the byte/wide boundary
  In[18] = 256;
  In[19] = 65535; // top of the domain
  for (simd::Level L : runnableLevels()) {
    ASSERT_EQ(simd::setActiveLevelForTesting(L), L);
    expectOracle(P, *T, In, simd::levelName(L));
  }
  FastPathCursor C(P, *T);
  const std::vector<uint16_t> Chars(In.begin(), In.end());
  std::vector<uint16_t> Out;
  ASSERT_TRUE(C.feed(Chars.data(), Chars.size(), Out));
  EXPECT_GT(C.runCounters().WideElements, 0u)
      << "wide elements must route through the memo pools";
}

} // namespace
