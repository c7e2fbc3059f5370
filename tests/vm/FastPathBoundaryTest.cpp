//===- tests/vm/FastPathBoundaryTest.cpp - Run-scan boundary audit --------===//
//
// Boundary tests for the vectorized run-scan kernels (scanRunEnd) and the
// cross-chunk resume path of FastPathCursor, written to be run under
// AddressSanitizer: every input buffer is an exact-size heap allocation
// of the stream's element type (uint8_t, uint16_t, uint64_t), so any
// SWAR or SSE2 tail read past N trips ASan rather than silently reading
// slack capacity.
//
// The sweep concentrates on the shapes that historically break
// hand-unrolled scanners: spans of length 0/1/3/4/7 ending exactly at N
// (one lane short of every unroll width), escapes in the vector tail,
// and, in the wider streams, elements >= 256 whose low byte aliases an
// in-mask byte (no compare may treat them as members).
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeCompile.h"
#include "stdlib/Transducers.h"
#include "stdlib/Values.h"
#include "support/Metrics.h"
#include "vm/FastPath.h"

#include <gtest/gtest.h>

#include <random>

using namespace efc;

namespace {

/// Runs \p Body once per stream element type.
template <class F> void forEachElemType(F Body) {
  Body(uint8_t());
  Body(uint16_t());
  Body(uint64_t());
}

/// Scalar reference for scanRunEnd: the contract the vector paths must
/// reproduce exactly.
template <class T>
size_t refScanRunEnd(const std::vector<T> &In, size_t I, size_t N,
                     const RunKernel &RK) {
  while (I < N && RK.covers(In[I]))
    ++I;
  return I;
}

/// Builds a kernel whose mask holds every byte satisfying \p Member.
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
  return RK;
}

template <class T>
void sweepAgainstReference(const RunKernel &RK, const std::vector<T> &In,
                           const char *What) {
  const size_t N = In.size();
  for (size_t I = 0; I <= N; ++I)
    EXPECT_EQ(scanRunEnd(In.data(), I, N, RK), refScanRunEnd(In, I, N, RK))
        << What << " I=" << I << " N=" << N << " elem=" << sizeof(T);
}

// Every buffer below is a std::vector of exactly the scanned length: ASan
// red zones sit immediately past index N-1.

TEST(ScanRunEnd, SpansEndingExactlyAtN) {
  RunKernel Digits = makeKernel([](unsigned B) {
    return B >= '0' && B <= '9';
  });
  // Lengths one short of / equal to every unroll width: the scan must
  // stop at N without touching the red zone past the buffer.
  forEachElemType([&](auto E) {
    using T = decltype(E);
    for (size_t Len : {size_t(0), size_t(1), size_t(3), size_t(4), size_t(7),
                       size_t(8), size_t(15), size_t(16), size_t(31),
                       size_t(33), size_t(64), size_t(65), size_t(127)}) {
      std::vector<T> In(Len, T('5'));
      EXPECT_EQ(scanRunEnd(In.data(), 0, Len, Digits), Len) << "len=" << Len;
      sweepAgainstReference(Digits, In, "all-members");
    }
  });
}

TEST(ScanRunEnd, EscapeAtEveryPosition) {
  RunKernel Digits = makeKernel([](unsigned B) {
    return B >= '0' && B <= '9';
  });
  forEachElemType([&](auto E) {
    using T = decltype(E);
    for (size_t Len : {size_t(1), size_t(3), size_t(4), size_t(7),
                       size_t(16), size_t(40), size_t(70)}) {
      for (size_t Pos = 0; Pos < Len; ++Pos) {
        std::vector<T> In(Len, T('7'));
        In[Pos] = ',';
        EXPECT_EQ(scanRunEnd(In.data(), 0, Len, Digits), Pos)
            << "len=" << Len << " pos=" << Pos << " elem=" << sizeof(T);
        sweepAgainstReference(Digits, In, "escape-sweep");
      }
    }
  });
}

TEST(ScanRunEnd, SingleEscapeMaskUsesByteCompare) {
  RunKernel NotComma = makeKernel([](unsigned B) { return B != ','; });
  ASSERT_EQ(NotComma.SingleEscape, int(','));
  forEachElemType([&](auto E) {
    using T = decltype(E);
    for (size_t Len : {size_t(0), size_t(1), size_t(3), size_t(4), size_t(7),
                       size_t(15), size_t(16), size_t(17), size_t(33)}) {
      std::vector<T> In(Len, T('x'));
      EXPECT_EQ(scanRunEnd(In.data(), 0, Len, NotComma), Len) << Len;
      if (Len > 0) {
        In[Len - 1] = ','; // escape in the final (tail) lane
        EXPECT_EQ(scanRunEnd(In.data(), 0, Len, NotComma), Len - 1) << Len;
        sweepAgainstReference(NotComma, In, "single-escape tail");
      }
    }
  });
}

// Elements >= 256 are never run members, even when their low byte aliases
// an in-mask byte — the adversarial case for any compare that truncates
// to 8 bits before testing membership.  Byte streams cannot hold them;
// 16-bit streams can, and 64-bit ones can alias above bit 32 too.
TEST(ScanRunEnd, WideElementsTerminateRuns) {
  RunKernel NotComma = makeKernel([](unsigned B) { return B != ','; });
  RunKernel Digits = makeKernel([](unsigned B) {
    return B >= '0' && B <= '9';
  });
  auto sweep = [&](auto E, std::initializer_list<uint64_t> Wides) {
    using T = decltype(E);
    for (const uint64_t Wide : Wides) {
      for (size_t Len : {size_t(1), size_t(3), size_t(7), size_t(16),
                         size_t(33), size_t(65)}) {
        for (size_t Pos : {size_t(0), Len / 2, Len - 1}) {
          std::vector<T> In(Len, T('x'));
          In[Pos] = T(Wide);
          EXPECT_EQ(scanRunEnd(In.data(), 0, Len, NotComma), Pos)
              << "wide=" << Wide << " len=" << Len << " pos=" << Pos;
          std::vector<T> InD(Len, T('5'));
          InD[Pos] = T(Wide);
          EXPECT_EQ(scanRunEnd(InD.data(), 0, Len, Digits), Pos)
              << "wide=" << Wide << " len=" << Len << " pos=" << Pos;
        }
      }
    }
  };
  const uint64_t AliasX = uint64_t('x') + 256;   // low byte in NotComma
  const uint64_t Alias5 = uint64_t('5') + 0xFF00; // low byte a digit
  sweep(uint16_t(), {uint64_t(256), AliasX, Alias5, uint64_t(0xFFFF)});
  sweep(uint64_t(), {uint64_t(256), AliasX, uint64_t('5') + (1ull << 32),
                     ~uint64_t(0)});
}

TEST(ScanRunEnd, MidBufferStartIndices) {
  // Starting mid-buffer must not realign reads before I.
  RunKernel Digits = makeKernel([](unsigned B) {
    return B >= '0' && B <= '9';
  });
  forEachElemType([&](auto E) {
    using T = decltype(E);
    std::vector<T> In = {',', '1', '2', '3', ',', '4', '5',
                         '6', '7', '8', '9', '0', ','};
    sweepAgainstReference(Digits, In, "mid-buffer");
    EXPECT_EQ(scanRunEnd(In.data(), 1, In.size(), Digits), 4u);
    EXPECT_EQ(scanRunEnd(In.data(), 5, In.size(), Digits), 12u);
    EXPECT_EQ(scanRunEnd(In.data(), 12, In.size(), Digits), 12u);
  });
}

TEST(ScanRunEnd, RandomDifferentialSweep) {
  forEachElemType([&](auto E) {
    using T = decltype(E);
    std::mt19937 Rng(1234);
    // Byte streams draw bytes; wider ones also elements >= 256.
    std::uniform_int_distribution<uint64_t> Val(0, sizeof(T) == 1 ? 255 : 300);
    std::uniform_int_distribution<unsigned> Byte(0, 255);
    for (int Iter = 0; Iter < 200; ++Iter) {
      // Random mask (occasionally single-escape), random length 0..48.
      unsigned Hole = Byte(Rng);
      bool Single = Iter % 3 == 0;
      RunKernel RK = makeKernel([&](unsigned B) {
        return Single ? B != Hole : ((B * 2654435761u) >> 28 & 1) != 0;
      });
      size_t Len = Iter % 49;
      std::vector<T> In(Len);
      for (auto &V : In)
        V = T(Val(Rng));
      sweepAgainstReference(RK, In, "random");
    }
  });
}

//===----------------------------------------------------------------------===//
// FastPathCursor cross-chunk resume
//===----------------------------------------------------------------------===//

class CursorBoundaryTest : public ::testing::Test {
protected:
  TermContext Ctx;

  /// 1 state over bv(8): '\n' emits a marker, everything else copies —
  /// both leaves self-loop, so the plan gets ConstAppend + Copy kernels
  /// with a single-escape mask.
  Bst makeCopyLoop() {
    Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 1, 0, Value::bv(8, 0));
    TermRef X = A.inputVar(), R = A.regVar();
    A.setDelta(0, Rule::ite(Ctx.mkEq(X, Ctx.bvConst(8, '\n')),
                            Rule::base({Ctx.bvConst(8, ';')}, 0, R),
                            Rule::base({X}, 0, R)));
    A.setFinalizer(0, Rule::base({}, 0, R));
    return A;
  }
};

TEST_F(CursorBoundaryTest, ChunkedFeedMatchesOneShotAtRunBoundaries) {
  Bst A = makeCopyLoop();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);
  ASSERT_GE(P.stats().AccelStates, 1u) << "copy loop must be accelerated";

  // Runs of length 0/1/3/4/7 separated by '\n', so with chunk sizes
  // matching the run lengths the spans end exactly at chunk ends.
  std::vector<uint64_t> In;
  for (size_t RunLen : {size_t(0), size_t(1), size_t(3), size_t(4),
                        size_t(7), size_t(4), size_t(3), size_t(1)}) {
    for (size_t I = 0; I < RunLen; ++I)
      In.push_back('a' + I);
    In.push_back('\n');
  }
  auto Want = runFastPath(P, *T, In);
  ASSERT_TRUE(Want.has_value());
  auto Ref = T->run(In);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_EQ(*Want, *Ref);

  for (size_t Chunk : {size_t(1), size_t(2), size_t(3), size_t(4),
                       size_t(5), size_t(7), size_t(8)}) {
    FastPathCursor C(P, *T);
    std::string Got;
    for (size_t I = 0; I < In.size(); I += Chunk) {
      size_t End = std::min(In.size(), I + Chunk);
      // Exact-size copy per chunk: reads past the chunk end trip ASan.
      std::vector<uint8_t> Piece(In.begin() + I, In.begin() + End);
      ASSERT_TRUE(C.feed(Piece.data(), Piece.size(), Got))
          << "chunk=" << Chunk;
    }
    ASSERT_TRUE(C.finish(Got)) << "chunk=" << Chunk;
    EXPECT_EQ(widenElems(Got), *Want) << "chunk=" << Chunk;
  }
}

TEST_F(CursorBoundaryTest, WideElementsFallBackMidChunk) {
  Bst A = makeCopyLoop();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);

  // A byte stream cannot hold an element outside the bv(8) input type,
  // so the uint64_t adapter sends such an input, whole, to the bytecode
  // VM: the result is the VM's, and no run kernel consumed anything.
  auto &RunElems = metrics::Registry::instance().counter(
      "efc_fastpath_run_elements_total", "Elements consumed by run kernels");
  for (const std::vector<uint64_t> &In :
       {std::vector<uint64_t>{'a', 'b', uint64_t('c') + 256, 'd', '\n'},
        std::vector<uint64_t>{'\n', 300, 'e', 'f', 'g', ~uint64_t(0)},
        std::vector<uint64_t>{'e', 'f', 'g', 'h', uint64_t('i') + 256}}) {
    auto Ref = T->run(In);
    uint64_t Before = RunElems.value();
    auto Fast = runFastPath(P, *T, In);
    EXPECT_EQ(RunElems.value(), Before) << "out-of-width input ran typed";
    ASSERT_EQ(Ref.has_value(), Fast.has_value());
    if (Ref) {
      EXPECT_EQ(*Ref, *Fast);
    }
  }
  // The same text within the byte range runs typed, with the kernels.
  std::vector<uint64_t> Bytes = {'a', 'b', 'c', 'd', '\n', 'e', 'f', 'g'};
  uint64_t Before = RunElems.value();
  EXPECT_EQ(runFastPath(P, *T, Bytes), T->run(Bytes));
  EXPECT_GT(RunElems.value(), Before);

  // NativeTransducer::run is the same adapter.  Its unit reads bytes, so
  // only the VM fallback gives the VM's output here: a narrowed stream
  // would copy 'c' where the VM copies 'c' + 256.
  std::string Err;
  auto N = NativeTransducer::compile(A, "boundary_copy", &Err);
  ASSERT_TRUE(N.has_value()) << Err;
  ASSERT_EQ(N->inputWidth(), ElemWidth::U8);
  for (const std::vector<uint64_t> &In :
       {std::vector<uint64_t>{'a', 'b', uint64_t('c') + 256, 'd', '\n'},
        std::vector<uint64_t>{'\n', 300, 'e', 'f', 'g', ~uint64_t(0)},
        Bytes})
    EXPECT_EQ(N->run(In), T->run(In));
}

TEST_F(CursorBoundaryTest, RunCountersAccumulateAcrossChunks) {
  Bst A = makeCopyLoop();
  auto T = CompiledTransducer::compile(A);
  ASSERT_TRUE(T.has_value());
  FastPathPlan P = FastPathPlan::build(A, *T);

  std::vector<uint8_t> In(64, uint8_t('x'));
  FastPathCursor C(P, *T);
  std::string Out;
  for (size_t I = 0; I < In.size(); I += 16) {
    std::vector<uint8_t> Piece(In.begin() + I, In.begin() + I + 16);
    ASSERT_TRUE(C.feed(Piece.data(), Piece.size(), Out));
  }
  ASSERT_TRUE(C.finish(Out));
  // One homogeneous run cut into four chunks: every element must be
  // accounted to run kernels, once.
  EXPECT_EQ(C.runCounters().RunElements, In.size());
  EXPECT_GE(C.runCounters().Runs, 4u);
}

} // namespace
