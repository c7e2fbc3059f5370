//===- vm/FastPath.cpp - Byte-class table construction and driver ---------===//

#include "vm/FastPath.h"

#include "support/EnvParse.h"
#include "support/Metrics.h"

#include "term/Eval.h"
#include "vm/Simd.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <type_traits>
#include <unordered_map>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

using namespace efc;

namespace {

/// True when \p T references no variable other than \p InputVar.  Terms
/// are interned, so sharing makes memoization effective on the large fused
/// rule trees.
bool inputOnly(TermRef T, TermRef InputVar,
               std::unordered_map<TermRef, bool> &Memo) {
  if (T->isVar())
    return T == InputVar;
  if (T->numOperands() == 0)
    return true;
  auto It = Memo.find(T);
  if (It != Memo.end())
    return It->second;
  bool R = true;
  for (TermRef O : T->operands())
    if (!inputOnly(O, InputVar, Memo)) {
      R = false;
      break;
    }
  Memo.emplace(T, R);
  return R;
}

/// True when every guard of \p R reads only \p InputVar: the states a
/// wide table can cover, since it classifies each element by evaluating
/// every guard on the element alone.
bool guardsInputOnly(const Rule *R, TermRef InputVar,
                     std::unordered_map<TermRef, bool> &Memo) {
  while (R->isIte()) {
    if (!inputOnly(R->cond(), InputVar, Memo))
      return false;
    if (!guardsInputOnly(R->thenRule().get(), InputVar, Memo))
      return false;
    R = R->elseRule().get();
  }
  return true;
}

/// Same flattening order as the VM compiler's slot layout (Vm.cpp).
void collectRegLeaves(TermContext &Ctx, TermRef T, std::vector<TermRef> &Out) {
  const Type *Ty = T->type();
  switch (Ty->kind()) {
  case TypeKind::Bool:
  case TypeKind::BitVec:
    Out.push_back(T);
    return;
  case TypeKind::Unit:
    return;
  case TypeKind::Tuple:
    for (unsigned I = 0; I < Ty->arity(); ++I)
      collectRegLeaves(Ctx, Ctx.mkTupleGet(T, I), Out);
    return;
  }
}

Value inputValueAt(const Type *ITy, unsigned W, unsigned B) {
  return ITy->isBool() ? Value::boolV(B != 0) : Value::bv(W, B);
}

} // namespace

FastPathOptions FastPathOptions::fromEnv() {
  FastPathOptions O;
  O.RunAccel = env::flag("EFC_FASTPATH_ACCEL", O.RunAccel);
  O.WideTables = env::flag("EFC_FASTPATH_WIDE", O.WideTables);
  return O;
}

NibbleTable efc::tryEncodeNibbleTable(const std::array<uint64_t, 4> &Mask) {
  NibbleTable NT;
  // Row r(h) = the set of low nibbles present under high nibble h.  Each
  // distinct nonzero row gets one bucket bit; 16 rows but only 8 bucket
  // bits, so > 8 distinct rows is inexpressible in one shuffle pair.
  uint16_t Rows[16];
  for (unsigned H = 0; H < 16; ++H) {
    uint16_t R = 0;
    for (unsigned L = 0; L < 16; ++L) {
      unsigned B = H * 16 + L;
      if ((Mask[B >> 6] >> (B & 63)) & 1)
        R |= uint16_t(1u << L);
    }
    Rows[H] = R;
  }
  uint16_t Distinct[8];
  unsigned NumBuckets = 0;
  for (unsigned H = 0; H < 16; ++H) {
    if (!Rows[H])
      continue; // empty row: Hi stays 0, no byte under h matches
    unsigned Bkt = 0;
    while (Bkt < NumBuckets && Distinct[Bkt] != Rows[H])
      ++Bkt;
    if (Bkt == NumBuckets) {
      if (NumBuckets == 8)
        return NT; // needs a 9th bucket: not encodable
      Distinct[NumBuckets++] = Rows[H];
    }
    NT.Hi[H] = uint8_t(1u << Bkt);
  }
  for (unsigned Bkt = 0; Bkt < NumBuckets; ++Bkt)
    for (unsigned L = 0; L < 16; ++L)
      if ((Distinct[Bkt] >> L) & 1)
        NT.Lo[L] |= uint8_t(1u << Bkt);
  NT.Valid = true;
  return NT;
}

ByteClassTable efc::classifyDeltaByteClasses(const Bst &A, unsigned Q) {
  ByteClassTable R;
  const Type *ITy = A.inputType();
  if (!ITy->isScalar())
    return R;
  unsigned W = ITy->isBool() ? 1 : ITy->width();
  TermRef X = A.inputVar();
  const Rule *Root = A.delta(Q).get();

  std::unordered_map<TermRef, bool> Memo;
  auto inputGuard = [&](const Rule *L) {
    return L->isIte() && inputOnly(L->cond(), X, Memo);
  };
  if (Root->isIte() && !inputGuard(Root))
    return R;

  R.Eligible = true;
  R.ValidBytes = W >= 8 ? 256u : (1u << W);
  std::unordered_map<const Rule *, uint16_t> Ids;
  for (unsigned B = 0; B < R.ValidBytes; ++B) {
    Env E;
    E.bind(X, inputValueAt(ITy, W, B));
    const Rule *L = Root;
    while (inputGuard(L))
      L = evalTerm(L->cond(), E).boolValue() ? L->thenRule().get()
                                             : L->elseRule().get();
    auto [It, New] = Ids.emplace(L, uint16_t(R.Leaves.size()));
    if (New)
      R.Leaves.push_back(L);
    R.Class[B] = It->second;
  }
  // Padding entries (only when W < 8) get the sentinel class; the VM
  // dispatches them to bytecode and the codegen switch falls through to
  // the original guard chain.
  for (unsigned B = R.ValidBytes; B < 256; ++B)
    R.Class[B] = uint16_t(R.Leaves.size());
  return R;
}

std::vector<RunKernel> efc::classifyRunKernels(const Bst &A, unsigned Q,
                                               const ByteClassTable &C) {
  std::vector<RunKernel> Runs;
  if (!C.Eligible)
    return Runs;
  TermContext &Ctx = A.context();
  TermRef X = A.inputVar();
  std::vector<TermRef> OldLeaves;
  collectRegLeaves(Ctx, A.regVar(), OldLeaves);

  // One kernel per distinct (kind, emits, writes) effect; classes sharing
  // an effect share the kernel's byte mask.
  std::map<std::string, unsigned> Ids;
  std::vector<TermRef> NewLeaves;
  for (uint16_t K = 0; K < C.numClasses(); ++K) {
    const Rule *L = C.Leaves[K];
    if (!L->isBase() || L->target() != Q)
      continue;
    // Every changed register leaf must be a constant term: constant
    // writes repeated over a span are idempotent, so the kernel applies
    // them once.  Leaves are compared syntactically (interned terms, so
    // pointer equality is exact).
    NewLeaves.clear();
    collectRegLeaves(Ctx, L->update(), NewLeaves);
    std::vector<std::pair<uint16_t, uint64_t>> Writes;
    bool Ok = NewLeaves.size() == OldLeaves.size();
    for (unsigned I = 0; Ok && I < OldLeaves.size(); ++I) {
      if (NewLeaves[I] == OldLeaves[I])
        continue;
      if (NewLeaves[I]->isConst())
        Writes.push_back({uint16_t(I), NewLeaves[I]->constBits()});
      else
        Ok = false;
    }
    if (!Ok)
      continue;

    RunKernel::Kind Kind;
    std::vector<uint64_t> Emits;
    if (L->outputs().empty()) {
      Kind = RunKernel::Kind::Skip;
    } else if (L->outputs().size() == 1 && L->outputs()[0] == X) {
      Kind = RunKernel::Kind::Copy;
    } else {
      Kind = RunKernel::Kind::ConstAppend;
      bool AllConst = true;
      for (TermRef O : L->outputs()) {
        if (!O->isConst()) {
          AllConst = false;
          break;
        }
        Emits.push_back(O->constBits());
      }
      if (!AllConst)
        continue;
    }

    std::string Key(1, char(Kind));
    for (uint64_t V : Emits)
      Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
    Key.push_back('|');
    for (auto &[Slot, V] : Writes) {
      Key.append(reinterpret_cast<const char *>(&Slot), sizeof(Slot));
      Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
    }
    auto It = Ids.find(Key);
    if (It == Ids.end()) {
      if (Runs.size() >= FastPathPlan::NoRun)
        continue;
      It = Ids.emplace(Key, unsigned(Runs.size())).first;
      RunKernel RK;
      RK.K = Kind;
      RK.Emits = std::move(Emits);
      RK.Writes = std::move(Writes);
      Runs.push_back(std::move(RK));
    }
    RunKernel &RK = Runs[It->second];
    RK.Classes.push_back(K);
    for (unsigned B = 0; B < C.ValidBytes; ++B)
      if (C.Class[B] == K)
        RK.Mask[B >> 6] |= uint64_t(1) << (B & 63);
  }

  for (RunKernel &RK : Runs) {
    unsigned N = 0;
    for (uint64_t Wd : RK.Mask)
      N += unsigned(__builtin_popcountll(Wd));
    RK.Bytes = N;
    // memchr-style specialization: every in-range byte loops except one.
    if (C.ValidBytes == 256 && N == 255)
      for (unsigned B = 0; B < 256; ++B)
        if (!RK.covers(B)) {
          RK.SingleEscape = int(B);
          break;
        }
    // Shuffle-table encoding for the AVX2/AVX-512 block scanners.  Part
    // of the kernel (and therefore of the codegen classifier hash): the
    // VM and generated C++ must classify with the same tables.
    RK.NT = tryEncodeNibbleTable(RK.Mask);
  }
  return Runs;
}

//===----------------------------------------------------------------------===//
// SIMD scan kernels.  One function pointer per ISA level and element
// type, selected once by cpuid (simd::activeLevel); EFC_SIMD forces a
// lower level.  Every vectorized loop bails out of the vector stride on
// the first block containing an escape (or, in a 16-bit stream, an
// element >= 256) and lets the narrower kernel below it pin down the
// exact span end, so all levels return identical indices and ASan-exact
// buffers see no overread beyond the checked stride.
//===----------------------------------------------------------------------===//

namespace {

/// Scalar SWAR: four elements per iteration.  Wider streams test the OR
/// of the four for an element >= 256; in a byte stream the test folds
/// away.
template <class T>
EFC_HOT_ALIGN size_t scanMaskScalar(const T *In, size_t I, size_t N,
                                    const RunKernel &RK) {
  const std::array<uint64_t, 4> &M = RK.Mask;
  if (RK.SingleEscape >= 0) {
    const uint64_t Esc = uint64_t(RK.SingleEscape);
    while (I + 4 <= N) {
      uint64_t A = In[I], B = In[I + 1], C = In[I + 2], D = In[I + 3];
      if (((A | B | C | D) >> 8) || A == Esc || B == Esc || C == Esc ||
          D == Esc)
        break;
      I += 4;
    }
    while (I < N && uint64_t(In[I]) < 256 && In[I] != Esc)
      ++I;
    return I;
  }
  while (I + 4 <= N) {
    uint64_t A = In[I], B = In[I + 1], C = In[I + 2], D = In[I + 3];
    if ((A | B | C | D) >> 8)
      break;
    if (!((M[A >> 6] >> (A & 63)) & (M[B >> 6] >> (B & 63)) &
          (M[C >> 6] >> (C & 63)) & (M[D >> 6] >> (D & 63)) & 1))
      break;
    I += 4;
  }
  for (; I < N; ++I) {
    uint64_t X = In[I];
    if (X >= 256 || !((M[X >> 6] >> (X & 63)) & 1))
      break;
  }
  return I;
}

/// Below AVX2 the block scan is a no-op: the scalar tails do the work.
template <class T>
EFC_HOT_ALIGN size_t nibbleBlocksNone(const T *, size_t I, size_t,
                                      const uint8_t *, const uint8_t *) {
  return I;
}

#if defined(__x86_64__)

/// SSE2 (x86-64 baseline), byte streams: single-escape masks compare 16
/// bytes per load and return the escape's exact index.  Multi-class masks
/// stay on SWAR (pshufb needs SSSE3).
EFC_HOT_ALIGN size_t scanMaskSse2(const uint8_t *In, size_t I, size_t N,
                                  const RunKernel &RK) {
  if (RK.SingleEscape >= 0) {
    const __m128i VEsc = _mm_set1_epi8(char(RK.SingleEscape));
    for (; I + 16 <= N; I += 16) {
      __m128i V = _mm_loadu_si128(reinterpret_cast<const __m128i *>(In + I));
      if (unsigned Hit = unsigned(_mm_movemask_epi8(_mm_cmpeq_epi8(V, VEsc))))
        return I + unsigned(__builtin_ctz(Hit));
    }
  }
  return scanMaskScalar(In, I, N, RK);
}

/// Byte membership of 32 bytes through the two-nibble-table shuffle:
/// byte b is in the set <=> Lo[b & 15] & Hi[b >> 4] != 0.  Returns a bit
/// per byte position that escapes.
__attribute__((target("avx2"))) inline unsigned
nibbleEscapes(__m256i B, __m256i Lo2, __m256i Hi2) {
  const __m256i Nib = _mm256_set1_epi8(0x0F);
  __m256i Cls = _mm256_and_si256(
      _mm256_shuffle_epi8(Lo2, _mm256_and_si256(B, Nib)),
      _mm256_shuffle_epi8(Hi2, _mm256_and_si256(_mm256_srli_epi16(B, 4), Nib)));
  return unsigned(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(Cls, _mm256_setzero_si256())));
}

__attribute__((target("avx2"))) inline __m256i broadcast16(const uint8_t *P) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(P)));
}

/// AVX2: 32 elements per iteration.  A byte stream classifies one load; a
/// 16-bit stream range-checks two loads and packs them to bytes (lane-
/// interleaved, which the all-bytes-pass test does not care about).
template <class T>
EFC_HOT_ALIGN __attribute__((target("avx2"))) size_t
nibbleBlocksAvx2(const T *In, size_t I, size_t N, const uint8_t *Lo,
                 const uint8_t *Hi) {
  static_assert(sizeof(T) <= 2, "no vector scan for 64-bit elements");
  const __m256i Lo2 = broadcast16(Lo), Hi2 = broadcast16(Hi);
  for (; I + 32 <= N; I += 32) {
    __m256i B;
    if constexpr (sizeof(T) == 1) {
      B = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(In + I));
    } else {
      __m256i V0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(In + I));
      __m256i V1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(In + I + 16));
      if (!_mm256_testz_si256(_mm256_or_si256(V0, V1),
                              _mm256_set1_epi16(short(0xFF00))))
        break; // some element >= 256
      B = _mm256_packus_epi16(V0, V1);
    }
    if (nibbleEscapes(B, Lo2, Hi2))
      break;
  }
  return I;
}

/// AVX-512: 64 elements per iteration, then AVX2 blocks.  A byte stream
/// classifies one 64-byte load with no range test; a 16-bit stream
/// range-checks two loads and packs them.
template <class T>
EFC_HOT_ALIGN __attribute__((target("avx512f,avx512bw,avx512vl,avx2"))) size_t
nibbleBlocksAvx512(const T *In, size_t I, size_t N, const uint8_t *Lo,
                   const uint8_t *Hi) {
  static_assert(sizeof(T) <= 2, "no vector scan for 64-bit elements");
  // The zero-masking broadcast: GCC's unmasked one reads an undefined
  // vector and trips -Wuninitialized.
  const __m512i Lo4 = _mm512_maskz_broadcast_i32x4(
      __mmask16(0xFFFF),
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(Lo)));
  const __m512i Hi4 = _mm512_maskz_broadcast_i32x4(
      __mmask16(0xFFFF),
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(Hi)));
  const __m512i Nib = _mm512_set1_epi8(0x0F);
  for (; I + 64 <= N; I += 64) {
    __m512i B;
    if constexpr (sizeof(T) == 1) {
      B = _mm512_loadu_si512(In + I);
    } else {
      __m512i V0 = _mm512_loadu_si512(In + I);
      __m512i V1 = _mm512_loadu_si512(In + I + 32);
      if (_mm512_test_epi16_mask(_mm512_or_si512(V0, V1),
                                 _mm512_set1_epi16(short(0xFF00))))
        break; // some element >= 256
      B = _mm512_packus_epi16(V0, V1);
    }
    __m512i Cls = _mm512_and_si512(
        _mm512_shuffle_epi8(Lo4, _mm512_and_si512(B, Nib)),
        _mm512_shuffle_epi8(Hi4,
                            _mm512_and_si512(_mm512_srli_epi16(B, 4), Nib)));
    if (_mm512_testn_epi8_mask(Cls, Cls))
      break;
  }
  return nibbleBlocksAvx2(In, I, N, Lo, Hi);
}

/// AVX2 and AVX-512 run ends: whole nibble-classified blocks through the
/// loops nibbleScanner() hands to native code, then SSE2 (bytes) or SWAR
/// pins down the span end.
template <class T, NibbleScanFnOf<T> Blocks>
EFC_HOT_ALIGN size_t scanMaskNibble(const T *In, size_t I, size_t N,
                                    const RunKernel &RK) {
  if (RK.NT.Valid)
    I = Blocks(In, I, N, RK.NT.Lo.data(), RK.NT.Hi.data());
  if constexpr (sizeof(T) == 1)
    return scanMaskSse2(In, I, N, RK);
  else
    return scanMaskScalar(In, I, N, RK);
}

#endif // __x86_64__

template <class T>
using ScanFn = size_t (*)(const T *, size_t, size_t, const RunKernel &);

/// Per-level kernels of one element type, indexed by simd::Level.
template <class T> struct Kernels {
  static constexpr ScanFn<T> Scan[4] = {scanMaskScalar<T>, scanMaskScalar<T>,
                                        scanMaskScalar<T>, scanMaskScalar<T>};
  static constexpr NibbleScanFnOf<T> Nibble[4] = {
      nibbleBlocksNone<T>, nibbleBlocksNone<T>, nibbleBlocksNone<T>,
      nibbleBlocksNone<T>};
};

#if defined(__x86_64__)
template <> struct Kernels<uint8_t> {
  using T = uint8_t;
  static constexpr ScanFn<T> Scan[4] = {
      scanMaskScalar<T>, scanMaskSse2,
      scanMaskNibble<T, nibbleBlocksAvx2<T>>,
      scanMaskNibble<T, nibbleBlocksAvx512<T>>};
  static constexpr NibbleScanFnOf<T> Nibble[4] = {
      nibbleBlocksNone<T>, nibbleBlocksNone<T>, nibbleBlocksAvx2<T>,
      nibbleBlocksAvx512<T>};
};

template <> struct Kernels<uint16_t> {
  using T = uint16_t;
  static constexpr ScanFn<T> Scan[4] = {
      scanMaskScalar<T>, scanMaskScalar<T>,
      scanMaskNibble<T, nibbleBlocksAvx2<T>>,
      scanMaskNibble<T, nibbleBlocksAvx512<T>>};
  static constexpr NibbleScanFnOf<T> Nibble[4] = {
      nibbleBlocksNone<T>, nibbleBlocksNone<T>, nibbleBlocksAvx2<T>,
      nibbleBlocksAvx512<T>};
};
#endif

} // namespace

template <class T> NibbleScanFnOf<T> efc::nibbleScanner() {
  return Kernels<T>::Nibble[int(simd::activeLevel())];
}

template <class T>
size_t efc::scanRunEnd(const T *In, size_t I, size_t N, const RunKernel &RK) {
  return Kernels<T>::Scan[int(simd::activeLevel())](In, I, N, RK);
}

#define EFC_SCANNERS(T)                                                        \
  template NibbleScanFnOf<T> efc::nibbleScanner<T>();                          \
  template size_t efc::scanRunEnd(const T *, size_t, size_t,                   \
                                  const RunKernel &);
EFC_SCANNERS(uint8_t)
EFC_SCANNERS(uint16_t)
EFC_SCANNERS(uint64_t)
#undef EFC_SCANNERS

std::string efc::explainFastPath(const Bst &A) {
  std::string S;
  char Buf[192];
  std::snprintf(Buf, sizeof Buf, "simd: detected %s, active %s\n",
                simd::levelName(simd::detectedLevel()),
                simd::levelName(simd::activeLevel()));
  S += Buf;
  const Type *ITy = A.inputType();
  unsigned IW = !ITy->isScalar() ? 0 : ITy->isBool() ? 1 : ITy->width();
  unsigned TableStates = 0, AccelStates = 0, ResidualClasses = 0;
  std::unordered_map<TermRef, bool> IOMemo;
  for (unsigned Q = 0, N = A.numStates(); Q < N; ++Q) {
    ByteClassTable C = classifyDeltaByteClasses(A, Q);
    if (!C.Eligible) {
      std::snprintf(Buf, sizeof Buf,
                    "state %u: fallback (register-guarded root or "
                    "non-scalar input), bytecode only\n",
                    Q);
      S += Buf;
      continue;
    }
    ++TableStates;
    std::vector<RunKernel> Runs = classifyRunKernels(A, Q, C);
    unsigned SelfLoop = 0;
    for (const RunKernel &RK : Runs)
      SelfLoop += unsigned(RK.Classes.size());
    std::snprintf(Buf, sizeof Buf,
                  "state %u: eligible, %u valid bytes, %u classes, "
                  "%u self-loop class%s, %zu run kernel%s\n",
                  Q, C.ValidBytes, C.numClasses(), SelfLoop,
                  SelfLoop == 1 ? "" : "es", Runs.size(),
                  Runs.size() == 1 ? "" : "s");
    S += Buf;
    // Residual classes: the walk stopped at a register guard, and the
    // class runs the subtree below it as one branching program.
    for (unsigned K = 0; K < C.numClasses(); ++K) {
      if (!C.Leaves[K]->isIte())
        continue;
      ++ResidualClasses;
      unsigned Bytes = 0;
      for (unsigned B = 0; B < C.ValidBytes; ++B)
        Bytes += C.Class[B] == K;
      auto Prog = compileRuleProgram(A, C.Leaves[K], /*IsFinalizer=*/false);
      std::snprintf(Buf, sizeof Buf,
                    "  class %u: residual program, %zu instructions, %u "
                    "byte%s\n",
                    K, Prog ? Prog->Code.size() : size_t(0), Bytes,
                    Bytes == 1 ? "" : "s");
      S += Buf;
    }
    if (!Runs.empty())
      ++AccelStates;
    for (const RunKernel &RK : Runs) {
      const char *Kind = RK.K == RunKernel::Kind::Skip   ? "skip"
                         : RK.K == RunKernel::Kind::Copy ? "copy"
                                                         : "const-append";
      std::snprintf(Buf, sizeof Buf, "  kernel %s: %u byte%s", Kind, RK.Bytes,
                    RK.Bytes == 1 ? "" : "s");
      S += Buf;
      if (RK.SingleEscape >= 0) {
        std::snprintf(Buf, sizeof Buf, ", single escape 0x%02x",
                      unsigned(RK.SingleEscape));
        S += Buf;
      }
      if (!RK.Emits.empty()) {
        S += ", emits [";
        for (size_t J = 0; J < RK.Emits.size(); ++J) {
          std::snprintf(Buf, sizeof Buf, "%s%llu", J ? " " : "",
                        (unsigned long long)RK.Emits[J]);
          S += Buf;
        }
        S += "]";
      }
      if (!RK.Writes.empty()) {
        S += ", writes {";
        for (size_t J = 0; J < RK.Writes.size(); ++J) {
          std::snprintf(Buf, sizeof Buf, "%sr%u<-%llu", J ? " " : "",
                        unsigned(RK.Writes[J].first),
                        (unsigned long long)RK.Writes[J].second);
          S += Buf;
        }
        S += "}";
      }
      S += ", classes {";
      for (size_t J = 0; J < RK.Classes.size(); ++J) {
        std::snprintf(Buf, sizeof Buf, "%s%u", J ? " " : "",
                      unsigned(RK.Classes[J]));
        S += Buf;
      }
      S += "}\n";
      if (RK.NT.Valid) {
        S += "    nibble lo=[";
        for (unsigned J = 0; J < 16; ++J) {
          std::snprintf(Buf, sizeof Buf, "%s%02x", J ? " " : "", RK.NT.Lo[J]);
          S += Buf;
        }
        S += "] hi=[";
        for (unsigned J = 0; J < 16; ++J) {
          std::snprintf(Buf, sizeof Buf, "%s%02x", J ? " " : "", RK.NT.Hi[J]);
          S += Buf;
        }
        S += "]\n";
      } else {
        S += "    nibble: not encodable (> 8 bucket rows), SWAR fallback\n";
      }
    }
    if (IW > 8 && IW <= 16 &&
        guardsInputOnly(A.delta(Q).get(), A.inputVar(), IOMemo)) {
      std::snprintf(Buf, sizeof Buf,
                    "  wide tier: elements [256, %u) memoized at plan "
                    "build (EFC_FASTPATH_WIDE=0 disables)\n",
                    1u << IW);
      S += Buf;
    }
  }
  std::snprintf(Buf, sizeof Buf,
                "summary: %u/%u states tabulated, %u run-accelerated, %u "
                "residual class%s\n",
                TableStates, A.numStates(), AccelStates, ResidualClasses,
                ResidualClasses == 1 ? "" : "es");
  S += Buf;
  return S;
}

namespace {

/// Builds the wide-domain table of state \p Q: classifies every element
/// of [0, 2^W) to its leaf via per-guard bitmaps (each distinct guard
/// term is evaluated once per element with the reference evaluator,
/// memoized across the whole domain), then memoizes constant effects
/// into the shared pools.  The driver consults the table for elements
/// in [256, Limit); entries below 256 are kept so the equivalence
/// checker can cross-validate against the byte tables.
void buildWideTable(const Bst &A, const CompiledTransducer &T, unsigned Q,
                    FastPathPlan::StateTable &ST, unsigned W,
                    const std::vector<TermRef> &OldLeaves,
                    std::unordered_map<TermRef, bool> &IOMemo,
                    FastPathPlan::Stats &S) {
  TermContext &Ctx = A.context();
  TermRef X = A.inputVar();
  const Rule *Root = A.delta(Q).get();
  const uint32_t Limit = 1u << W;

  WideTable WT;
  WT.Limit = Limit;
  WT.ClassOf.resize(Limit);

  // Distinct guard terms are shared heavily across the fused rule tree;
  // one bitmap per term makes the per-element walk O(depth) bit tests.
  std::unordered_map<TermRef, std::vector<uint64_t>> CondBits;
  auto condAt = [&](TermRef C, uint32_t B) -> bool {
    auto It = CondBits.find(C);
    if (It == CondBits.end()) {
      std::vector<uint64_t> Bits((Limit + 63) / 64);
      for (uint32_t V = 0; V < Limit; ++V) {
        Env E;
        E.bind(X, Value::bv(W, V));
        if (evalTerm(C, E).boolValue())
          Bits[V >> 6] |= uint64_t(1) << (V & 63);
      }
      It = CondBits.emplace(C, std::move(Bits)).first;
    }
    return (It->second[B >> 6] >> (B & 63)) & 1;
  };

  std::unordered_map<const Rule *, uint16_t> Ids;
  std::vector<const Rule *> Leaves;
  for (uint32_t B = 0; B < Limit; ++B) {
    const Rule *L = Root;
    while (L->isIte())
      L = condAt(L->cond(), B) ? L->thenRule().get() : L->elseRule().get();
    auto [It, New] = Ids.emplace(L, uint16_t(Leaves.size()));
    if (New) {
      if (Leaves.size() >= 0xFFFE)
        return; // class id space exhausted; keep bytecode for wide elements
      Leaves.push_back(L);
    }
    WT.ClassOf[B] = It->second;
  }

  struct MemoInfo {
    std::vector<unsigned> ChangedIdx;
    std::vector<TermRef> NewLeaves;
  };
  std::vector<MemoInfo> MI(Leaves.size());
  bool AnyMemo = false;
  for (size_t K = 0; K < Leaves.size(); ++K) {
    const Rule *L = Leaves[K];
    WideTable::Class C;
    if (L->isUndef()) {
      C.K = WideTable::Class::Kind::Reject;
      ++S.WideRejectClasses;
      WT.Classes.push_back(std::move(C));
      continue;
    }
    MemoInfo &M = MI[K];
    collectRegLeaves(Ctx, L->update(), M.NewLeaves);
    assert(M.NewLeaves.size() == OldLeaves.size());
    for (unsigned I = 0; I < OldLeaves.size(); ++I)
      if (M.NewLeaves[I] != OldLeaves[I])
        M.ChangedIdx.push_back(I);
    bool Foldable = true;
    for (TermRef O : L->outputs())
      if (!inputOnly(O, X, IOMemo)) {
        Foldable = false;
        break;
      }
    if (Foldable)
      for (unsigned I : M.ChangedIdx)
        if (!inputOnly(M.NewLeaves[I], X, IOMemo)) {
          Foldable = false;
          break;
        }
    if (Foldable) {
      C.K = WideTable::Class::Kind::Memo;
      C.Target = L->target();
      AnyMemo = true;
      ++S.WideMemoClasses;
    } else {
      unsigned MaxSlot = 0;
      auto Prog = compileRuleProgram(A, L, /*IsFinalizer=*/false, &MaxSlot);
      if (Prog && MaxSlot + 1 <= T.numSlots()) {
        C.K = WideTable::Class::Kind::Program;
        C.Target = L->target();
        C.Code = std::move(*Prog);
        ++S.WideProgramClasses;
      } // else: defensive Fallback (bytecode per element)
    }
    WT.Classes.push_back(std::move(C));
  }

  if (AnyMemo) {
    WT.EmitOff.resize(Limit + 1);
    WT.WriteOff.resize(Limit + 1);
    const Type *ITy = A.inputType();
    for (uint32_t B = 0; B < Limit; ++B) {
      WT.EmitOff[B] = uint32_t(WT.EmitPool.size());
      WT.WriteOff[B] = uint32_t(WT.WritePool.size());
      uint16_t K = WT.ClassOf[B];
      if (WT.Classes[K].K != WideTable::Class::Kind::Memo)
        continue;
      const Rule *L = Leaves[K];
      Env E;
      E.bind(X, Value::bv(ITy->width(), B));
      for (TermRef O : L->outputs())
        WT.EmitPool.push_back(evalTerm(O, E).bits());
      for (unsigned I : MI[K].ChangedIdx)
        WT.WritePool.push_back(
            {uint16_t(I), evalTerm(MI[K].NewLeaves[I], E).bits()});
      if (B >= 256)
        ++S.WideMemoElements;
    }
    WT.EmitOff[Limit] = uint32_t(WT.EmitPool.size());
    WT.WriteOff[Limit] = uint32_t(WT.WritePool.size());
  }

  WT.Has = true;
  ++S.WideStates;
  ST.Wide = std::move(WT);
}

} // namespace

FastPathPlan FastPathPlan::build(const Bst &A, const CompiledTransducer &T,
                                 const FastPathOptions &Opts) {
  FastPathPlan P;
  unsigned N = A.numStates();
  P.States.resize(N);
  // NoRun (0xFF) is the "no kernel" sentinel, but the array
  // zero-initializes — and 0 is a valid kernel index.  Fill every state,
  // table-eligible or not, so stale zeros can never alias kernel 0.
  for (StateTable &ST : P.States)
    ST.RunId.fill(NoRun);

  const Type *ITy = A.inputType();
  P.InW = elemWidthOf(ITy);
  P.OutW = elemWidthOf(A.outputType());
  if (!ITy->isScalar()) {
    P.S.FallbackStates = N;
    return P;
  }
  unsigned W = ITy->isBool() ? 1 : ITy->width();
  P.InMask = Value::maskOf(W);
  TermRef X = A.inputVar();
  TermContext &Ctx = A.context();

  std::vector<TermRef> OldLeaves;
  collectRegLeaves(Ctx, A.regVar(), OldLeaves);
  std::unordered_map<TermRef, bool> IOMemo;

  for (unsigned Q = 0; Q < N; ++Q) {
    ByteClassTable C = classifyDeltaByteClasses(A, Q);
    if (!C.Eligible) {
      ++P.S.FallbackStates;
      continue;
    }
    StateTable &ST = P.States[Q];
    ST.Actions.emplace_back(); // index 0: the Fallback action
    for (unsigned B = C.ValidBytes; B < 256; ++B)
      ST.Dispatch[B] = 0;

    // Per-class action resolution: Undef -> Reject; leaves whose outputs
    // and changed register updates are input-only fold to per-byte Const
    // (or Jump) actions; any other leaf, and every residual subtree (the
    // classification stopped at a register guard), gets one program
    // shared by every byte of the class.
    struct ClassPlan {
      int FixedAction = -1; // Reject / Program / Fallback action id
      bool ConstAble = false;
      std::vector<unsigned> ChangedIdx; // register leaves that change
      std::vector<TermRef> NewLeaves;
    };
    std::vector<ClassPlan> CP(C.numClasses());
    for (unsigned K = 0; K < C.numClasses(); ++K) {
      const Rule *L = C.Leaves[K];
      ClassPlan &Plan = CP[K];
      if (L->isUndef()) {
        Plan.FixedAction = int(ST.Actions.size());
        Action Rej;
        Rej.K = Action::Kind::Reject;
        ST.Actions.push_back(std::move(Rej));
        continue;
      }
      if (L->isBase()) {
        collectRegLeaves(Ctx, L->update(), Plan.NewLeaves);
        assert(Plan.NewLeaves.size() == OldLeaves.size());
        for (unsigned I = 0; I < OldLeaves.size(); ++I)
          if (Plan.NewLeaves[I] != OldLeaves[I])
            Plan.ChangedIdx.push_back(I);

        bool Foldable = true;
        for (TermRef O : L->outputs())
          if (!inputOnly(O, X, IOMemo)) {
            Foldable = false;
            break;
          }
        if (Foldable)
          for (unsigned I : Plan.ChangedIdx)
            if (!inputOnly(Plan.NewLeaves[I], X, IOMemo)) {
              Foldable = false;
              break;
            }
        if (Foldable) {
          Plan.ConstAble = true;
          continue;
        }
      }
      unsigned MaxSlot = 0;
      auto Prog = compileRuleProgram(A, L, /*IsFinalizer=*/false, &MaxSlot);
      if (!Prog || MaxSlot + 1 > T.numSlots()) {
        // Leaf needs more temp slots than the cursor allocates (cannot
        // happen for leaves of this Bst's own rules, but stay defensive):
        // keep those bytes on the bytecode path.
        Plan.FixedAction = 0;
        continue;
      }
      Plan.FixedAction = int(ST.Actions.size());
      Action PA;
      PA.K = Action::Kind::Program;
      PA.Code = std::move(*Prog);
      ST.Actions.push_back(std::move(PA));
      ++P.S.ProgramActions;
      if (L->isIte())
        ++P.S.ResidualActions;
    }

    // Per-byte dispatch: fold Const/Jump actions and dedup them so runs of
    // equivalent bytes share one action (cache-friendly tables).
    std::map<std::string, uint16_t> ConstIds;
    for (unsigned B = 0; B < C.ValidBytes; ++B) {
      const ClassPlan &Plan = CP[C.Class[B]];
      if (Plan.FixedAction >= 0) {
        ST.Dispatch[B] = uint16_t(Plan.FixedAction);
        continue;
      }
      const Rule *L = C.Leaves[C.Class[B]];
      Env E;
      E.bind(X, inputValueAt(ITy, W, B));
      Action Act;
      Act.Target = L->target();
      for (TermRef O : L->outputs())
        Act.Emits.push_back(evalTerm(O, E).bits());
      for (unsigned I : Plan.ChangedIdx)
        Act.Writes.push_back(
            {uint16_t(I), evalTerm(Plan.NewLeaves[I], E).bits()});
      Act.K = (Act.Emits.empty() && Act.Writes.empty()) ? Action::Kind::Jump
                                                        : Action::Kind::Const;
      std::string Key;
      Key.reserve(16 + 8 * Act.Emits.size() + 10 * Act.Writes.size());
      Key.append(reinterpret_cast<const char *>(&Act.Target),
                 sizeof(Act.Target));
      Key.push_back(char(Act.K));
      for (uint64_t V : Act.Emits)
        Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
      Key.push_back('|');
      for (auto &[Slot, V] : Act.Writes) {
        Key.append(reinterpret_cast<const char *>(&Slot), sizeof(Slot));
        Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
      }
      auto [It, New] = ConstIds.emplace(Key, uint16_t(ST.Actions.size()));
      if (New) {
        if (Act.K == Action::Kind::Jump)
          ++P.S.JumpActions;
        else
          ++P.S.ConstActions;
        ST.Actions.push_back(std::move(Act));
      }
      ST.Dispatch[B] = It->second;
    }
    ST.HasTable = true;
    ++P.S.TableStates;

    // Run acceleration: fold self-loop classes into bulk kernels.  The
    // byte -> kernel map is consulted before Dispatch, so a kernel byte
    // short-circuits per-element dispatch for the whole span.
    if (Opts.RunAccel) {
      ST.Runs = classifyRunKernels(A, Q, C);
      for (unsigned R = 0; R < ST.Runs.size(); ++R)
        for (unsigned B = 0; B < 256; ++B)
          if (ST.Runs[R].covers(B))
            ST.RunId[B] = uint8_t(R);
      if (!ST.Runs.empty())
        ++P.S.AccelStates;
      for (const RunKernel &RK : ST.Runs) {
        P.S.AccelBytes += RK.Bytes;
        if (RK.NT.Valid)
          ++P.S.NibbleKernels;
        switch (RK.K) {
        case RunKernel::Kind::Skip:
          ++P.S.SkipKernels;
          break;
        case RunKernel::Kind::Copy:
          ++P.S.CopyKernels;
          break;
        case RunKernel::Kind::ConstAppend:
          ++P.S.ConstAppendKernels;
          break;
        }
      }
    }

    // Wide-domain tier: elements a byte table cannot reach (UTF-16 and
    // similar 9..16-bit alphabets) get per-element memoized actions.  It
    // evaluates every guard on the element alone, so it needs a rule
    // whose guards all read only the input.
    if (Opts.WideTables && W > 8 && W <= 16 &&
        guardsInputOnly(A.delta(Q).get(), X, IOMemo))
      buildWideTable(A, T, Q, ST, W, OldLeaves, IOMemo, P.S);
  }
  return P;
}

namespace {

/// Appends the elements [B, E) to \p Out, narrowed to its value type;
/// a byte run into a std::string is one memcpy.
template <class OutBuf, class T>
inline void appendElems(OutBuf &Out, const T *B, const T *E) {
  if constexpr (sizeof(T) == 1 && std::is_same_v<OutBuf, std::string>)
    Out.append(reinterpret_cast<const char *>(B), size_t(E - B));
  else
    Out.insert(Out.end(), B, E);
}

/// Appends plan constants (stored 64-bit) to \p Out.
template <class OutBuf>
inline void appendConsts(OutBuf &Out, const std::vector<uint64_t> &V) {
  for (uint64_t X : V)
    Out.push_back(typename OutBuf::value_type(X));
}

} // namespace

template <class InT, class OutBuf>
EFC_HOT_ALIGN bool FastPathCursor::feed(const InT *In, size_t N, OutBuf &Out) {
  using OutT = typename OutBuf::value_type;
  // Bulk emit buffer: one reservation per chunk instead of a capacity
  // check per Emit (stages emit at most about one element per input).
  if (Out.capacity() - Out.size() < N)
    Out.reserve(Out.size() + N + 16);

  const CompiledTransducer &T = *Inner.T;
  uint64_t *Slots = Inner.Slots.data();
  const unsigned InSlot = T.NumRegSlots;
  unsigned State = Inner.State;
  const FastPathPlan::StateTable *Tables = Plan->States.data();
  // Per-element ledger tiers, tallied in locals and added to RC once, on
  // every way out of this feed.
  struct Tally {
    explicit Tally(RunCounters &RC) : RC(RC) {}
    Tally(const Tally &) = delete;
    Tally &operator=(const Tally &) = delete;
    ~Tally() {
      RC.TableElements += Table;
      RC.ProgramElements += Program;
      RC.BytecodeElements += Bytecode;
    }
    RunCounters &RC;
    uint64_t Table = 0, Program = 0, Bytecode = 0;
  } Ledger(RC);

  for (size_t I = 0; I < N; ++I) {
    const uint64_t X = In[I];
    const FastPathPlan::StateTable &ST = Tables[State];
    if constexpr (sizeof(InT) == 2) {
      if (ST.HasTable && X >= 256 && ST.Wide.Has && X < ST.Wide.Limit) {
        // Wide-domain tier: the element is beyond the byte tables but
        // inside the 2^W domain, so its action was memoized at plan build.
        const WideTable &WT = ST.Wide;
        const WideTable::Class &WC = WT.Classes[WT.ClassOf[X]];
        switch (WC.K) {
        case WideTable::Class::Kind::Memo:
          for (uint32_t J = WT.EmitOff[X], JE = WT.EmitOff[X + 1]; J < JE; ++J)
            Out.push_back(OutT(WT.EmitPool[J]));
          for (uint32_t J = WT.WriteOff[X], JE = WT.WriteOff[X + 1]; J < JE;
               ++J)
            Slots[WT.WritePool[J].first] = WT.WritePool[J].second;
          State = WC.Target;
          ++RC.WideElements;
          continue;
        case WideTable::Class::Kind::Program:
          Slots[InSlot] = X;
          Inner.State = State;
          if (!Inner.exec(WC.Code, Out))
            return false;
          State = Inner.State;
          ++RC.WideElements;
          continue;
        case WideTable::Class::Kind::Reject:
          Inner.State = State;
          return false;
        case WideTable::Class::Kind::Fallback:
          break; // defensive: per-element bytecode below
        }
      }
    }
    // A byte stream needs no range test: every element indexes the tables.
    if (ST.HasTable && (sizeof(InT) == 1 || X < 256)) {
      if (uint8_t R = ST.RunId[X]; R != FastPathPlan::NoRun) {
        // Run kernel: consume the whole span [I, End) in one step.  The
        // kernel self-loops, so State and registers are untouched and a
        // run cut short by the chunk boundary resumes on the next feed.
        const RunKernel &RK = ST.Runs[R];
        size_t End = scanRunEnd(In, I + 1, N, RK);
        switch (RK.K) {
        case RunKernel::Kind::Skip:
          break;
        case RunKernel::Kind::Copy:
          appendElems(Out, In + I, In + End);
          break;
        case RunKernel::Kind::ConstAppend:
          if (RK.Emits.size() == 1)
            Out.insert(Out.end(), End - I, OutT(RK.Emits[0]));
          else
            for (size_t J = I; J < End; ++J)
              appendConsts(Out, RK.Emits);
          break;
        }
        for (auto [Slot, V] : RK.Writes)
          Slots[Slot] = V;
        ++RC.Runs;
        RC.RunElements += End - I;
        I = End - 1;
        continue;
      }
      const FastPathPlan::Action &A = ST.Actions[ST.Dispatch[X]];
      switch (A.K) {
      case FastPathPlan::Action::Kind::Jump:
        State = A.Target;
        ++Ledger.Table;
        continue;
      case FastPathPlan::Action::Kind::Const:
        appendConsts(Out, A.Emits);
        for (auto [Slot, V] : A.Writes)
          Slots[Slot] = V;
        State = A.Target;
        ++Ledger.Table;
        continue;
      case FastPathPlan::Action::Kind::Reject:
        Inner.State = State;
        ++Ledger.Table;
        return false;
      case FastPathPlan::Action::Kind::Program:
        // A leaf program or a residual subtree: it reads the input slot
        // and may branch on registers, then commits through Next.
        Slots[InSlot] = X;
        Inner.State = State;
        ++Ledger.Program;
        if (!Inner.exec(A.Code, Out))
          return false;
        State = Inner.State;
        continue;
      case FastPathPlan::Action::Kind::Fallback:
        break;
      }
    }
    // Mixed-mode fallback: out-of-range element or bytecode-only state.
    ++Ledger.Bytecode;
    Slots[InSlot] = X;
    Inner.State = State;
    if (!Inner.exec(T.Delta[State], Out))
      return false;
    State = Inner.State;
  }
  Inner.State = State;
  return true;
}

#define EFC_CURSOR_FEED(InT, OutT)                                             \
  template bool FastPathCursor::feed(const InT *, size_t, ElemBuf<OutT> &);
#define EFC_CURSOR_FEEDS(InT)                                                  \
  EFC_CURSOR_FEED(InT, uint8_t)                                                \
  EFC_CURSOR_FEED(InT, uint16_t)                                               \
  EFC_CURSOR_FEED(InT, uint64_t)
EFC_CURSOR_FEEDS(uint8_t)
EFC_CURSOR_FEEDS(uint16_t)
EFC_CURSOR_FEEDS(uint64_t)
#undef EFC_CURSOR_FEEDS
#undef EFC_CURSOR_FEED

void FastPathCursor::foldCounters() {
  struct Families {
    metrics::Counter &Runs, &Elems, &Wide, &Table, &Program, &Bytecode;
  };
  auto &R = metrics::Registry::instance();
  static Families F{
      R.counter("efc_fastpath_runs_total",
                "Bulk spans driven through run kernels"),
      R.counter("efc_fastpath_run_elements_total",
                "Elements consumed by run kernels"),
      R.counter("efc_fastpath_wide_elements_total",
                "Elements resolved through wide-domain memo tables"),
      R.counter("efc_fastpath_table_elements_total",
                "Elements resolved by byte-table Const/Jump/Reject actions"),
      R.counter("efc_fastpath_program_elements_total",
                "Elements run through byte-table leaf or residual programs"),
      R.counter(BytecodeCounterName, BytecodeCounterHelp)};
  // Unchanged counts skip the shared atomic: sessions fold once per
  // feed, and most feeds move only some of the six.
  auto add = [](metrics::Counter &C, uint64_t Now, uint64_t Was) {
    if (Now != Was)
      C.inc(Now - Was);
  };
  add(F.Runs, RC.Runs, Folded.Runs);
  add(F.Elems, RC.RunElements, Folded.RunElements);
  add(F.Wide, RC.WideElements, Folded.WideElements);
  add(F.Table, RC.TableElements, Folded.TableElements);
  add(F.Program, RC.ProgramElements, Folded.ProgramElements);
  add(F.Bytecode, RC.BytecodeElements, Folded.BytecodeElements);
  Folded = RC;
}

std::optional<std::vector<uint64_t>>
efc::runFastPath(const FastPathPlan &P, const CompiledTransducer &T,
                 std::span<const uint64_t> In) {
  if (!fitsInputMask(In, P.inputMask()))
    return T.run(In); // does not fit the typed stream: the reference
  FastPathCursor C(P, T);
  auto Out = runNarrowed(
      P.inputWidth(), P.outputWidth(), In,
      [&](const auto *X, size_t N, auto &Buf) { return C.feed(X, N, Buf); },
      [&](auto &Buf) { return C.finish(Buf); });
  C.foldCounters();
  return Out;
}
