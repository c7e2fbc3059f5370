//===- codegen/NativeCompile.h - Runtime-compiled transducers ---*- C++ -*-===//
///
/// \file
/// The paper's actual deployment story: the tool generates source code
/// for the fused transducer and compiles it ahead of time (C# + NGen in
/// the paper).  Here, the generated C++ is compiled with the host
/// compiler into a shared object and loaded with dlopen, yielding a
/// native function with the same semantics as the BST.
///
/// Compiled artifacts are cached on disk keyed by a content hash of the
/// generated source, so re-compiling the same pipeline reloads the .so
/// without invoking the host compiler (see cacheDir()).  The unit exports
/// the streaming suspend/resume entry points (CppCodeGen.h) and the
/// classifier hash, and nothing else:
///
///   size_t efc_stream_state_words()
///   void   efc_stream_init(uint64_t *st)
///   bool   efc_stream_feed(st, const efc_elem_in *in, n, efc_out_buf &out,
///                          scan)
///   bool   efc_stream_finish(st, efc_out_buf &out)
///   unsigned long long efc_classifier_hash()
///
/// The stream types follow the Bst's element widths (vm/Vm.h ElemWidth):
/// a byte pipeline reads `const uint8_t *` and appends to a std::string,
/// a UTF-16 one reads `const uint16_t *` into a std::vector<uint16_t>,
/// and wider types travel as uint64_t.  run() and StreamSession
/// (runtime/StreamSession.h) both go through them.  Every feed passes the
/// host's nibble block scanner for the unit's element type at the active
/// level (vm/FastPath.h nibbleScanner<T>()) as `scan`, so EFC_SIMD and
/// simd::setActiveLevelForTesting reach native code through the host,
/// and the .so keeps no state that depends on load order.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_CODEGEN_NATIVECOMPILE_H
#define EFC_CODEGEN_NATIVECOMPILE_H

#include "bst/Bst.h"
#include "vm/FastPath.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace efc {

/// How a NativeTransducer::compile call was satisfied.
struct NativeCompileInfo {
  /// The .so came out of the on-disk artifact cache; the host compiler
  /// was not invoked.
  bool DiskCacheHit = false;
  /// Host compiler wall time in milliseconds (0 on a disk cache hit).
  double CompileMs = 0;
  /// Path of the cached shared object.
  std::string SoPath;
  /// On failure: the failure is an environment problem (no compiler, disk
  /// full, cc OOM, dlopen) that a later retry may clear — as opposed to a
  /// deterministic property of the spec.  Every failure mode of this
  /// backend is environmental: the generated source itself is
  /// machine-produced and compiles whenever the toolchain works, so
  /// callers should only negative-cache these with a retry budget.
  bool Transient = false;
};

/// A natively compiled transducer loaded from a shared object.
class NativeTransducer {
public:
  /// Generates C++ for \p A and loads the corresponding shared object,
  /// either from the artifact cache or by compiling it (host
  /// `c++ -O2 -shared`; override the compiler with EFC_CXX).  Returns
  /// std::nullopt when no compiler is available or compilation fails
  /// (diagnostics in \p Error when non-null); temporary files are removed
  /// on every path.  \p Ref is the bytecode VM of \p A that run() falls
  /// back to; compile() builds one when it is null.
  static std::optional<NativeTransducer>
  compile(const Bst &A, const std::string &Tag, std::string *Error = nullptr,
          NativeCompileInfo *Info = nullptr,
          std::shared_ptr<const CompiledTransducer> Ref = nullptr);

  /// Artifact cache directory: the EFC_CACHE_DIR environment variable
  /// when set, ".efc-cache" otherwise.  Created on demand.
  static std::string cacheDir();

  /// Element widths of the unit's input and output streams, chosen from
  /// the Bst's types when the unit was generated.
  ElemWidth inputWidth() const { return InW; }
  ElemWidth outputWidth() const { return OutW; }
  /// Largest value of the input type: run() sends an input holding any
  /// larger element to the bytecode VM.
  uint64_t inputMask() const { return InMask; }

  /// Runs the transduction (init, one feed, finish); std::nullopt when
  /// the input is rejected.  An adapter for callers holding uint64_t
  /// elements: it narrows the input once to the unit's input width and
  /// widens the result; an input holding an element outside the input
  /// type runs on the bytecode VM (the reference) instead, so the result
  /// stays identical to CompiledTransducer::run.
  std::optional<std::vector<uint64_t>> run(const uint64_t *In,
                                           size_t N) const;
  std::optional<std::vector<uint64_t>>
  run(const std::vector<uint64_t> &In) const {
    return run(In.data(), In.size());
  }

  /// Suspend/resume execution (the efc_stream_* entry points).  A state
  /// block of stateWords() uint64s persists the control state and
  /// registers across feed calls; chunked feeding over any boundaries is
  /// byte-identical to one run().  InT must be the input element type
  /// and OutBuf the ElemBuf (vm/Vm.h) of the output width; a mismatched
  /// call returns false without entering the unit.
  size_t stateWords() const { return WordsFn(); }
  void streamInit(uint64_t *St) const { InitFn(St); }
  template <class InT, class OutBuf>
  bool streamFeed(uint64_t *St, const InT *In, size_t N, OutBuf &Out) const {
    using Fn = bool (*)(uint64_t *, const InT *, size_t, OutBuf &,
                        NibbleScanFnOf<InT>);
    return matches<InT, OutBuf>() &&
           reinterpret_cast<Fn>(FeedSym)(St, In, N, Out, nibbleScanner<InT>());
  }
  template <class OutBuf> bool streamFinish(uint64_t *St, OutBuf &Out) const {
    using Fn = bool (*)(uint64_t *, OutBuf &);
    return sizeof(typename OutBuf::value_type) == size_t(OutW) &&
           reinterpret_cast<Fn>(FinishSym)(St, Out);
  }

  /// Classifier hash the loaded unit was generated from (see
  /// codegen/CppCodeGen.h classifierHash).  compile() refuses a unit that
  /// does not export the hash, and a cached artifact whose exported hash
  /// disagrees with the hash of the requesting Bst, so a loaded
  /// transducer always matches the IR that certification
  /// (verify/EquivChecker.h) ran on.
  uint64_t classifierHash() const { return ClassifierHash; }

private:
  NativeTransducer() = default;

  template <class InT, class OutBuf> bool matches() const {
    return sizeof(InT) == size_t(InW) &&
           sizeof(typename OutBuf::value_type) == size_t(OutW);
  }

  struct DlCloser {
    void operator()(void *H) const;
  };
  std::unique_ptr<void, DlCloser> Handle;
  using WordsFnTy = size_t (*)();
  using InitFnTy = void (*)(uint64_t *);
  using HashFnTy = uint64_t (*)();
  WordsFnTy WordsFn = nullptr;
  InitFnTy InitFn = nullptr;
  /// efc_stream_feed / efc_stream_finish; their signatures depend on the
  /// stream widths, so they are cast at the call.
  void *FeedSym = nullptr;
  void *FinishSym = nullptr;
  uint64_t ClassifierHash = 0;
  ElemWidth InW = ElemWidth::U64, OutW = ElemWidth::U64;
  uint64_t InMask = ~uint64_t(0);
  /// The bytecode VM of the same Bst, for run() inputs the unit's input
  /// elements cannot hold.
  std::shared_ptr<const CompiledTransducer> Ref;
};

} // namespace efc

#endif // EFC_CODEGEN_NATIVECOMPILE_H
