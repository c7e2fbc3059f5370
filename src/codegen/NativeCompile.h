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
///   bool   efc_stream_feed(st, in, n, out, scan)
///   bool   efc_stream_finish(st, out)
///   unsigned long long efc_classifier_hash()
///
/// run() and StreamSession (runtime/StreamSession.h) both go through
/// them.  Every feed passes the host's nibble block scanner for the
/// active level (vm/FastPath.h nibbleScanner()) as `scan`, so EFC_SIMD and
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
  ~NativeTransducer();
  NativeTransducer(NativeTransducer &&) noexcept;
  NativeTransducer &operator=(NativeTransducer &&) noexcept;

  /// Generates C++ for \p A and loads the corresponding shared object,
  /// either from the artifact cache or by compiling it (host
  /// `c++ -O2 -shared`; override the compiler with EFC_CXX).  Returns
  /// std::nullopt when no compiler is available or compilation fails
  /// (diagnostics in \p Error when non-null); temporary files are removed
  /// on every path.
  static std::optional<NativeTransducer>
  compile(const Bst &A, const std::string &Tag, std::string *Error = nullptr,
          NativeCompileInfo *Info = nullptr);

  /// Artifact cache directory: the EFC_CACHE_DIR environment variable
  /// when set, ".efc-cache" otherwise.  Created on demand.
  static std::string cacheDir();

  /// Runs the transduction (init, one feed, finish); std::nullopt when
  /// the input is rejected.
  std::optional<std::vector<uint64_t>>
  run(const uint64_t *In, size_t N) const;
  std::optional<std::vector<uint64_t>>
  run(const std::vector<uint64_t> &In) const {
    return run(In.data(), In.size());
  }

  /// Suspend/resume execution (the efc_stream_* entry points).  A state
  /// block of stateWords() uint64s persists the control state and
  /// registers across feed calls; chunked feeding over any boundaries is
  /// byte-identical to one run().
  size_t stateWords() const { return WordsFn(); }
  void streamInit(uint64_t *St) const { InitFn(St); }
  bool streamFeed(uint64_t *St, const uint64_t *In, size_t N,
                  std::vector<uint64_t> &Out) const {
    return FeedFn(St, In, N, Out, nibbleScanner());
  }
  bool streamFinish(uint64_t *St, std::vector<uint64_t> &Out) const {
    return FinishFn(St, Out);
  }

  /// Classifier hash the loaded unit was generated from (see
  /// codegen/CppCodeGen.h classifierHash).  compile() refuses to reuse a
  /// cached artifact whose exported hash disagrees with the hash of the
  /// requesting Bst, so a loaded transducer always matches the IR that
  /// certification (verify/EquivChecker.h) ran on.  0 for artifacts built
  /// before the hash existed.
  uint64_t classifierHash() const { return ClassifierHash; }

private:
  NativeTransducer() = default;
  void *Handle = nullptr;
  using WordsFnTy = size_t (*)();
  using InitFnTy = void (*)(uint64_t *);
  using FeedFnTy = bool (*)(uint64_t *, const uint64_t *, size_t,
                            std::vector<uint64_t> &, NibbleScanFn);
  using FinishFnTy = bool (*)(uint64_t *, std::vector<uint64_t> &);
  using HashFnTy = uint64_t (*)();
  WordsFnTy WordsFn = nullptr;
  InitFnTy InitFn = nullptr;
  FeedFnTy FeedFn = nullptr;
  FinishFnTy FinishFn = nullptr;
  uint64_t ClassifierHash = 0;
};

} // namespace efc

#endif // EFC_CODEGEN_NATIVECOMPILE_H
