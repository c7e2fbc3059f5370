//===- runtime/StreamSession.h - Incremental pipeline execution -*- C++ -*-===//
///
/// \file
/// Second layer of the serving runtime: a long-lived execution of one
/// compiled pipeline over a byte stream that arrives in chunks.  feed()
/// consumes an arbitrary slice of input (any boundary, including
/// mid-UTF-8-sequence and single bytes) and stages whatever output bytes
/// the transducer emits; finish() runs the finalizer.  For any split of
/// an input into chunks, the concatenated drained output is byte-
/// identical to one-shot CompiledTransducer::run / NativeTransducer::run
/// over the whole input — the suspended state (control state + register
/// leaves) carries everything between calls.
///
/// Backends: the bytecode VM (CompiledTransducer::Cursor), the mixed-mode
/// byte-class fast path (vm/FastPath.h, the default), and the native .so
/// (its efc_stream_* suspend/resume entry points, codegen/NativeCompile.h).
///
//===----------------------------------------------------------------------===//

#ifndef EFC_RUNTIME_STREAMSESSION_H
#define EFC_RUNTIME_STREAMSESSION_H

#include "runtime/PipelineCache.h"
#include "support/Metrics.h"
#include "vm/Vm.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace efc::runtime {

/// The base is a benchmark compatibility stub (pipeline/Pass.h).
class StreamSession : public parallel::SessionStub {
public:
  enum class Backend { Vm, Fast, Native };

  /// Opens a session over a cache entry (shared ownership keeps the
  /// entry alive across evictions).  The native backend fails when the
  /// entry's artifact cannot be built or loaded.
  static std::optional<StreamSession>
  open(std::shared_ptr<const CompiledPipeline> P, Backend B,
       std::string *Err = nullptr);

  /// Borrowing constructors for tests and embedding; the caller keeps
  /// the transducer alive for the session's lifetime.
  static StreamSession overVm(const CompiledTransducer &T);
  static StreamSession overFast(const FastPathPlan &P,
                                const CompiledTransducer &T);
  static StreamSession overNative(const NativeTransducer &T);

  /// Consumes \p N input bytes.  Returns false once the pipeline has
  /// rejected the stream (sticky; later calls keep returning false).
  bool feed(const void *Data, size_t N);
  bool feed(std::string_view Bytes) {
    return feed(Bytes.data(), Bytes.size());
  }

  /// Runs the finalizer.  Idempotent; false when the stream was
  /// rejected (by a feed or by the finalizer itself).
  bool finish();

  bool rejected() const { return Rejected; }
  bool finished() const { return Finished; }
  Backend backend() const { return Kind; }

  /// Drains the output bytes produced since the last drain.
  std::string takeOutput() { return std::move(Output); }
  const std::string &output() const { return Output; }

  uint64_t bytesIn() const { return BytesIn; }
  uint64_t bytesOut() const { return BytesOut; }

  /// Run-acceleration telemetry (fast-path backend only; zero elsewhere):
  /// bulk spans driven through run kernels and the elements they consumed.
  uint64_t fastRuns() const {
    return FCur ? FCur->runCounters().Runs : 0;
  }
  uint64_t fastRunElements() const {
    return FCur ? FCur->runCounters().RunElements : 0;
  }
  /// Wide-domain table hits (elements >= 256 served from memo pools) and
  /// two-state speculative alternating spans.
  uint64_t fastWideElements() const {
    return FCur ? FCur->runCounters().WideElements : 0;
  }
  uint64_t fastSpecRuns() const {
    return FCur ? FCur->runCounters().SpecRuns : 0;
  }
  uint64_t fastSpecElements() const {
    return FCur ? FCur->runCounters().SpecElements : 0;
  }

private:
  StreamSession() = default;

  void drain(); ///< moves staged elements into Output as bytes
  void bindMetrics(); ///< resolves per-backend registry counters once

  Backend Kind = Backend::Vm;
  std::shared_ptr<const CompiledPipeline> Keep;

  // VM backend.
  std::optional<CompiledTransducer::Cursor> Cur;

  // Fast-path backend.
  std::optional<FastPathCursor> FCur;

  // Native backend.
  const NativeTransducer *Nat = nullptr;
  std::vector<uint64_t> NatState;

  // Fast-path and native backends.
  std::vector<uint64_t> Chunk; ///< reused element-widening buffer

  std::vector<uint64_t> Staged;
  std::string Output;
  bool Rejected = false;
  bool Finished = false;
  uint64_t BytesIn = 0, BytesOut = 0;

  // Registry counters, resolved once per session (bindMetrics) and
  // bumped per feed chunk — never per element.  Raw pointers into the
  // append-only registry, so copies/moves of the session stay valid.
  metrics::Counter *MBytesIn = nullptr;
  metrics::Counter *MBytesOut = nullptr;
  metrics::Counter *MRuns = nullptr;
  metrics::Counter *MRunElems = nullptr;
  uint64_t FoldedRuns = 0, FoldedRunElems = 0; ///< already in the registry
};

} // namespace efc::runtime

#endif // EFC_RUNTIME_STREAMSESSION_H
