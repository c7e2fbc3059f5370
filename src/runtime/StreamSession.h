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
/// Every backend reads the caller's bytes in place, one byte per element,
/// and appends its output bytes straight to the session's output string:
/// no element is copied wider on the way in or out.  A feed runs in
/// blocks of BlockBytes, so what a feed reserves and stages is bounded
/// by the block, not by the feed's size.
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
  /// The unit must read and write bytes (NativeTransducer inputWidth()
  /// and outputWidth() both ElemWidth::U8): open() refuses any other
  /// unit, and here a wider one rejects its first feed.
  static StreamSession overNative(const NativeTransducer &T);

  /// Bytes handed to the backend at a time within one feed().
  static constexpr size_t BlockBytes = size_t(64) << 10;

  /// Consumes \p N input bytes.  Returns false once the pipeline has
  /// rejected the stream (sticky; later calls keep returning false); the
  /// output produced before the rejecting byte stays available.
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
  /// Wide-domain table hits (elements >= 256 served from memo pools).
  uint64_t fastWideElements() const {
    return FCur ? FCur->runCounters().WideElements : 0;
  }
  /// The rest of the execution ledger (vm/FastPath.h RunCounters):
  /// elements resolved by byte-table Const/Jump/Reject actions, run
  /// through table programs (leaf and residual), and run through a
  /// state's whole bytecode program.  A VM session counts every element
  /// it ran as bytecode; a native session counts none.
  uint64_t fastTableElements() const {
    return FCur ? FCur->runCounters().TableElements : 0;
  }
  uint64_t fastProgramElements() const {
    return FCur ? FCur->runCounters().ProgramElements : 0;
  }
  uint64_t fastBytecodeElements() const {
    return FCur ? FCur->runCounters().BytecodeElements : VmElements;
  }

private:
  StreamSession() = default;

  /// Runs one block of at most BlockBytes through the backend.
  bool feedBlock(const uint8_t *In, size_t N);
  /// Counts the output bytes appended since \p Out0 and folds the fast
  /// path's run counters into the registry.
  void account(size_t Out0);
  void bindMetrics(); ///< resolves per-backend registry counters once

  Backend Kind = Backend::Vm;
  std::shared_ptr<const CompiledPipeline> Keep;

  // VM backend.
  std::optional<CompiledTransducer::Cursor> Cur;
  uint64_t VmElements = 0; ///< elements the VM ran (its bytecode tier)

  // Fast-path backend.
  std::optional<FastPathCursor> FCur;

  // Native backend.
  const NativeTransducer *Nat = nullptr;
  std::vector<uint64_t> NatState;

  std::string Output;
  bool Rejected = false;
  bool Finished = false;
  uint64_t BytesIn = 0, BytesOut = 0;

  // Registry counters, resolved once per session (bindMetrics) and
  // bumped per feed chunk — never per element.  Raw pointers into the
  // append-only registry, so copies/moves of the session stay valid.
  metrics::Counter *MBytesIn = nullptr;
  metrics::Counter *MBytesOut = nullptr;
  metrics::Counter *MVmBytecode = nullptr; ///< VM sessions only
};

} // namespace efc::runtime

#endif // EFC_RUNTIME_STREAMSESSION_H
