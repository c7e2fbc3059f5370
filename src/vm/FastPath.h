//===- vm/FastPath.h - Byte-class dispatch fast path ------------*- C++ -*-===//
///
/// \file
/// A DFA-style execution engine layered over the bytecode VM.  For each
/// control state whose root guard depends only on the current input
/// element, the input-only guards at the top of its transition rule are a
/// pure function of the input byte, so they can be evaluated ahead of
/// time: a 256-entry byte -> action table, partitioned into equivalence
/// classes (bytes that reach the same node where the walk stops), maps
/// each byte directly to its effect (emit constants / register writes /
/// next state) without re-walking those guards.  The walk stops at a
/// Base or Undef leaf, or at the first guard that reads a register; such
/// a class keeps the register-dependent residual subtree as a short
/// branching program.  States whose root guard reads a register keep the
/// existing bytecode program, so the engine is mixed-mode: the driver
/// loop hits the table when it can and falls back to the interpreter when
/// it must.
///
/// Eligibility and exactness (see DESIGN.md "Mixed-mode fast path"):
///  - The input type must be scalar.  For width W, table entries cover
///    bytes b < min(2^W, 256); the dispatch loop additionally requires the
///    *unmasked* element value X < 256 and X < 2^W, so every dispatched
///    element satisfies masked == unmasked and the table action agrees
///    with the bytecode program instruction-for-instruction.  Elements out
///    of that range (possible: the VM does not mask its input slot) run
///    the ordinary bytecode program for that one element.
///  - Actions are precomputed with the reference term evaluator at
///    x = b, which shares its scalar semantics (term/ScalarOps.h) with the
///    interpreter, so tables cannot drift from the bytecode.
///
/// On top of the tables sits run acceleration (DESIGN.md "Run
/// acceleration"): byte classes whose leaf self-loops with constant-only
/// register writes and a uniform output shape (nothing / the input
/// element / a constant sequence) are folded into RunKernels, and the
/// driver consumes
/// whole spans of such bytes with one vectorized scan + one bulk append.
/// Kernels never change the state, so runs split across feed() chunks
/// resume exactly where they stopped.
///
/// A FastPathPlan is plain data (tables, constants, straight-line
/// programs); it holds no pointers into the Bst or the
/// CompiledTransducer, so plans stay valid when the owning pipeline
/// objects are moved.  Execution binds (plan, transducer) at use time via
/// FastPathCursor / runFastPath.
///
/// Element streams keep their real width (vm/Vm.h ElemWidth): the cursor
/// reads uint8_t, uint16_t or uint64_t input and appends to the matching
/// ElemBuf, so a byte stream is read and written one byte per element
/// and its scanners need no range test.  The uint64_t runFastPath entry
/// point is an adapter over the typed path.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_VM_FASTPATH_H
#define EFC_VM_FASTPATH_H

#include "vm/Vm.h"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace efc {

/// Byte -> equivalence-class map for one state's transition rule.  Shared
/// between the VM fast path and CppCodeGen, so the generated C++ lookup
/// tables partition bytes exactly like the interpreter's action tables.
struct ByteClassTable {
  /// True when the state's root guard references only the input variable
  /// (or the rule has no guard) and the input type is scalar.
  bool Eligible = false;
  /// Number of in-range byte values: min(2^inputWidth, 256).  Entries at
  /// b >= ValidBytes hold the sentinel class numClasses().
  unsigned ValidBytes = 0;
  /// byte -> index into Leaves (or the sentinel for padded entries).
  std::array<uint16_t, 256> Class{};
  /// Distinct nodes the per-byte walk stops at, in first-hit byte order:
  /// a Base or Undef leaf, or the first Ite whose guard reads a register
  /// (the root of a residual subtree).  Borrowed from the Bst's rule
  /// trees; valid only while the Bst is alive.
  std::vector<const Rule *> Leaves;

  unsigned numClasses() const { return unsigned(Leaves.size()); }
};

/// Analyzes delta(Q) of \p A: walks the input-only guards for every byte
/// and stops at the first guard that reads a register.  Returns an
/// ineligible table when the input type is not scalar or the root guard
/// reads a register.
ByteClassTable classifyDeltaByteClasses(const Bst &A, unsigned Q);

/// Two 16-byte shuffle tables encoding a 256-bit byte set (the
/// Hyperscan/simdjson "shufti" idiom): byte b is in the set iff
/// `Lo[b & 15] & Hi[b >> 4] != 0`.  Encodable whenever the set's hi
/// nibbles fall into at most 8 distinct low-nibble row patterns (each
/// distinct row gets one bucket bit); beyond that the scan falls back to
/// the SWAR mask ladder.  Shared between the VM scan kernels and
/// CppCodeGen, and folded into the codegen classifier hash, so generated
/// native code classifies with byte-identical tables.
struct NibbleTable {
  bool Valid = false;
  std::array<uint8_t, 16> Lo{};
  std::array<uint8_t, 16> Hi{};

  bool contains(uint8_t B) const {
    return (Lo[B & 15] & Hi[B >> 4]) != 0;
  }
};

/// Encodes \p Mask as nibble tables; Valid=false when the set needs more
/// than 8 bucket rows (one pshufb cannot encode it).
NibbleTable tryEncodeNibbleTable(const std::array<uint64_t, 4> &Mask);

/// One bulk self-loop kernel for a table state: a set of bytes whose
/// action keeps the machine in the same state with at most constant
/// register writes and a uniform per-element output effect.  A span of
/// such bytes is consumed with one vectorized scan (findFirstNonLoopByte)
/// plus one bulk append instead of per-element dispatch.
struct RunKernel {
  enum class Kind : uint8_t {
    Skip,       // no output: the span is consumed silently
    Copy,       // emit the input element itself (memcpy of the span)
    ConstAppend // emit a fixed constant sequence per element
  };
  Kind K = Kind::Skip;
  /// 256-bit membership mask: bit b set <=> byte b is driven by this
  /// kernel.  Padding bytes (input width < 8) are never set.
  std::array<uint64_t, 4> Mask{};
  /// When >= 0 the mask covers every byte except this one, so the scan
  /// degenerates to a memchr-style compare against the single escape byte
  /// instead of per-element mask-bit tests.
  int SingleEscape = -1;
  /// ConstAppend payload: constants emitted for each consumed element.
  std::vector<uint64_t> Emits;
  /// Constant register writes (slot <- imm).  Every element of the span
  /// performs these same writes, and a kernel byte reaches its leaf
  /// through input-only guards, so applying them once per span is
  /// equivalent to once per element — including across feed() boundaries
  /// (idempotent).
  std::vector<std::pair<uint16_t, uint64_t>> Writes;
  /// Number of bytes covered (popcount of Mask).
  unsigned Bytes = 0;
  /// Byte-class ids folded into this kernel (for --explain-fastpath).
  std::vector<uint16_t> Classes;
  /// Shuffle-table encoding of Mask (Valid=false when inexpressible);
  /// the AVX2/AVX-512 scan kernels classify 16/32/64-byte blocks with it.
  NibbleTable NT;

  bool covers(uint64_t X) const {
    return X < 256 && ((Mask[X >> 6] >> (X & 63)) & 1);
  }
};

/// Detects the self-loop run kernels of state \p Q from its byte-class
/// table \p C (as returned by classifyDeltaByteClasses).  Shared between
/// FastPathPlan::build and CppCodeGen, so the VM driver and the generated
/// C++ accelerate exactly the same byte sets with the same effects; the
/// criteria are syntactic on the Base leaves (target == Q, register
/// update leaves unchanged, outputs empty / the input variable / all
/// constants), never re-derived per backend.  Residual classes never
/// form kernels.
std::vector<RunKernel> classifyRunKernels(const Bst &A, unsigned Q,
                                          const ByteClassTable &C);

/// Returns the first index in [I, N) whose element leaves \p RK's byte
/// set — the end of the current run.  \p T is the stream's element type
/// (uint8_t, uint16_t or uint64_t): every byte indexes the mask directly,
/// and wider elements also end the run at any value >= 256.  Dispatched
/// once per process (cpuid) to the widest available kernel: scalar SWAR,
/// the SSE2 single-escape compare (bytes), or nibble-table-classified
/// AVX2/AVX-512 blocks (bytes and 16-bit elements); `EFC_SIMD`
/// (vm/Simd.h) forces a lower level.  uint64_t streams scan with SWAR at
/// every level.
template <class T>
size_t scanRunEnd(const T *In, size_t I, size_t N, const RunKernel &RK);

/// A nibble block scanner over elements of type \p T: advances \p I over
/// whole blocks whose elements are all < 256 and in the set \p Lo / \p Hi
/// encode (a NibbleTable).  It stops at a block boundary, not at the span
/// end, so callers finish the span with a scalar loop and every level
/// yields the same boundaries.
template <class T>
using NibbleScanFnOf = size_t (*)(const T *In, size_t I, size_t N,
                                  const uint8_t *Lo, const uint8_t *Hi);

/// The nibble block scanner of the active level for element type \p T:
/// at AVX-512, 64-element blocks (one load of bytes, two loads of 16-bit
/// elements packed to bytes), then 32-element AVX2 ones; at AVX2 the
/// 32-element blocks alone; below AVX2, and for uint64_t streams at every
/// level, one that returns I unchanged.  scanRunEnd runs the same loops,
/// and generated native code calls the returned function
/// (NativeTransducer passes it into every efc_stream_feed), so VM and
/// native share one implementation.  Resolving the level here, once per
/// feed, keeps the per-span call a direct jump into the loop.
template <class T> NibbleScanFnOf<T> nibbleScanner();

/// Per-element action table for wide scalar inputs (8 < width <= 16,
/// e.g. the UTF-16 HTML pipelines): the byte tables cover elements
/// < 256, this covers [256, 2^W).  Only for states whose guards all read
/// only the input (no residual classes), same per-class action
/// resolution as the byte table, but
/// with the per-element constant effects memoized into shared pools at
/// plan-build time, so the hot loop does two offset loads and a memcpy
/// instead of re-walking the guard tree per element.  This is the
/// "range-compare ladder" tier of the classification ladder: elements a
/// 16-byte shuffle cannot reach are still classified in O(1).
struct WideTable {
  bool Has = false;
  uint32_t Limit = 0; // 2^W; ClassOf/EmitOff/WriteOff cover [0, Limit)

  struct Class {
    enum class Kind : uint8_t {
      Memo,    // constant effects, memoized per element in the pools
      Program, // straight-line leaf program (register-reading effects)
      Reject,  // Undef leaf
      Fallback // defensive: leaf program would not compile
    };
    Kind K = Kind::Fallback;
    uint32_t Target = 0; // Memo / Program successor state
    VmProgram Code;      // Program
  };

  std::vector<uint16_t> ClassOf; // element -> index into Classes
  std::vector<Class> Classes;
  /// Memo pools: element X emits EmitPool[EmitOff[X] .. EmitOff[X+1])
  /// and writes WritePool[WriteOff[X] .. WriteOff[X+1)) (slot <- imm).
  /// Entries of non-Memo elements are zero-length slices.
  std::vector<uint32_t> EmitOff; // Limit + 1 prefix offsets
  std::vector<uint64_t> EmitPool;
  std::vector<uint32_t> WriteOff; // Limit + 1
  std::vector<std::pair<uint16_t, uint64_t>> WritePool;
};

/// Options controlling plan construction (EFC_FASTPATH_ACCEL / A-B
/// benchmarking disable run acceleration while keeping the tables).
struct FastPathOptions {
  bool RunAccel = true;
  /// Build WideTables for 8 < width <= 16 inputs (costs one reference-
  /// evaluator sweep over the 2^W domain at plan build; disable via
  /// EFC_FASTPATH_WIDE=0).
  bool WideTables = true;

  /// Reads EFC_FASTPATH_ACCEL / EFC_FASTPATH_WIDE ("0" disables); shared
  /// by PipelineCache and the benches so A/B switches mean the same thing
  /// everywhere.
  static FastPathOptions fromEnv();
};

/// Human-readable per-state dump of byte-class eligibility, class counts,
/// self-loop classes, and the chosen run kernels (efcc --explain-fastpath).
std::string explainFastPath(const Bst &A);

/// Per-state dispatch tables for one compiled transducer.
class FastPathPlan {
public:
  /// Sentinel for StateTable::RunId entries with no run kernel.
  static constexpr uint8_t NoRun = 0xFF;

  struct Stats {
    unsigned TableStates = 0;    // states with a dispatch table
    unsigned FallbackStates = 0; // states kept on bytecode only
    unsigned ConstActions = 0;   // fully-folded (emit consts, write consts)
    unsigned JumpActions = 0;    // state change only
    unsigned ProgramActions = 0; // leaf and residual programs
    unsigned ResidualActions = 0; // of which residual (branching) programs
    unsigned AccelStates = 0;    // table states with >= 1 run kernel
    unsigned SkipKernels = 0;    // run kernels by kind
    unsigned CopyKernels = 0;
    unsigned ConstAppendKernels = 0;
    unsigned AccelBytes = 0;     // total bytes covered by run kernels
    unsigned NibbleKernels = 0;  // run kernels with a shufti encoding
    unsigned WideStates = 0;     // states with a wide-domain table
    unsigned WideMemoClasses = 0;
    unsigned WideProgramClasses = 0;
    unsigned WideRejectClasses = 0;
    uint64_t WideMemoElements = 0; // elements resolved to memoized effects
  };

  /// Builds the plan for \p A as compiled into \p T.  Always succeeds: a
  /// state that cannot be tabulated simply stays on the bytecode path.
  static FastPathPlan build(const Bst &A, const CompiledTransducer &T,
                            const FastPathOptions &Opts = {});

  struct Action {
    enum class Kind : uint8_t {
      Fallback, // run the state's bytecode program for this element
      Reject,   // Undef leaf
      Jump,     // no emits, no register writes: just change state
      Const,    // emit constants, write constants, change state
      Program   // bytecode for one class: a leaf with register-reading
                // outputs/updates, or a residual subtree whose guards
                // read registers; runs with the input slot set
    };
    Kind K = Kind::Fallback;
    uint32_t Target = 0;                               // Jump / Const
    std::vector<uint64_t> Emits;                       // Const
    std::vector<std::pair<uint16_t, uint64_t>> Writes; // Const: slot <- imm
    VmProgram Code;                                    // Program
  };

  struct StateTable {
    bool HasTable = false;
    /// byte -> index into Actions; all 256 entries valid (padding bytes
    /// dispatch to the Fallback action at index 0).
    std::array<uint16_t, 256> Dispatch{};
    std::vector<Action> Actions;
    /// byte -> index into Runs, or NoRun.  Checked before Dispatch: a hit
    /// consumes the whole run span in one kernel application.  Filled for
    /// every table state (all NoRun when acceleration is disabled).
    std::array<uint8_t, 256> RunId{};
    std::vector<RunKernel> Runs;
    /// Wide-domain table for elements in [256, Wide.Limit); Has=false
    /// when the input width is <= 8 or > 16 or wide tables are disabled.
    WideTable Wide;
  };

  unsigned numStates() const { return unsigned(States.size()); }
  /// Element widths of the input and output streams, from the Bst's types.
  ElemWidth inputWidth() const { return InW; }
  ElemWidth outputWidth() const { return OutW; }
  /// Largest value of the input type: runFastPath sends an input holding
  /// any larger element to the bytecode VM.
  uint64_t inputMask() const { return InMask; }
  bool stateHasTable(unsigned Q) const {
    return Q < States.size() && States[Q].HasTable;
  }
  const Stats &stats() const { return S; }

  /// Table introspection for the equivalence checker
  /// (verify/EquivChecker.h): the checker re-derives the expected action
  /// of every byte from the bytecode and compares it against these
  /// entries, so it reads the plan exactly as the driver loop does.
  const StateTable &stateTable(unsigned Q) const { return States[Q]; }

  /// Testing hook: mutable access to one state's table, so
  /// mutation-injection suites can corrupt a dispatch entry or a run
  /// kernel in-memory and assert the checker produces a counterexample.
  /// Never used by production code paths.
  StateTable &mutableStateTable(unsigned Q) { return States[Q]; }

private:
  friend class FastPathCursor;

  std::vector<StateTable> States;
  Stats S;
  ElemWidth InW = ElemWidth::U64, OutW = ElemWidth::U64;
  uint64_t InMask = ~uint64_t(0);
};

/// Streaming executor: the mixed-mode driver loop.  Holds a bytecode
/// cursor for fallback states/elements and for finalizers, so its
/// observable behavior (outputs, rejection, state) is byte-identical to
/// CompiledTransducer::Cursor fed one element at a time.
class FastPathCursor {
public:
  /// Cumulative execution ledger: every element fed is counted once, by
  /// the tier that consumed it (run kernel, wide table, table Const/Jump,
  /// table Program, bytecode), so the five element counts sum to the
  /// elements fed; plus the spans the run kernels took.  Surfaced by
  /// StreamSession / efcc --stats / efc-serve --stats.
  struct RunCounters {
    uint64_t Runs = 0;
    uint64_t RunElements = 0;
    /// Elements resolved through the wide-domain memo/program tables
    /// instead of per-element bytecode.
    uint64_t WideElements = 0;
    /// Byte-table Const, Jump and Reject actions.
    uint64_t TableElements = 0;
    /// Byte-table Program actions, residual programs included.
    uint64_t ProgramElements = 0;
    /// The state's whole bytecode program: states without a table,
    /// padding bytes, elements beyond every table.
    uint64_t BytecodeElements = 0;
  };

  /// Registry name and help of the bytecode tier's counter, which VM
  /// sessions (runtime/StreamSession.h) bump for every element they run.
  static constexpr const char *BytecodeCounterName =
      "efc_fastpath_bytecode_elements_total";
  static constexpr const char *BytecodeCounterHelp =
      "Elements run through a state's whole bytecode program (fast-path "
      "fallback and VM sessions)";

  FastPathCursor(const FastPathPlan &P, const CompiledTransducer &T)
      : Plan(&P), Inner(T) {}

  void reset() {
    Inner.reset();
    RC = Folded = RunCounters();
  }

  /// Feeds \p N elements of type InT (uint8_t, uint16_t or uint64_t);
  /// outputs are appended to \p Out, an ElemBuf (vm/Vm.h), narrowed to
  /// its value type.  Any InT works with any plan: an element outside the
  /// byte tables runs the state's bytecode, exactly as the VM would.
  /// Returns false when the transducer rejects.
  template <class InT, class OutBuf>
  bool feed(const InT *In, size_t N, OutBuf &Out);

  /// Runs the finalizer; returns false on rejection.
  template <class OutBuf> bool finish(OutBuf &Out) {
    return Inner.finish(Out);
  }

  unsigned state() const { return Inner.state(); }

  const RunCounters &runCounters() const { return RC; }

  /// Adds the counts gathered since the last fold to the registry's
  /// efc_fastpath_* counters.  Callers fold once per feed or run, never
  /// per span, so the kernel loop stays free of shared-state traffic.
  /// feed() itself tallies the per-element tiers in locals and adds them
  /// to runCounters() once, when it returns.
  void foldCounters();

private:
  const FastPathPlan *Plan;
  CompiledTransducer::Cursor Inner;
  RunCounters RC;
  RunCounters Folded; ///< already in the registry
};

/// Whole-input transduction through the fast path; std::nullopt on
/// rejection.  Semantically identical to CompiledTransducer::run.  An
/// adapter for callers holding uint64_t elements: it narrows the input
/// once to the plan's input width, runs the typed cursor and widens the
/// result; an input holding an element above P.inputMask() runs on the
/// bytecode VM (the reference) instead, so the result stays identical.
std::optional<std::vector<uint64_t>>
runFastPath(const FastPathPlan &P, const CompiledTransducer &T,
            std::span<const uint64_t> In);

} // namespace efc

#endif // EFC_VM_FASTPATH_H
