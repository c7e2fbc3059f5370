//===- vm/Vm.h - Compiled execution of BSTs ---------------------*- C++ -*-===//
///
/// \file
/// A register-slot bytecode VM for BSTs.  Rules compile to branchy
/// three-address programs over uint64 slots (register leaves live in fixed
/// slots); the driver loop executes one program per input element.  This
/// is the executable backend of the benchmark harness: the fused, method-
/// call and LINQ-style pipeline variants all run on this same substrate,
/// so their relative throughputs reflect the paper's comparison rather
/// than interpreter-vs-native artifacts (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef EFC_VM_VM_H
#define EFC_VM_VM_H

#include "bst/Bst.h"
#include "term/ScalarOps.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <span>
#include <type_traits>
#include <vector>

namespace efc {

/// Storage width of one stream element.  A scalar of up to 8 bits travels
/// as uint8_t, one of up to 16 bits as uint16_t and anything wider as
/// uint64_t; register slots stay 64-bit whatever the stream width.  A
/// transducer's input and output types pick their widths once, when its
/// fast-path plan or native unit is built.
enum class ElemWidth : uint8_t { U8 = 1, U16 = 2, U64 = 8 };

/// The element width of scalar type \p Ty (Bool is one bit wide).
ElemWidth elemWidthOf(const Type *Ty);

/// Output buffer of each element type: byte streams append to a
/// std::string (what StreamSession hands out), wider ones to a vector.
template <class T> struct ElemBufOf {
  using type = std::vector<T>;
};
template <> struct ElemBufOf<uint8_t> {
  using type = std::string;
};
template <class T> using ElemBuf = typename ElemBufOf<T>::type;

/// Widens an ElemBuf back to 64-bit elements (bytes zero-extend).
template <class OutBuf> std::vector<uint64_t> widenElems(const OutBuf &B) {
  using U = std::make_unsigned_t<typename OutBuf::value_type>;
  const U *P = reinterpret_cast<const U *>(B.data());
  return std::vector<uint64_t>(P, P + B.size());
}

/// Calls \p Fn with a value of the element type of width \p W, so one
/// generic lambda covers every width.
template <class F> decltype(auto) visitElemWidth(ElemWidth W, F &&Fn) {
  switch (W) {
  case ElemWidth::U8:
    return Fn(uint8_t());
  case ElemWidth::U16:
    return Fn(uint16_t());
  default:
    return Fn(uint64_t());
  }
}

/// True when no element of \p In exceeds \p Mask, the largest value of
/// the input type: only such an input can travel as a typed stream.
inline bool fitsInputMask(std::span<const uint64_t> In, uint64_t Mask) {
  for (uint64_t X : In)
    if (X > Mask)
      return false;
  return true;
}

/// Runs a typed stream from 64-bit elements: narrows \p In to the element
/// type of \p InW in pieces of \p Chunk elements (each an exact-size
/// copy), passes each to Feed(const InT *, size_t, ElemBuf<OutT> &) with
/// the ElemBuf of \p OutW, then calls Finish(ElemBuf<OutT> &) and widens
/// the output.  std::nullopt when Feed or Finish returns false.  Every
/// element must fit the input type (fitsInputMask).
template <class FeedFn, class FinishFn>
std::optional<std::vector<uint64_t>>
runNarrowed(ElemWidth InW, ElemWidth OutW, std::span<const uint64_t> In,
            FeedFn &&Feed, FinishFn &&Finish, size_t Chunk = SIZE_MAX) {
  return visitElemWidth(InW, [&](auto InV) {
    return visitElemWidth(OutW, [&](auto OutV) {
      ElemBuf<decltype(OutV)> Out;
      std::optional<std::vector<uint64_t>> R;
      for (size_t I = 0, End; I < In.size(); I = End) {
        End = I + std::min(Chunk, In.size() - I);
        std::vector<decltype(InV)> Piece(In.begin() + I, In.begin() + End);
        if (!Feed(Piece.data(), Piece.size(), Out))
          return R;
      }
      if (Finish(Out))
        R = widenElems(Out);
      return R;
    });
  });
}

/// Aligns a hot execution function (the interpreter, the fast-path driver
/// loop, the block scanners) to a 64-byte boundary, so where its loops
/// fall within cache lines and fetch blocks does not depend on how much
/// code the linker happens to place before it.
#define EFC_HOT_ALIGN __attribute__((aligned(64)))

/// The opcodes, in the order of the interpreter's handler table
/// (Vm.cpp Cursor::exec).
enum class VmOp : uint8_t {
  Const,   // dst = imm
  Mov,     // dst = a
  Add,     // dst = (a + b) & mask
  Sub,     // dst = (a - b) & mask
  Mul,     // dst = (a * b) & mask
  UDiv,    // dst = b ? a / b : mask
  URem,    // dst = b ? a % b : a
  Neg,     // dst = (-a) & mask
  And,     // dst = a & b
  Or,      // dst = a | b
  Xor,     // dst = a ^ b
  NotBits, // dst = (~a) & mask
  NotBool, // dst = a ^ 1
  Shl,     // dst = b < width ? (a << b) & mask : 0
  LShr,    // dst = b < width ? a >> b : 0
  AShr,    // dst = sext(a) >> min(b, width-1), masked
  Eq,      // dst = a == b
  Ult,     // dst = a < b
  Ule,     // dst = a <= b
  Slt,     // dst = sext(a) < sext(b)
  Sle,     // dst = sext(a) <= sext(b)
  SExt,    // dst = sign-extend a from width, masked to 64 bits
  Extract, // dst = (a >> imm) & mask
  Select,  // dst = a ? b : c
  Jz,      // if slot a == 0 jump to imm
  Jmp,     // jump to imm
  Emit,    // append slot a to the output
  Next,    // commit: state = imm, copy staged register slots, end element
  Reject,  // reject the input
  Accept,  // end of a finalizer program: accept
};

struct VmInstr {
  VmOp Op;
  uint8_t Width = 0; // operand bit width for masking / sign extension
  uint16_t Dst = 0;
  uint16_t A = 0, B = 0, C = 0;
  uint64_t Imm = 0;
};

/// One rule compiled to straight-line code with conditional jumps.
struct VmProgram {
  std::vector<VmInstr> Code;
};

/// Human-readable mnemonic for a VM opcode.
const char *vmOpName(VmOp Op);

/// Disassembles one program, one instruction per line.
std::string disassemble(const VmProgram &P);

class FastPathCursor;

/// Compiles a single rule of \p A with the same slot layout the full
/// compile() uses (register leaves in fixed slots, input at slot
/// numRegSlots(), temporaries above), so the resulting program can run on
/// a CompiledTransducer cursor for the same Bst.  Returns std::nullopt
/// when the input or output type is not scalar.  When \p MaxSlotOut is
/// non-null it receives the compiler's max-slot watermark; callers must
/// check MaxSlotOut + 1 <= numSlots() before executing the program on an
/// existing cursor.  Used by the byte-class fast path (vm/FastPath.h) to
/// build straight-line per-leaf programs.
std::optional<VmProgram> compileRuleProgram(const Bst &A, const Rule *R,
                                            bool IsFinalizer,
                                            unsigned *MaxSlotOut = nullptr);

/// A BST compiled for execution.  Input and output types must be scalar
/// (every pipeline stage in the paper is char/byte/int valued).
class CompiledTransducer {
public:
  /// Compiles \p A; returns std::nullopt when the input or output type is
  /// not scalar.
  static std::optional<CompiledTransducer> compile(const Bst &A);

  unsigned numStates() const { return unsigned(Delta.size()); }
  unsigned numRegSlots() const { return NumRegSlots; }
  unsigned numSlots() const { return NumSlots; }
  size_t codeSize() const;

  /// Bytecode introspection for the equivalence checker
  /// (verify/EquivChecker.h) and diagnostics: the compiled transition /
  /// finalizer program of one state, the initial control state, and the
  /// initial register-slot image (flattened in leaf order).
  const VmProgram &deltaProgram(unsigned Q) const { return Delta[Q]; }
  const VmProgram &finalizerProgram(unsigned Q) const { return Fin[Q]; }
  unsigned initialState() const { return InitState; }
  std::span<const uint64_t> initialRegs() const { return InitRegs; }

  /// Testing hook: mutable access to one state's transition program, so
  /// mutation-injection suites can corrupt a guard in-memory and assert
  /// the equivalence checker refutes the result.  Never used by
  /// production code paths.
  VmProgram &mutableDeltaProgram(unsigned Q) { return Delta[Q]; }

  /// Full disassembly of all state programs (diagnostics).
  std::string disassembleAll() const;

  /// Streaming execution state, used both by run() and by the push-based
  /// pipeline variants.
  class Cursor {
  public:
    explicit Cursor(const CompiledTransducer &T) : T(&T) { reset(); }

    void reset();

    /// Feeds one element; outputs are appended to \p Out, an ElemBuf
    /// (each output element is narrowed to its value type).  Returns
    /// false when the transducer rejects.
    template <class OutBuf> bool feed(uint64_t X, OutBuf &Out) {
      Slots[T->NumRegSlots] = X;
      return exec(T->Delta[State], Out);
    }

    /// Runs the finalizer; returns false on rejection.
    template <class OutBuf> bool finish(OutBuf &Out) {
      return exec(T->Fin[State], Out);
    }

    unsigned state() const { return State; }

  private:
    friend class efc::FastPathCursor;
    const CompiledTransducer *T;
    unsigned State = 0;
    std::vector<uint64_t> Slots;

    /// Runs \p P from its first instruction until Next, Accept or Reject;
    /// the caller has set the input slot.  Instantiated for the three
    /// ElemBuf types.
    template <class OutBuf> bool exec(const VmProgram &P, OutBuf &Out);
  };

  /// Whole-input transduction; std::nullopt on rejection.
  std::optional<std::vector<uint64_t>> run(std::span<const uint64_t> In) const;

private:
  friend class Cursor;
  friend class efc::FastPathCursor;
  std::vector<VmProgram> Delta;
  std::vector<VmProgram> Fin;
  unsigned InitState = 0;
  unsigned NumRegSlots = 0;
  unsigned NumSlots = 0; // total including temporaries
  std::vector<uint64_t> InitRegs;
};

} // namespace efc

#endif // EFC_VM_VM_H
