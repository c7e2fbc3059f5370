//===- codegen/CppCodeGen.cpp ---------------------------------------------===//

#include "codegen/CppCodeGen.h"

#include "vm/FastPath.h"

#include <unordered_map>

using namespace efc;

namespace {

/// C++ spelling of the element types of \p A's streams (vm/Vm.h
/// ElemWidth): the input pointer's element, the output buffer, and the
/// cast each emitted value goes through.
struct StreamTypes {
  ElemWidth In, Out;
  std::string InElem, OutBuf, OutElem, OutUnsigned;

  explicit StreamTypes(const Bst &A)
      : In(elemWidthOf(A.inputType())), Out(elemWidthOf(A.outputType())) {
    InElem = elemName(In);
    OutElem = Out == ElemWidth::U8 ? "char" : elemName(Out);
    OutUnsigned = elemName(Out);
    OutBuf = Out == ElemWidth::U8 ? "std::string"
                                  : "std::vector<" + elemName(Out) + ">";
  }

  static std::string elemName(ElemWidth W) {
    return W == ElemWidth::U8    ? "uint8_t"
           : W == ElemWidth::U16 ? "uint16_t"
                                 : "uint64_t";
  }
};

std::string hex(uint64_t V) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "0x%llxull", (unsigned long long)V);
  return Buf;
}

std::string maskExpr(unsigned Width, const std::string &E) {
  if (Width >= 64)
    return E;
  return "(" + E + " & " + hex((uint64_t(1) << Width) - 1) + ")";
}

/// Emits terms as C expressions over the register-leaf variables r<i> and
/// the input variable x.  Shared subterms become local t<i> temporaries.
class ExprEmitter {
public:
  ExprEmitter(TermContext &Ctx,
              const std::unordered_map<TermRef, std::string> &Leaves,
              std::string Indent)
      : Ctx(Ctx), Leaves(Leaves), Indent(std::move(Indent)) {}

  /// Returns an expression (usually a temporary name) for T, appending
  /// any needed temporary definitions to Body.
  std::string emit(TermRef T, std::string &Body) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    std::string E = build(T, Body);
    // Name multi-use subterms; constants and leaves stay inline.
    if (!T->isConst() && T->op() != Op::Var && T->op() != Op::TupleGet) {
      std::string Name = "t" + std::to_string(NextTemp++);
      Body += Indent + "const uint64_t " + Name + " = " + E + ";\n";
      E = Name;
    }
    Memo.emplace(T, E);
    return E;
  }

private:
  TermContext &Ctx;
  const std::unordered_map<TermRef, std::string> &Leaves;
  std::string Indent;
  std::unordered_map<TermRef, std::string> Memo;
  unsigned NextTemp = 0;

  static unsigned widthOf(TermRef T) {
    return T->type()->isBool() ? 1 : T->type()->width();
  }

  std::string build(TermRef T, std::string &Body) {
    auto Bin = [&](const char *Sym) {
      return "(" + emit(T->operand(0), Body) + " " + Sym + " " +
             emit(T->operand(1), Body) + ")";
    };
    auto MaskedBin = [&](const char *Sym) {
      return maskExpr(widthOf(T), Bin(Sym));
    };
    auto Sext = [&](TermRef Operand, std::string E) {
      unsigned W = widthOf(Operand);
      if (W >= 64)
        return "(int64_t)" + E;
      return "efc_sext(" + E + ", " + std::to_string(W) + ")";
    };
    switch (T->op()) {
    case Op::ConstBool:
    case Op::ConstBv:
      return hex(T->constBits());
    case Op::ConstUnit:
      return "0";
    case Op::Var:
    case Op::TupleGet: {
      auto It = Leaves.find(T);
      assert(It != Leaves.end() && "unmapped leaf term");
      return It->second;
    }
    case Op::Not:
      return "(" + emit(T->operand(0), Body) + " ^ 1ull)";
    case Op::And:
      return Bin("&");
    case Op::Or:
      return Bin("|");
    case Op::Ite:
      return "(" + emit(T->operand(0), Body) + " ? " +
             emit(T->operand(1), Body) + " : " + emit(T->operand(2), Body) +
             ")";
    case Op::Eq:
      return "(uint64_t)" + Bin("==");
    case Op::Ult:
      return "(uint64_t)" + Bin("<");
    case Op::Ule:
      return "(uint64_t)" + Bin("<=");
    case Op::Slt:
      return "(uint64_t)(" + Sext(T->operand(0), emit(T->operand(0), Body)) +
             " < " + Sext(T->operand(1), emit(T->operand(1), Body)) + ")";
    case Op::Sle:
      return "(uint64_t)(" + Sext(T->operand(0), emit(T->operand(0), Body)) +
             " <= " + Sext(T->operand(1), emit(T->operand(1), Body)) + ")";
    case Op::Add:
      return MaskedBin("+");
    case Op::Sub:
      return MaskedBin("-");
    case Op::Mul:
      return MaskedBin("*");
    case Op::UDiv:
      return "efc_udiv(" + emit(T->operand(0), Body) + ", " +
             emit(T->operand(1), Body) + ", " +
             hex(T->type()->mask()) + ")";
    case Op::URem:
      return "efc_urem(" + emit(T->operand(0), Body) + ", " +
             emit(T->operand(1), Body) + ")";
    case Op::Neg:
      return maskExpr(widthOf(T), "(~" + emit(T->operand(0), Body) +
                                      " + 1ull)");
    case Op::BvAnd:
      return Bin("&");
    case Op::BvOr:
      return Bin("|");
    case Op::BvXor:
      return Bin("^");
    case Op::BvNot:
      return maskExpr(widthOf(T), "(~" + emit(T->operand(0), Body) + ")");
    case Op::Shl:
      return "efc_shl(" + emit(T->operand(0), Body) + ", " +
             emit(T->operand(1), Body) + ", " + std::to_string(widthOf(T)) +
             ")";
    case Op::LShr:
      return "efc_lshr(" + emit(T->operand(0), Body) + ", " +
             emit(T->operand(1), Body) + ", " + std::to_string(widthOf(T)) +
             ")";
    case Op::AShr:
      return "efc_ashr(" + emit(T->operand(0), Body) + ", " +
             emit(T->operand(1), Body) + ", " + std::to_string(widthOf(T)) +
             ")";
    case Op::ZExt:
      return emit(T->operand(0), Body);
    case Op::SExt:
      return maskExpr(widthOf(T),
                      "(uint64_t)" + Sext(T->operand(0),
                                          emit(T->operand(0), Body)));
    case Op::Extract:
      return maskExpr(widthOf(T), "(" + emit(T->operand(0), Body) + " >> " +
                                      std::to_string(T->extractLo()) + ")");
    case Op::MkTuple:
      break;
    }
    assert(false && "non-scalar term reached codegen");
    return "0";
  }
};

void collectLeaves(TermContext &Ctx, TermRef T, std::vector<TermRef> &Out) {
  const Type *Ty = T->type();
  if (Ty->isScalar()) {
    Out.push_back(T);
    return;
  }
  if (Ty->isTuple())
    for (unsigned I = 0; I < Ty->arity(); ++I)
      collectLeaves(Ctx, Ctx.mkTupleGet(T, I), Out);
}

void flattenInit(const Value &V, std::vector<uint64_t> &Out) {
  switch (V.kind()) {
  case TypeKind::Bool:
  case TypeKind::BitVec:
    Out.push_back(V.bits());
    return;
  case TypeKind::Unit:
    return;
  case TypeKind::Tuple:
    for (const Value &E : V.elems())
      flattenInit(E, Out);
    return;
  }
}

class UnitEmitter {
public:
  UnitEmitter(const Bst &A, const CodeGenOptions &Opts)
      : A(A), Opts(Opts), Ty(A) {
    TermContext &Ctx = A.context();
    std::vector<TermRef> RegLeaves;
    collectLeaves(Ctx, A.regVar(), RegLeaves);
    for (unsigned I = 0; I < RegLeaves.size(); ++I)
      Leaves[RegLeaves[I]] = "r" + std::to_string(I);
    Leaves[A.inputVar()] = "x";
    NumLeaves = unsigned(RegLeaves.size());
    // Byte-class analysis (vm/FastPath.h): states whose guards read only
    // the input dispatch through a static lookup table, the paper's
    // character-class codegen.  Same classifier as the VM fast path, so
    // the table partition cannot drift from the interpreter's.
    for (unsigned Q = 0; Q < A.numStates(); ++Q) {
      Tables.push_back(classifyDeltaByteClasses(A, Q));
      // Run kernels come from the same classifier as the VM driver, so
      // native and VM accelerate identical byte sets with identical
      // effects (action-for-action alignment).
      Kernels.push_back(Opts.RunAccel && Tables[Q].Eligible
                            ? classifyRunKernels(A, Q, Tables[Q])
                            : std::vector<RunKernel>());
    }
  }

  /// File-scope byte -> equivalence-class tables for table-dispatched
  /// states.  Entries are always <= 255: a state has at most 256 classes,
  /// and the out-of-range sentinel numClasses() only appears when the
  /// input width is below 8 bits (so at most 128 classes).
  std::string tables() {
    std::string S;
    for (unsigned Q = 0; Q < A.numStates(); ++Q) {
      if (!usesTable(Q))
        continue;
      const ByteClassTable &C = Tables[Q];
      S += "static const unsigned char " + tableName(Q) + "[256] = {";
      for (unsigned B = 0; B < 256; ++B) {
        if (B % 16 == 0)
          S += "\n  ";
        S += std::to_string(C.Class[B]);
        if (B != 255)
          S += ",";
      }
      S += "\n};\n";
    }
    // 256-bit membership masks for run kernels; single-escape kernels
    // compare against the escape byte directly and need no mask.
    for (unsigned Q = 0; Q < A.numStates(); ++Q)
      for (unsigned K = 0; K < Kernels[Q].size(); ++K) {
        const RunKernel &RK = Kernels[Q][K];
        if (RK.SingleEscape >= 0)
          continue;
        S += "static const uint64_t " + runMaskName(Q, K) + "[4] = {";
        for (unsigned W = 0; W < 4; ++W)
          S += (W ? ", " : "") + hex(RK.Mask[W]);
        S += "};\n";
      }
    // Nibble shuffle tables (vm/FastPath.h NibbleTable): the same
    // encoding the VM scan kernels use, byte-for-byte, so native and VM
    // classify spans identically at every ISA level.
    for (unsigned Q = 0; Q < A.numStates(); ++Q)
      for (unsigned K = 0; K < Kernels[Q].size(); ++K) {
        const RunKernel &RK = Kernels[Q][K];
        if (!RK.NT.Valid)
          continue;
        for (int Half = 0; Half < 2; ++Half) {
          const std::array<uint8_t, 16> &T = Half ? RK.NT.Hi : RK.NT.Lo;
          S += "static const unsigned char " + ntName(Q, K) +
               (Half ? "_hi" : "_lo") + "[16] = {";
          for (unsigned J = 0; J < 16; ++J)
            S += (J ? "," : "") + std::to_string(T[J]);
          S += "};\n";
        }
      }
    if (!S.empty())
      S += "\n";
    return S;
  }

  /// The suspend/resume entry points, then the one-shot wrapper over
  /// them.  The state block layout is st[0] = control state, st[1..] =
  /// register leaves in flattening order (the r<i> locals).
  std::string entryPoints() {
    const std::string &N = Opts.FunctionName;
    std::vector<uint64_t> Init;
    flattenInit(A.initialRegister(), Init);

    std::string S;
    S += "static const size_t " + N + "_state_words = " +
         std::to_string(1 + NumLeaves) + ";\n\n";

    S += "static void " + N + "_init(uint64_t *st) {\n";
    S += "  st[0] = " + std::to_string(A.initialState()) + "ull;\n";
    for (unsigned I = 0; I < NumLeaves; ++I)
      S += "  st[" + std::to_string(I + 1) + "] = " + hex(Init[I]) + ";\n";
    S += "}\n\n";

    // feed: resume at the saved control state; at end of chunk suspend
    // (persist state + registers).  Run kernels block-scan with `scan`.
    S += "static bool " + N + "_feed(uint64_t *st, const " + Ty.InElem +
         " *in, size_t n, " + Ty.OutBuf + " &out, efc_scan_fn scan) {\n";
    for (unsigned I = 0; I < NumLeaves; ++I)
      S += "  uint64_t r" + std::to_string(I) + " = st[" +
           std::to_string(I + 1) + "];\n";
    S += "  size_t i = 0;\n  uint64_t x = 0;\n"
         "  (void)x;\n  (void)out;\n  (void)scan;\n";
    S += "  switch (st[0]) {\n";
    for (unsigned Q = 0; Q < A.numStates(); ++Q)
      S += "  case " + std::to_string(Q) + ": goto S" + std::to_string(Q) +
           ";\n";
    S += "  default: return false;\n  }\n";
    // Each state's rule body is brace-scoped so its temporaries neither
    // collide across states nor are crossed by gotos.
    for (unsigned Q = 0; Q < A.numStates(); ++Q) {
      S += "S" + std::to_string(Q) + ":\n";
      S += "  if (i >= n) {\n    st[0] = " + std::to_string(Q) + "ull;\n";
      for (unsigned I = 0; I < NumLeaves; ++I)
        S += "    st[" + std::to_string(I + 1) + "] = r" +
             std::to_string(I) + ";\n";
      S += "    return true;\n  }\n";
      S += "  x = in[i++];\n";
      S += deltaCode(Q);
    }
    S += "}\n\n";

    // finish: run the finalizer of the saved state.  Registers are not
    // written back — a finished session is over.
    S += "static bool " + N + "_finish(uint64_t *st, " + Ty.OutBuf +
         " &out) {\n";
    for (unsigned I = 0; I < NumLeaves; ++I)
      S += "  uint64_t r" + std::to_string(I) + " = st[" +
           std::to_string(I + 1) + "]; (void)r" + std::to_string(I) + ";\n";
    S += "  (void)out;\n";
    S += "  switch (st[0]) {\n";
    for (unsigned Q = 0; Q < A.numStates(); ++Q)
      S += "  case " + std::to_string(Q) + ": goto F" + std::to_string(Q) +
           ";\n";
    S += "  default: return false;\n  }\n";
    for (unsigned Q = 0; Q < A.numStates(); ++Q) {
      S += "F" + std::to_string(Q) + ":\n  {\n";
      S += ruleCode(A.finalizer(Q).get(), /*IsFinalizer=*/true, 1);
      S += "  }\n";
    }
    S += "}\n\n";

    // One-shot: a single feed over the whole input on a local state
    // block, block-scanning with the scalar no-op.
    S += "[[maybe_unused]] static bool " + N + "(const " + Ty.InElem +
         " *in, size_t n, " + Ty.OutBuf + " &out) {\n";
    S += "  uint64_t st[" + N + "_state_words];\n";
    S += "  " + N + "_init(st);\n";
    S += "  return " + N + "_feed(st, in, n, out, efc_scan_none) && " + N +
         "_finish(st, out);\n";
    S += "}\n";
    return S;
  }

private:
  const Bst &A;
  const CodeGenOptions &Opts;
  StreamTypes Ty;
  std::unordered_map<TermRef, std::string> Leaves;
  unsigned NumLeaves = 0;
  std::vector<ByteClassTable> Tables;
  std::vector<std::vector<RunKernel>> Kernels;

  std::string tableName(unsigned Q) {
    return Opts.FunctionName + "_cls" + std::to_string(Q);
  }

  std::string runMaskName(unsigned Q, unsigned K) {
    return Opts.FunctionName + "_run" + std::to_string(Q) + "_" +
           std::to_string(K);
  }

  std::string ntName(unsigned Q, unsigned K) {
    return Opts.FunctionName + "_nt" + std::to_string(Q) + "_" +
           std::to_string(K);
  }

  /// A table only pays off when the rule actually branches; leaf-only
  /// rules are already branch-free.
  bool usesTable(unsigned Q) const {
    return Tables[Q].Eligible && A.delta(Q)->isIte();
  }

  /// Transition body for state Q: table dispatch over the byte classes
  /// when eligible, then the original guard chain.  Each switch arm runs
  /// its class's node: a leaf, or the residual subtree below the first
  /// guard that reads a register.  The chain handles what the table
  /// cannot: elements >= 256 of a wider stream and, for input widths
  /// below 8, bytes outside the valid range, where the table's masked
  /// precomputation would not match the unmasked comparisons the guards
  /// perform (the VM fast path makes the same split).  A byte stream
  /// over a table of all 256 bytes reaches no chain, so none is emitted
  /// and the last class is the switch's default.
  std::string deltaCode(unsigned Q) {
    std::string S;
    const bool Covered = usesTable(Q) && Ty.In == ElemWidth::U8 &&
                         Tables[Q].ValidBytes == 256;
    if (usesTable(Q) || !Kernels[Q].empty()) {
      S += Ty.In == ElemWidth::U8 ? "  {\n" : "  if (x < 0x100ull) {\n";
      // Run kernels first: a loop byte consumes its whole span and
      // re-enters the state label, so the switch below only ever sees
      // non-run bytes (mirrors the VM driver's RunId-before-Dispatch
      // order).
      for (unsigned K = 0; K < Kernels[Q].size(); ++K)
        S += runCode(Q, K);
      if (usesTable(Q)) {
        const ByteClassTable &C = Tables[Q];
        S += "    switch (" + tableName(Q) + "[x]) {\n";
        for (unsigned K = 0; K < C.numClasses(); ++K) {
          S += Covered && K + 1 == C.numClasses()
                   ? "    default: {\n"
                   : "    case " + std::to_string(K) + ": {\n";
          S += ruleCode(C.Leaves[K], /*IsFinalizer=*/false, 3);
          S += "    }\n";
        }
        if (!Covered)
          S += "    default: break;\n";
        S += "    }\n";
      }
      S += "  }\n";
    }
    if (!Covered) {
      S += "  {\n";
      S += ruleCode(A.delta(Q).get(), /*IsFinalizer=*/false, 1);
      S += "  }\n";
    }
    return S;
  }

  /// Bulk run loop for one kernel: when the current element is a loop
  /// byte, scan to the end of the run (same SWAR shape and stop
  /// conditions as the VM's scanRunEnd, so span boundaries coincide),
  /// apply the kernel's effect to the whole span, and re-enter the state
  /// label — which suspends at end of chunk exactly like per-element
  /// stepping would.
  std::string runCode(unsigned Q, unsigned K) {
    const RunKernel &RK = Kernels[Q][K];
    const bool Esc = RK.SingleEscape >= 0;
    const std::string E = Esc ? hex(uint64_t(RK.SingleEscape)) : "";
    const std::string M = Esc ? "" : runMaskName(Q, K);
    auto Member = [&](const std::string &V) {
      return Esc ? "(" + V + " != " + E + ")"
                 : "efc_runbit(" + M + ", " + V + ")";
    };
    std::string S;
    S += "    if (" + Member("x") + ") {\n";
    const bool NeedsStart = RK.K != RunKernel::Kind::Skip;
    if (NeedsStart)
      S += "      size_t rs = i - 1;\n";
    // The caller's nibble block scanner first (whole 16/32-element
    // blocks at the host's active ISA level; the standalone wrapper
    // passes a no-op), then the SWAR loop and the scalar tail pin down
    // the exact span end — the same ladder as the VM's scanRunEnd, so
    // span boundaries coincide at every ISA level.
    if (RK.NT.Valid)
      S += "      i = scan(in, i, n, " + ntName(Q, K) + "_lo, " +
           ntName(Q, K) + "_hi);\n";
    // Wider streams also end a run at any element >= 256.
    const bool Bytes = Ty.In == ElemWidth::U8;
    S += "      while (i + 4 <= n) {\n";
    S += "        uint64_t ra = in[i], rb = in[i + 1], rc = in[i + 2], "
         "rd = in[i + 3];\n";
    std::string Range = Bytes ? "" : "((ra | rb | rc | rd) >> 8) || ";
    if (Esc)
      S += "        if (" + Range + "ra == " + E + " || rb == " + E +
           " || rc == " + E + " || rd == " + E + ") break;\n";
    else
      S += "        if (" + Range + "!(efc_runbit(" + M +
           ", ra) & efc_runbit(" + M + ", rb) & efc_runbit(" + M +
           ", rc) & efc_runbit(" + M + ", rd))) break;\n";
    S += "        i += 4;\n      }\n";
    S += "      while (i < n && " +
         std::string(Bytes ? "" : "in[i] < 0x100ull && ") + Member("in[i]") +
         ") ++i;\n";
    switch (RK.K) {
    case RunKernel::Kind::Skip:
      break;
    case RunKernel::Kind::Copy:
      // The output is the input element itself, so both streams have
      // the same width: a byte span is one append.
      if (Bytes && Ty.Out == ElemWidth::U8)
        S += "      out.append((const char *)(in + rs), i - rs);\n";
      else
        S += "      out.insert(out.end(), in + rs, in + i);\n";
      break;
    case RunKernel::Kind::ConstAppend:
      if (RK.Emits.size() == 1) {
        S += "      out.insert(out.end(), i - rs, (" + Ty.OutElem + ")" +
             hex(RK.Emits[0]) + ");\n";
      } else {
        S += "      for (size_t rj = rs; rj < i; ++rj) {\n";
        for (uint64_t V : RK.Emits)
          S += "        out.push_back((" + Ty.OutElem + ")" + hex(V) + ");\n";
        S += "      }\n";
      }
      break;
    }
    // Constant register writes: once per span (idempotent; see
    // vm/FastPath.h RunKernel::Writes).
    for (auto &[Idx, V] : RK.Writes)
      S += "      r" + std::to_string(Idx) + " = " + hex(V) + ";\n";
    S += "      goto S" + std::to_string(Q) + ";\n    }\n";
    return S;
  }

  std::string ruleCode(const Rule *R, bool IsFinalizer, unsigned Depth) {
    std::string Pad(Depth * 2, ' ');
    TermContext &Ctx = A.context();
    switch (R->kind()) {
    case Rule::Kind::Undef:
      return Pad + "return false;\n";
    case Rule::Kind::Ite: {
      std::string Body;
      ExprEmitter E(Ctx, Leaves, Pad);
      std::string C = E.emit(R->cond(), Body);
      std::string S = Body;
      S += Pad + "if (" + C + ") {\n";
      S += ruleCode(R->thenRule().get(), IsFinalizer, Depth + 1);
      S += Pad + "} else {\n";
      S += ruleCode(R->elseRule().get(), IsFinalizer, Depth + 1);
      S += Pad + "}\n";
      return S;
    }
    case Rule::Kind::Base: {
      std::string Body;
      ExprEmitter E(Ctx, Leaves, Pad);
      std::string S;
      for (TermRef O : R->outputs()) {
        std::string Expr = E.emit(O, Body);
        S += Pad + "out.push_back((" + Ty.OutElem + ")" + Expr + ");\n";
      }
      if (IsFinalizer) {
        std::string Out = Body + S;
        Out += Pad + "return true;\n";
        return Out;
      }
      // New register values into temporaries, then commit.
      std::vector<TermRef> NewLeaves;
      collectLeaves(Ctx, R->update(), NewLeaves);
      std::vector<TermRef> OldLeaves;
      collectLeaves(Ctx, A.regVar(), OldLeaves);
      std::vector<std::pair<unsigned, std::string>> Writes;
      for (unsigned I = 0; I < NumLeaves; ++I) {
        if (NewLeaves[I] == OldLeaves[I])
          continue;
        Writes.push_back({I, E.emit(NewLeaves[I], Body)});
      }
      std::string Out = Body + S;
      // Stage register-sourced writes.
      for (auto &[Idx, Expr] : Writes) {
        std::string Staged = "n" + std::to_string(Idx);
        Out += Pad + "const uint64_t " + Staged + " = " + Expr + ";\n";
        Expr = Staged;
      }
      for (auto &[Idx, Expr] : Writes)
        Out += Pad + "r" + std::to_string(Idx) + " = " + Expr + ";\n";
      Out += Pad + "goto S" + std::to_string(R->target()) + ";\n";
      return Out;
    }
    }
    return "";
  }
};

} // namespace

std::string efc::generateCpp(const Bst &A, const CodeGenOptions &Opts,
                             const std::vector<CodeGenTestVector> &Vectors) {
  assert(A.inputType()->isScalar() && A.outputType()->isScalar() &&
         "codegen requires scalar element types");
  std::string S;
  StreamTypes Ty(A);
  S += "// Generated by efc (Fusing Effectful Comprehensions, PLDI'17 "
       "reproduction).\n";
  S += "#include <cstddef>\n#include <cstdint>\n";
  S += Ty.Out == ElemWidth::U8 ? "#include <string>\n\n"
                               : "#include <vector>\n\n";
  S += "static inline int64_t efc_sext(uint64_t v, unsigned w) {\n"
       "  uint64_t sb = 1ull << (w - 1);\n"
       "  return (int64_t)((v & ((sb << 1) - 1)) ^ sb) - (int64_t)sb;\n"
       "}\n";
  S += "static inline uint64_t efc_udiv(uint64_t a, uint64_t b, uint64_t "
       "mask) { return b ? a / b : mask; }\n";
  S += "static inline uint64_t efc_urem(uint64_t a, uint64_t b) { return b "
       "? a % b : a; }\n";
  S += "static inline uint64_t efc_shl(uint64_t a, uint64_t b, unsigned w) "
       "{ uint64_t m = w >= 64 ? ~0ull : (1ull << w) - 1; return b >= w ? 0 "
       ": (a << b) & m; }\n";
  S += "static inline uint64_t efc_lshr(uint64_t a, uint64_t b, unsigned w) "
       "{ return b >= w ? 0 : a >> b; }\n";
  S += "static inline uint64_t efc_ashr(uint64_t a, uint64_t b, unsigned w) "
       "{ int64_t s = efc_sext(a, w); uint64_t m = w >= 64 ? ~0ull : (1ull "
       "<< w) - 1; return b >= w ? (uint64_t)(s < 0 ? -1 : 0) & m : "
       "(uint64_t)(s >> b) & m; }\n";
  S += "static inline uint64_t efc_runbit(const uint64_t *m, uint64_t x) "
       "{ return (m[x >> 6] >> (x & 63)) & 1ull; }\n";
  // Run kernels block-scan through a caller-supplied nibble scanner (the
  // host's vm/FastPath nibbleScanner() under NativeTransducer), so the
  // unit carries no ISA-specific code of its own.
  // Stream element types, named for the exported entry points
  // (codegen/NativeCompile.h).
  S += "typedef " + Ty.InElem + " efc_elem_in;\n";
  S += "typedef " + Ty.OutBuf + " efc_out_buf;\n";
  S += "typedef size_t (*efc_scan_fn)(const " + Ty.InElem +
       " *, size_t, size_t, const unsigned char *, const unsigned char *);\n";
  S += "static inline size_t efc_scan_none(const " + Ty.InElem +
       " *, size_t i, size_t, const unsigned char *, const unsigned char *) "
       "{ return i; }\n\n";

  UnitEmitter U(A, Opts);
  S += U.tables();
  S += "[[maybe_unused]] static const unsigned long long " +
       Opts.FunctionName + "_classifier_hash = " + hex(classifierHash(A)) +
       ";\n\n";
  S += U.entryPoints();

  if (Opts.EmitMain) {
    S += "\nint main() {\n";
    unsigned Idx = 0;
    for (const CodeGenTestVector &V : Vectors) {
      std::string In = "in" + std::to_string(Idx);
      S += "  {\n    const " + Ty.InElem + " " + In + "[] = {0";
      for (uint64_t X : V.Input)
        S += ", " + hex(X);
      S += "};\n    " + Ty.OutBuf + " out;\n";
      S += "    bool ok = " + Opts.FunctionName + "(" + In + " + 1, " +
           std::to_string(V.Input.size()) + ", out);\n";
      if (!V.Accepts) {
        S += "    if (ok) return " + std::to_string(Idx + 1) + ";\n";
      } else {
        S += "    if (!ok) return " + std::to_string(Idx + 1) + ";\n";
        S += "    const uint64_t want[] = {0";
        for (uint64_t X : V.Output)
          S += ", " + hex(X);
        S += "};\n    if (out.size() != " + std::to_string(V.Output.size()) +
             ") return " + std::to_string(Idx + 1) + ";\n";
        S += "    for (size_t k = 0; k < out.size(); ++k)\n"
             "      if ((" + Ty.OutUnsigned +
             ")out[k] != want[k + 1]) return " +
             std::to_string(Idx + 1) + ";\n";
      }
      S += "  }\n";
      ++Idx;
    }
    S += "  return 0;\n}\n";
  }
  return S;
}

namespace {

/// Structural FNV-1a hasher for the IR and classifier fingerprints.
/// Variables hash by name and types by shape, never by pointer or
/// interning id, so the result is stable across TermContexts and across
/// processes (it guards the on-disk native-artifact cache).
class ClassifierHasher {
public:
  explicit ClassifierHasher(const TermContext &Ctx) : Ctx(Ctx) {}

  void mix(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }

  uint64_t typeHash(const Type *Ty) {
    auto It = TypeMemo.find(Ty);
    if (It != TypeMemo.end())
      return It->second;
    uint64_t X = fnv(uint64_t(Ty->kind()) + 1);
    if (Ty->isBitVec())
      X = fnv(X ^ Ty->width());
    for (unsigned I = 0; I < Ty->arity(); ++I)
      X = fnv(X ^ typeHash(Ty->elems()[I]));
    TypeMemo.emplace(Ty, X);
    return X;
  }

  uint64_t termHash(TermRef T) {
    auto It = TermMemo.find(T);
    if (It != TermMemo.end())
      return It->second;
    uint64_t X = fnv(uint64_t(T->op()) + 1);
    X = fnv(X ^ typeHash(T->type()));
    if (T->isVar()) {
      for (char C : Ctx.varName(T->varId()))
        X = fnv(X ^ uint8_t(C));
    } else {
      X = fnv(X ^ T->aux());
    }
    for (TermRef O : T->operands())
      X = fnv(X ^ termHash(O));
    TermMemo.emplace(T, X);
    return X;
  }

  void mixRule(const Rule *R) {
    switch (R->kind()) {
    case Rule::Kind::Undef:
      mix(3);
      return;
    case Rule::Kind::Ite:
      mix(1);
      mix(termHash(R->cond()));
      mixRule(R->thenRule().get());
      mixRule(R->elseRule().get());
      return;
    case Rule::Kind::Base:
      mix(2);
      mix(R->outputs().size());
      for (TermRef O : R->outputs())
        mix(termHash(O));
      mix(R->target());
      mix(termHash(R->update()));
      return;
    }
  }

  void mixValue(const Value &V) {
    switch (V.kind()) {
    case TypeKind::Bool:
    case TypeKind::BitVec:
      mix(V.bits());
      return;
    case TypeKind::Unit:
      return;
    case TypeKind::Tuple:
      for (const Value &E : V.elems())
        mixValue(E);
      return;
    }
  }

  uint64_t hash() const { return H; }

private:
  static uint64_t fnv(uint64_t V) {
    uint64_t X = 1469598103934665603ull;
    for (int I = 0; I < 8; ++I) {
      X ^= (V >> (8 * I)) & 0xff;
      X *= 1099511628211ull;
    }
    return X;
  }

  const TermContext &Ctx;
  uint64_t H = 1469598103934665603ull;
  std::unordered_map<const Type *, uint64_t> TypeMemo;
  std::unordered_map<TermRef, uint64_t> TermMemo;
};

} // namespace

uint64_t efc::irHash(const Bst &A) {
  ClassifierHasher CH(A.context());
  CH.mix(A.numStates());
  CH.mix(A.initialState());
  CH.mix(CH.typeHash(A.inputType()));
  CH.mix(CH.typeHash(A.outputType()));
  CH.mix(CH.typeHash(A.registerType()));
  CH.mixValue(A.initialRegister());
  for (unsigned Q = 0; Q < A.numStates(); ++Q) {
    CH.mixRule(A.delta(Q).get());
    CH.mixRule(A.finalizer(Q).get());
  }
  return CH.hash();
}

uint64_t efc::classifierHash(const Bst &A) {
  ClassifierHasher CH(A.context());
  // Fingerprint format version (02: nibble tables; 03: byte-width
  // element streams, so units of the uint64_t ABI never load; 04: the
  // IR hash first, classification stopping at register guards).
  CH.mix(0xefc0de04ull);
  CH.mix(irHash(A));
  for (unsigned Q = 0; Q < A.numStates(); ++Q) {
    // The classification artifacts codegen actually bakes into tables,
    // recomputed exactly as UnitEmitter computes them.
    ByteClassTable C = classifyDeltaByteClasses(A, Q);
    CH.mix(C.Eligible);
    CH.mix(C.ValidBytes);
    if (C.Eligible)
      for (unsigned B = 0; B < 256; ++B)
        CH.mix(C.Class[B]);
    for (const RunKernel &RK : classifyRunKernels(A, Q, C)) {
      CH.mix(uint64_t(RK.K) + 1);
      for (uint64_t W : RK.Mask)
        CH.mix(W);
      CH.mix(uint64_t(int64_t(RK.SingleEscape)));
      CH.mix(RK.Emits.size());
      for (uint64_t E : RK.Emits)
        CH.mix(E);
      CH.mix(RK.Writes.size());
      for (auto [Slot, Imm] : RK.Writes) {
        CH.mix(Slot);
        CH.mix(Imm);
      }
      CH.mix(RK.NT.Valid);
      if (RK.NT.Valid)
        for (unsigned J = 0; J < 16; ++J) {
          CH.mix(RK.NT.Lo[J]);
          CH.mix(RK.NT.Hi[J]);
        }
    }
  }
  return CH.hash();
}
