//===- vm/Vm.cpp - Rule compiler and bytecode interpreter -----------------===//

#include "vm/Vm.h"

#include "term/ScalarOps.h"

#include <cassert>
#include <unordered_map>

using namespace efc;

namespace {

/// Enumerates the scalar leaf terms of a register variable in flattening
/// order (projection chains built through the factory, so they are the
/// same interned terms that appear in rules).
void collectLeafTerms(TermContext &Ctx, TermRef T,
                      std::vector<TermRef> &Out) {
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
      collectLeafTerms(Ctx, Ctx.mkTupleGet(T, I), Out);
    return;
  }
}

void flattenValue(const Value &V, std::vector<uint64_t> &Out) {
  switch (V.kind()) {
  case TypeKind::Bool:
  case TypeKind::BitVec:
    Out.push_back(V.bits());
    return;
  case TypeKind::Unit:
    return;
  case TypeKind::Tuple:
    for (const Value &E : V.elems())
      flattenValue(E, Out);
    return;
  }
}

class RuleCompiler {
public:
  RuleCompiler(const Bst &A, unsigned NumRegSlots,
               const std::unordered_map<TermRef, uint16_t> &FixedSlots,
               unsigned FirstTemp)
      : A(A), NumRegSlots(NumRegSlots), FixedSlots(FixedSlots),
        FirstTemp(FirstTemp) {}

  VmProgram compile(const Rule *R, bool IsFinalizer) {
    P.Code.clear();
    Memo.clear();
    NextTemp = FirstTemp;
    MaxSlot = FirstTemp;
    emitRule(R, IsFinalizer);
    return std::move(P);
  }

  unsigned maxSlot() const { return MaxSlot; }

private:
  const Bst &A;
  unsigned NumRegSlots;
  const std::unordered_map<TermRef, uint16_t> &FixedSlots;
  unsigned FirstTemp;
  VmProgram P;
  std::unordered_map<TermRef, uint16_t> Memo;
  unsigned NextTemp = 0;
  unsigned MaxSlot = 0;

  uint16_t fresh() {
    uint16_t S = uint16_t(NextTemp++);
    if (NextTemp > MaxSlot)
      MaxSlot = NextTemp;
    return S;
  }

  void emit(VmOp Op, uint8_t Width, uint16_t Dst, uint16_t OpA = 0,
            uint16_t OpB = 0, uint16_t OpC = 0, uint64_t Imm = 0) {
    P.Code.push_back(VmInstr{Op, Width, Dst, OpA, OpB, OpC, Imm});
  }

  static uint8_t widthOf(TermRef T) {
    return T->type()->isBool() ? 1 : uint8_t(T->type()->width());
  }

  uint16_t compileTerm(TermRef T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    uint16_t S = emitTerm(T);
    Memo.emplace(T, S);
    return S;
  }

  uint16_t emitTerm(TermRef T) {
    switch (T->op()) {
    case Op::ConstBool:
    case Op::ConstBv: {
      uint16_t D = fresh();
      emit(VmOp::Const, widthOf(T), D, 0, 0, 0, T->constBits());
      return D;
    }
    case Op::Var:
    case Op::TupleGet: {
      auto F = FixedSlots.find(T);
      assert(F != FixedSlots.end() && "unmapped leaf in rule term");
      return F->second;
    }
    case Op::Not: {
      uint16_t S = compileTerm(T->operand(0));
      uint16_t D = fresh();
      emit(VmOp::NotBool, 1, D, S);
      return D;
    }
    case Op::And:
    case Op::Or: {
      uint16_t S1 = compileTerm(T->operand(0));
      uint16_t S2 = compileTerm(T->operand(1));
      uint16_t D = fresh();
      emit(T->op() == Op::And ? VmOp::And : VmOp::Or, 1, D, S1, S2);
      return D;
    }
    case Op::Ite: {
      uint16_t C = compileTerm(T->operand(0));
      uint16_t S1 = compileTerm(T->operand(1));
      uint16_t S2 = compileTerm(T->operand(2));
      uint16_t D = fresh();
      emit(VmOp::Select, widthOf(T), D, C, S1, S2);
      return D;
    }
    case Op::Eq:
    case Op::Ult:
    case Op::Ule:
    case Op::Slt:
    case Op::Sle: {
      uint16_t S1 = compileTerm(T->operand(0));
      uint16_t S2 = compileTerm(T->operand(1));
      uint16_t D = fresh();
      VmOp O = T->op() == Op::Eq    ? VmOp::Eq
               : T->op() == Op::Ult ? VmOp::Ult
               : T->op() == Op::Ule ? VmOp::Ule
               : T->op() == Op::Slt ? VmOp::Slt
                                    : VmOp::Sle;
      emit(O, widthOf(T->operand(0)), D, S1, S2);
      return D;
    }
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::UDiv:
    case Op::URem:
    case Op::BvAnd:
    case Op::BvOr:
    case Op::BvXor:
    case Op::Shl:
    case Op::LShr:
    case Op::AShr: {
      uint16_t S1 = compileTerm(T->operand(0));
      uint16_t S2 = compileTerm(T->operand(1));
      uint16_t D = fresh();
      VmOp O;
      switch (T->op()) {
      case Op::Add:
        O = VmOp::Add;
        break;
      case Op::Sub:
        O = VmOp::Sub;
        break;
      case Op::Mul:
        O = VmOp::Mul;
        break;
      case Op::UDiv:
        O = VmOp::UDiv;
        break;
      case Op::URem:
        O = VmOp::URem;
        break;
      case Op::BvAnd:
        O = VmOp::And;
        break;
      case Op::BvOr:
        O = VmOp::Or;
        break;
      case Op::BvXor:
        O = VmOp::Xor;
        break;
      case Op::Shl:
        O = VmOp::Shl;
        break;
      case Op::LShr:
        O = VmOp::LShr;
        break;
      default:
        O = VmOp::AShr;
        break;
      }
      emit(O, widthOf(T), D, S1, S2);
      return D;
    }
    case Op::Neg: {
      uint16_t S = compileTerm(T->operand(0));
      uint16_t D = fresh();
      emit(VmOp::Neg, widthOf(T), D, S);
      return D;
    }
    case Op::BvNot: {
      uint16_t S = compileTerm(T->operand(0));
      uint16_t D = fresh();
      emit(VmOp::NotBits, widthOf(T), D, S);
      return D;
    }
    case Op::ZExt:
      // Slots always hold masked values; widening is a no-op.
      return compileTerm(T->operand(0));
    case Op::SExt: {
      uint16_t S = compileTerm(T->operand(0));
      uint16_t D = fresh();
      // Sign-extend from the *source* width, mask to the target width.
      emit(VmOp::SExt, widthOf(T->operand(0)), D, S, 0, 0,
           widthOf(T));
      return D;
    }
    case Op::Extract: {
      uint16_t S = compileTerm(T->operand(0));
      uint16_t D = fresh();
      emit(VmOp::Extract, widthOf(T), D, S, 0, 0, T->extractLo());
      return D;
    }
    case Op::MkTuple:
    case Op::ConstUnit:
      break;
    }
    assert(false && "non-scalar term reached the VM compiler");
    return 0;
  }

  void emitRule(const Rule *R, bool IsFinalizer) {
    switch (R->kind()) {
    case Rule::Kind::Undef:
      emit(VmOp::Reject, 0, 0);
      return;
    case Rule::Kind::Ite: {
      uint16_t C = compileTerm(R->cond());
      size_t JzIdx = P.Code.size();
      emit(VmOp::Jz, 0, 0, C);
      // Then-arm: temps allocated inside are path-local.
      auto SavedMemo = Memo;
      unsigned SavedTemp = NextTemp;
      emitRule(R->thenRule().get(), IsFinalizer);
      Memo = std::move(SavedMemo);
      NextTemp = SavedTemp;
      P.Code[JzIdx].Imm = P.Code.size();
      emitRule(R->elseRule().get(), IsFinalizer);
      return;
    }
    case Rule::Kind::Base: {
      for (TermRef O : R->outputs()) {
        uint16_t S = compileTerm(O);
        emit(VmOp::Emit, 0, 0, S);
      }
      if (IsFinalizer) {
        emit(VmOp::Accept, 0, 0);
        return;
      }
      // Compute all new register leaves before overwriting any of them.
      TermContext &Ctx = A.context();
      std::vector<TermRef> NewLeaves;
      collectLeafTerms(Ctx, R->update(), NewLeaves);
      assert(NewLeaves.size() == NumRegSlots);
      std::vector<std::pair<uint16_t, uint16_t>> Writes; // reg slot <- src
      std::vector<TermRef> OldLeaves;
      collectLeafTerms(Ctx, A.regVar(), OldLeaves);
      for (unsigned I = 0; I < NumRegSlots; ++I) {
        if (NewLeaves[I] == OldLeaves[I])
          continue; // unchanged field
        Writes.push_back({uint16_t(I), compileTerm(NewLeaves[I])});
      }
      // A source that is itself a register slot could be clobbered by an
      // earlier write (e.g. a field swap); stage such sources in temps.
      for (auto &[RegSlot, Src] : Writes) {
        if (Src < NumRegSlots) {
          uint16_t Tmp = fresh();
          emit(VmOp::Mov, 0, Tmp, Src);
          Src = Tmp;
        }
      }
      for (auto [RegSlot, Src] : Writes)
        emit(VmOp::Mov, 0, RegSlot, Src);
      emit(VmOp::Next, 0, 0, 0, 0, 0, R->target());
      return;
    }
    }
  }
};

} // namespace

std::optional<VmProgram> efc::compileRuleProgram(const Bst &A, const Rule *R,
                                                 bool IsFinalizer,
                                                 unsigned *MaxSlotOut) {
  if (!A.inputType()->isScalar() || !A.outputType()->isScalar())
    return std::nullopt;
  TermContext &Ctx = A.context();
  std::vector<TermRef> RegLeaves;
  collectLeafTerms(Ctx, A.regVar(), RegLeaves);
  unsigned NumRegSlots = unsigned(RegLeaves.size());

  std::unordered_map<TermRef, uint16_t> Fixed;
  for (unsigned I = 0; I < RegLeaves.size(); ++I)
    Fixed[RegLeaves[I]] = uint16_t(I);
  Fixed[A.inputVar()] = uint16_t(NumRegSlots);

  RuleCompiler RC(A, NumRegSlots, Fixed, NumRegSlots + 1);
  VmProgram P = RC.compile(R, IsFinalizer);
  if (MaxSlotOut)
    *MaxSlotOut = RC.maxSlot();
  return P;
}

std::optional<CompiledTransducer> CompiledTransducer::compile(const Bst &A) {
  if (!A.inputType()->isScalar() || !A.outputType()->isScalar())
    return std::nullopt;

  CompiledTransducer T;
  TermContext &Ctx = A.context();

  std::vector<TermRef> RegLeaves;
  collectLeafTerms(Ctx, A.regVar(), RegLeaves);
  T.NumRegSlots = unsigned(RegLeaves.size());

  std::unordered_map<TermRef, uint16_t> Fixed;
  for (unsigned I = 0; I < RegLeaves.size(); ++I)
    Fixed[RegLeaves[I]] = uint16_t(I);
  Fixed[A.inputVar()] = uint16_t(T.NumRegSlots); // input slot

  unsigned FirstTemp = T.NumRegSlots + 1;
  RuleCompiler RC(A, T.NumRegSlots, Fixed, FirstTemp);

  unsigned MaxSlot = FirstTemp;
  for (unsigned Q = 0; Q < A.numStates(); ++Q) {
    T.Delta.push_back(RC.compile(A.delta(Q).get(), /*IsFinalizer=*/false));
    MaxSlot = std::max(MaxSlot, RC.maxSlot());
    T.Fin.push_back(RC.compile(A.finalizer(Q).get(), /*IsFinalizer=*/true));
    MaxSlot = std::max(MaxSlot, RC.maxSlot());
  }
  T.NumSlots = MaxSlot + 1;
  T.InitState = A.initialState();
  flattenValue(A.initialRegister(), T.InitRegs);
  assert(T.InitRegs.size() == T.NumRegSlots);
  return T;
}

const char *efc::vmOpName(VmOp Op) {
  switch (Op) {
  case VmOp::Const:
    return "const";
  case VmOp::Mov:
    return "mov";
  case VmOp::Add:
    return "add";
  case VmOp::Sub:
    return "sub";
  case VmOp::Mul:
    return "mul";
  case VmOp::UDiv:
    return "udiv";
  case VmOp::URem:
    return "urem";
  case VmOp::Neg:
    return "neg";
  case VmOp::And:
    return "and";
  case VmOp::Or:
    return "or";
  case VmOp::Xor:
    return "xor";
  case VmOp::NotBits:
    return "notb";
  case VmOp::NotBool:
    return "not";
  case VmOp::Shl:
    return "shl";
  case VmOp::LShr:
    return "lshr";
  case VmOp::AShr:
    return "ashr";
  case VmOp::Eq:
    return "eq";
  case VmOp::Ult:
    return "ult";
  case VmOp::Ule:
    return "ule";
  case VmOp::Slt:
    return "slt";
  case VmOp::Sle:
    return "sle";
  case VmOp::SExt:
    return "sext";
  case VmOp::Extract:
    return "extract";
  case VmOp::Select:
    return "select";
  case VmOp::Jz:
    return "jz";
  case VmOp::Jmp:
    return "jmp";
  case VmOp::Emit:
    return "emit";
  case VmOp::Next:
    return "next";
  case VmOp::Reject:
    return "reject";
  case VmOp::Accept:
    return "accept";
  }
  return "?";
}

std::string efc::disassemble(const VmProgram &P) {
  std::string S;
  char Buf[128];
  for (size_t I = 0; I < P.Code.size(); ++I) {
    const VmInstr &In = P.Code[I];
    snprintf(Buf, sizeof(Buf),
             "  %3zu: %-8s w%-2u d%-3u a%-3u b%-3u c%-3u imm=%llu\n", I,
             vmOpName(In.Op), In.Width, In.Dst, In.A, In.B, In.C,
             (unsigned long long)In.Imm);
    S += Buf;
  }
  return S;
}

std::string CompiledTransducer::disassembleAll() const {
  std::string S;
  for (unsigned Q = 0; Q < numStates(); ++Q) {
    S += "state " + std::to_string(Q) + " delta:\n" +
         disassemble(Delta[Q]);
    S += "state " + std::to_string(Q) + " finalizer:\n" +
         disassemble(Fin[Q]);
  }
  return S;
}

size_t CompiledTransducer::codeSize() const {
  size_t N = 0;
  for (const VmProgram &P : Delta)
    N += P.Code.size();
  for (const VmProgram &P : Fin)
    N += P.Code.size();
  return N;
}

void CompiledTransducer::Cursor::reset() {
  State = T->InitState;
  Slots.assign(T->NumSlots, 0);
  for (unsigned I = 0; I < T->NumRegSlots; ++I)
    Slots[I] = T->InitRegs[I];
}

/// Threaded dispatch: every handler ends in its own indirect jump through
/// the label table to the next instruction's handler, so the branch
/// predictor sees one jump site per opcode instead of one shared switch.
/// The pure handlers compute exactly the VmOp comments in Vm.h over
/// unmasked slots (the input slot is never masked).
template <class OutBuf>
EFC_HOT_ALIGN bool CompiledTransducer::Cursor::exec(const VmProgram &P,
                                                    OutBuf &Out) {
  static const void *const Handlers[] = {
      &&OpConst, &&OpMov,  &&OpAdd,     &&OpSub,    &&OpMul,     &&OpUDiv,
      &&OpURem,  &&OpNeg,  &&OpAnd,     &&OpOr,     &&OpXor,     &&OpNotBits,
      &&OpNotBool, &&OpShl, &&OpLShr,   &&OpAShr,   &&OpEq,      &&OpUlt,
      &&OpUle,   &&OpSlt,  &&OpSle,     &&OpSExt,   &&OpExtract, &&OpSelect,
      &&OpJz,    &&OpJmp,  &&OpEmit,    &&OpNext,   &&OpReject,  &&OpAccept};
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) ==
                    size_t(VmOp::Accept) + 1,
                "one handler per VmOp");
  const VmInstr *const Code = P.Code.data();
  const VmInstr *I = Code;
  uint64_t *S = Slots.data();
#define EFC_DISPATCH() goto *Handlers[size_t(I->Op)]
#define EFC_PURE(Value)                                                        \
  S[I->Dst] = (Value);                                                         \
  ++I;                                                                         \
  EFC_DISPATCH()
  EFC_DISPATCH();
OpConst:
  EFC_PURE(I->Imm);
OpMov:
  EFC_PURE(S[I->A]);
OpAdd:
  EFC_PURE(maskTo(I->Width, S[I->A] + S[I->B]));
OpSub:
  EFC_PURE(maskTo(I->Width, S[I->A] - S[I->B]));
OpMul:
  EFC_PURE(maskTo(I->Width, S[I->A] * S[I->B]));
OpUDiv:
  EFC_PURE(S[I->B] ? S[I->A] / S[I->B] : maskTo(I->Width, ~uint64_t(0)));
OpURem:
  EFC_PURE(S[I->B] ? S[I->A] % S[I->B] : S[I->A]);
OpNeg:
  EFC_PURE(maskTo(I->Width, ~S[I->A] + 1));
OpAnd:
  EFC_PURE(S[I->A] & S[I->B]);
OpOr:
  EFC_PURE(S[I->A] | S[I->B]);
OpXor:
  EFC_PURE(S[I->A] ^ S[I->B]);
OpNotBits:
  EFC_PURE(maskTo(I->Width, ~S[I->A]));
OpNotBool:
  EFC_PURE(S[I->A] ^ 1);
OpShl:
  EFC_PURE(S[I->B] >= I->Width ? 0 : maskTo(I->Width, S[I->A] << S[I->B]));
OpLShr:
  EFC_PURE(S[I->B] >= I->Width ? 0 : S[I->A] >> S[I->B]);
OpAShr: {
  int64_t V = toSigned(I->Width, S[I->A]);
  uint64_t Sh = S[I->B];
  EFC_PURE(maskTo(I->Width, Sh >= I->Width ? uint64_t(V < 0 ? -1 : 0)
                                           : uint64_t(V >> Sh)));
}
OpEq:
  EFC_PURE(uint64_t(S[I->A] == S[I->B]));
OpUlt:
  EFC_PURE(uint64_t(S[I->A] < S[I->B]));
OpUle:
  EFC_PURE(uint64_t(S[I->A] <= S[I->B]));
OpSlt:
  EFC_PURE(uint64_t(toSigned(I->Width, S[I->A]) <
                    toSigned(I->Width, S[I->B])));
OpSle:
  EFC_PURE(uint64_t(toSigned(I->Width, S[I->A]) <=
                    toSigned(I->Width, S[I->B])));
OpSExt:
  EFC_PURE(maskTo(unsigned(uint8_t(I->Imm)),
                  uint64_t(toSigned(I->Width, S[I->A]))));
OpExtract:
  EFC_PURE(maskTo(I->Width, S[I->A] >> I->Imm));
OpSelect:
  EFC_PURE(S[I->A] ? S[I->B] : S[I->C]);
OpJz:
  I = S[I->A] == 0 ? Code + I->Imm : I + 1;
  EFC_DISPATCH();
OpJmp:
  I = Code + I->Imm;
  EFC_DISPATCH();
OpEmit:
  Out.push_back(typename OutBuf::value_type(S[I->A]));
  ++I;
  EFC_DISPATCH();
OpNext:
  State = unsigned(I->Imm);
  return true;
OpAccept:
  return true;
OpReject:
  return false;
#undef EFC_PURE
#undef EFC_DISPATCH
}

template bool CompiledTransducer::Cursor::exec(const VmProgram &,
                                               ElemBuf<uint8_t> &);
template bool CompiledTransducer::Cursor::exec(const VmProgram &,
                                               ElemBuf<uint16_t> &);
template bool CompiledTransducer::Cursor::exec(const VmProgram &,
                                               ElemBuf<uint64_t> &);

ElemWidth efc::elemWidthOf(const Type *Ty) {
  if (!Ty->isScalar())
    return ElemWidth::U64;
  unsigned W = Ty->isBool() ? 1 : Ty->width();
  return W <= 8 ? ElemWidth::U8 : W <= 16 ? ElemWidth::U16 : ElemWidth::U64;
}

std::optional<std::vector<uint64_t>>
CompiledTransducer::run(std::span<const uint64_t> In) const {
  Cursor C(*this);
  std::vector<uint64_t> Out;
  // Most pipeline stages emit at most about one element per input element
  // (decoders shrink, formatters expand only the aggregate tail), so one
  // up-front reservation makes the common case allocation-free instead of
  // growing the vector once per Emit.
  Out.reserve(In.size() + 16);
  for (uint64_t X : In)
    if (!C.feed(X, Out))
      return std::nullopt;
  if (!C.finish(Out))
    return std::nullopt;
  return Out;
}
