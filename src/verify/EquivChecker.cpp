//===- verify/EquivChecker.cpp - Solver-certified backend equivalence -----===//
//
// The checker relates three artifacts per pipeline stage set:
//
//  Part 1 (bytecode):  every state's delta/finalizer program is symbolically
//  executed into path predicates + observations, and the rule tree is
//  translated into the same 64-bit term encoding through shared helper
//  functions, so matching branches produce pointer-identical terms and
//  discharge by hash-consing; residual obligations go to the solver as
//  "∃ element distinguishing branch f and g" queries (solver/QueryBuilder.h).
//
//  Part 2 (tables):  for table-eligible states, each of the 256 dispatch
//  entries is compared against the concrete bytecode evaluation at that
//  byte (guards of table states are input-only, so the reference term
//  evaluator decides which symbolic path the byte takes), and run kernels
//  are checked for the self-loop / constant-write / uniform-output side
//  conditions that make span consumption sound.
//
//  Part 3 (codegen):  the classifier hash over rule trees + tables +
//  kernels (codegen/CppCodeGen.h) must appear verbatim in the source
//  CppCodeGen generates for this BST.
//
// The VM does not mask its input slot, so equivalence is certified on the
// in-range input domain x < 2^W (the domain every upstream stage and the
// byte-oriented drivers produce); register leaves are likewise constrained
// to their declared widths, matching the VM's slots-hold-masked-values
// invariant.  See DESIGN.md "Certification".
//
//===----------------------------------------------------------------------===//

#include "verify/EquivChecker.h"

#include "codegen/CppCodeGen.h"
#include "solver/QueryBuilder.h"
#include "support/Stopwatch.h"
#include "term/Eval.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

using namespace efc;
using namespace efc::verify;

namespace efc::verify {

const char *certStatusName(CertStatus S) {
  switch (S) {
  case CertStatus::Unchecked:
    return "unchecked";
  case CertStatus::Certified:
    return "certified";
  case CertStatus::Unverified:
    return "unverified";
  case CertStatus::Refuted:
    return "refuted";
  }
  return "?";
}

std::string Counterexample::str() const {
  std::string S = "[" + Part + "] state " + std::to_string(State);
  if (Finalizer)
    S += " (finalizer)";
  if (HasInput) {
    char Buf[32];
    snprintf(Buf, sizeof(Buf), " input=0x%" PRIx64, Input);
    S += Buf;
  }
  if (!Regs.empty()) {
    S += " regs=[";
    for (size_t I = 0; I < Regs.size(); ++I) {
      char Buf[32];
      snprintf(Buf, sizeof(Buf), "%s0x%" PRIx64, I ? "," : "", Regs[I]);
      S += Buf;
    }
    S += "]";
  }
  if (!Detail.empty())
    S += ": " + Detail;
  return S;
}

std::vector<uint64_t> Counterexample::seedInput() const {
  if (!HasInput)
    return {};
  // Kernel witnesses exercise span consumption; replay a length-2 run so
  // the driver actually enters the kernel loop.
  if (Part == "kernel")
    return {Input, Input};
  return {Input};
}

std::string CertReport::summary() const {
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "status=%s states=%u/%u/%u (certified/unverified/refuted) "
           "timeouts=%u queries=%" PRIu64 " trivial=%" PRIu64
           " codegen=%s hash=0x%016" PRIx64 " (%.2fs)",
           certStatusName(Status), StatesCertified, StatesUnverified,
           StatesRefuted, TimedOutStates, SolverQueries, TrivialMatches,
           !CodegenChecked ? "skipped" : CodegenOk ? "ok" : "MISMATCH",
           ClassifierHash, Seconds);
  return Buf;
}

} // namespace efc::verify

namespace {

/// Flattens a register-shaped term into its scalar leaves, in the same
/// order the VM's slot layout uses (vm/Vm.cpp collectLeafTerms): the
/// projection chains go through the factory, so they are the interned
/// terms that appear in rules.
void flattenLeaves(TermContext &Ctx, TermRef T, std::vector<TermRef> &Out) {
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
      flattenLeaves(Ctx, Ctx.mkTupleGet(T, I), Out);
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

/// Shared 64-bit operator encodings.  Both the symbolic VM executor and
/// the rule translator build through these helpers, so a rule branch and
/// its compiled program yield pointer-identical terms whenever the
/// compiler was faithful — which is what turns most proof obligations
/// into hash-cons lookups.  Each helper mirrors one case of
/// CompiledTransducer::Cursor::exec() exactly (vm/Vm.cpp).
struct Cx {
  TermContext &Ctx;
  const Type *B64;
  TermRef Zero, One;

  explicit Cx(TermContext &Ctx)
      : Ctx(Ctx), B64(Ctx.bv(64)), Zero(Ctx.bvConst(B64, 0)),
        One(Ctx.bvConst(B64, 1)) {}

  TermRef k(uint64_t V) { return Ctx.bvConst(B64, V); }
  TermRef maskT(unsigned W) { return k(Value::maskOf(W)); }
  TermRef mask(TermRef T, unsigned W) {
    return W >= 64 ? T : Ctx.mkBvAnd(T, maskT(W));
  }
  /// The low W bits of T sign-extended to 64 (exec's toSigned).
  TermRef sx(TermRef T, unsigned W) {
    if (W >= 64)
      return T;
    if (W == 0)
      return Zero;
    return Ctx.mkSExt(Ctx.mkExtract(T, W - 1, 0), 64);
  }
  /// Bool -> {0,1} as a 64-bit value.
  TermRef b2v(TermRef B) {
    if (B->isTrue())
      return One;
    if (B->isFalse())
      return Zero;
    return Ctx.mkIte(B, One, Zero);
  }

  TermRef opAdd(TermRef A, TermRef B, unsigned W) {
    return mask(Ctx.mkAdd(A, B), W);
  }
  TermRef opSub(TermRef A, TermRef B, unsigned W) {
    return mask(Ctx.mkSub(A, B), W);
  }
  TermRef opMul(TermRef A, TermRef B, unsigned W) {
    return mask(Ctx.mkMul(A, B), W);
  }
  TermRef opUDiv(TermRef A, TermRef B, unsigned W) {
    // exec: b ? a / b : maskTo(W, ~0).  64-bit SMT udiv-by-zero yields
    // 64 set bits, not W, so the zero case is made explicit.
    return Ctx.mkIte(Ctx.mkEq(B, Zero), maskT(W), Ctx.mkUDiv(A, B));
  }
  TermRef opURem(TermRef A, TermRef B) {
    // exec: b ? a % b : a — exactly SMT-LIB bvurem.
    return Ctx.mkURem(A, B);
  }
  TermRef opNeg(TermRef A, unsigned W) { return mask(Ctx.mkNeg(A), W); }
  TermRef opNotBits(TermRef A, unsigned W) {
    return mask(Ctx.mkBvNot(A), W);
  }
  TermRef opShl(TermRef A, TermRef B, unsigned W) {
    return Ctx.mkIte(Ctx.mkUlt(B, k(W)), mask(Ctx.mkShl(A, B), W), Zero);
  }
  TermRef opLShr(TermRef A, TermRef B, unsigned W) {
    return Ctx.mkIte(Ctx.mkUlt(B, k(W)), Ctx.mkLShr(A, B), Zero);
  }
  TermRef opAShr(TermRef A, TermRef B, unsigned W) {
    TermRef V = sx(A, W);
    TermRef Fill = Ctx.mkIte(Ctx.mkSlt(V, Zero), maskT(W), Zero);
    return Ctx.mkIte(Ctx.mkUlt(B, k(W)), mask(Ctx.mkAShr(V, B), W), Fill);
  }
  TermRef opSlt(TermRef A, TermRef B, unsigned W) {
    return Ctx.mkSlt(sx(A, W), sx(B, W));
  }
  TermRef opSle(TermRef A, TermRef B, unsigned W) {
    return Ctx.mkSle(sx(A, W), sx(B, W));
  }
  TermRef opSExt(TermRef A, unsigned SrcW, unsigned DstW) {
    return mask(sx(A, SrcW), DstW);
  }
  TermRef opExtract(TermRef A, unsigned Lo, unsigned W) {
    return mask(Lo ? Ctx.mkLShrC(A, Lo) : A, W);
  }
};

/// A slot during symbolic execution.  V is the 64-bit value; B, when
/// non-null, is a boolean view with the invariant V == b2v(B) (so V is
/// {0,1} and B <=> V != 0).  The view keeps guard terms in the same shape
/// the rule translator produces.
struct SlotVal {
  TermRef V = nullptr;
  TermRef B = nullptr;
};

/// One explored program path: path predicate + observations.
struct SymPath {
  std::vector<TermRef> Conds; ///< boolean conjuncts, branch order
  bool Reject = false;
  unsigned Target = 0;          ///< delta paths: Next target state
  std::vector<TermRef> Emits;   ///< 64-bit emitted values
  std::vector<TermRef> RegOut;  ///< delta paths: register slots at Next
};

/// One root-to-leaf path of a rule tree, with translated guards.
struct RulePath {
  std::vector<TermRef> Conds;
  const Rule *Leaf = nullptr; // Base or Undef
};

class Checker {
public:
  Checker(const Bst &A, const CompiledTransducer &T, const FastPathPlan *Plan,
          const CertOptions &Opts)
      : A(A), T(T), Plan(Plan), Opts(Opts), Ctx(A.context()), C(Ctx),
        S(Ctx, Opts.ConflictBudget) {
    X64 = Ctx.var("__cert.x", C.B64);
    flattenLeaves(Ctx, A.regVar(), RegLeaves);
    for (size_t I = 0; I < RegLeaves.size(); ++I)
      RegVars.push_back(
          Ctx.var("__cert.r" + std::to_string(I), C.B64));
    for (size_t I = 0; I < RegLeaves.size(); ++I)
      LeafSlot.emplace(RegLeaves[I], unsigned(I));
    buildDomain();
  }

  CertReport run();

private:
  const Bst &A;
  const CompiledTransducer &T;
  const FastPathPlan *Plan;
  CertOptions Opts;
  TermContext &Ctx;
  Cx C;
  Solver S;

  TermRef X64 = nullptr;
  std::vector<TermRef> RegLeaves; ///< projection-chain leaf terms
  std::vector<TermRef> RegVars;   ///< 64-bit solver variables per slot
  std::unordered_map<TermRef, unsigned> LeafSlot;
  std::vector<TermRef> DomainConds;

  std::unordered_map<TermRef, TermRef> ValMemo, CondMemo;
  std::unordered_map<TermRef, bool> XOnlyMemo;
  std::unordered_map<TermRef, std::array<uint64_t, 4>> ByteCondBits;

  CertReport R;
  Stopwatch StateTimer;
  CertStatus StateStatus = CertStatus::Certified;
  bool StateTimedOut = false;

  //===------------------------------------------------------------------===//
  // Setup
  //===------------------------------------------------------------------===//

  void buildDomain() {
    // The VM never masks its input slot; certification covers the
    // in-range domain every byte/char-oriented driver produces.
    if (A.inputType()->isBitVec() && A.inputType()->width() < 64)
      DomainConds.push_back(
          Ctx.mkUlt(X64, C.k(uint64_t(1) << A.inputType()->width())));
    for (size_t I = 0; I < RegLeaves.size(); ++I) {
      const Type *Ty = RegLeaves[I]->type();
      if (Ty->isBool())
        DomainConds.push_back(Ctx.mkUle(RegVars[I], C.One));
      else if (Ty->width() < 64)
        DomainConds.push_back(
            Ctx.mkUlt(RegVars[I], C.k(uint64_t(1) << Ty->width())));
    }
  }

  TermRef boolView(unsigned Slot) {
    return Ctx.mkNeq(RegVars[Slot], C.Zero);
  }

  //===------------------------------------------------------------------===//
  // Rule translation (mirrors vm/Vm.cpp RuleCompiler encodings)
  //===------------------------------------------------------------------===//

  static unsigned widthOf(TermRef T) {
    return T->type()->isBool() ? 1 : T->type()->width();
  }

  /// 64-bit value encoding of a scalar rule term; null when the term
  /// cannot be translated (degrades the state to Unverified).
  TermRef value(TermRef T) {
    auto It = ValMemo.find(T);
    if (It != ValMemo.end())
      return It->second;
    TermRef V = valueImpl(T);
    ValMemo.emplace(T, V);
    return V;
  }

  TermRef valueImpl(TermRef T) {
    if (T->type()->isBool()) {
      TermRef B = cond(T);
      return B ? C.b2v(B) : nullptr;
    }
    switch (T->op()) {
    case Op::ConstBv:
      return C.k(T->constBits());
    case Op::Var:
      if (T == A.inputVar())
        return X64;
      [[fallthrough]];
    case Op::TupleGet: {
      auto F = LeafSlot.find(T);
      if (F != LeafSlot.end())
        return RegVars[F->second];
      // Non-leaf projection: push through a syntactic MkTuple.
      if (T->op() == Op::TupleGet &&
          T->operand(0)->op() == Op::MkTuple)
        return value(T->operand(0)->operand(T->tupleIndex()));
      return nullptr;
    }
    case Op::Ite: {
      TermRef Cc = cond(T->operand(0));
      TermRef Vt = value(T->operand(1));
      TermRef Ve = value(T->operand(2));
      return Cc && Vt && Ve ? Ctx.mkIte(Cc, Vt, Ve) : nullptr;
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
      TermRef Va = value(T->operand(0));
      TermRef Vb = value(T->operand(1));
      if (!Va || !Vb)
        return nullptr;
      unsigned W = widthOf(T);
      switch (T->op()) {
      case Op::Add:
        return C.opAdd(Va, Vb, W);
      case Op::Sub:
        return C.opSub(Va, Vb, W);
      case Op::Mul:
        return C.opMul(Va, Vb, W);
      case Op::UDiv:
        return C.opUDiv(Va, Vb, W);
      case Op::URem:
        return C.opURem(Va, Vb);
      case Op::BvAnd:
        return Ctx.mkBvAnd(Va, Vb);
      case Op::BvOr:
        return Ctx.mkBvOr(Va, Vb);
      case Op::BvXor:
        return Ctx.mkBvXor(Va, Vb);
      case Op::Shl:
        return C.opShl(Va, Vb, W);
      case Op::LShr:
        return C.opLShr(Va, Vb, W);
      default:
        return C.opAShr(Va, Vb, W);
      }
    }
    case Op::Neg: {
      TermRef Va = value(T->operand(0));
      return Va ? C.opNeg(Va, widthOf(T)) : nullptr;
    }
    case Op::BvNot: {
      TermRef Va = value(T->operand(0));
      return Va ? C.opNotBits(Va, widthOf(T)) : nullptr;
    }
    case Op::ZExt:
      // The VM compiles ZExt to nothing: slots hold masked values.
      return value(T->operand(0));
    case Op::SExt: {
      TermRef Va = value(T->operand(0));
      return Va ? C.opSExt(Va, widthOf(T->operand(0)), widthOf(T))
                : nullptr;
    }
    case Op::Extract: {
      TermRef Va = value(T->operand(0));
      return Va ? C.opExtract(Va, T->extractLo(), widthOf(T)) : nullptr;
    }
    default:
      return nullptr;
    }
  }

  /// Boolean encoding of a bool-typed rule term; null on failure.
  TermRef cond(TermRef T) {
    auto It = CondMemo.find(T);
    if (It != CondMemo.end())
      return It->second;
    TermRef B = condImpl(T);
    CondMemo.emplace(T, B);
    return B;
  }

  TermRef condImpl(TermRef T) {
    switch (T->op()) {
    case Op::ConstBool:
      return Ctx.boolConst(T->constBits() != 0);
    case Op::Var:
    case Op::TupleGet: {
      auto F = LeafSlot.find(T);
      if (F != LeafSlot.end())
        return boolView(F->second);
      if (T->op() == Op::TupleGet &&
          T->operand(0)->op() == Op::MkTuple)
        return cond(T->operand(0)->operand(T->tupleIndex()));
      return nullptr;
    }
    case Op::Not: {
      TermRef B = cond(T->operand(0));
      return B ? Ctx.mkNot(B) : nullptr;
    }
    case Op::And:
    case Op::Or: {
      TermRef Ba = cond(T->operand(0));
      TermRef Bb = cond(T->operand(1));
      if (!Ba || !Bb)
        return nullptr;
      return T->op() == Op::And ? Ctx.mkAnd(Ba, Bb) : Ctx.mkOr(Ba, Bb);
    }
    case Op::Ite: {
      TermRef Bc = cond(T->operand(0));
      TermRef Bt = cond(T->operand(1));
      TermRef Be = cond(T->operand(2));
      return Bc && Bt && Be ? Ctx.mkIte(Bc, Bt, Be) : nullptr;
    }
    case Op::Eq:
    case Op::Ult:
    case Op::Ule:
    case Op::Slt:
    case Op::Sle: {
      TermRef Va = value(T->operand(0));
      TermRef Vb = value(T->operand(1));
      if (!Va || !Vb)
        return nullptr;
      unsigned W = widthOf(T->operand(0));
      switch (T->op()) {
      case Op::Eq:
        return Ctx.mkEq(Va, Vb);
      case Op::Ult:
        return Ctx.mkUlt(Va, Vb);
      case Op::Ule:
        return Ctx.mkUle(Va, Vb);
      case Op::Slt:
        return C.opSlt(Va, Vb, W);
      default:
        return C.opSle(Va, Vb, W);
      }
    }
    default:
      return nullptr;
    }
  }

  /// Value encoding for any scalar term (bool leaves in the VM's {0,1}
  /// slot representation).
  TermRef encTerm(TermRef T) {
    if (T->type()->isBool()) {
      TermRef B = cond(T);
      return B ? C.b2v(B) : nullptr;
    }
    return value(T);
  }

  //===------------------------------------------------------------------===//
  // Symbolic VM execution
  //===------------------------------------------------------------------===//

  bool symExec(const VmProgram &P, bool IsFinalizer,
               std::vector<SymPath> &Out) {
    std::vector<SlotVal> Slots(T.numSlots());
    for (unsigned I = 0; I < T.numRegSlots(); ++I) {
      if (I >= Slots.size())
        return false;
      Slots[I].V = RegVars[I];
      if (RegLeaves[I]->type()->isBool())
        Slots[I].B = boolView(I);
      else
        Slots[I].B = nullptr;
    }
    if (T.numRegSlots() < Slots.size())
      Slots[T.numRegSlots()].V = IsFinalizer ? C.Zero : X64;
    for (SlotVal &SV : Slots)
      if (!SV.V)
        SV.V = C.Zero;
    size_t Fuel = 4 * P.Code.size() + 16;
    return walk(P, 0, std::move(Slots), {}, {}, Fuel, Out);
  }

  bool walk(const VmProgram &P, size_t Pc, std::vector<SlotVal> Slots,
            std::vector<TermRef> Conds, std::vector<TermRef> Emits,
            size_t Fuel, std::vector<SymPath> &Out) {
    const std::vector<VmInstr> &Code = P.Code;
    auto Slot = [&](uint16_t I) -> SlotVal * {
      return I < Slots.size() ? &Slots[I] : nullptr;
    };
    for (;;) {
      if (Pc >= Code.size() || Fuel-- == 0)
        return false; // ran off the end / runaway loop: malformed
      const VmInstr &I = Code[Pc++];
      SlotVal *D = Slot(I.Dst), *Av = Slot(I.A), *Bv = Slot(I.B),
              *Cv = Slot(I.C);
      switch (I.Op) {
      case VmOp::Const:
        if (!D)
          return false;
        D->V = C.k(I.Imm);
        D->B = I.Imm <= 1 ? Ctx.boolConst(I.Imm == 1) : nullptr;
        break;
      case VmOp::Mov:
        if (!D || !Av)
          return false;
        *D = *Av;
        break;
      case VmOp::Add:
      case VmOp::Sub:
      case VmOp::Mul:
      case VmOp::UDiv:
      case VmOp::URem:
      case VmOp::Shl:
      case VmOp::LShr:
      case VmOp::AShr: {
        if (!D || !Av || !Bv)
          return false;
        TermRef Va = Av->V, Vb = Bv->V;
        switch (I.Op) {
        case VmOp::Add:
          D->V = C.opAdd(Va, Vb, I.Width);
          break;
        case VmOp::Sub:
          D->V = C.opSub(Va, Vb, I.Width);
          break;
        case VmOp::Mul:
          D->V = C.opMul(Va, Vb, I.Width);
          break;
        case VmOp::UDiv:
          D->V = C.opUDiv(Va, Vb, I.Width);
          break;
        case VmOp::URem:
          D->V = C.opURem(Va, Vb);
          break;
        case VmOp::Shl:
          D->V = C.opShl(Va, Vb, I.Width);
          break;
        case VmOp::LShr:
          D->V = C.opLShr(Va, Vb, I.Width);
          break;
        default:
          D->V = C.opAShr(Va, Vb, I.Width);
          break;
        }
        D->B = nullptr;
        break;
      }
      case VmOp::Neg:
        if (!D || !Av)
          return false;
        D->V = C.opNeg(Av->V, I.Width);
        D->B = nullptr;
        break;
      case VmOp::And:
      case VmOp::Or:
        if (!D || !Av || !Bv)
          return false;
        if (Av->B && Bv->B) {
          // Boolean connective: keep the bool view so guards match the
          // rule translator's terms pointer-for-pointer.
          setBool(*D, I.Op == VmOp::And ? Ctx.mkAnd(Av->B, Bv->B)
                                        : Ctx.mkOr(Av->B, Bv->B));
        } else {
          D->V = I.Op == VmOp::And ? Ctx.mkBvAnd(Av->V, Bv->V)
                                   : Ctx.mkBvOr(Av->V, Bv->V);
          D->B = nullptr;
        }
        break;
      case VmOp::Xor:
        if (!D || !Av || !Bv)
          return false;
        D->V = Ctx.mkBvXor(Av->V, Bv->V);
        D->B = nullptr;
        break;
      case VmOp::NotBits:
        if (!D || !Av)
          return false;
        D->V = C.opNotBits(Av->V, I.Width);
        D->B = nullptr;
        break;
      case VmOp::NotBool:
        if (!D || !Av)
          return false;
        if (Av->B) {
          setBool(*D, Ctx.mkNot(Av->B));
        } else {
          D->V = Ctx.mkBvXor(Av->V, C.One);
          D->B = nullptr;
        }
        break;
      case VmOp::Eq:
        if (!D || !Av || !Bv)
          return false;
        setBool(*D, Ctx.mkEq(Av->V, Bv->V));
        break;
      case VmOp::Ult:
        if (!D || !Av || !Bv)
          return false;
        setBool(*D, Ctx.mkUlt(Av->V, Bv->V));
        break;
      case VmOp::Ule:
        if (!D || !Av || !Bv)
          return false;
        setBool(*D, Ctx.mkUle(Av->V, Bv->V));
        break;
      case VmOp::Slt:
        if (!D || !Av || !Bv)
          return false;
        setBool(*D, C.opSlt(Av->V, Bv->V, I.Width));
        break;
      case VmOp::Sle:
        if (!D || !Av || !Bv)
          return false;
        setBool(*D, C.opSle(Av->V, Bv->V, I.Width));
        break;
      case VmOp::SExt:
        if (!D || !Av)
          return false;
        D->V = C.opSExt(Av->V, I.Width, unsigned(uint8_t(I.Imm)));
        D->B = nullptr;
        break;
      case VmOp::Extract:
        if (!D || !Av || I.Imm >= 64)
          return false;
        D->V = C.opExtract(Av->V, unsigned(I.Imm), I.Width);
        D->B = nullptr;
        break;
      case VmOp::Select:
        if (!D || !Av || !Bv || !Cv)
          return false;
        if (Av->B && Bv->B && Cv->B) {
          setBool(*D, Ctx.mkIte(Av->B, Bv->B, Cv->B));
        } else {
          TermRef Cond =
              Av->B ? Av->B : Ctx.mkNeq(Av->V, C.Zero);
          D->V = Ctx.mkIte(Cond, Bv->V, Cv->V);
          D->B = nullptr;
        }
        break;
      case VmOp::Jz: {
        if (!Av || I.Imm > Code.size())
          return false;
        TermRef FallC = Av->B ? Av->B : Ctx.mkNeq(Av->V, C.Zero);
        if (FallC->isTrue())
          break; // never jumps
        if (FallC->isFalse()) {
          Pc = size_t(I.Imm); // always jumps
          break;
        }
        // Fork.  Fall-through first: the rule compiler lays the then-arm
        // out before the else-arm, and path enumeration on the rule side
        // visits then first, so aligned pairing lines up positionally.
        {
          std::vector<TermRef> FallConds = Conds;
          FallConds.push_back(FallC);
          if (!walk(P, Pc, Slots, std::move(FallConds), Emits, Fuel, Out))
            return false;
        }
        Conds.push_back(Ctx.mkNot(FallC));
        Pc = size_t(I.Imm);
        break;
      }
      case VmOp::Jmp:
        if (I.Imm > Code.size())
          return false;
        Pc = size_t(I.Imm);
        break;
      case VmOp::Emit:
        if (!Av)
          return false;
        Emits.push_back(Av->V);
        break;
      case VmOp::Next:
      case VmOp::Accept:
      case VmOp::Reject: {
        if (Out.size() >= Opts.MaxPathsPerProgram)
          return false;
        SymPath SP;
        SP.Conds = std::move(Conds);
        SP.Emits = std::move(Emits);
        SP.Reject = I.Op == VmOp::Reject;
        if (I.Op == VmOp::Next) {
          SP.Target = unsigned(I.Imm);
          SP.RegOut.reserve(T.numRegSlots());
          for (unsigned K = 0; K < T.numRegSlots(); ++K)
            SP.RegOut.push_back(Slots[K].V);
        }
        Out.push_back(std::move(SP));
        return true;
      }
      }
    }
  }

  void setBool(SlotVal &D, TermRef B) {
    D.B = B;
    D.V = C.b2v(B);
  }

  //===------------------------------------------------------------------===//
  // Rule path enumeration
  //===------------------------------------------------------------------===//

  bool rulePaths(const Rule *Rl, std::vector<TermRef> &Conds,
                 std::vector<RulePath> &Out) {
    if (Out.size() >= Opts.MaxPathsPerProgram)
      return false;
    switch (Rl->kind()) {
    case Rule::Kind::Base:
    case Rule::Kind::Undef:
      Out.push_back(RulePath{Conds, Rl});
      return true;
    case Rule::Kind::Ite: {
      TermRef Cc = cond(Rl->cond());
      if (!Cc)
        return false;
      if (Cc->isTrue())
        return rulePaths(Rl->thenRule().get(), Conds, Out);
      if (Cc->isFalse())
        return rulePaths(Rl->elseRule().get(), Conds, Out);
      Conds.push_back(Cc);
      if (!rulePaths(Rl->thenRule().get(), Conds, Out))
        return false;
      Conds.back() = Ctx.mkNot(Cc);
      bool Ok = rulePaths(Rl->elseRule().get(), Conds, Out);
      Conds.pop_back();
      return Ok;
    }
    }
    return false;
  }

  /// Observations of a rule leaf in the VM's slot encoding; false when a
  /// term cannot be translated.
  bool leafObs(const Rule *Leaf, bool IsFinalizer, SymPath &Obs) {
    if (Leaf->isUndef()) {
      Obs.Reject = true;
      return true;
    }
    for (TermRef O : Leaf->outputs()) {
      TermRef V = encTerm(O);
      if (!V)
        return false;
      Obs.Emits.push_back(V);
    }
    if (IsFinalizer)
      return true;
    Obs.Target = Leaf->target();
    std::vector<TermRef> NewLeaves;
    flattenLeaves(Ctx, Leaf->update(), NewLeaves);
    if (NewLeaves.size() != T.numRegSlots())
      return false;
    for (unsigned I = 0; I < NewLeaves.size(); ++I) {
      TermRef V = NewLeaves[I] == RegLeaves[I] ? RegVars[I]
                                               : encTerm(NewLeaves[I]);
      if (!V)
        return false;
      Obs.RegOut.push_back(V);
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Budget / status plumbing
  //===------------------------------------------------------------------===//

  bool budgetLeft() {
    if (Opts.StateBudgetSeconds <= 0 ||
        StateTimer.seconds() >= Opts.StateBudgetSeconds) {
      StateTimedOut = true;
      degrade(CertStatus::Unverified);
      return false;
    }
    return true;
  }

  void degrade(CertStatus To) {
    if (unsigned(To) > unsigned(StateStatus))
      StateStatus = To;
  }

  void refute(Counterexample CE) {
    degrade(CertStatus::Refuted);
    if (R.Counterexamples.size() < 64)
      R.Counterexamples.push_back(std::move(CE));
  }

  std::vector<TermRef> witnessVars(bool IsFinalizer) {
    std::vector<TermRef> W;
    if (!IsFinalizer)
      W.push_back(X64);
    W.insert(W.end(), RegVars.begin(), RegVars.end());
    return W;
  }

  Counterexample makeCe(std::string Part, unsigned Q, bool IsFinalizer,
                        const std::vector<uint64_t> &Witness,
                        std::string Detail) {
    Counterexample CE;
    CE.Part = std::move(Part);
    CE.State = Q;
    CE.Finalizer = IsFinalizer;
    size_t I = 0;
    if (!IsFinalizer && !Witness.empty()) {
      CE.HasInput = true;
      CE.Input = Witness[0];
      I = 1;
    }
    CE.Regs.assign(Witness.begin() + I, Witness.end());
    CE.Detail = std::move(Detail);
    return CE;
  }

  //===------------------------------------------------------------------===//
  // Part 1: bytecode vs rules
  //===------------------------------------------------------------------===//

  /// Compares the observations of one rule path against one VM path under
  /// the given assumptions.  Returns false when the state should stop
  /// (refuted with a recorded witness, or budget exhausted).
  enum class PairVerdict { Equal, Distinct, Unknown, Trivial };

  PairVerdict comparePair(const SymPath &RuleObs,
                          const std::vector<TermRef> &RuleConds,
                          const SymPath &Vm,
                          const std::vector<TermRef> *VmConds,
                          bool IsFinalizer,
                          std::vector<uint64_t> &WitnessOut,
                          std::string &DetailOut,
                          const std::string &What = "rule") {
    DistinguishQuery Q(S);
    Q.assumeAll(DomainConds);
    Q.assumeAll(RuleConds);
    if (VmConds)
      Q.assumeAll(*VmConds);
    if (RuleObs.Reject != Vm.Reject) {
      Q.requireDisagree();
      DetailOut = What + (RuleObs.Reject ? " rejects, bytecode accepts"
                                         : " accepts, bytecode rejects");
    } else if (RuleObs.Reject) {
      return PairVerdict::Trivial; // both reject: no observations
    } else {
      if (!IsFinalizer && RuleObs.Target != Vm.Target) {
        Q.requireDisagree();
        DetailOut = "target state " + std::to_string(RuleObs.Target) +
                    " vs " + std::to_string(Vm.Target);
      } else if (RuleObs.Emits.size() != Vm.Emits.size()) {
        Q.requireDisagree();
        DetailOut = "emit count " + std::to_string(RuleObs.Emits.size()) +
                    " vs " + std::to_string(Vm.Emits.size());
      } else {
        for (size_t I = 0; I < RuleObs.Emits.size(); ++I)
          Q.requireEqual(RuleObs.Emits[I], Vm.Emits[I]);
        for (size_t I = 0; I < RuleObs.RegOut.size(); ++I)
          Q.requireEqual(RuleObs.RegOut[I], Vm.RegOut[I]);
        DetailOut = "emitted or updated values differ";
      }
    }
    if (Q.trivial()) {
      ++R.TrivialMatches;
      return PairVerdict::Trivial;
    }
    std::vector<TermRef> WV = witnessVars(IsFinalizer);
    ++R.SolverQueries;
    DistinguishResult DR = Q.check(WV);
    if (DR.R == SatResult::Unsat)
      return PairVerdict::Equal;
    if (DR.R == SatResult::Unknown)
      return PairVerdict::Unknown;
    WitnessOut = std::move(DR.Witness);
    return PairVerdict::Distinct;
  }

  /// SAT(domain ∧ A ∧ ¬B) — is predicate A not contained in B?
  SatResult checkNotImplies(const std::vector<TermRef> &Ac, TermRef B) {
    S.push();
    for (TermRef D : DomainConds)
      S.add(D);
    for (TermRef Cn : Ac)
      S.add(Cn);
    S.add(Ctx.mkNot(B));
    ++R.SolverQueries;
    SatResult Res = S.check();
    S.pop();
    return Res;
  }

  void checkProgram(unsigned Q, bool IsFinalizer, const std::string &Part,
                    const std::vector<SymPath> &VPaths) {
    const Rule *Rl =
        IsFinalizer ? A.finalizer(Q).get() : A.delta(Q).get();
    std::vector<RulePath> RPaths;
    std::vector<TermRef> Scratch;
    if (!rulePaths(Rl, Scratch, RPaths)) {
      degrade(CertStatus::Unverified);
      return;
    }

    // Precompute leaf observations; a translation failure degrades.
    std::vector<SymPath> RObs(RPaths.size());
    for (size_t I = 0; I < RPaths.size(); ++I)
      if (!leafObs(RPaths[I].Leaf, IsFinalizer, RObs[I])) {
        degrade(CertStatus::Unverified);
        return;
      }

    // Aligned attempt: the compiler emits one VM path per rule path in
    // DFS order, so counts and leaf kinds normally match positionally
    // and each pair's path predicates are pointer-identical.
    bool Aligned = RPaths.size() == VPaths.size();
    if (Aligned)
      for (size_t I = 0; I < RPaths.size(); ++I)
        if (RPaths[I].Leaf->isUndef() != VPaths[I].Reject) {
          Aligned = false;
          break;
        }
    if (Aligned) {
      for (size_t I = 0; I < RPaths.size() && Aligned; ++I) {
        TermRef Cr = Ctx.mkAnd(std::span<const TermRef>(RPaths[I].Conds));
        TermRef Cv = Ctx.mkAnd(std::span<const TermRef>(VPaths[I].Conds));
        if (Cr != Cv) {
          // Prove the predicates coextensive, else fall back to the full
          // pairwise product (reordered branches are still equivalent).
          if (!budgetLeft())
            return;
          if (checkNotImplies(RPaths[I].Conds, Cv) != SatResult::Unsat ||
              checkNotImplies(VPaths[I].Conds, Cr) != SatResult::Unsat) {
            Aligned = false;
            break;
          }
        } else {
          ++R.TrivialMatches;
        }
        if (!budgetLeft())
          return;
        std::vector<uint64_t> Witness;
        std::string Detail;
        switch (comparePair(RObs[I], RPaths[I].Conds, VPaths[I], nullptr,
                            IsFinalizer, Witness, Detail)) {
        case PairVerdict::Equal:
        case PairVerdict::Trivial:
          break;
        case PairVerdict::Unknown:
          degrade(CertStatus::Unverified);
          break;
        case PairVerdict::Distinct:
          refute(makeCe(Part, Q, IsFinalizer, Witness, Detail));
          return;
        }
      }
      if (Aligned)
        return;
    }

    // Full pairwise product: ground truth for reordered or restructured
    // branches.  Infeasible pairs are discharged by one SAT call each.
    for (size_t Ri = 0; Ri < RPaths.size(); ++Ri) {
      for (size_t Vi = 0; Vi < VPaths.size(); ++Vi) {
        if (!budgetLeft())
          return;
        std::vector<uint64_t> Witness;
        std::string Detail;
        switch (comparePair(RObs[Ri], RPaths[Ri].Conds, VPaths[Vi],
                            &VPaths[Vi].Conds, IsFinalizer, Witness,
                            Detail)) {
        case PairVerdict::Equal:
        case PairVerdict::Trivial:
          break;
        case PairVerdict::Unknown:
          degrade(CertStatus::Unverified);
          break;
        case PairVerdict::Distinct:
          refute(makeCe(Part, Q, IsFinalizer, Witness, Detail));
          return;
        }
      }
    }
  }

  //===------------------------------------------------------------------===//
  // Part 2: fast-path tables and run kernels vs bytecode
  //===------------------------------------------------------------------===//

  bool usesOnlyX(TermRef Tm) {
    auto It = XOnlyMemo.find(Tm);
    if (It != XOnlyMemo.end())
      return It->second;
    bool Ok = true;
    if (Tm->isVar())
      Ok = Tm == X64;
    else
      for (TermRef O : Tm->operands())
        if (!usesOnlyX(O)) {
          Ok = false;
          break;
        }
    XOnlyMemo.emplace(Tm, Ok);
    return Ok;
  }

  std::optional<uint64_t> evalAtByte(TermRef Tm, uint64_t B) {
    if (!usesOnlyX(Tm))
      return std::nullopt;
    Env E;
    E.bind(X64, Value::bv(64, B));
    Value V = evalTerm(Tm, E);
    return V.isBool() ? uint64_t(V.boolValue()) : V.bits();
  }

  /// Truth of path condition \p Cn at input byte \p B < 256, evaluated
  /// once per condition for all 256 bytes; std::nullopt when \p Cn reads
  /// a register.
  std::optional<bool> condAtByte(TermRef Cn, uint64_t B) {
    if (!usesOnlyX(Cn))
      return std::nullopt;
    auto It = ByteCondBits.find(Cn);
    if (It == ByteCondBits.end()) {
      std::array<uint64_t, 4> Bits{};
      for (uint64_t U = 0; U < 256; ++U)
        if (*evalAtByte(Cn, U))
          Bits[U >> 6] |= uint64_t(1) << (U & 63);
      It = ByteCondBits.emplace(Cn, Bits).first;
    }
    return (It->second[B >> 6] >> (B & 63)) & 1;
  }

  /// The VM path byte B takes when it reaches a plain leaf (every guard
  /// on its way is input-only); nullptr when a guard on the way reads a
  /// register.
  const SymPath *pathAtByte(const std::vector<SymPath> &VPaths, uint64_t B) {
    for (const SymPath &P : VPaths) {
      bool All = true;
      for (TermRef Cn : P.Conds) {
        std::optional<bool> V = condAtByte(Cn, B);
        if (!V) // register-dependent guard: caller degrades
          return nullptr;
        if (!*V) {
          All = false;
          break;
        }
      }
      if (All)
        return &P;
    }
    return nullptr;
  }

  /// A program path byte B can take: every input-only condition on it
  /// holds at B.  Residual keeps the conditions that read registers, in
  /// branch order, for the solver.
  struct BytePath {
    const SymPath *P;
    std::vector<TermRef> Residual;
  };

  std::vector<BytePath> pathsAtByte(const std::vector<SymPath> &Paths,
                                    uint64_t B) {
    std::vector<BytePath> Out;
    for (const SymPath &P : Paths) {
      BytePath BP{&P, {}};
      bool Feasible = true;
      for (TermRef Cn : P.Conds) {
        std::optional<bool> V = condAtByte(Cn, B);
        if (!V)
          BP.Residual.push_back(Cn);
        else if (!*V) {
          Feasible = false;
          break;
        }
      }
      if (Feasible)
        Out.push_back(std::move(BP));
    }
    return Out;
  }

  /// The obligation of a table Program action at byte B: wherever a path
  /// of the action's program and a path of the state's bytecode can both
  /// be taken at B, they reject alike or reach the same target with the
  /// same emits and register writes.  A residual program branches on
  /// registers, so both sides keep their register-reading conditions and
  /// the solver decides each pair whose observations are not identical
  /// terms.  When the two path lists line up with identical residual
  /// conditions (the residual program is compiled from the bytecode's
  /// own subtree, so they normally do), only aligned pairs are compared:
  /// each register valuation takes path I on both sides.
  void checkProgramAtByte(unsigned Q, const std::vector<SymPath> &APaths,
                          const std::vector<SymPath> &VPaths, uint64_t B) {
    std::vector<BytePath> AF = pathsAtByte(APaths, B);
    std::vector<BytePath> VF = pathsAtByte(VPaths, B);
    if (AF.empty() || VF.empty()) {
      degrade(CertStatus::Unverified); // malformed: no path covers B
      return;
    }
    bool Aligned = AF.size() == VF.size();
    for (size_t I = 0; Aligned && I < AF.size(); ++I)
      Aligned = AF[I].Residual == VF[I].Residual;
    TermRef AtB = Ctx.mkEq(X64, C.k(B));
    for (size_t I = 0; I < AF.size(); ++I) {
      size_t J0 = Aligned ? I : 0, J1 = Aligned ? I + 1 : VF.size();
      for (size_t J = J0; J < J1; ++J) {
        if (!budgetLeft())
          return;
        std::vector<TermRef> Conds = AF[I].Residual;
        Conds.push_back(AtB);
        std::vector<uint64_t> Witness;
        std::string Detail;
        switch (comparePair(*AF[I].P, Conds, *VF[J].P,
                            Aligned ? nullptr : &VF[J].Residual,
                            /*IsFinalizer=*/false, Witness, Detail,
                            "table program")) {
        case PairVerdict::Equal:
        case PairVerdict::Trivial:
          break;
        case PairVerdict::Unknown:
          degrade(CertStatus::Unverified);
          break;
        case PairVerdict::Distinct:
          refute(makeCe("table", Q, false, Witness, Detail));
          return;
        }
      }
    }
  }

  /// Proves Term == Want at input byte B (concrete evaluation when the
  /// term is input-only, otherwise one solver query over the registers).
  /// Returns Equal/Distinct/Unknown.
  PairVerdict equalAtByte(TermRef Term, uint64_t Want, uint64_t B,
                          std::vector<uint64_t> &WitnessOut) {
    if (std::optional<uint64_t> V = evalAtByte(Term, B)) {
      ++R.TrivialMatches;
      return *V == Want ? PairVerdict::Equal : PairVerdict::Distinct;
    }
    DistinguishQuery Q(S);
    Q.assumeAll(DomainConds);
    Q.assume(Ctx.mkEq(X64, C.k(B)));
    Q.requireEqual(Term, C.k(Want));
    if (Q.trivial()) {
      ++R.TrivialMatches;
      return PairVerdict::Equal;
    }
    std::vector<TermRef> WV = witnessVars(false);
    ++R.SolverQueries;
    DistinguishResult DR = Q.check(WV);
    if (DR.R == SatResult::Unsat)
      return PairVerdict::Equal;
    if (DR.R == SatResult::Unknown)
      return PairVerdict::Unknown;
    WitnessOut = std::move(DR.Witness);
    return PairVerdict::Distinct;
  }

  /// Checks that RegOut leaves register slot I at Imm (written) or
  /// unchanged; shared by Const actions and run kernels.
  bool checkRegEffect(const SymPath &Vm,
                      const std::vector<std::pair<uint16_t, uint64_t>> &Writes,
                      uint64_t B, unsigned Q, const std::string &Part,
                      const char *What) {
    std::vector<int64_t> WriteImm(T.numRegSlots(), -1);
    for (auto [SlotI, Imm] : Writes) {
      if (SlotI >= T.numRegSlots()) {
        refute(makeCe(Part, Q, false, {B},
                      std::string(What) + " writes out-of-range slot " +
                          std::to_string(SlotI)));
        return false;
      }
      WriteImm[SlotI] = int64_t(Imm);
    }
    for (unsigned I = 0; I < T.numRegSlots(); ++I) {
      TermRef Out = Vm.RegOut[I];
      if (WriteImm[I] >= 0) {
        std::vector<uint64_t> W;
        PairVerdict PV = equalAtByte(Out, uint64_t(WriteImm[I]), B, W);
        if (PV == PairVerdict::Distinct) {
          refute(makeCe(Part, Q, false, {B},
                        std::string(What) + " register write to slot " +
                            std::to_string(I) + " disagrees with bytecode"));
          return false;
        }
        if (PV == PairVerdict::Unknown)
          degrade(CertStatus::Unverified);
      } else if (Out != RegVars[I]) {
        // Claimed unchanged; prove it.
        DistinguishQuery Qr(S);
        Qr.assumeAll(DomainConds);
        Qr.assume(Ctx.mkEq(X64, C.k(B)));
        Qr.requireEqual(Out, RegVars[I]);
        ++R.SolverQueries;
        DistinguishResult DR = Qr.check(witnessVars(false));
        if (DR.R == SatResult::Sat) {
          refute(makeCe(Part, Q, false, DR.Witness,
                        std::string(What) +
                            " leaves a register slot unwritten that "
                            "bytecode changes (slot " +
                            std::to_string(I) + ")"));
          return false;
        }
        if (DR.R == SatResult::Unknown)
          degrade(CertStatus::Unverified);
      } else {
        ++R.TrivialMatches;
      }
    }
    return true;
  }

  void checkTable(unsigned Q, const std::vector<SymPath> &VPaths) {
    if (!Plan || Q >= Plan->numStates())
      return;
    const FastPathPlan::StateTable &ST = Plan->stateTable(Q);
    if (!ST.HasTable) {
      if (!ST.Runs.empty())
        refute(makeCe("kernel", Q, false, {},
                      "run kernels attached to a state without a table"));
      return;
    }
    const Type *ITy = A.inputType();
    unsigned VB = !ITy->isBitVec() || ITy->width() >= 8
                      ? 256u
                      : (1u << ITy->width());

    // Every dispatch entry against the bytecode evaluation at that byte.
    std::vector<std::optional<std::vector<SymPath>>> ActPaths(
        ST.Actions.size());
    for (unsigned B = 0; B < 256; ++B) {
      if (!budgetLeft())
        return;
      if (ST.Dispatch[B] >= ST.Actions.size()) {
        refute(makeCe("table", Q, false, {B}, "dispatch index out of range"));
        return;
      }
      const FastPathPlan::Action &Act = ST.Actions[ST.Dispatch[B]];
      if (B >= VB) {
        if (Act.K != FastPathPlan::Action::Kind::Fallback ||
            ST.RunId[B] != FastPathPlan::NoRun)
          refute(makeCe("table", Q, false, {B},
                        "padding byte has a non-fallback action"));
        continue;
      }
      if (Act.K == FastPathPlan::Action::Kind::Fallback)
        continue; // dispatches to the bytecode program itself
      if (Act.K == FastPathPlan::Action::Kind::Program) {
        // Leaf and residual programs: symbolic paths once per action.
        std::optional<std::vector<SymPath>> &AP = ActPaths[ST.Dispatch[B]];
        if (!AP && !symExec(Act.Code, /*IsFinalizer=*/false, AP.emplace()))
          AP->clear();
        if (AP->empty())
          degrade(CertStatus::Unverified);
        else
          checkProgramAtByte(Q, *AP, VPaths, B);
        if (StateStatus == CertStatus::Refuted)
          return;
        continue;
      }
      const SymPath *Vp = pathAtByte(VPaths, B);
      if (!Vp) {
        // A register guard on the way to a Const/Jump/Reject byte: the
        // entry cannot be validated byte-concretely.
        degrade(CertStatus::Unverified);
        return;
      }
      switch (Act.K) {
      case FastPathPlan::Action::Kind::Reject:
        if (!Vp->Reject)
          refute(makeCe("table", Q, false, {B},
                        "table rejects, bytecode accepts"));
        break;
      case FastPathPlan::Action::Kind::Jump:
      case FastPathPlan::Action::Kind::Const: {
        bool IsJump = Act.K == FastPathPlan::Action::Kind::Jump;
        if (Vp->Reject) {
          refute(makeCe("table", Q, false, {B},
                        "table accepts, bytecode rejects"));
          break;
        }
        if (Vp->Target != Act.Target) {
          refute(makeCe("table", Q, false, {B},
                        "table target " + std::to_string(Act.Target) +
                            " vs bytecode " + std::to_string(Vp->Target)));
          break;
        }
        size_t WantEmits = IsJump ? 0 : Act.Emits.size();
        if (Vp->Emits.size() != WantEmits) {
          refute(makeCe("table", Q, false, {B},
                        "table emits " + std::to_string(WantEmits) +
                            " elements, bytecode " +
                            std::to_string(Vp->Emits.size())));
          break;
        }
        bool EmitOk = true;
        for (size_t I = 0; I < WantEmits && EmitOk; ++I) {
          std::vector<uint64_t> W;
          PairVerdict PV = equalAtByte(Vp->Emits[I], Act.Emits[I], B, W);
          if (PV == PairVerdict::Distinct) {
            refute(makeCe("table", Q, false, {B},
                          "table emit #" + std::to_string(I) +
                              " disagrees with bytecode"));
            EmitOk = false;
          } else if (PV == PairVerdict::Unknown) {
            degrade(CertStatus::Unverified);
          }
        }
        if (!EmitOk)
          break;
        checkRegEffect(*Vp, IsJump ? std::vector<std::pair<uint16_t, uint64_t>>{}
                                   : Act.Writes,
                       B, Q, "table", "table action");
        break;
      }
      case FastPathPlan::Action::Kind::Program: // checked above
      case FastPathPlan::Action::Kind::Fallback:
        break;
      }
      if (StateStatus == CertStatus::Refuted)
        return;
    }

    // Run kernels: membership consistency plus the self-loop /
    // constant-write / uniform-output side conditions.
    for (size_t Rk = 0; Rk < ST.Runs.size(); ++Rk) {
      const RunKernel &RK = ST.Runs[Rk];
      for (unsigned B = 0; B < 256; ++B) {
        if (!budgetLeft())
          return;
        bool InMask = RK.covers(B);
        bool ById = ST.RunId[B] == uint8_t(Rk);
        if (InMask != ById) {
          refute(makeCe("kernel", Q, false, {B},
                        "kernel byte mask and dispatch map disagree"));
          return;
        }
        if (!InMask)
          continue;
        if (B >= VB) {
          refute(makeCe("kernel", Q, false, {B},
                        "kernel covers a padding byte"));
          return;
        }
        const SymPath *Vp = pathAtByte(VPaths, B);
        if (!Vp) {
          degrade(CertStatus::Unverified);
          return;
        }
        if (Vp->Reject || Vp->Target != Q) {
          refute(makeCe("kernel", Q, false, {B},
                        "kernel byte is not a self-loop in the bytecode"));
          return;
        }
        // Uniform per-element output effect.
        bool EmitOk = true;
        switch (RK.K) {
        case RunKernel::Kind::Skip:
          EmitOk = Vp->Emits.empty();
          break;
        case RunKernel::Kind::Copy:
          EmitOk = Vp->Emits.size() == 1;
          if (EmitOk) {
            std::vector<uint64_t> W;
            EmitOk =
                equalAtByte(Vp->Emits[0], B, B, W) == PairVerdict::Equal;
          }
          break;
        case RunKernel::Kind::ConstAppend:
          EmitOk = Vp->Emits.size() == RK.Emits.size();
          for (size_t I = 0; EmitOk && I < RK.Emits.size(); ++I) {
            std::vector<uint64_t> W;
            EmitOk = equalAtByte(Vp->Emits[I], RK.Emits[I], B, W) ==
                     PairVerdict::Equal;
          }
          break;
        }
        if (!EmitOk) {
          refute(makeCe("kernel", Q, false, {B},
                        "kernel output effect disagrees with bytecode"));
          return;
        }
        // Constant register writes: applying them once per span must be
        // what every element does (idempotence is then structural).
        if (!checkRegEffect(*Vp, RK.Writes, B, Q, "kernel", "run kernel"))
          return;
      }
      // Nibble encoding: the shuffle tables drive the SIMD block scans,
      // the 256-bit mask drives the SWAR/scalar ladder that finishes the
      // span — they must agree on membership at every byte or different
      // ISA levels would find different span ends.
      if (RK.NT.Valid)
        for (unsigned B = 0; B < 256; ++B)
          if (RK.NT.contains(uint8_t(B)) != RK.covers(B)) {
            refute(makeCe("kernel", Q, false, {B},
                          "nibble table disagrees with kernel byte mask"));
            return;
          }
    }
  }

  /// Wide-domain tables: a full differential sweep of [256, Limit)
  /// against the bytecode paths, using the plan builder's own
  /// memoized-bitmap discipline so the sweep stays within the state
  /// budget.  Structure (reject/target/program equivalence) is checked
  /// once per (wide class, bytecode path) pair; the memoized effect
  /// pools are checked per element.
  void checkWide(unsigned Q, const std::vector<SymPath> &VPaths) {
    if (!Plan || Q >= Plan->numStates())
      return;
    const WideTable &WT = Plan->stateTable(Q).Wide;
    if (!WT.Has)
      return;
    const Type *ITy = A.inputType();
    const unsigned W = ITy->isBitVec() ? ITy->width() : 0;
    if (W <= 8 || W > 16 || WT.Limit != (1u << W) ||
        WT.ClassOf.size() != WT.Limit) {
      refute(makeCe("wide", Q, false, {}, "wide table domain mismatch"));
      return;
    }
    const bool Pools = !WT.EmitOff.empty();
    if (Pools && (WT.EmitOff.size() != WT.Limit + 1 ||
                  WT.WriteOff.size() != WT.Limit + 1)) {
      refute(makeCe("wide", Q, false, {}, "memo pool offsets malformed"));
      return;
    }
    for (const WideTable::Class &C : WT.Classes)
      if (C.K == WideTable::Class::Kind::Memo && !Pools) {
        refute(makeCe("wide", Q, false, {}, "memo class without pools"));
        return;
      }
    // Register-dependent guards make the table unvalidatable concretely
    // (the builder would not have produced one, so reaching this is
    // itself suspicious — but degrade, don't refute).
    for (const SymPath &P : VPaths)
      for (TermRef Cn : P.Conds)
        if (!usesOnlyX(Cn)) {
          degrade(CertStatus::Unverified);
          return;
        }

    // One reference-evaluator sweep per distinct guard term, then each
    // element's path is O(depth) bit tests.
    std::unordered_map<TermRef, std::vector<uint64_t>> CondBits;
    auto condAt = [&](TermRef Cn, uint32_t V) -> bool {
      auto It = CondBits.find(Cn);
      if (It == CondBits.end()) {
        std::vector<uint64_t> Bits((WT.Limit + 63) / 64);
        for (uint32_t U = 0; U < WT.Limit; ++U) {
          Env E;
          E.bind(X64, Value::bv(64, U));
          if (evalTerm(Cn, E).boolValue())
            Bits[U >> 6] |= uint64_t(1) << (U & 63);
        }
        It = CondBits.emplace(Cn, std::move(Bits)).first;
      }
      return (It->second[V >> 6] >> (V & 63)) & 1;
    };
    // Input-only effect terms get one value table each.
    std::unordered_map<TermRef, std::vector<uint64_t>> ValMemo;
    auto valAt = [&](TermRef Tm, uint32_t V) -> std::optional<uint64_t> {
      if (!usesOnlyX(Tm))
        return std::nullopt;
      auto It = ValMemo.find(Tm);
      if (It == ValMemo.end()) {
        std::vector<uint64_t> Vals(WT.Limit);
        for (uint32_t U = 0; U < WT.Limit; ++U) {
          Env E;
          E.bind(X64, Value::bv(64, U));
          Value R = evalTerm(Tm, E);
          Vals[U] = R.isBool() ? uint64_t(R.boolValue()) : R.bits();
        }
        It = ValMemo.emplace(Tm, std::move(Vals)).first;
      }
      return It->second[V];
    };

    const size_t NP = VPaths.size();
    std::vector<uint8_t> PairSeen(WT.Classes.size() * NP, 0);
    std::vector<std::optional<std::vector<SymPath>>> ClassPaths(
        WT.Classes.size());
    for (uint32_t V = 256; V < WT.Limit; ++V) {
      if ((V & 1023u) == 0 && !budgetLeft())
        return;
      if (WT.ClassOf[V] >= WT.Classes.size()) {
        refute(makeCe("wide", Q, false, {V}, "class index out of range"));
        return;
      }
      const uint16_t CI = WT.ClassOf[V];
      const WideTable::Class &C = WT.Classes[CI];
      if (C.K == WideTable::Class::Kind::Fallback)
        continue; // dispatches to the bytecode program itself
      int PI = -1;
      for (size_t I = 0; I < NP; ++I) {
        bool All = true;
        for (TermRef Cn : VPaths[I].Conds)
          if (!condAt(Cn, V)) {
            All = false;
            break;
          }
        if (All) {
          PI = int(I);
          break;
        }
      }
      if (PI < 0) {
        degrade(CertStatus::Unverified);
        return;
      }
      const SymPath &Vp = VPaths[size_t(PI)];
      uint8_t &Seen = PairSeen[size_t(CI) * NP + size_t(PI)];
      switch (C.K) {
      case WideTable::Class::Kind::Reject:
        if (!Vp.Reject) {
          refute(makeCe("wide", Q, false, {V},
                        "wide class rejects, bytecode accepts"));
          return;
        }
        break;
      case WideTable::Class::Kind::Memo: {
        if (Vp.Reject || Vp.Target != C.Target) {
          refute(makeCe("wide", Q, false, {V},
                        "wide class target disagrees with bytecode"));
          return;
        }
        const uint32_t E0 = WT.EmitOff[V], E1 = WT.EmitOff[V + 1];
        if (size_t(E1 - E0) != Vp.Emits.size()) {
          refute(makeCe("wide", Q, false, {V},
                        "memoized emit count disagrees with bytecode"));
          return;
        }
        for (uint32_t I = 0; I < E1 - E0; ++I) {
          std::optional<uint64_t> Got = valAt(Vp.Emits[I], V);
          if (!Got) {
            degrade(CertStatus::Unverified);
            return;
          }
          if (*Got != WT.EmitPool[E0 + I]) {
            refute(makeCe("wide", Q, false, {V},
                          "memoized emit disagrees with bytecode"));
            return;
          }
        }
        const uint32_t W0 = WT.WriteOff[V], W1 = WT.WriteOff[V + 1];
        for (size_t I = 0; I < Vp.RegOut.size(); ++I) {
          const std::pair<uint16_t, uint64_t> *Wr = nullptr;
          for (uint32_t J = W0; J < W1; ++J)
            if (WT.WritePool[J].first == I) {
              Wr = &WT.WritePool[J];
              break;
            }
          if (Wr) {
            std::optional<uint64_t> Got = valAt(Vp.RegOut[I], V);
            if (!Got) {
              degrade(CertStatus::Unverified);
              return;
            }
            if (*Got != Wr->second) {
              refute(makeCe("wide", Q, false, {V},
                            "memoized register write disagrees with "
                            "bytecode (slot " +
                                std::to_string(I) + ")"));
              return;
            }
          } else if (Vp.RegOut[I] != RegVars[I]) {
            // Claimed unchanged; prove it once per (class, path) for the
            // whole domain (stronger than the element set, so SAT only
            // degrades — the witness may lie outside the class).
            if (!Seen) {
              DistinguishQuery Qr(S);
              Qr.assumeAll(DomainConds);
              Qr.requireEqual(Vp.RegOut[I], RegVars[I]);
              if (Qr.trivial()) {
                ++R.TrivialMatches;
              } else {
                ++R.SolverQueries;
                DistinguishResult DR = Qr.check(witnessVars(false));
                if (DR.R != SatResult::Unsat) {
                  degrade(CertStatus::Unverified);
                  return;
                }
              }
            }
          } else {
            ++R.TrivialMatches;
          }
        }
        break;
      }
      case WideTable::Class::Kind::Program: {
        if (Vp.Reject || Vp.Target != C.Target) {
          refute(makeCe("wide", Q, false, {V},
                        "wide program target disagrees with bytecode"));
          return;
        }
        if (Seen)
          break;
        if (!ClassPaths[CI]) {
          std::vector<SymPath> APaths;
          if (!symExec(C.Code, /*IsFinalizer=*/false, APaths)) {
            degrade(CertStatus::Unverified);
            return;
          }
          ClassPaths[CI] = std::move(APaths);
        }
        // Leaf programs are straight-line; require equal effects over the
        // whole domain (a superset of the class's elements), so UNSAT
        // certifies every element of the pair at once.
        const std::vector<SymPath> &APaths = *ClassPaths[CI];
        if (APaths.size() != 1 || APaths.front().Reject ||
            APaths.front().Emits.size() != Vp.Emits.size()) {
          degrade(CertStatus::Unverified);
          return;
        }
        const SymPath &Ap = APaths.front();
        DistinguishQuery Qr(S);
        Qr.assumeAll(DomainConds);
        for (size_t I = 0; I < Ap.Emits.size(); ++I)
          Qr.requireEqual(Ap.Emits[I], Vp.Emits[I]);
        for (size_t I = 0; I < Ap.RegOut.size(); ++I)
          Qr.requireEqual(Ap.RegOut[I], Vp.RegOut[I]);
        if (Qr.trivial()) {
          ++R.TrivialMatches;
          break;
        }
        ++R.SolverQueries;
        DistinguishResult DR = Qr.check(witnessVars(false));
        if (DR.R != SatResult::Unsat) {
          // The witness ranges over the whole domain, not just this
          // class's elements — inconclusive, not a refutation.
          degrade(CertStatus::Unverified);
          return;
        }
        break;
      }
      case WideTable::Class::Kind::Fallback:
        break;
      }
      Seen = 1;
    }
  }

  //===------------------------------------------------------------------===//
  // Part 3: codegen classifier hash
  //===------------------------------------------------------------------===//

  void checkCodegen() {
    R.ClassifierHash = classifierHash(A);
    if (!Opts.CheckCodegen)
      return;
    R.CodegenChecked = true;
    CodeGenOptions O;
    O.FunctionName = "efc_impl";
    std::string Src = generateCpp(A, O);
    std::string Needle = "efc_impl_classifier_hash = ";
    size_t Pos = Src.find(Needle);
    uint64_t Embedded = 0;
    bool Found = false;
    if (Pos != std::string::npos) {
      Found = sscanf(Src.c_str() + Pos + Needle.size(), "0x%" SCNx64,
                     &Embedded) == 1;
    }
    R.CodegenOk = Found && Embedded == R.ClassifierHash;
    if (!R.CodegenOk) {
      Counterexample CE;
      CE.Part = "codegen";
      CE.Detail = !Found
                      ? "generated source carries no classifier hash"
                      : "generated source was produced from a different "
                        "classification than the certified IR";
      R.Counterexamples.push_back(std::move(CE));
    }
  }

  //===------------------------------------------------------------------===//
  // Driver
  //===------------------------------------------------------------------===//

  bool checkInit() {
    if (T.initialState() != A.initialState()) {
      Counterexample CE;
      CE.Part = "init";
      CE.Detail = "initial control state differs";
      R.Counterexamples.push_back(std::move(CE));
      return false;
    }
    if (RegLeaves.size() != T.numRegSlots()) {
      Counterexample CE;
      CE.Part = "init";
      CE.Detail = "register slot layout differs";
      R.Counterexamples.push_back(std::move(CE));
      return false;
    }
    std::vector<uint64_t> Want;
    flattenValue(A.initialRegister(), Want);
    std::span<const uint64_t> Got = T.initialRegs();
    if (Want.size() != Got.size() ||
        !std::equal(Want.begin(), Want.end(), Got.begin())) {
      Counterexample CE;
      CE.Part = "init";
      CE.Detail = "initial register image differs";
      R.Counterexamples.push_back(std::move(CE));
      return false;
    }
    return true;
  }
};

CertReport Checker::run() {
  Stopwatch Total;
  if (A.numStates() != T.numStates() || !checkInit()) {
    if (R.Counterexamples.empty()) {
      Counterexample CE;
      CE.Part = "init";
      CE.Detail = "state count differs";
      R.Counterexamples.push_back(std::move(CE));
    }
    R.Status = CertStatus::Refuted;
    R.StatesRefuted = A.numStates();
    R.Seconds = Total.seconds();
    return std::move(R);
  }

  for (unsigned Q = 0; Q < A.numStates(); ++Q) {
    StateTimer.reset();
    StateStatus = CertStatus::Certified;
    StateTimedOut = false;
    if (Opts.StateBudgetSeconds <= 0) {
      StateStatus = CertStatus::Unverified;
      StateTimedOut = true;
    } else {
      std::vector<SymPath> VPaths;
      if (!symExec(T.deltaProgram(Q), /*IsFinalizer=*/false, VPaths)) {
        degrade(CertStatus::Unverified);
      } else {
        checkProgram(Q, /*IsFinalizer=*/false, "bytecode", VPaths);
        if (StateStatus != CertStatus::Refuted)
          checkTable(Q, VPaths);
        if (StateStatus != CertStatus::Refuted)
          checkWide(Q, VPaths);
      }
      if (StateStatus != CertStatus::Refuted) {
        std::vector<SymPath> FPaths;
        if (!symExec(T.finalizerProgram(Q), /*IsFinalizer=*/true, FPaths))
          degrade(CertStatus::Unverified);
        else
          checkProgram(Q, /*IsFinalizer=*/true, "finalizer", FPaths);
      }
    }
    switch (StateStatus) {
    case CertStatus::Certified:
      ++R.StatesCertified;
      break;
    case CertStatus::Unverified:
    case CertStatus::Unchecked:
      ++R.StatesUnverified;
      break;
    case CertStatus::Refuted:
      ++R.StatesRefuted;
      break;
    }
    if (StateTimedOut)
      ++R.TimedOutStates;
  }

  checkCodegen();

  R.Status = R.StatesRefuted || (R.CodegenChecked && !R.CodegenOk)
                 ? CertStatus::Refuted
             : R.StatesUnverified ? CertStatus::Unverified
                                  : CertStatus::Certified;
  R.Seconds = Total.seconds();
  return std::move(R);
}

} // namespace

EquivChecker::EquivChecker(const Bst &A, const CompiledTransducer &T,
                           const FastPathPlan *Plan, CertOptions Opts)
    : A(A), T(T), Plan(Plan), Opts(Opts) {}

const CertReport &EquivChecker::run() {
  if (!Ran) {
    Checker Ck(A, T, Plan, Opts);
    R = Ck.run();
    Ran = true;
  }
  return R;
}

CertReport efc::verify::certifyPipeline(const Bst &A,
                                        const CompiledTransducer &T,
                                        const FastPathPlan *Plan,
                                        const CertOptions &Opts) {
  EquivChecker Ck(A, T, Plan, Opts);
  return Ck.run();
}
