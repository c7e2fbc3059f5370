//===- solver/Interval.cpp ------------------------------------------------===//

#include "solver/Interval.h"

#include "term/ScalarOps.h"

using namespace efc;

namespace {

Tri triAnd(Tri A, Tri B) {
  if (A == Tri::False || B == Tri::False)
    return Tri::False;
  if (A == Tri::True && B == Tri::True)
    return Tri::True;
  return Tri::Unknown;
}

Tri triOr(Tri A, Tri B) {
  if (A == Tri::True || B == Tri::True)
    return Tri::True;
  if (A == Tri::False && B == Tri::False)
    return Tri::False;
  return Tri::Unknown;
}

Tri triNot(Tri A) {
  if (A == Tri::Unknown)
    return A;
  return A == Tri::True ? Tri::False : Tri::True;
}

} // namespace

// Sharp interval bounds for bitwise AND/OR (Warren, Hacker's Delight,
// §4-3): given a in [ALo,AHi], b in [BLo,BHi], the extreme values of a&b
// and a|b.
static uint64_t minOR(uint64_t A, uint64_t B, uint64_t C, uint64_t D,
                      uint64_t TopBit) {
  for (uint64_t M = TopBit; M != 0; M >>= 1) {
    if (~A & C & M) {
      uint64_t T = (A | M) & ~(M - 1);
      if (T <= B) {
        A = T;
        break;
      }
    } else if (A & ~C & M) {
      uint64_t T = (C | M) & ~(M - 1);
      if (T <= D) {
        C = T;
        break;
      }
    }
  }
  return A | C;
}

static uint64_t maxOR(uint64_t A, uint64_t B, uint64_t C, uint64_t D,
                      uint64_t TopBit) {
  for (uint64_t M = TopBit; M != 0; M >>= 1) {
    if (B & D & M) {
      uint64_t T = (B - M) | (M - 1);
      if (T >= A) {
        B = T;
        break;
      }
      T = (D - M) | (M - 1);
      if (T >= C) {
        D = T;
        break;
      }
    }
  }
  return B | D;
}

static uint64_t minAND(uint64_t A, uint64_t B, uint64_t C, uint64_t D,
                       uint64_t TopBit) {
  for (uint64_t M = TopBit; M != 0; M >>= 1) {
    if (~A & ~C & M) {
      uint64_t T = (A | M) & ~(M - 1);
      if (T <= B) {
        A = T;
        break;
      }
      T = (C | M) & ~(M - 1);
      if (T <= D) {
        C = T;
        break;
      }
    }
  }
  return A & C;
}

static uint64_t maxAND(uint64_t A, uint64_t B, uint64_t C, uint64_t D,
                       uint64_t TopBit) {
  for (uint64_t M = TopBit; M != 0; M >>= 1) {
    if (B & ~D & M) {
      uint64_t T = (B & ~M) | (M - 1);
      if (T >= A) {
        B = T;
        break;
      }
    } else if (~B & D & M) {
      uint64_t T = (D & ~M) | (M - 1);
      if (T >= C) {
        D = T;
        break;
      }
    }
  }
  return B & D;
}

void IntervalAnalysis::boundAtomHi(TermRef Atom, uint64_t Hi) {
  Interval &IV = AtomBounds[Atom]; // default full range
  if (IV.Hi > Hi)
    IV.Hi = Hi;
  if (IV.isEmpty())
    Contradiction = true;
}

void IntervalAnalysis::boundAtomLo(TermRef Atom, uint64_t Lo) {
  Interval &IV = AtomBounds[Atom];
  if (IV.Lo < Lo)
    IV.Lo = Lo;
  if (IV.isEmpty())
    Contradiction = true;
}

void IntervalAnalysis::pinAtomBool(TermRef Atom, bool B) {
  auto [It, Inserted] = AtomBools.emplace(Atom, B ? Tri::True : Tri::False);
  if (!Inserted && It->second != (B ? Tri::True : Tri::False))
    Contradiction = true;
}

void IntervalAnalysis::harvest(TermRef C) {
  switch (C->op()) {
  case Op::And:
    harvest(C->operand(0));
    harvest(C->operand(1));
    return;
  case Op::Ule: {
    TermRef A = C->operand(0), B = C->operand(1);
    if (A->isConst() && isAtom(B))
      boundAtomLo(B, A->constBits());
    else if (isAtom(A) && B->isConst())
      boundAtomHi(A, B->constBits());
    return;
  }
  case Op::Ult: {
    TermRef A = C->operand(0), B = C->operand(1);
    if (A->isConst() && isAtom(B))
      boundAtomLo(B, A->constBits() + 1); // const < atom, const < mask here
    else if (isAtom(A) && B->isConst() && B->constBits() > 0)
      boundAtomHi(A, B->constBits() - 1);
    return;
  }
  case Op::Eq: {
    TermRef A = C->operand(0), B = C->operand(1);
    if (A->isConst())
      std::swap(A, B);
    if (!isAtom(A) || !B->isConst())
      return;
    if (A->type()->isBool()) {
      pinAtomBool(A, B->constBits() != 0);
    } else {
      boundAtomLo(A, B->constBits());
      boundAtomHi(A, B->constBits());
    }
    return;
  }
  case Op::Var:
  case Op::TupleGet:
    if (C->type()->isBool())
      pinAtomBool(C, true);
    return;
  case Op::Not:
    if (isAtom(C->operand(0)) && C->operand(0)->type()->isBool())
      pinAtomBool(C->operand(0), false);
    return;
  default:
    return;
  }
}

Interval IntervalAnalysis::evalBv(TermRef T) {
  auto It = BvCache.find(T);
  if (It != BvCache.end())
    return It->second;

  const uint64_t Mask = T->type()->mask();
  Interval R{0, Mask}; // default: full range

  switch (T->op()) {
  case Op::ConstBv:
    R = {T->constBits(), T->constBits()};
    break;
  case Op::Var:
  case Op::TupleGet: {
    auto BIt = AtomBounds.find(T);
    if (BIt != AtomBounds.end())
      R = BIt->second;
    break;
  }
  case Op::Ite: {
    Tri C = evalBool(T->operand(0));
    Interval A = evalBv(T->operand(1));
    Interval B = evalBv(T->operand(2));
    if (C == Tri::True)
      R = A;
    else if (C == Tri::False)
      R = B;
    else
      R = {std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
    break;
  }
  case Op::Add: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    __uint128_t SL = __uint128_t(A.Lo) + B.Lo;
    __uint128_t SH = __uint128_t(A.Hi) + B.Hi;
    if (SH <= Mask)
      R = {uint64_t(SL), uint64_t(SH)};
    else if (SL > Mask && SH <= 2 * __uint128_t(Mask) + 1)
      // Both endpoints wrap exactly once (e.g. `x + (-0x30)` encoding a
      // subtraction): order is preserved modulo 2^w.
      R = {uint64_t(SL - Mask - 1), uint64_t(SH - Mask - 1)};
    break;
  }
  case Op::Sub: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    if (A.Lo >= B.Hi)
      R = {A.Lo - B.Hi, A.Hi - B.Lo};
    break;
  }
  case Op::Mul: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    __uint128_t Hi = __uint128_t(A.Hi) * B.Hi;
    if (Hi <= Mask)
      R = {A.Lo * B.Lo, uint64_t(Hi)};
    break;
  }
  case Op::UDiv: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    if (B.Lo > 0)
      R = {A.Lo / B.Hi, A.Hi / B.Lo};
    break;
  }
  case Op::URem: {
    Interval B = evalBv(T->operand(1));
    Interval A = evalBv(T->operand(0));
    if (B.Lo > 0)
      R = {0, std::min(A.Hi, B.Hi - 1)};
    break;
  }
  case Op::BvAnd: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    unsigned W = T->type()->width();
    uint64_t Top = uint64_t(1) << (W - 1);
    R = {minAND(A.Lo, A.Hi, B.Lo, B.Hi, Top),
         maxAND(A.Lo, A.Hi, B.Lo, B.Hi, Top)};
    break;
  }
  case Op::BvOr: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    unsigned W = T->type()->width();
    uint64_t Top = uint64_t(1) << (W - 1);
    R = {minOR(A.Lo, A.Hi, B.Lo, B.Hi, Top),
         maxOR(A.Lo, A.Hi, B.Lo, B.Hi, Top)};
    break;
  }
  case Op::BvXor: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    uint64_t HiOr = A.Hi | B.Hi;
    uint64_t Ceil = HiOr;
    Ceil |= Ceil >> 1;
    Ceil |= Ceil >> 2;
    Ceil |= Ceil >> 4;
    Ceil |= Ceil >> 8;
    Ceil |= Ceil >> 16;
    Ceil |= Ceil >> 32;
    R = {0, std::min(Mask, Ceil)};
    break;
  }
  case Op::Shl: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    if (B.isSingleton() && B.Lo < 64) {
      __uint128_t Hi = __uint128_t(A.Hi) << B.Lo;
      if (Hi <= Mask)
        R = {A.Lo << B.Lo, uint64_t(Hi)};
    }
    break;
  }
  case Op::LShr: {
    Interval A = evalBv(T->operand(0));
    Interval B = evalBv(T->operand(1));
    if (B.isSingleton())
      R = B.Lo >= 64 ? Interval{0, 0}
                     : Interval{A.Lo >> B.Lo, A.Hi >> B.Lo};
    else
      R = {0, A.Hi};
    break;
  }
  case Op::ZExt: {
    Interval A = evalBv(T->operand(0));
    R = A;
    break;
  }
  case Op::SExt: {
    Interval A = evalBv(T->operand(0));
    unsigned InnerW = T->operand(0)->type()->width();
    uint64_t SignBit = uint64_t(1) << (InnerW - 1);
    if (A.Hi < SignBit)
      R = A; // stays non-negative: zero-fill equals sign-fill
    break;
  }
  case Op::Extract: {
    if (T->extractLo() == 0) {
      Interval A = evalBv(T->operand(0));
      if (A.Hi <= Mask)
        R = A;
    }
    break;
  }
  default:
    break; // conservative full range (Neg, AShr, ...)
  }
  BvCache.emplace(T, R);
  return R;
}

Tri IntervalAnalysis::evalBool(TermRef T) {
  auto It = BoolCache.find(T);
  if (It != BoolCache.end())
    return It->second;

  Tri R = Tri::Unknown;
  switch (T->op()) {
  case Op::ConstBool:
    R = T->constBits() ? Tri::True : Tri::False;
    break;
  case Op::Var:
  case Op::TupleGet: {
    auto BIt = AtomBools.find(T);
    if (BIt != AtomBools.end())
      R = BIt->second;
    break;
  }
  case Op::Not:
    R = triNot(evalBool(T->operand(0)));
    break;
  case Op::And:
    R = triAnd(evalBool(T->operand(0)), evalBool(T->operand(1)));
    break;
  case Op::Or:
    R = triOr(evalBool(T->operand(0)), evalBool(T->operand(1)));
    break;
  case Op::Ite: {
    Tri C = evalBool(T->operand(0));
    Tri A = evalBool(T->operand(1));
    Tri B = evalBool(T->operand(2));
    if (C == Tri::True)
      R = A;
    else if (C == Tri::False)
      R = B;
    else if (A == B)
      R = A;
    break;
  }
  case Op::Eq: {
    TermRef A = T->operand(0), B = T->operand(1);
    if (A->type()->isBool()) {
      Tri TA = evalBool(A), TB = evalBool(B);
      if (TA != Tri::Unknown && TB != Tri::Unknown)
        R = TA == TB ? Tri::True : Tri::False;
    } else {
      Interval IA = evalBv(A), IB = evalBv(B);
      if (IA.Hi < IB.Lo || IB.Hi < IA.Lo)
        R = Tri::False;
      else if (IA.isSingleton() && IB.isSingleton() && IA.Lo == IB.Lo)
        R = Tri::True;
    }
    break;
  }
  case Op::Ult: {
    Interval IA = evalBv(T->operand(0)), IB = evalBv(T->operand(1));
    if (IA.Hi < IB.Lo)
      R = Tri::True;
    else if (IA.Lo >= IB.Hi)
      R = Tri::False;
    break;
  }
  case Op::Ule: {
    Interval IA = evalBv(T->operand(0)), IB = evalBv(T->operand(1));
    if (IA.Hi <= IB.Lo)
      R = Tri::True;
    else if (IA.Lo > IB.Hi)
      R = Tri::False;
    break;
  }
  case Op::Slt:
  case Op::Sle: {
    // Compare only when both intervals avoid the sign boundary.
    unsigned W = T->operand(0)->type()->width();
    uint64_t SignBit = uint64_t(1) << (W - 1);
    Interval IA = evalBv(T->operand(0)), IB = evalBv(T->operand(1));
    bool ANonNeg = IA.Hi < SignBit, ANeg = IA.Lo >= SignBit;
    bool BNonNeg = IB.Hi < SignBit, BNeg = IB.Lo >= SignBit;
    if ((ANonNeg || ANeg) && (BNonNeg || BNeg)) {
      if (ANeg && BNonNeg)
        R = Tri::True;
      else if (ANonNeg && BNeg)
        R = Tri::False;
      else {
        // Same sign: signed order coincides with unsigned order.
        if (IA.Hi < IB.Lo)
          R = Tri::True;
        else if (T->op() == Op::Slt && IA.Lo >= IB.Hi)
          R = Tri::False;
        else if (T->op() == Op::Sle && IA.Hi <= IB.Lo)
          R = Tri::True;
        else if (T->op() == Op::Sle && IA.Lo > IB.Hi)
          R = Tri::False;
      }
    }
    break;
  }
  default:
    break;
  }
  BoolCache.emplace(T, R);
  return R;
}

Tri IntervalAnalysis::checkConjunction(std::span<const TermRef> Asserts) {
  for (TermRef A : Asserts)
    harvest(A);
  if (Contradiction)
    return Tri::False;
  bool AllTrue = true;
  for (TermRef A : Asserts) {
    Tri R = evalBool(A);
    if (R == Tri::False)
      return Tri::False;
    if (R != Tri::True)
      AllTrue = false;
  }
  return AllTrue ? Tri::True : Tri::Unknown;
}

Tri IntervalAnalysis::evalUnder(std::span<const TermRef> Context,
                                TermRef Phi) {
  for (TermRef A : Context)
    harvest(A);
  return Contradiction ? Tri::Unknown : evalBool(Phi);
}

Value IntervalAnalysis::modelOf(TermRef T) {
  const Type *Ty = T->type();
  switch (Ty->kind()) {
  case TypeKind::Bool: {
    auto It = AtomBools.find(T);
    return Value::boolV(It != AtomBools.end() && It->second == Tri::True);
  }
  case TypeKind::BitVec: {
    auto It = AtomBounds.find(T);
    return Value::bv(Ty->width(), It == AtomBounds.end() ? 0 : It->second.Lo);
  }
  case TypeKind::Unit:
    return Value::unit();
  case TypeKind::Tuple: {
    std::vector<Value> Es;
    Es.reserve(Ty->arity());
    for (unsigned I = 0; I < Ty->arity(); ++I)
      Es.push_back(modelOf(Ctx.mkTupleGet(T, I)));
    return Value::tuple(std::move(Es));
  }
  }
  return Value::unit();
}
