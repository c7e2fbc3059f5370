//===- solver/Interval.h - Interval / constant presolve ---------*- C++ -*-===//
///
/// \file
/// A cheap sound presolve for conjunctions: harvests unsigned bounds for
/// scalar leaves from range-shaped conjuncts (the dominant guard shape in
/// fused transducers, e.g. `0x30 <= x && x <= 0x39`), then evaluates the
/// remaining conjuncts in a three-valued interval domain.  Answers
/// definitely-unsat, definitely-sat (with a model), or unknown — in which
/// case the caller falls back to bit-blasting.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_SOLVER_INTERVAL_H
#define EFC_SOLVER_INTERVAL_H

#include "term/Term.h"
#include "term/TermContext.h"
#include "term/Value.h"

#include <span>
#include <unordered_map>

namespace efc {

enum class Tri : uint8_t { False, True, Unknown };

/// Unsigned interval within a bitvector type's mask.  Empty when Lo > Hi.
struct Interval {
  uint64_t Lo = 0;
  uint64_t Hi = ~uint64_t(0);

  bool isSingleton() const { return Lo == Hi; }
  bool isEmpty() const { return Lo > Hi; }
};

/// One-shot interval analysis over a conjunction of boolean terms.
class IntervalAnalysis {
public:
  explicit IntervalAnalysis(TermContext &Ctx) : Ctx(Ctx) {}

  /// Analyzes the conjunction of \p Asserts.
  Tri checkConjunction(std::span<const TermRef> Asserts);

  /// The value of \p Phi for every assignment within the bounds harvested
  /// from \p Context alone: True means Context implies Phi.  Unknown when
  /// the bounds contradict each other.
  Tri evalUnder(std::span<const TermRef> Context, TermRef Phi);

  /// After checkConjunction returned True: a satisfying value for a
  /// variable (or projection-chain leaf) term.
  Value modelOf(TermRef T);

  /// Harvested per-atom bounds / boolean pins (valid after
  /// checkConjunction; used by the solver's witness guessing).
  const std::unordered_map<TermRef, Interval> &atomBounds() const {
    return AtomBounds;
  }
  const std::unordered_map<TermRef, Tri> &atomBools() const {
    return AtomBools;
  }

private:
  TermContext &Ctx;
  std::unordered_map<TermRef, Interval> AtomBounds;
  std::unordered_map<TermRef, Tri> AtomBools;
  std::unordered_map<TermRef, Interval> BvCache;
  std::unordered_map<TermRef, Tri> BoolCache;
  bool Contradiction = false;

  static bool isAtom(TermRef T) {
    return T->op() == Op::Var || T->op() == Op::TupleGet;
  }

  void harvest(TermRef Conjunct);
  void boundAtomHi(TermRef Atom, uint64_t Hi);
  void boundAtomLo(TermRef Atom, uint64_t Lo);
  void pinAtomBool(TermRef Atom, bool B);

  Interval evalBv(TermRef T);
  Tri evalBool(TermRef T);
};

} // namespace efc

#endif // EFC_SOLVER_INTERVAL_H
