//===- solver/Solver.cpp --------------------------------------------------===//

#include "solver/Solver.h"

#include "support/Metrics.h"
#include "term/Eval.h"
#include "term/Rewrite.h"

#include <algorithm>
#include <unordered_set>

using namespace efc;

namespace {

/// Collects the scalar leaves (variables and projection chains) of a term.
void collectLeaves(TermRef T, std::unordered_set<TermRef> &Atoms,
                   std::unordered_set<TermRef> &Seen) {
  if (!Seen.insert(T).second)
    return;
  if (T->op() == Op::Var || T->op() == Op::TupleGet) {
    if (T->type()->isScalar()) {
      Atoms.insert(T);
      return;
    }
  }
  for (TermRef O : T->operands())
    collectLeaves(O, Atoms, Seen);
}

/// Collects the bitvector constants appearing in a term DAG.
void collectConsts(TermRef T, std::vector<uint64_t> &Pool,
                   std::unordered_set<TermRef> &Seen) {
  if (!Seen.insert(T).second)
    return;
  if (T->op() == Op::ConstBv)
    Pool.push_back(T->constBits());
  for (TermRef O : T->operands())
    collectConsts(O, Pool, Seen);
}

/// Root variable of a projection chain.
TermRef rootVarOf(TermRef Leaf) {
  while (Leaf->op() == Op::TupleGet)
    Leaf = Leaf->operand(0);
  assert(Leaf->isVar());
  return Leaf;
}

/// Assembles a Value for \p Ty, reading scalar leaves of the chain rooted
/// at \p Chain from \p LeafVals (default zero).
Value assembleValue(TermContext &Ctx, const Type *Ty, TermRef Chain,
                    const std::unordered_map<TermRef, Value> &LeafVals) {
  switch (Ty->kind()) {
  case TypeKind::Bool:
  case TypeKind::BitVec: {
    auto It = LeafVals.find(Chain);
    if (It != LeafVals.end())
      return It->second;
    return Value::defaultOf(Ty);
  }
  case TypeKind::Unit:
    return Value::unit();
  case TypeKind::Tuple: {
    std::vector<Value> Es;
    Es.reserve(Ty->arity());
    for (unsigned I = 0; I < Ty->arity(); ++I)
      Es.push_back(assembleValue(Ctx, Ty->elems()[I],
                                 Ctx.mkTupleGet(Chain, I), LeafVals));
    return Value::tuple(std::move(Es));
  }
  }
  return Value::unit();
}

} // namespace

Solver::Solver(TermContext &Ctx, int64_t ConflictBudget)
    : Ctx(Ctx), Blaster(Ctx, Sat), ConflictBudget(ConflictBudget) {
  // Base scope.
  Frames.push_back(Frame{sat::mkLit(Sat.newVar()), {}, 0});
}

void Solver::push() {
  Frames.push_back(Frame{sat::mkLit(Sat.newVar()), {}, 0});
}

void Solver::pop() {
  assert(Frames.size() > 1 && "pop without matching push");
  // Permanently deactivate the scope's clauses so the SAT solver can
  // simplify them away.
  Sat.addUnit(~Frames.back().Act);
  Frames.pop_back();
  LastModel = ModelSrc::None;
}

void Solver::add(TermRef Assertion) {
  assert(Assertion->type()->isBool());
  Frames.back().Asserts.push_back(Assertion);
}

std::vector<TermRef> Solver::activeAssertions() const {
  std::vector<TermRef> Out;
  for (const Frame &F : Frames)
    for (TermRef A : F.Asserts)
      if (!A->isTrue())
        Out.push_back(A);
  return Out;
}

SatResult Solver::check() {
  // Registry mirror of the per-instance Stats: process-wide totals for
  // `efcc --metrics` / the 'M' frame.  CDCL conflicts are metered as a
  // delta around the underlying solve, since SatSolver counts lifetime
  // conflicts.
  namespace mx = metrics;
  static mx::Counter &Checks = mx::Registry::instance().counter(
      "efc_solver_checks_total", "Solver::check() calls");
  static mx::Counter &SatR = mx::Registry::instance().counter(
      "efc_solver_results_total", "check() outcomes by result",
      "result=\"sat\"");
  static mx::Counter &UnsatR = mx::Registry::instance().counter(
      "efc_solver_results_total", "check() outcomes by result",
      "result=\"unsat\"");
  static mx::Counter &UnknownR = mx::Registry::instance().counter(
      "efc_solver_results_total", "check() outcomes by result",
      "result=\"unknown\"");
  static mx::Counter &Presolve = mx::Registry::instance().counter(
      "efc_solver_presolve_hits_total",
      "Checks decided by the interval presolve");
  static mx::Counter &Guess = mx::Registry::instance().counter(
      "efc_solver_guess_sat_total",
      "Checks witnessed by concrete evaluation");
  static mx::Counter &Cdcl = mx::Registry::instance().counter(
      "efc_solver_cdcl_calls_total", "Checks that fell through to CDCL");
  static mx::Counter &Conflicts = mx::Registry::instance().counter(
      "efc_solver_cdcl_conflicts_total", "CDCL conflicts across all checks");

  uint64_t Fast0 = S.FastUnsat + S.FastSat;
  uint64_t Guess0 = S.GuessSat;
  uint64_t SatCalls0 = S.SatCalls;
  uint64_t Conf0 = Sat.numConflicts();

  SatResult R = checkImpl();

  Checks.inc();
  (R == SatResult::Sat     ? SatR
   : R == SatResult::Unsat ? UnsatR
                           : UnknownR)
      .inc();
  Presolve.inc(S.FastUnsat + S.FastSat - Fast0);
  Guess.inc(S.GuessSat - Guess0);
  if (S.SatCalls != SatCalls0) {
    Cdcl.inc();
    Conflicts.inc(Sat.numConflicts() - Conf0);
  }
  return R;
}

SatResult Solver::checkImpl() {
  ++S.Checks;
  LastModel = ModelSrc::None;

  std::vector<TermRef> Asserts = activeAssertions();
  for (TermRef A : Asserts) {
    if (A->isFalse()) {
      ++S.TrivialUnsat;
      return SatResult::Unsat;
    }
  }
  if (Asserts.empty()) {
    ++S.TrivialSat;
    LastModel = ModelSrc::Trivial;
    return SatResult::Sat;
  }

  std::unique_ptr<IntervalAnalysis> IA;
  if (PresolveEnabled) {
    IA = std::make_unique<IntervalAnalysis>(Ctx);
    Tri R = IA->checkConjunction(Asserts);
    if (R == Tri::False) {
      ++S.FastUnsat;
      return SatResult::Unsat;
    }
    if (R == Tri::True) {
      ++S.FastSat;
      LastInterval = std::move(IA);
      LastModel = ModelSrc::FromInterval;
      return SatResult::Sat;
    }
  }

  // Concrete-evaluation witness search: satisfiable contexts (the common
  // case during fusion) usually have easy witnesses inside the harvested
  // bounds, found far cheaper than by bit-blasting.
  if (GuessingEnabled && tryGuess(Asserts, IA.get())) {
    ++S.GuessSat;
    LastModel = ModelSrc::FromGuess;
    return SatResult::Sat;
  }

  // A zero conflict budget means "cheap procedures only": skip encoding
  // and report Unknown (callers treat Unknown conservatively).
  if (ConflictBudget == 0) {
    ++S.BudgetExceeded;
    return SatResult::Unknown;
  }

  // Encode assertions that have not been encoded yet, guarded by their
  // scope's activation literal.
  for (Frame &F : Frames) {
    for (size_t I = F.NumEncoded; I < F.Asserts.size(); ++I) {
      sat::Lit L = Blaster.blastBool(F.Asserts[I]);
      Sat.addBinary(~F.Act, L);
    }
    F.NumEncoded = F.Asserts.size();
  }

  std::vector<sat::Lit> Assumptions;
  Assumptions.reserve(Frames.size());
  for (const Frame &F : Frames)
    Assumptions.push_back(F.Act);

  ++S.SatCalls;
  switch (Sat.solve(Assumptions, ConflictBudget)) {
  case sat::SolveStatus::Sat:
    LastModel = ModelSrc::FromSat;
    return SatResult::Sat;
  case sat::SolveStatus::Unsat:
    return SatResult::Unsat;
  case sat::SolveStatus::Budget:
    ++S.BudgetExceeded;
    return SatResult::Unknown;
  }
  return SatResult::Unknown;
}

size_t Solver::cacheKey(TermRef Extra) const {
  // Result cache: fusion re-checks structurally identical contexts when
  // product states share rules; terms are interned, so the assertion
  // pointer sequence identifies the context exactly.
  size_t Key = 0;
  auto Mix = [&](uint64_t V) {
    Key ^= V + 0x9e3779b97f4a7c15ull + (Key << 6) + (Key >> 2);
  };
  for (const Frame &F : Frames)
    for (TermRef A : F.Asserts)
      Mix(A->id());
  Mix(0xabcdef);
  Mix(Extra->id());
  return Key;
}

std::optional<SatResult> Solver::cachedResult(size_t Key) {
  if (!CacheEnabled)
    return std::nullopt;
  auto It = CheckCache.find(Key);
  if (It == CheckCache.end())
    return std::nullopt;
  ++S.CacheHits;
  static metrics::Counter &CacheHits = metrics::Registry::instance().counter(
      "efc_solver_cache_hits_total",
      "checkWith()/refutes() result-cache hits");
  CacheHits.inc();
  LastModel = ModelSrc::None;
  return It->second;
}

SatResult Solver::checkWith(TermRef Extra) {
  size_t Key = cacheKey(Extra);
  if (std::optional<SatResult> R = cachedResult(Key))
    return *R;
  return checkUncached(Extra, Key);
}

SatResult Solver::checkUncached(TermRef Extra, size_t Key) {
  push();
  add(Extra);
  SatResult R = check();
  ModelSrc Saved = LastModel;
  std::unique_ptr<IntervalAnalysis> SavedIA = std::move(LastInterval);
  pop();
  // pop() clears the model source; restore it so callers can read a model
  // from a checkWith() that answered Sat.  (The SAT model itself persists
  // inside the SAT solver; interval models persist in SavedIA.)
  LastModel = Saved;
  LastInterval = std::move(SavedIA);
  if (CacheEnabled && R != SatResult::Unknown)
    CheckCache.emplace(Key, R);
  return R;
}

bool Solver::refutes(TermRef Phi) {
  static metrics::Counter &Implied = metrics::Registry::instance().counter(
      "efc_solver_implied_total",
      "refutes() guards implied by the context's interval bounds");
  // A repeated question costs one lookup, less than the bounds below.
  size_t Key = cacheKey(Phi);
  if (std::optional<SatResult> R = cachedResult(Key))
    return *R == SatResult::Unsat;
  // The context implies Phi, so the conjunction is as satisfiable as the
  // context: nothing to refute.
  if (PresolveEnabled &&
      IntervalAnalysis(Ctx).evalUnder(activeAssertions(), Phi) == Tri::True) {
    ++S.Implied;
    Implied.inc();
    LastModel = ModelSrc::None;
    return false;
  }
  return checkUncached(Phi, Key) == SatResult::Unsat;
}

Value Solver::modelValue(TermRef VarLike) {
  switch (LastModel) {
  case ModelSrc::FromSat:
    return Blaster.readValue(VarLike);
  case ModelSrc::FromInterval:
    assert(LastInterval);
    return LastInterval->modelOf(VarLike);
  case ModelSrc::FromGuess:
    return guessedValue(VarLike);
  case ModelSrc::Trivial:
  case ModelSrc::None:
    return Value::defaultOf(VarLike->type());
  }
  return Value::defaultOf(VarLike->type());
}

Value Solver::guessedValue(TermRef T) {
  return assembleValue(Ctx, T->type(), T, GuessedLeaves);
}

bool Solver::tryGuess(const std::vector<TermRef> &Asserts,
                      const IntervalAnalysis *IA) {
  // Atoms and constant pool.
  std::unordered_set<TermRef> Atoms, Seen;
  std::vector<uint64_t> Pool{0, 1};
  std::unordered_set<TermRef> SeenC;
  for (TermRef A : Asserts) {
    collectLeaves(A, Atoms, Seen);
    collectConsts(A, Pool, SeenC);
  }
  if (Atoms.size() > 64)
    return false; // too many dimensions for random probing
  // Neighbourhoods of constants are likely witnesses for range guards.
  size_t N = Pool.size();
  for (size_t I = 0; I < N; ++I) {
    Pool.push_back(Pool[I] + 1);
    Pool.push_back(Pool[I] - 1);
  }

  std::vector<TermRef> AtomList(Atoms.begin(), Atoms.end());
  // Iterate atoms in interned-id order, not unordered_set (pointer) order:
  // each atom's guess draws from a shared PRNG stream, so the probe
  // sequence must not depend on heap addresses or results become
  // process-history dependent (and cached native artifacts stop matching
  // across restarts).
  std::sort(AtomList.begin(), AtomList.end(),
            [](TermRef A, TermRef B) { return A->id() < B->id(); });
  std::unordered_set<TermRef> Roots;
  for (TermRef A : AtomList)
    Roots.insert(rootVarOf(A));

  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };

  constexpr int Tries = 24;
  for (int T = 0; T < Tries; ++T) {
    GuessedLeaves.clear();
    for (TermRef A : AtomList) {
      // Respect harvested bounds/pins when available: range guards on
      // atoms are the dominant constraint shape.
      const Interval *B = nullptr;
      if (IA) {
        auto It = IA->atomBounds().find(A);
        if (It != IA->atomBounds().end())
          B = &It->second;
      }
      if (A->type()->isBool()) {
        Tri Pin = Tri::Unknown;
        if (IA) {
          auto It = IA->atomBools().find(A);
          if (It != IA->atomBools().end())
            Pin = It->second;
        }
        bool V = Pin == Tri::Unknown ? (T == 0 ? false : (Next() & 1))
                                     : Pin == Tri::True;
        GuessedLeaves[A] = Value::boolV(V);
      } else if (B && !B->isEmpty()) {
        uint64_t Span = B->Hi - B->Lo + 1;
        uint64_t V = T == 0          ? B->Lo
                     : T == 1        ? B->Hi
                     : Span == 0     ? Next() // full 64-bit range wrapped
                                     : B->Lo + Next() % Span;
        GuessedLeaves[A] = Value::bv(A->type()->width(), V);
      } else {
        uint64_t V = T == 0 ? 0 : Pool[Next() % Pool.size()];
        GuessedLeaves[A] = Value::bv(A->type()->width(), V);
      }
    }
    Env E;
    for (TermRef Root : Roots)
      E.bind(Root, assembleValue(Ctx, Root->type(), Root, GuessedLeaves));
    bool AllTrue = true;
    for (TermRef A : Asserts) {
      if (!evalTerm(A, E).boolValue()) {
        AllTrue = false;
        break;
      }
    }
    if (AllTrue)
      return true;
  }
  GuessedLeaves.clear();
  return false;
}
