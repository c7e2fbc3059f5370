//===- solver/Solver.h - Incremental SMT-lite solver ------------*- C++ -*-===//
///
/// \file
/// The decision procedure used by fusion and RBBE: an incremental
/// satisfiability solver for the QF_BV + tuples term fragment, standing in
/// for Z3 in the paper.  Supports push/pop scopes (implemented with
/// activation-literal assumptions so learned clauses survive, mirroring the
/// paper's use of incremental solver contexts), a fast interval presolve,
/// and model extraction.  Fusion asks only whether a guard is refuted
/// under its branch context (refutes()); RBBE and the certifier ask for
/// absolute answers (checkWith()).
///
//===----------------------------------------------------------------------===//

#ifndef EFC_SOLVER_SOLVER_H
#define EFC_SOLVER_SOLVER_H

#include "solver/BitBlaster.h"
#include "solver/Interval.h"
#include "solver/SatSolver.h"
#include "term/TermContext.h"

#include <memory>
#include <optional>
#include <vector>

namespace efc {

enum class SatResult : uint8_t { Sat, Unsat, Unknown };

/// Incremental solver over boolean terms.
class Solver {
public:
  struct Stats {
    uint64_t Checks = 0;
    uint64_t TrivialUnsat = 0; ///< a `false` assertion was present
    uint64_t TrivialSat = 0;   ///< no (non-trivial) assertions
    uint64_t FastUnsat = 0;    ///< decided by interval presolve
    uint64_t FastSat = 0;      ///< decided by interval presolve
    uint64_t GuessSat = 0;     ///< witnessed by concrete evaluation
    uint64_t CacheHits = 0;    ///< repeated checkWith/refutes queries
    uint64_t SatCalls = 0;     ///< fell through to CDCL
    uint64_t BudgetExceeded = 0;
    uint64_t Implied = 0;      ///< refutes() guards the bounds imply
  };

  explicit Solver(TermContext &Ctx, int64_t ConflictBudget = 1000000);

  TermContext &context() { return Ctx; }

  /// Opens a new assertion scope.
  void push();
  /// Closes the innermost scope, retracting its assertions.
  void pop();
  unsigned numScopes() const { return unsigned(Frames.size()) - 1; }

  /// Asserts a boolean term in the current scope.
  void add(TermRef Assertion);

  /// Checks satisfiability of all active assertions.
  SatResult check();

  /// Convenience: check() with \p Extra temporarily asserted.
  SatResult checkWith(TermRef Extra);

  /// True when the active assertions conjoined with \p Phi are proven
  /// unsatisfiable.  When \p Phi evaluates True under the interval bounds
  /// harvested from the active assertions alone, the context implies it,
  /// the conjunction is exactly as satisfiable as the context, and the
  /// answer is false with no check() (counted in Stats::Implied);
  /// otherwise it is checkWith(Phi) == Unsat.  A false answer claims no
  /// proof, but under an unsatisfiable context it may miss one, so RBBE
  /// and the certifier, which need absolute answers, use checkWith().
  /// Fusion never works under a context known to be unsatisfiable.  Off
  /// with the rest of the presolve (setPresolveEnabled(false)).
  bool refutes(TermRef Phi);

  /// After check() returned Sat: the model value of a variable (or a
  /// projection-chain leaf).  Unconstrained variables default to zero.
  Value modelValue(TermRef VarLike);

  /// Disables the interval presolve (for ablation benchmarks).
  void setPresolveEnabled(bool Enabled) { PresolveEnabled = Enabled; }

  /// Disables the concrete-evaluation witness search (ablation).
  void setGuessingEnabled(bool Enabled) { GuessingEnabled = Enabled; }

  /// Disables checkWith() result caching (ablation).  After a cache hit
  /// no model is available.
  void setCacheEnabled(bool Enabled) { CacheEnabled = Enabled; }

  /// Per-check CDCL conflict budget; exceeding it yields Unknown.  Fusion
  /// and RBBE lower this: an Unknown conservatively keeps branches, and
  /// hard instances are rarely the ones worth proving.
  void setConflictBudget(int64_t Budget) { ConflictBudget = Budget; }
  int64_t conflictBudget() const { return ConflictBudget; }

  const Stats &stats() const { return S; }
  const sat::SatSolver &satSolver() const { return Sat; }

private:
  TermContext &Ctx;
  sat::SatSolver Sat;
  BitBlaster Blaster;
  int64_t ConflictBudget;
  bool PresolveEnabled = true;
  bool GuessingEnabled = true;
  bool CacheEnabled = true;
  Stats S;
  std::unordered_map<size_t, SatResult> CheckCache;
  std::unordered_map<TermRef, Value> GuessedLeaves;

  struct Frame {
    sat::Lit Act;
    std::vector<TermRef> Asserts;
    size_t NumEncoded = 0;
  };
  std::vector<Frame> Frames;

  enum class ModelSrc {
    None,
    FromSat,
    FromInterval,
    FromGuess,
    Trivial
  } LastModel = ModelSrc::None;
  std::unique_ptr<IntervalAnalysis> LastInterval;

  SatResult checkImpl();
  /// checkWith()'s result cache: the key of the active assertions plus
  /// \p Extra, a counted hit, and a check that fills the cache.
  size_t cacheKey(TermRef Extra) const;
  std::optional<SatResult> cachedResult(size_t Key);
  SatResult checkUncached(TermRef Extra, size_t Key);
  std::vector<TermRef> activeAssertions() const;
  bool tryGuess(const std::vector<TermRef> &Asserts,
                const IntervalAnalysis *IA);
  Value guessedValue(TermRef T);
};

} // namespace efc

#endif // EFC_SOLVER_SOLVER_H
