//===- pipeline/PassManager.h - Run + cache + verify a pass list *- C++ -*-===//
///
/// \file
/// Drives a named pass list over one PassContext (see Pass.h):
///
///   * per-pass artifact caching in a process-wide LRU, keyed on
///     (pass name, IR hash entering the pass, pass options hash) — an
///     RBBE-budget-only change re-keys `rbbe` but hits the cached `fuse`
///     artifact; a fastpath-knob change reuses fuse/rbbe/vm_compile,
///   * IR invariant verification between passes behind EFC_VERIFY_IR=1,
///   * per-pass Metrics counters/seconds (efc_pass_*_total{pass="..."})
///     and the trace::Span tree the monolithic driver used to emit.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PIPELINE_PASSMANAGER_H
#define EFC_PIPELINE_PASSMANAGER_H

#include "pipeline/Pass.h"

#include <string>
#include <vector>

namespace efc::pipeline {

/// Per-pass hit/miss counters of the process-wide artifact cache.
struct PassCacheStats {
  struct Row {
    std::string Pass;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };
  std::vector<Row> Rows; ///< sorted by pass name
  uint64_t Entries = 0;
  uint64_t Capacity = 0;
  uint64_t Evictions = 0;

  uint64_t hits(std::string_view Pass) const;
  uint64_t misses(std::string_view Pass) const;
  /// "pass-cache: cap=64 entries=3 evictions=0 fuse=2/5 rbbe=0/5" —
  /// hits/lookups per pass, for stats dumps and the CI cache-stats line.
  std::string str() const;
};

class PassManager {
public:
  /// \p Passes are registry names, run in order.  Unknown names fail at
  /// run() with a diagnostic listing the registry.
  explicit PassManager(std::vector<std::string> Passes);

  /// The serving pipeline for a spec: fuse [+ rbbe] [+ minimize] +
  /// vm_compile + fastpath_plan.
  static std::vector<std::string> defaultPasses(bool Rbbe, bool Minimize);

  const std::vector<std::string> &passes() const { return Names; }

  /// Runs every pass over \p PC.  False + \p Err on the first failure
  /// (unknown pass, pass error, or — under VerifyIr — an invariant
  /// violation).  PC.Runs records one PassRun per executed pass.
  bool run(PassContext &PC, const PipelineOptions &O,
           std::string *Err) const;

  /// One line per pass: name, kind, cacheability, options fingerprint.
  std::string explain(const PipelineOptions &O) const;

  static PassCacheStats cacheStats();
  /// Drops every cached artifact and zeroes the counters (tests).
  static void resetCacheForTests();

private:
  std::vector<std::string> Names;
};

/// Generic IR invariants (also used by the manager between passes):
/// structural/type well-formedness plus rule-tree hash determinism — two
/// independent classifier-hash walks must agree, so any
/// iteration-order-dependent rule construction is caught here.
bool verifyIr(const Bst &A, std::string *Err);

} // namespace efc::pipeline

#endif // EFC_PIPELINE_PASSMANAGER_H
