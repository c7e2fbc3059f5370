//===- perfbench/harness/Pipelines.h - Compiling benchmark pipelines -*- C++ -*-===//
///
/// \file
/// A benchmark pipeline is either a runtime::PipelineSpec (compiled by
/// PipelineCache::get, as a server would) or a chain of lib:: stages
/// (compiled by tracedCompile() with the pass list and options
/// PipelineCache uses, into a CompiledPipeline that StreamSession::open
/// accepts).
///
/// tracedCompile() assembles the stages and runs the passes one at a
/// time on one PassContext, each under its own span; with tracing on it
/// is the per-layer view of the same compile.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_PIPELINES_H
#define EFC_PERFBENCH_PIPELINES_H

#include "Bench.h"

#include "runtime/PipelineCache.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace pb {

using StageFactory = std::function<std::vector<efc::Bst>(efc::TermContext &)>;

struct PipelineDef {
  std::string Name;
  std::optional<efc::runtime::PipelineSpec> Spec; ///< else Stages
  StageFactory Stages;
};

/// Parses a spec written as `key=value` lines; aborts on a malformed one
/// (every spec the benchmark writes is well formed by construction).
efc::runtime::PipelineSpec specOf(const std::string &Text);

/// Compiles \p D (and its native artifact when \p WantNative).  nullptr
/// and \p Err on failure.
std::shared_ptr<const efc::runtime::CompiledPipeline>
compile(efc::runtime::PipelineCache &Cache, const PipelineDef &D,
        bool WantNative, std::string *Err);

/// Per-layer compile work summed over traced compiles.
struct CompileLayers {
  double AssembleMs = 0, FuseMs = 0, RbbeMs = 0, VmCompileMs = 0,
         FastPlanMs = 0, ParPlanMs = 0, NativeMs = 0;
  uint64_t Compiles = 0, NativeBuilds = 0, States = 0, Branches = 0,
           BranchesRemoved = 0, SolverChecks = 0, SolverUnknown = 0;
  /// Adds the frontends/fusion/rbbe/solver/vm/parallel/codegen compile
  /// metrics to \p R.
  void report(Report &R) const;
};

/// Compiles \p D cold, one pass at a time (the caller resets the
/// per-pass cache and points EFC_CACHE_DIR at a fresh directory first).
/// The entry is built like compile()'s but bypasses PipelineCache.
std::shared_ptr<const efc::runtime::CompiledPipeline>
tracedCompile(const PipelineDef &D, bool WantNative, CompileLayers &L,
              std::string *Err);

/// Hit ratio of the process-wide per-pass artifact cache over lookups
/// made since \p Before (a snapshot of hits + misses); 0 without lookups.
struct PassCacheMark {
  uint64_t Hits = 0, Lookups = 0;
};
PassCacheMark passCacheMark();
double passCacheHitRatio(const PassCacheMark &Before);

} // namespace pb

#endif // EFC_PERFBENCH_PIPELINES_H
