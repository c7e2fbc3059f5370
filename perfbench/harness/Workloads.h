//===- perfbench/harness/Workloads.h - The three workloads -------*- C++ -*-===//
///
/// \file
/// Each workload builds all of its traffic from the seed before timing
/// starts, sets the system up (setup_s is the median over the set-ups a
/// workload repeats),
/// measures for the requested seconds, checks every output against
/// Refs.h, and fills a Report.  With tracing on it adds the per-layer
/// metrics instead.
///
/// The gated end-to-end metrics are the same three for every workload:
///
///   setup_s      wall time of one set-up (compiles, server start,
///                session opens), median over repeated set-ups
///   work_s       the cost of the workload's fixed unit of work
///   peak_rss_mb  ru_maxrss at exit
///
/// What work_s counts is written next to each workload's code.  The
/// workload-specific figures (scan_mb_s, serve_*, compile_s, ...) are
/// printed by name, with unit and sample count, in the text report.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_WORKLOADS_H
#define EFC_PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include <string>
#include <vector>

namespace pb {

void runBatchScan(const Options &O, Report &R);
void runServeWarm(const Options &O, Report &R);
void runCompileCold(const Options &O, Report &R);

} // namespace pb

#endif // EFC_PERFBENCH_WORKLOADS_H
