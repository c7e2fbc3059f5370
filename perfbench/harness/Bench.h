//===- perfbench/harness/Bench.h - Shared benchmark plumbing -----*- C++ -*-===//
///
/// \file
/// Options, timing, statistics, the in-memory span recorder and the
/// metric report shared by the three workloads.
///
/// Spans are recorded by the benchmark around its own calls into each
/// layer's public entry points (nothing inside the library is
/// instrumented).  They live in memory and are only summarized when the
/// run ends.  With tracing off, Span is a no-op.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_BENCH_H
#define EFC_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double msSince(Clock::time_point A) {
  return secondsBetween(A, Clock::now()) * 1e3;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Nearest-rank quantile of \p V (copied), 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double geomean(const std::vector<double> &V);

/// One reported number.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  uint64_t Samples = 0; ///< sample count behind a percentile or median
};

/// Everything one run reports.  E2E holds the gated end-to-end metrics
/// (the JSON of an untraced run), Named the workload's own end-to-end
/// figures (text report), Layer the per-layer values of a traced run by
/// name (units and predictions live in the table in main.cpp).
struct Report {
  std::vector<Metric> E2E, Named;
  std::map<std::string, double> Layer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Mismatch; ///< first output mismatch; non-empty fails the run

  void e2e(std::string N, std::string U, double V, uint64_t S = 1) {
    E2E.push_back({std::move(N), std::move(U), V, S});
  }
  void named(std::string N, std::string U, double V, uint64_t S = 1) {
    Named.push_back({std::move(N), std::move(U), V, S});
  }
  void layer(const std::string &N, double V) { Layer[N] = V; }
  /// Records a mismatch (the first one wins) and counts a failed op.
  void mismatch(const std::string &Workload, const std::string &What,
                const std::string &Expected, const std::string &Actual);
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct SpanRec {
  const char *Layer;
  const char *Name;
  uint32_t Parent; ///< index + 1 of the enclosing span, 0 for a root
  Clock::time_point T0, T1;
};

/// Single-threaded span recorder: every span is opened on the benchmark's
/// own thread, so nesting follows a plain stack.
class Tracer {
public:
  static Tracer &get();
  bool On = false;
  std::vector<SpanRec> Spans;
  std::vector<uint32_t> Stack;

  /// Self time per layer (span duration minus the time its child spans
  /// cover), in milliseconds, over spans that started at or after \p From.
  std::vector<std::pair<std::string, double>> selfMs(size_t From = 0) const;
  /// Time covered by root spans recorded at or after \p From, in ms.
  double rootMs(size_t From = 0) const;
  /// Writes every recorded span out, grouped by layer and name: count,
  /// total and self milliseconds.
  void print(FILE *Out) const;
};

class Span {
public:
  Span(const char *Layer, const char *Name) {
    Tracer &T = Tracer::get();
    if (!T.On)
      return;
    Idx = uint32_t(T.Spans.size()) + 1;
    T.Spans.push_back({Layer, Name, T.Stack.empty() ? 0 : T.Stack.back(),
                       Clock::now(), {}});
    T.Stack.push_back(Idx);
  }
  ~Span() {
    if (!Idx)
      return;
    Tracer &T = Tracer::get();
    T.Spans[Idx - 1].T1 = Clock::now();
    T.Stack.pop_back();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  uint32_t Idx = 0;
};

/// Adds the layer accounting of spans recorded since \p From to \p R:
/// `self_ms.<layer>` for every layer that has spans, and
/// `unattributed_share` of \p EndToEndMs that no root span covers.
void addLayerAccounting(Report &R, size_t From, double EndToEndMs);

//===----------------------------------------------------------------------===//
// Process facts
//===----------------------------------------------------------------------===//

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// User + system CPU seconds of this process (every thread, the server's
/// shards included).  Time the host takes the CPU away is not in it.
double cpuSeconds();

/// User + system CPU seconds of the calling thread.
double threadCpuSeconds();

/// On-CPU seconds of every live thread of this process but the calling
/// one (from /proc/self/task/*/schedstat); negative when unavailable.
double otherThreadsCpuSeconds();

/// Reads a counter from the process-wide metrics registry (0 when the
/// metric was never registered by the library).
uint64_t registryCounter(const char *Name, const char *Labels = "");

/// Runs \p SetUp (which must also tear down what it started) in a forked
/// child and returns the seconds it reports, negative on failure.  Extra
/// set-up repetitions run this way so their memory never counts toward
/// this process's peak RSS.  Call it only while this process has no other
/// threads.
double setUpInChild(const std::function<double()> &SetUp);

/// Points EFC_CACHE_DIR at a new, empty directory under the run
/// directory so no native build can be served from an earlier one.
void freshArtifactDir(const std::string &Tag);

} // namespace pb

#endif // EFC_PERFBENCH_BENCH_H
