//===- tests/runtime/MetricsConsistencyTest.cpp - Cross-backend metrics ---===//
//
// The same Figure 9 pipeline over the same input must tell the same story
// in the metrics registry regardless of backend: per-backend
// efc_stream_bytes_{in,out}_total deltas equal the session's own
// byte counters, which in turn agree across VM, byte-class fast path and
// native.  The fast-path run-kernel counters folded into the registry
// must match the cursor-local telemetry exactly (the delta fold in
// StreamSession::drain must not double-count across chunks).
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "data/Datasets.h"
#include "runtime/StreamSession.h"
#include "support/Metrics.h"
#include "vm/FastPath.h"

#include <gtest/gtest.h>

using namespace efc;
using namespace efc::bench;
using namespace efc::runtime;

namespace {

/// Registry deltas for one backend label, snapshotted at construction.
struct StreamDeltas {
  metrics::Counter &Sessions, &In, &Out;
  uint64_t Sessions0, In0, Out0;

  explicit StreamDeltas(const char *Label)
      : Sessions(metrics::Registry::instance().counter(
            "efc_stream_sessions_total", "", Label)),
        In(metrics::Registry::instance().counter(
            "efc_stream_bytes_in_total", "", Label)),
        Out(metrics::Registry::instance().counter(
            "efc_stream_bytes_out_total", "", Label)),
        Sessions0(Sessions.value()), In0(In.value()), Out0(Out.value()) {}

  uint64_t sessions() const { return Sessions.value() - Sessions0; }
  uint64_t in() const { return In.value() - In0; }
  uint64_t out() const { return Out.value() - Out0; }
};

/// Streams \p In through \p S in 97-byte chunks (coprime with the run
/// kernels' span lengths, so runs get cut mid-chunk) and returns the
/// output.
std::string pump(StreamSession &S, const std::string &In) {
  std::string Got;
  for (size_t I = 0; I < In.size(); I += 97) {
    EXPECT_TRUE(S.feed(std::string_view(In).substr(I, 97)));
    Got += S.takeOutput();
  }
  EXPECT_TRUE(S.finish());
  Got += S.takeOutput();
  return Got;
}

TEST(MetricsConsistency, Fig9CsvAgreesAcrossBackends) {
  BuiltPipeline P = makeCsvMaxPipeline();
  ASSERT_TRUE(P.CompiledFused && P.FastPlan);
  std::string In = data::makeCsv(77, 8192, 6, 4, 9999);

  StreamDeltas VmD("backend=\"vm\"");
  StreamSession Vm = StreamSession::overVm(*P.CompiledFused);
  std::string VmOut = pump(Vm, In);
  EXPECT_EQ(VmD.sessions(), 1u);
  EXPECT_EQ(VmD.in(), In.size());
  EXPECT_EQ(VmD.in(), Vm.bytesIn());
  EXPECT_EQ(VmD.out(), Vm.bytesOut());
  EXPECT_EQ(VmD.out(), VmOut.size());

  StreamDeltas FastD("backend=\"fastpath\"");
  metrics::Counter &Runs = metrics::Registry::instance().counter(
      "efc_fastpath_runs_total");
  metrics::Counter &RunElems = metrics::Registry::instance().counter(
      "efc_fastpath_run_elements_total");
  uint64_t Runs0 = Runs.value(), RunElems0 = RunElems.value();
  StreamSession Fast = StreamSession::overFast(*P.FastPlan,
                                               *P.CompiledFused);
  std::string FastOut = pump(Fast, In);
  EXPECT_EQ(FastD.sessions(), 1u);
  EXPECT_EQ(FastD.in(), In.size());
  EXPECT_EQ(FastD.out(), Fast.bytesOut());
  // The registry fold must equal the cursor-local telemetry exactly:
  // drain() folds per chunk, and double-counting would show here.
  EXPECT_EQ(Runs.value() - Runs0, Fast.fastRuns());
  EXPECT_EQ(RunElems.value() - RunElems0, Fast.fastRunElements());
  EXPECT_GT(Fast.fastRuns(), 0u) << "CSV max should drive run kernels";

  // The backends must agree with each other, not just with themselves.
  EXPECT_EQ(FastOut, VmOut);
  EXPECT_EQ(Fast.bytesOut(), Vm.bytesOut());

  if (!P.Native)
    GTEST_SKIP() << "no host compiler: native backend unavailable";
  StreamDeltas NatD("backend=\"native\"");
  StreamSession Nat = StreamSession::overNative(*P.Native);
  std::string NatOut = pump(Nat, In);
  EXPECT_EQ(NatD.sessions(), 1u);
  EXPECT_EQ(NatD.in(), In.size());
  EXPECT_EQ(NatD.out(), Nat.bytesOut());
  EXPECT_EQ(NatOut, VmOut);
}

// A rejecting stream must still account its bytes: everything fed before
// the reject counts as input, everything drained counts as output.
TEST(MetricsConsistency, RejectedStreamStillCounts) {
  BuiltPipeline P = makeCsvMaxPipeline();
  ASSERT_TRUE(P.CompiledFused);
  StreamDeltas D("backend=\"vm\"");
  StreamSession S = StreamSession::overVm(*P.CompiledFused);
  std::string Bad = "a,17,x\n\xff"; // 0xFF rejects at the UTF-8 decoder
  EXPECT_FALSE(S.feed(Bad) && S.finish());
  EXPECT_EQ(D.in(), S.bytesIn());
  EXPECT_EQ(D.out(), S.bytesOut());
  EXPECT_GT(D.in(), 0u);
}

// The one-shot runFastPath entry point folds the cursor's counters too —
// and must not interfere with the streaming fold.
TEST(MetricsConsistency, OneShotRunFastPathFoldsCounters) {
  BuiltPipeline P = makeCsvMaxPipeline();
  ASSERT_TRUE(P.CompiledFused && P.FastPlan);
  std::string In = data::makeCsv(78, 4096, 6, 4, 9999);
  std::vector<uint64_t> Raw;
  Raw.reserve(In.size());
  for (unsigned char C : In)
    Raw.push_back(C);

  metrics::Counter &Runs = metrics::Registry::instance().counter(
      "efc_fastpath_runs_total");
  uint64_t Runs0 = Runs.value();
  auto Out = runFastPath(*P.FastPlan, *P.CompiledFused, Raw);
  ASSERT_TRUE(Out.has_value());
  EXPECT_GT(Runs.value(), Runs0) << "run kernels should have fired";
}

} // namespace
