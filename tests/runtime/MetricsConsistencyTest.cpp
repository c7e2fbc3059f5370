//===- tests/runtime/MetricsConsistencyTest.cpp - Cross-backend metrics ---===//
//
// The same Figure 9 pipeline over the same input must tell the same story
// in the metrics registry regardless of backend: per-backend
// efc_stream_bytes_{in,out}_total deltas equal the session's own
// byte counters, which in turn agree across VM, byte-class fast path and
// native.  The fast-path run-kernel counters folded into the registry
// must match the cursor-local telemetry exactly (the delta fold in
// StreamSession::drain must not double-count across chunks).  The
// execution ledger's five tiers must add up to the bytes fed on every
// pipeline the benchmark serves or scans.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "data/Datasets.h"
#include "pipeline/PassManager.h"
#include "runtime/StreamSession.h"
#include "stdlib/Transducers.h"
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

//===----------------------------------------------------------------------===//
// The execution ledger: every element fed is counted once, by the tier
// that consumed it, so the five counts add up to the bytes fed.
//===----------------------------------------------------------------------===//

struct LedgerCase {
  const char *Name;
  std::vector<Bst> (*Make)(TermContext &);
  std::string (*Input)();
};

void PrintTo(const LedgerCase &C, std::ostream *OS) { *OS << C.Name; }

std::vector<Bst> stagesOf(TermContext &Ctx, const char *Text) {
  std::string Err;
  auto Spec = PipelineSpec::parse(Text, &Err);
  EXPECT_TRUE(Spec) << Err;
  if (!Spec)
    return {};
  auto St = assembleStages(*Spec, Ctx, &Err);
  EXPECT_TRUE(St) << Err;
  return St ? std::move(*St) : std::vector<Bst>{};
}

#define SPEC(Text) [](TermContext &C) { return stagesOf(C, Text); }
#define CSV_SPEC(Col, Agg)                                                     \
  SPEC("frontend=regex\npattern=(?:(?:[^,\\n]*,){" #Col                       \
       "}(?<v>\\d+),[^\\n]*\\n)*\nagg=" Agg "\nformat=decimal\n")

std::string digitRows() {
  std::string S;
  for (uint64_t I = 1; S.size() < 16384; ++I)
    S += std::to_string(I * 2654435761u % 100000000) + "\n";
  return S;
}

// serve_warm's four specs and batch_scan's five pipelines, as the
// benchmark builds them (served specs skip RBBE).
const LedgerCase LedgerCases[] = {
    {"warm_echo",
     SPEC("frontend=regex\npattern=(?:(?<v>\\d+)|\\n)*\nagg=none\n"
          "format=lines\n"),
     digitRows},
    {"warm_csv2_max", CSV_SPEC(2, "max"),
     [] { return data::makeCsv(21, 16384, 7, 2, 999999); }},
    {"warm_csv4_min", CSV_SPEC(4, "min"),
     [] { return data::makeCsv(22, 16384, 7, 4, 999999); }},
    {"warm_csv5_avg", CSV_SPEC(5, "avg"),
     [] { return data::makeCsv(23, 16384, 7, 5, 999999); }},
    {"scan_utf8_lines",
     [](TermContext &C) {
       std::vector<Bst> S;
       S.push_back(lib::makeUtf8Decode(C));
       S.push_back(lib::makeLineCount(C));
       S.push_back(lib::makeIntToDecimal(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     [] { return data::makeEnglishText(24, 16384); }},
    {"scan_html_utf8",
     [](TermContext &C) {
       std::vector<Bst> S;
       S.push_back(lib::makeUtf8Decode(C));
       S.push_back(lib::makeRep(C));
       S.push_back(lib::makeHtmlEncode(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     [] { return data::makeEnglishText(25, 16384); }},
    {"scan_chsi_deaths", CSV_SPEC(3, "max"),
     [] { return data::makeChsiCsv(26, 16384, 3); }},
    {"scan_cc_id",
     SPEC("frontend=regex\npattern=(?:(?<v>\\d+),[^\\n]*\\n)*\nagg=max\n"
          "format=decimal\n"),
     [] { return data::makeCcCsv(27, 16384); }},
    {"scan_dblp_oldest",
     SPEC("frontend=xpath\npattern=/dblp/article/year\nagg=min\n"
          "format=lines\n"),
     [] { return data::makeDblpXml(28, 16384); }},
};

#undef CSV_SPEC
#undef SPEC

class ExecutionLedger : public ::testing::TestWithParam<LedgerCase> {};

uint64_t ledgerSum(const StreamSession &S) {
  return S.fastRunElements() + S.fastWideElements() + S.fastTableElements() +
         S.fastProgramElements() + S.fastBytecodeElements();
}

TEST_P(ExecutionLedger, TiersSumToBytesFed) {
  const LedgerCase &C = GetParam();
  auto Owner = std::make_shared<TermContext>();
  std::vector<Bst> St = C.Make(*Owner);
  ASSERT_FALSE(St.empty());
  pipeline::PassContext PC;
  PC.Chain = std::make_shared<pipeline::IrChain>(Owner);
  for (const Bst &B : St)
    PC.Stages.push_back(&B);
  std::string Err;
  ASSERT_TRUE(pipeline::PassManager(
                  pipeline::PassManager::defaultPasses(false, false))
                  .run(PC, pipeline::PipelineOptions(), &Err))
      << Err;
  ASSERT_TRUE(PC.Vm && PC.Fast);
  const std::string In = C.Input();

  auto &Reg = metrics::Registry::instance();
  metrics::Counter &Table = Reg.counter("efc_fastpath_table_elements_total");
  metrics::Counter &Program =
      Reg.counter("efc_fastpath_program_elements_total");
  metrics::Counter &Bytecode =
      Reg.counter(FastPathCursor::BytecodeCounterName);
  std::string Want;
  for (size_t Feed : {In.size(), size_t(7)}) {
    uint64_t Table0 = Table.value(), Program0 = Program.value(),
             Bytecode0 = Bytecode.value();
    StreamSession S = StreamSession::overFast(*PC.Fast, *PC.Vm);
    for (size_t I = 0; I < In.size(); I += Feed)
      ASSERT_TRUE(S.feed(std::string_view(In).substr(I, Feed)));
    ASSERT_TRUE(S.finish());
    EXPECT_EQ(ledgerSum(S), In.size()) << "feeds of " << Feed;
    EXPECT_EQ(Table.value() - Table0, S.fastTableElements());
    EXPECT_EQ(Program.value() - Program0, S.fastProgramElements());
    EXPECT_EQ(Bytecode.value() - Bytecode0, S.fastBytecodeElements());
    if (std::string_view(C.Name) == "warm_echo") {
      EXPECT_EQ(S.fastBytecodeElements(), 0u)
          << "every echo state runs from its byte table";
    }
    if (Want.empty())
      Want = S.output();
    EXPECT_EQ(S.output(), Want) << "feeds of " << Feed;
  }

  // A VM session counts every element as bytecode.
  uint64_t Bytecode0 = Bytecode.value();
  StreamSession Vm = StreamSession::overVm(*PC.Vm);
  ASSERT_TRUE(Vm.feed(In) && Vm.finish());
  EXPECT_EQ(Vm.output(), Want);
  EXPECT_EQ(Vm.fastBytecodeElements(), In.size());
  EXPECT_EQ(ledgerSum(Vm), In.size());
  EXPECT_EQ(Bytecode.value() - Bytecode0, In.size());
}

INSTANTIATE_TEST_SUITE_P(BenchPipelines, ExecutionLedger,
                         ::testing::ValuesIn(LedgerCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
