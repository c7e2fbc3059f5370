//===- tests/integration/BackendParamTest.cpp - Pipelines x backends ------===//
//
// TEST_P sweep: every benchmark pipeline is executed by every backend
// (reference interpreter via the pull/push variants, the bytecode VM,
// the byte-class fast path, and the dlopen'd native code) on its
// synthetic dataset; all outputs must be identical.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "bst/BstPrint.h"
#include "data/Datasets.h"

#include <gtest/gtest.h>

using namespace efc;
using namespace efc::bench;

namespace {

struct PipelineCase {
  const char *Name;
  BuiltPipeline (*Make)();
  std::vector<uint64_t> (*Input)();
};

// Without this gtest prints the case as a byte dump of its pointers, and
// gtest_discover_tests copies that dump into the ctest name, which then
// changes with the load address on every build.
void PrintTo(const PipelineCase &C, std::ostream *OS) { *OS << C.Name; }

std::vector<uint64_t> sboInput() {
  return rawOfBytes(data::makeSboCsv(61, 24 * 1024, 5));
}
std::vector<uint64_t> chsiInput() {
  return rawOfBytes(data::makeChsiCsv(62, 24 * 1024, 3));
}
std::vector<uint64_t> ccInput() {
  return rawOfBytes(data::makeCcCsv(63, 24 * 1024));
}
std::vector<uint64_t> csvInput() {
  return rawOfBytes(data::makeCsv(64, 24 * 1024, 6, 4, 9999));
}
std::vector<uint64_t> base64Input() {
  return rawOfBytes(data::makeBase64Ints(65, 2048, 1u << 28));
}
std::vector<uint64_t> englishInput() {
  return rawOfBytes(data::makeEnglishText(66, 24 * 1024));
}
std::vector<uint64_t> tpcInput() {
  return rawOfBytes(data::makeTpcDiXml(67, 24 * 1024));
}
std::vector<uint64_t> pirInput() {
  return rawOfBytes(data::makePirXml(68, 24 * 1024));
}
std::vector<uint64_t> dblpInput() {
  return rawOfBytes(data::makeDblpXml(69, 24 * 1024));
}
std::vector<uint64_t> mondialInput() {
  return rawOfBytes(data::makeMondialXml(70, 24 * 1024));
}
std::vector<uint64_t> randomUtf16Input() {
  return rawOfChars(data::makeRandomUtf16(71, 12 * 1024, true));
}

const PipelineCase Cases[] = {
    {"Base64_avg", &makeBase64AvgPipeline, &base64Input},
    {"Base64_delta", &makeBase64DeltaPipeline, &base64Input},
    {"UTF8_lines", &makeUtf8LinesPipeline, &englishInput},
    {"CSV_max", &makeCsvMaxPipeline, &csvInput},
    {"CHSI_deaths", [] { return makeChsiPipeline("deaths"); }, &chsiInput},
    {"SBO_employees", [] { return makeSboPipeline("employees"); },
     &sboInput},
    {"CC_id", &makeCcIdPipeline, &ccInput},
    {"TPC_DI_SQL", &makeTpcDiSqlPipeline, &tpcInput},
    {"PIR_proteins", &makePirProteinsPipeline, &pirInput},
    {"DBLP_oldest", &makeDblpOldestPipeline, &dblpInput},
    {"MONDIAL", &makeMondialPipeline, &mondialInput},
    {"HtmlEncode", &makeHtmlEncodePipeline, &randomUtf16Input},
};

class BackendParamTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(BackendParamTest, AllBackendsAgree) {
  const PipelineCase &C = GetParam();
  BuiltPipeline P = C.Make();
  std::vector<uint64_t> In = C.Input();

  auto Fused = P.CompiledFused->run(In);
  ASSERT_TRUE(Fused.has_value()) << C.Name;

  auto Pull = runPullPipeline(P.stagePtrs(), In);
  ASSERT_TRUE(Pull.has_value()) << C.Name;
  EXPECT_EQ(*Fused, *Pull) << C.Name << ": pull (LINQ) variant";

  auto Push = runPushPipeline(P.stagePtrs(), In);
  ASSERT_TRUE(Push.has_value()) << C.Name;
  EXPECT_EQ(*Fused, *Push) << C.Name << ": push (method-call) variant";

  auto Fast = runFastPath(*P.FastPlan, *P.CompiledFused, In);
  ASSERT_TRUE(Fast.has_value()) << C.Name;
  EXPECT_EQ(*Fused, *Fast) << C.Name << ": byte-class fast path";

  if (P.Native) {
    auto Nat = P.Native->run(In);
    ASSERT_TRUE(Nat.has_value()) << C.Name;
    EXPECT_EQ(*Fused, *Nat) << C.Name << ": native generated code";
  }

  // The control graph renders to dot without crashing and mentions every
  // state.
  std::string Dot = bstToDot(*P.Fused, "t");
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos)
      << C.Name << " must have an accepting state";
}

INSTANTIATE_TEST_SUITE_P(
    AllPipelines, BackendParamTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<PipelineCase> &Info) {
      return Info.param.Name;
    });

} // namespace
