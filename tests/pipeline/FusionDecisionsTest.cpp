//===- tests/pipeline/FusionDecisionsTest.cpp - What fusion prunes --------===//
//
// Pins the fused IR of every pipeline the benchmark serves or scans and of
// every figure pipeline: its state count, branch count and IR hash
// (codegen/CppCodeGen.h irHash: the rule trees, types and initial
// configuration, nothing the backends derive from them), recorded while
// every fusion guard went through a full solver check.  GoldenPipeline compares the pass manager with an inline
// sequence that runs the same solver, so it cannot see a change in which
// branches fusion prunes; this table can.  Stages are assembled here from
// the library alone and nothing is compiled to native code.
//
//  * serve_warm's four specs and batch_scan's five pipelines: the IR the
//    `fuse` pass hands on, built as PipelineCache builds a spec;
//  * the 17 figure pipelines: fuse then rbbe with the bench options
//    (bench/common/BenchCommon.cpp), the IR the figures run.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodeGen.h"
#include "frontends/comprehension/Comprehension.h"
#include "frontends/regex/RegexFrontend.h"
#include "frontends/xpath/XPathFrontend.h"
#include "pipeline/PassManager.h"
#include "runtime/PipelineCache.h"
#include "stdlib/Transducers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace efc;

namespace {

using Stages = std::vector<Bst>;

Stages specStages(TermContext &Ctx, const char *Text) {
  std::string Err;
  auto Spec = runtime::PipelineSpec::parse(Text, &Err);
  EXPECT_TRUE(Spec) << Err;
  if (!Spec)
    return {};
  auto S = runtime::assembleStages(*Spec, Ctx, &Err);
  EXPECT_TRUE(S) << Err;
  return S ? std::move(*S) : Stages{};
}

/// CSV-max's capture: counts the characters of the match.
Bst lengthCounter(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(16), Ctx.bv(32), Ctx.bv(32), 1, 0, Value::bv(32, 0));
  A.setDelta(0, Rule::base({}, 0,
                           Ctx.mkAdd(A.regVar(), Ctx.bvConst(32, 1))));
  A.setFinalizer(0, Rule::base({A.regVar()}, 0, Ctx.bvConst(32, 0)));
  return A;
}

struct PinCase {
  const char *Name;
  Stages (*Make)(TermContext &);
  bool Rbbe; ///< figure pipeline: fuse + rbbe with the bench options
  unsigned States, Branches;
  uint64_t Hash;
};

void PrintTo(const PinCase &C, std::ostream *OS) { *OS << C.Name; }

#define SPEC(Text) [](TermContext &C) { return specStages(C, Text); }
// The figures' CSV and XPath pipelines assemble as these specs do.
#define CSV_SPEC(Col, Agg)                                                     \
  SPEC("frontend=regex\npattern=(?:(?:[^,\\n]*,){" #Col                        \
       "}(?<v>\\d+),[^\\n]*\\n)*\nagg=" Agg "\nformat=decimal\n")
#define XPATH_SPEC(Query, Agg)                                                 \
  SPEC("frontend=xpath\npattern=" Query "\nagg=" Agg "\nformat=lines\n")

const PinCase PinCases[] = {
    // serve_warm
    {"warm_echo",
     SPEC("frontend=regex\npattern=(?:(?<v>\\d+)|\\n)*\nagg=none\n"
          "format=lines\n"),
     false, 6, 45, 0x0a7830b58f8d86ec},
    {"warm_csv2_max", CSV_SPEC(2, "max"), false, 18, 65, 0xa5f13edcbec4d538},
    {"warm_csv4_min", CSV_SPEC(4, "min"), false, 26, 85, 0xb2e09915252365e8},
    {"warm_csv5_avg", CSV_SPEC(5, "avg"), false, 30, 93, 0xecff821848ed7e60},
    // batch_scan
    {"scan_utf8_lines",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeUtf8Decode(C));
       S.push_back(lib::makeLineCount(C));
       S.push_back(lib::makeIntToDecimal(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     false, 7, 24, 0xe1a680c0f05d940a},
    {"scan_html_utf8",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeUtf8Decode(C));
       S.push_back(lib::makeRep(C));
       S.push_back(lib::makeHtmlEncode(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     false, 14, 118, 0x16e794762a847e06},
    {"scan_chsi_deaths", CSV_SPEC(3, "max"), false, 22, 75, 0x9426d7e68aa70cc3},
    {"scan_cc_id",
     SPEC("frontend=regex\npattern=(?:(?<v>\\d+),[^\\n]*\\n)*\nagg=max\n"
          "format=decimal\n"),
     false, 10, 43, 0xb8a3ae526b9f6ee8},
    {"scan_dblp_oldest", XPATH_SPEC("/dblp/article/year", "min"),
     false, 168, 512, 0x20ac7a534f13fc25},
    // Figures 9, 10, 11 and 13
    {"fig_base64_avg",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeBase64Decode(C));
       S.push_back(lib::makeBytesToInt32(C));
       Solver ES(C);
       S.push_back(fe::exploreFiniteRegisters(lib::makeWindowedAverage(C, 10),
                                              ES, {11}));
       S.push_back(lib::makeInt32ToBytes(C));
       S.push_back(lib::makeBase64Encode(C));
       return S;
     },
     true, 253, 1149, 0x4852a9b932fb38a7},
    {"fig_csv_max",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeUtf8Decode2(C));
       Bst Len = lengthCounter(C);
       fe::RegexBstResult R = fe::buildRegexBst(
           C, "(?:(?:[^,\\n]*,){2}(?<v>[^,\\n]+),[^\\n]*\\n)*",
           {{"v", &Len}});
       EXPECT_TRUE(R.Result.has_value());
       S.push_back(std::move(*R.Result));
       S.push_back(lib::makeMax(C));
       S.push_back(lib::makeIntToDecimal(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     true, 18, 65, 0xb359b4b5d918b675},
    {"fig_base64_delta",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeBase64Decode(C));
       S.push_back(lib::makeBytesToInt32(C));
       S.push_back(lib::makeDelta(C));
       S.push_back(lib::makeIntToDecimalLines(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     true, 18, 235, 0xe50585ff768be59b},
    {"fig_utf8_lines",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeUtf8Decode(C));
       S.push_back(lib::makeLineCount(C));
       S.push_back(lib::makeIntToDecimal(C));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     true, 7, 24, 0xe1a680c0f05d940a},
    {"fig_chsi_cancer", CSV_SPEC(7, "avg"), true, 38, 113, 0x21bfc34689e832c0},
    {"fig_chsi_births", CSV_SPEC(5, "min"), true, 30, 95, 0x018e284cbeb6ed7b},
    {"fig_chsi_deaths", CSV_SPEC(3, "max"), true, 22, 75, 0x9426d7e68aa70cc3},
    {"fig_sbo_employees", CSV_SPEC(5, "max"), true, 30, 95, 0x444e82861afc7623},
    {"fig_sbo_receipts", CSV_SPEC(6, "min"), true, 34, 105, 0x0ad0255c6c267b98},
    {"fig_sbo_payroll", CSV_SPEC(7, "avg"), true, 38, 113, 0x21bfc34689e832c0},
    {"fig_cc_id", CSV_SPEC(0, "max"), true, 10, 43, 0xb8a3ae526b9f6ee8},
    {"fig_tpcdi_sql",
     [](TermContext &C) {
       // A spec's sql format names table t; the figure's names account.
       Stages S;
       S.push_back(lib::makeUtf8Decode2(C));
       Bst ToInt = lib::makeToInt(C);
       fe::XPathBstResult R =
           fe::buildXPathBst(C, "/customers/customer/account", ToInt);
       EXPECT_TRUE(R.Result.has_value());
       S.push_back(std::move(*R.Result));
       S.push_back(lib::makeIntWrap(C, "INSERT INTO account VALUES (", ");\n"));
       S.push_back(lib::makeUtf8Encode(C));
       return S;
     },
     true, 204, 627, 0xb9b7b93eb90befda},
    {"fig_pir_proteins", XPATH_SPEC("/proteins/protein/length", "avg"),
     true, 192, 582, 0xce0f966d2788e9c0},
    {"fig_dblp_oldest", XPATH_SPEC("/dblp/article/year", "min"),
     true, 168, 512, 0x20ac7a534f13fc25},
    {"fig_mondial", XPATH_SPEC("/mondial/country/city/population", "max"),
     true, 244, 740, 0x59426b5a609b9fed},
    {"fig_utf8_toint",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeUtf8Decode2(C));
       S.push_back(lib::makeToInt(C));
       return S;
     },
     true, 2, 3, 0xcb357d816914819a},
    {"fig_html_encode",
     [](TermContext &C) {
       Stages S;
       S.push_back(lib::makeRep(C));
       S.push_back(lib::makeHtmlEncode(C));
       return S;
     },
     true, 2, 28, 0xbe62a97dded6f200},
};

#undef XPATH_SPEC
#undef CSV_SPEC
#undef SPEC

class FusionDecisions : public ::testing::TestWithParam<PinCase> {};

TEST_P(FusionDecisions, MatchRecordedTable) {
  const PinCase &C = GetParam();
  auto Owner = std::make_shared<TermContext>();
  Stages St = C.Make(*Owner);
  ASSERT_FALSE(St.empty());

  pipeline::PassContext PC;
  PC.Chain = std::make_shared<pipeline::IrChain>(Owner);
  for (const Bst &S : St)
    PC.Stages.push_back(&S);
  // The bench options; the fuse pass reads none of them.
  pipeline::PipelineOptions PO;
  PO.Rbbe.MaxSolverChecks = 1200;
  PO.Rbbe.MaxPredicateNodes = 8000;
  PO.Rbbe.ConflictBudget = 0;
  std::vector<std::string> Passes{"fuse"};
  if (C.Rbbe)
    Passes.push_back("rbbe");
  std::string Err;
  ASSERT_TRUE(pipeline::PassManager(Passes).run(PC, PO, &Err)) << Err;

  const Bst &Ir = *PC.Ir;
  unsigned States = Ir.numStates(), Branches = Ir.countBranches();
  uint64_t Hash = irHash(Ir);
  char Row[96];
  snprintf(Row, sizeof(Row), "%u, %u, 0x%016llx", States, Branches,
           (unsigned long long)Hash);
  EXPECT_EQ(States, C.States) << C.Name << " now reads " << Row;
  EXPECT_EQ(Branches, C.Branches) << C.Name << " now reads " << Row;
  EXPECT_EQ(Hash, C.Hash) << C.Name << " now reads " << Row;
}

INSTANTIATE_TEST_SUITE_P(Pinned, FusionDecisions,
                         ::testing::ValuesIn(PinCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
