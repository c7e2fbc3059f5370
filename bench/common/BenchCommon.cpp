//===- bench/common/BenchCommon.cpp ---------------------------------------===//

#include "bench/common/BenchCommon.h"

#include "frontends/comprehension/Comprehension.h"
#include "frontends/regex/RegexFrontend.h"
#include "frontends/xpath/XPathFrontend.h"
#include "stdlib/Transducers.h"
#include "support/EnvParse.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <cstdlib>

using namespace efc;
using namespace efc::bench;

size_t efc::bench::benchBytes() {
  return size_t(env::u64("EFC_BENCH_MB", 2, 1, 1 << 20)) * 1024 * 1024;
}

std::vector<uint64_t> efc::bench::rawOfBytes(const std::string &Bytes) {
  std::vector<uint64_t> Out;
  Out.reserve(Bytes.size());
  for (unsigned char C : Bytes)
    Out.push_back(C);
  return Out;
}

std::vector<uint64_t> efc::bench::rawOfChars(const std::u16string &Chars) {
  std::vector<uint64_t> Out;
  Out.reserve(Chars.size());
  for (char16_t C : Chars)
    Out.push_back(uint64_t(C));
  return Out;
}

BuiltPipeline efc::bench::buildPipeline(const std::string &Name,
                                        std::vector<Bst> Stages,
                                        TermContext &Ctx,
                                        std::shared_ptr<TermContext> Owner) {
  BuiltPipeline P;
  P.Name = Name;
  P.Ctx = std::move(Owner);
  (void)Ctx; // stages were assembled in it; P.Ctx keeps it alive
  Stopwatch Total;

  // The shared pass pipeline, in cacheable mode: re-building the same
  // figure pipeline (or respec'ing only a downstream knob) in one
  // process adopts the cached upstream artifacts.
  pipeline::PassContext PC;
  PC.Chain = std::make_shared<pipeline::IrChain>(P.Ctx);
  for (const Bst &St : Stages)
    PC.Stages.push_back(&St);

  pipeline::PipelineOptions PO;
  PO.Rbbe.MaxSolverChecks = 1200;
  PO.Rbbe.MaxPredicateNodes = 8000;
  PO.Rbbe.ConflictBudget = 0; // cheap procedures only: see DESIGN.md
  // EFC_FASTPATH_ACCEL=0 disables run kernels, EFC_FASTPATH_WIDE=0 the
  // wide-domain tables — the A/B switches for the EXPERIMENTS.md
  // before/after tables.
  PO.FastPath = FastPathOptions::fromEnv();

  std::string PErr;
  if (!pipeline::PassManager({"fuse", "rbbe", "vm_compile", "fastpath_plan"})
           .run(PC, PO, &PErr)) {
    fprintf(stderr, "bench: pass pipeline failed for %s: %s\n",
            Name.c_str(), PErr.c_str());
    abort();
  }
  P.Chain = PC.Chain;
  P.Fused = PC.Ir;
  P.CompiledFused = PC.Vm;
  P.FastPlan = PC.Fast;
  P.FStats = PC.FStats;
  P.RStats = PC.RStats;
  P.PassRuns = std::move(PC.Runs);

  for (Bst &St : Stages) {
    auto C = CompiledTransducer::compile(St);
    assert(C && "stage must have scalar element types");
    P.CompiledStages.push_back(std::move(*C));
  }

  std::string Tag = Name;
  for (char &C : Tag)
    if (!isalnum((unsigned char)C))
      C = '_';
  {
    // Codegen may intern terms in the (possibly shared) chain context.
    std::lock_guard<std::mutex> ChainLock(P.Chain->Mu);
    if (auto N = NativeTransducer::compile(*P.Fused, Tag, nullptr, nullptr,
                                           P.CompiledFused))
      P.Native.emplace(std::move(*N));
  }

  P.Stages = std::move(Stages);
  P.TotalSeconds = Total.seconds();
  return P;
}

namespace {

std::shared_ptr<TermContext> newCtx() {
  return std::make_shared<TermContext>();
}

/// Capture transducer counting the match's length (for CSV-max).
Bst makeLengthCounter(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(16), Ctx.bv(32), Ctx.bv(32), 1, 0, Value::bv(32, 0));
  A.setDelta(0, Rule::base({}, 0,
                           Ctx.mkAdd(A.regVar(), Ctx.bvConst(32, 1))));
  A.setFinalizer(0, Rule::base({A.regVar()}, 0, Ctx.bvConst(32, 0)));
  return A;
}

/// Regex CSV pipeline: utf8 -> (extract IntColumn as capture) -> Agg ->
/// decimal -> utf8.
BuiltPipeline csvPipeline(const std::string &Name, unsigned IntColumn,
                          const std::string &Agg, bool CaptureLength) {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode2(Ctx));

  std::string Pattern = "(?:(?:[^,\\n]*,){" + std::to_string(IntColumn) +
                        "}(?<v>\\d+),[^\\n]*\\n)*";
  Bst Capture = CaptureLength ? makeLengthCounter(Ctx) : lib::makeToInt(Ctx);
  fe::RegexBstResult R = fe::buildRegexBst(Ctx, Pattern, {{"v", &Capture}});
  assert(R.Result.has_value() && "benchmark regex must compile");
  Stages.push_back(std::move(*R.Result));

  if (Agg == "max")
    Stages.push_back(lib::makeMax(Ctx));
  else if (Agg == "min")
    Stages.push_back(lib::makeMin(Ctx));
  else
    Stages.push_back(lib::makeAverage(Ctx));
  Stages.push_back(lib::makeIntToDecimal(Ctx));
  Stages.push_back(lib::makeUtf8Encode(Ctx));
  return buildPipeline(Name, std::move(Stages), Ctx, Owner);
}

/// XPath pipeline: utf8 -> XPath(query){content=ToInt} -> Agg -> format ->
/// utf8.
BuiltPipeline xpathPipeline(const std::string &Name,
                            const std::string &Query,
                            const std::string &Agg,
                            const std::string &WrapPrefix = "",
                            const std::string &WrapSuffix = "") {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode2(Ctx));
  Bst ToInt = lib::makeToInt(Ctx);
  fe::XPathBstResult R = fe::buildXPathBst(Ctx, Query, ToInt);
  assert(R.Result.has_value() && "benchmark query must compile");
  Stages.push_back(std::move(*R.Result));
  if (Agg == "max")
    Stages.push_back(lib::makeMax(Ctx));
  else if (Agg == "min")
    Stages.push_back(lib::makeMin(Ctx));
  else if (Agg == "avg")
    Stages.push_back(lib::makeAverage(Ctx));
  // "none": values flow straight to formatting.
  if (!WrapPrefix.empty() || !WrapSuffix.empty())
    Stages.push_back(lib::makeIntWrap(Ctx, WrapPrefix, WrapSuffix));
  else
    Stages.push_back(lib::makeIntToDecimalLines(Ctx));
  Stages.push_back(lib::makeUtf8Encode(Ctx));
  return buildPipeline(Name, std::move(Stages), Ctx, Owner);
}

} // namespace

BuiltPipeline efc::bench::makeBase64AvgPipeline() {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeBase64Decode(Ctx));
  Stages.push_back(lib::makeBytesToInt32(Ctx));
  {
    // Finite exploration (§5.1) migrates the ring-buffer position and the
    // `full` flag into control states, removing the per-element
    // position-selection ite chains.
    Solver ES(Ctx);
    Bst W = lib::makeWindowedAverage(Ctx, 10);
    Stages.push_back(fe::exploreFiniteRegisters(W, ES, {11}));
  }
  Stages.push_back(lib::makeInt32ToBytes(Ctx));
  Stages.push_back(lib::makeBase64Encode(Ctx));
  return buildPipeline("Base64-avg", std::move(Stages), Ctx, Owner);
}

BuiltPipeline efc::bench::makeCsvMaxPipeline() {
  // Max *length* of the third column's strings (paper's CSV-max); column
  // index 2, capture counts characters.  The pattern column accepts any
  // text, so the capture here is the generic token column.
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode2(Ctx));
  Bst Len = makeLengthCounter(Ctx);
  fe::RegexBstResult R = fe::buildRegexBst(
      Ctx, "(?:(?:[^,\\n]*,){2}(?<v>[^,\\n]+),[^\\n]*\\n)*",
      {{"v", &Len}});
  assert(R.Result.has_value());
  Stages.push_back(std::move(*R.Result));
  Stages.push_back(lib::makeMax(Ctx));
  Stages.push_back(lib::makeIntToDecimal(Ctx));
  Stages.push_back(lib::makeUtf8Encode(Ctx));
  return buildPipeline("CSV-max", std::move(Stages), Ctx, Owner);
}

BuiltPipeline efc::bench::makeBase64DeltaPipeline() {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeBase64Decode(Ctx));
  Stages.push_back(lib::makeBytesToInt32(Ctx));
  Stages.push_back(lib::makeDelta(Ctx));
  Stages.push_back(lib::makeIntToDecimalLines(Ctx));
  Stages.push_back(lib::makeUtf8Encode(Ctx));
  return buildPipeline("Base64-delta", std::move(Stages), Ctx, Owner);
}

BuiltPipeline efc::bench::makeUtf8LinesPipeline() {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode(Ctx));
  Stages.push_back(lib::makeLineCount(Ctx));
  Stages.push_back(lib::makeIntToDecimal(Ctx));
  Stages.push_back(lib::makeUtf8Encode(Ctx));
  return buildPipeline("UTF8-lines", std::move(Stages), Ctx, Owner);
}

BuiltPipeline efc::bench::makeChsiPipeline(const std::string &Which) {
  // cancer: average col 7; births: min col 5; deaths: max col 3.
  if (Which == "cancer")
    return csvPipeline("CHSI-cancer", 7, "avg", false);
  if (Which == "births")
    return csvPipeline("CHSI-births", 5, "min", false);
  return csvPipeline("CHSI-deaths", 3, "max", false);
}

BuiltPipeline efc::bench::makeSboPipeline(const std::string &Which) {
  if (Which == "employees")
    return csvPipeline("SBO-employees", 5, "max", false);
  if (Which == "receipts")
    return csvPipeline("SBO-receipts", 6, "min", false);
  return csvPipeline("SBO-payroll", 7, "avg", false);
}

BuiltPipeline efc::bench::makeCcIdPipeline() {
  return csvPipeline("CC-id", 0, "max", false);
}

BuiltPipeline efc::bench::makeTpcDiSqlPipeline() {
  return xpathPipeline("TPC-DI-SQL", "/customers/customer/account", "none",
                       "INSERT INTO account VALUES (", ");\n");
}

BuiltPipeline efc::bench::makePirProteinsPipeline() {
  return xpathPipeline("PIR-proteins", "/proteins/protein/length", "avg");
}

BuiltPipeline efc::bench::makeDblpOldestPipeline() {
  return xpathPipeline("DBLP-oldest", "/dblp/article/year", "min");
}

BuiltPipeline efc::bench::makeMondialPipeline() {
  return xpathPipeline("MONDIAL", "/mondial/country/city/population",
                       "max");
}

BuiltPipeline efc::bench::makeUtf8ToIntPipeline() {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode2(Ctx));
  Stages.push_back(lib::makeToInt(Ctx));
  return buildPipeline("UTF8-toint", std::move(Stages), Ctx, Owner);
}

BuiltPipeline efc::bench::makeHtmlEncodePipeline() {
  auto Owner = newCtx();
  TermContext &Ctx = *Owner;
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeRep(Ctx));
  Stages.push_back(lib::makeHtmlEncode(Ctx));
  return buildPipeline("Rep+HtmlEncode", std::move(Stages), Ctx, Owner);
}
