//===- tests/verify/RegressionCorpusTest.cpp - Committed seed replay ------===//
//
// Replays the committed regression corpus (tests/data/regress/*.corpus)
// through the differential oracle across four backends: fused VM
// bytecode, the byte-class fast path, the fast path fed in tiny chunks
// (cutting run-kernel spans at feed() boundaries), and the generated-C++
// .so when a host compiler is present.
//
// Corpus entries come from two sources: counterexamples promoted by
// `efc-verify --corpus-out tests/data/regress` after a refutation, and
// hand-written seeds pinning inputs that exercised historically delicate
// paths (base64 padding, run-kernel escapes, multi-byte UTF-8 cut points,
// HTML escape expansion).  File format, one `key=value` per line:
//
//   # free-form comment (typically the counterexample one-liner)
//   pipeline=<name>          # efc-verify pipeline registry name
//   input-text=<ascii>       # input bytes as literal ASCII, or
//   input=0x61,0x62,...      # input elements as hex u64s
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "common/Oracle.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

using namespace efc;
using namespace efc::bench;
using namespace efc::testing;

namespace {

#ifndef EFC_REGRESS_DIR
#error "EFC_REGRESS_DIR must point at the committed corpus directory"
#endif

struct CorpusEntry {
  std::string File;
  std::string Pipeline;
  std::vector<uint64_t> Input;
};

std::optional<CorpusEntry> parseCorpusFile(const std::filesystem::path &P,
                                           std::string *Err) {
  CorpusEntry E;
  E.File = P.filename().string();
  std::ifstream F(P);
  if (!F) {
    *Err = "cannot open " + P.string();
    return std::nullopt;
  }
  std::string Line;
  bool HaveInput = false;
  while (std::getline(F, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos) {
      *Err = E.File + ": malformed line '" + Line + "'";
      return std::nullopt;
    }
    std::string Key = Line.substr(0, Eq), Val = Line.substr(Eq + 1);
    if (Key == "pipeline") {
      E.Pipeline = Val;
    } else if (Key == "input-text") {
      for (unsigned char C : Val)
        E.Input.push_back(C);
      HaveInput = true;
    } else if (Key == "input") {
      for (size_t I = 0; I < Val.size();) {
        size_t Comma = Val.find(',', I);
        std::string Tok = Val.substr(I, Comma == std::string::npos
                                            ? std::string::npos
                                            : Comma - I);
        E.Input.push_back(strtoull(Tok.c_str(), nullptr, 0));
        if (Comma == std::string::npos)
          break;
        I = Comma + 1;
      }
      HaveInput = true;
    } else {
      *Err = E.File + ": unknown key '" + Key + "'";
      return std::nullopt;
    }
  }
  if (E.Pipeline.empty() || !HaveInput) {
    *Err = E.File + ": needs pipeline= and input=/input-text=";
    return std::nullopt;
  }
  return E;
}

/// Same registry as tools/efc-verify.cpp: corpus entries name pipelines
/// by their efc-verify name.
BuiltPipeline buildByName(const std::string &Name, std::string *Err) {
  if (Name == "base64-avg")
    return makeBase64AvgPipeline();
  if (Name == "csv-max")
    return makeCsvMaxPipeline();
  if (Name == "base64-delta")
    return makeBase64DeltaPipeline();
  if (Name == "utf8-lines")
    return makeUtf8LinesPipeline();
  if (Name == "cc-id")
    return makeCcIdPipeline();
  if (Name == "utf8-toint")
    return makeUtf8ToIntPipeline();
  if (Name == "html-encode")
    return makeHtmlEncodePipeline();
  if (Name == "tpcdi-sql")
    return makeTpcDiSqlPipeline();
  if (Name == "mondial")
    return makeMondialPipeline();
  *Err = "unknown pipeline '" + Name + "'";
  return BuiltPipeline{};
}

class RegressionCorpusTest : public ::testing::Test {
protected:
  // One oracle per pipeline name, shared across corpus entries: oracle
  // construction fuses/compiles every backend once, replay is cheap.
  // The oracle borrows terms owned by the pipeline's TermContext, so the
  // context rides along.
  struct Shared {
    std::shared_ptr<TermContext> Ctx;
    std::shared_ptr<Oracle> O;
  };
  static std::map<std::string, Shared> &oracles() {
    static std::map<std::string, Shared> M;
    return M;
  }

  std::shared_ptr<Oracle> oracleFor(const std::string &Pipeline,
                                    std::string *Err) {
    auto It = oracles().find(Pipeline);
    if (It != oracles().end())
      return It->second.O;
    BuiltPipeline P = buildByName(Pipeline, Err);
    if (P.Stages.empty())
      return nullptr;
    unsigned Backends = BK_FusedVm | BK_FastPath | BK_FastSkip | BK_Native;
    auto O = std::make_shared<Oracle>(std::move(P.Stages),
                                      OracleOptions(Backends));
    return oracles().emplace(Pipeline, Shared{P.Ctx, std::move(O)})
        .first->second.O;
  }
};

TEST_F(RegressionCorpusTest, ReplaysEveryCommittedSeed) {
  std::filesystem::path Dir(EFC_REGRESS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(Dir))
      << "corpus directory missing: " << Dir;

  unsigned Entries = 0;
  bool NativeSeen = false;
  for (const auto &DE : std::filesystem::directory_iterator(Dir)) {
    if (DE.path().extension() != ".corpus")
      continue;
    std::string Err;
    auto E = parseCorpusFile(DE.path(), &Err);
    ASSERT_TRUE(E.has_value()) << Err;
    auto O = oracleFor(E->Pipeline, &Err);
    ASSERT_NE(O, nullptr) << E->File << ": " << Err;
    NativeSeen |= O->nativeAvailable();

    const Type *InTy = O->stages().front().inputType();
    ASSERT_TRUE(InTy->isBitVec()) << E->File;
    unsigned W = InTy->width();
    uint64_t Mask = W >= 64 ? ~uint64_t(0) : (uint64_t(1) << W) - 1;
    std::vector<Value> In;
    In.reserve(E->Input.size());
    for (uint64_t B : E->Input)
      In.push_back(Value::bv(W, B & Mask));

    std::optional<Disagreement> D = O->check(In);
    EXPECT_FALSE(D.has_value())
        << E->File << " (" << E->Pipeline << "): " << (D ? D->str() : "");
    ++Entries;
  }
  EXPECT_GE(Entries, 6u) << "committed corpus unexpectedly small";
  if (!NativeSeen)
    fprintf(stderr, "RegressionCorpusTest: host compiler unavailable, "
                    "native backend skipped\n");
}

} // namespace
