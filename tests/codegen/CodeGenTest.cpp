//===- tests/codegen/CodeGenTest.cpp - Generated C++ self-checks ----------===//
//
// Generates C++ for several transducers (including fused pipelines),
// compiles each unit with the host compiler and runs it; the generated
// main() checks embedded test vectors computed with the reference
// interpreter.
//
//===----------------------------------------------------------------------===//

#include "bst/Interp.h"
#include "codegen/CppCodeGen.h"
#include "codegen/NativeCompile.h"
#include "common/Oracle.h"
#include "common/RandomBst.h"
#include "fusion/Fusion.h"
#include "rbbe/Rbbe.h"
#include "runtime/PipelineCache.h"
#include "stdlib/Transducers.h"
#include "stdlib/Values.h"
#include "support/Stopwatch.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace efc;

namespace {

class CodeGenTest : public ::testing::Test {
protected:
  TermContext Ctx;

  static std::vector<uint64_t> rawOf(const std::vector<Value> &Vs) {
    std::vector<uint64_t> Out;
    for (const Value &V : Vs)
      Out.push_back(V.bits());
    return Out;
  }

  static CodeGenTestVector vectorFor(const Bst &A,
                                     const std::vector<Value> &In) {
    CodeGenTestVector V;
    V.Input = rawOf(In);
    auto Out = runBst(A, In);
    V.Accepts = Out.has_value();
    if (Out)
      V.Output = rawOf(*Out);
    return V;
  }

  /// Compiles (with extra \p Flags) and runs a generated unit; returns 0
  /// when main() passes, 100 when the unit does not compile, 1 otherwise.
  static int compileAndRun(const std::string &Source, const std::string &Tag,
                           const std::string &Flags = "") {
    std::string Dir = ::testing::TempDir();
    std::string Src = Dir + "/efc_gen_" + Tag + ".cpp";
    std::string Bin = Dir + "/efc_gen_" + Tag;
    {
      std::ofstream F(Src);
      F << Source;
    }
    std::string Compile = "c++ -std=c++17 -O1 " + Flags + " -o " + Bin + " " +
                          Src + " 2>" + Bin + ".log";
    if (std::system(Compile.c_str()) != 0)
      return 100; // compile failure
    return std::system(Bin.c_str()) == 0 ? 0 : 1;
  }
};

TEST_F(CodeGenTest, GeneratedSourceHasStateBlocks) {
  Bst A = lib::makeToInt(Ctx);
  std::string S = generateCpp(A);
  EXPECT_NE(S.find("S0:"), std::string::npos);
  EXPECT_NE(S.find("S1:"), std::string::npos);
  EXPECT_NE(S.find("goto S1"), std::string::npos);
  EXPECT_NE(S.find("F1:"), std::string::npos);
  EXPECT_NE(S.find("return false"), std::string::npos);
}

TEST_F(CodeGenTest, ToIntCompilesAndChecks) {
  Bst A = lib::makeToInt(Ctx);
  CodeGenOptions Opts;
  Opts.EmitMain = true;
  std::vector<CodeGenTestVector> Vs = {
      vectorFor(A, lib::valuesFromAscii("123")),
      vectorFor(A, lib::valuesFromAscii("0")),
      vectorFor(A, lib::valuesFromAscii("12x")),
      vectorFor(A, lib::valuesFromAscii("")),
  };
  EXPECT_EQ(compileAndRun(generateCpp(A, Opts, Vs), "toint"), 0);
}

TEST_F(CodeGenTest, FusedPipelineCompilesAndChecks) {
  Bst Dec = lib::makeUtf8Decode2(Ctx);
  Bst ToInt = lib::makeToInt(Ctx);
  Bst Fmt = lib::makeIntToDecimal(Ctx);
  Bst Enc = lib::makeUtf8Encode(Ctx);
  Solver S(Ctx);
  Bst Front = eliminateUnreachableBranches(fuse(Dec, ToInt, S), S);
  Bst Clean = fuseChain({&Front, &Fmt, &Enc}, S);

  CodeGenOptions Opts;
  Opts.FunctionName = "fused_pipeline";
  Opts.EmitMain = true;
  std::vector<CodeGenTestVector> Vs = {
      vectorFor(Clean, lib::valuesFromBytes("00420")),
      vectorFor(Clean, lib::valuesFromBytes("9")),
      vectorFor(Clean, lib::valuesFromBytes("x1")),
      vectorFor(Clean, lib::valuesFromBytes("")),
  };
  EXPECT_EQ(compileAndRun(generateCpp(Clean, Opts, Vs), "fused"), 0);
}

TEST_F(CodeGenTest, HtmlEncodeCompilesAndChecks) {
  Bst Rep = lib::makeRep(Ctx);
  Bst Html = lib::makeHtmlEncode(Ctx);
  Solver S(Ctx);
  Bst Fused = fuse(Rep, Html, S);
  Bst Clean = eliminateUnreachableBranches(Fused, S);

  CodeGenOptions Opts;
  Opts.FunctionName = "html_encode";
  Opts.EmitMain = true;
  std::vector<CodeGenTestVector> Vs = {
      vectorFor(Clean, lib::valuesFromChars(u"a<b&c")),
      vectorFor(Clean, lib::valuesFromChars(u"\xD83D\xDE00")),
      vectorFor(Clean, lib::valuesFromChars(u"\xD83Dz")),
  };
  EXPECT_EQ(compileAndRun(generateCpp(Clean, Opts, Vs), "html"), 0);
}

TEST_F(CodeGenTest, RunAccelOnOffBothCompileAndCheck) {
  // The generated run-scan loops (codegen mirror of the VM's RunKernels)
  // on run-heavy vectors: long safe spans around escapes, a span cut by a
  // surrogate pair (out-of-byte-range island) and a homogeneous run — and
  // the RunAccel=false variant, which must emit no scan loops yet agree.
  Bst Rep = lib::makeRep(Ctx);
  Bst Html = lib::makeHtmlEncode(Ctx);
  Solver S(Ctx);
  Bst Clean = eliminateUnreachableBranches(fuse(Rep, Html, S), S);

  std::u16string Long(300, u'e');
  Long[120] = u'&';
  std::u16string Homog(257, u'x');
  std::u16string Wide = std::u16string(40, u'a') + u"\xD83D\xDE00" +
                        std::u16string(40, u'b');
  std::vector<CodeGenTestVector> Vs = {
      vectorFor(Clean, lib::valuesFromChars(Long)),
      vectorFor(Clean, lib::valuesFromChars(Homog)),
      vectorFor(Clean, lib::valuesFromChars(Wide)),
  };
  CodeGenOptions On;
  On.FunctionName = "html_runs";
  On.EmitMain = true;
  CodeGenOptions Off = On;
  Off.RunAccel = false;

  std::string SOn = generateCpp(Clean, On, Vs);
  std::string SOff = generateCpp(Clean, Off, Vs);
  EXPECT_NE(SOn.find("uint64_t ra"), std::string::npos)
      << "accel source must contain the 4-wide scan loop";
  EXPECT_EQ(SOff.find("uint64_t ra"), std::string::npos)
      << "RunAccel=false must emit no run scan loops";
  EXPECT_EQ(compileAndRun(SOn, "html_runs_on"), 0);
  EXPECT_EQ(compileAndRun(SOff, "html_runs_off"), 0);
}

TEST_F(CodeGenTest, NibblePipelineEmitsEachStateOnce) {
  // A fused pipeline whose run kernels carry nibble tables: every state
  // block and finalizer is emitted once (the streaming entry points; the
  // one-shot function wraps them), and the unit has no ISA-specific code
  // of its own — its block scans go through the `scan` parameter.
  Bst Rep = lib::makeRep(Ctx);
  Bst Html = lib::makeHtmlEncode(Ctx);
  Solver S(Ctx);
  Bst Clean = eliminateUnreachableBranches(fuse(Rep, Html, S), S);

  std::u16string Long(300, u'e');
  Long[120] = u'&';
  CodeGenOptions Opts;
  Opts.FunctionName = "html_once";
  Opts.EmitMain = true;
  std::string Src = generateCpp(
      Clean, Opts, {vectorFor(Clean, lib::valuesFromChars(Long))});
  ASSERT_NE(Src.find("i = scan(in, i, n, "), std::string::npos)
      << "the pipeline must have a nibble-table run kernel";
  auto Count = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t P = Src.find(Needle); P != std::string::npos;
         P = Src.find(Needle, P + 1))
      ++N;
    return N;
  };
  for (unsigned Q = 0; Q < Clean.numStates(); ++Q) {
    EXPECT_EQ(Count("\nS" + std::to_string(Q) + ":\n"), 1u) << "S" << Q;
    EXPECT_EQ(Count("\nF" + std::to_string(Q) + ":\n"), 1u) << "F" << Q;
  }
  EXPECT_EQ(Src.find("immintrin"), std::string::npos);
  EXPECT_EQ(Src.find("EFC_SIMD"), std::string::npos);
  EXPECT_EQ(Src.find("target("), std::string::npos);
  EXPECT_EQ(compileAndRun(Src, "html_once", "-Wall -Wextra -Werror"), 0);
}

TEST_F(CodeGenTest, EchoUnitStateBodiesAreTheirSwitchesAlone) {
  // serve_warm's echo spec, fused as served (no RBBE).  Every state's
  // root guard reads only the input, so every state gets a byte table;
  // its decimal formatter's register chain lives in residual switch
  // arms.  A byte table of all 256 bytes leaves the guard chain behind
  // the switch unreachable, so each S<q> body is its switch alone.
  std::string Err;
  auto Spec = runtime::PipelineSpec::parse(
      "frontend=regex\npattern=(?:(?<v>\\d+)|\\n)*\nagg=none\n"
      "format=lines\n",
      &Err);
  ASSERT_TRUE(Spec) << Err;
  auto Stages = runtime::assembleStages(*Spec, Ctx, &Err);
  ASSERT_TRUE(Stages) << Err;
  std::vector<const Bst *> Ptrs;
  for (const Bst &St : *Stages)
    Ptrs.push_back(&St);
  Solver S(Ctx);
  Bst Echo = fuseChain(Ptrs, S, {});

  CodeGenOptions Opts;
  Opts.FunctionName = "echo";
  Opts.EmitMain = true;
  std::string Src = generateCpp(
      Echo, Opts,
      {vectorFor(Echo, lib::valuesFromBytes("12\n\n34567\n0\n")),
       vectorFor(Echo, lib::valuesFromBytes("18446744073709551615\nx"))});
  size_t End = Src.find("\n}\n", Src.find("\nS0:\n"));
  for (unsigned Q = 0; Q < Echo.numStates(); ++Q) {
    size_t Begin = Src.find("\nS" + std::to_string(Q) + ":\n");
    ASSERT_NE(Begin, std::string::npos) << "S" << Q;
    size_t Next = Src.find("\nS" + std::to_string(Q + 1) + ":\n");
    std::string Body = Src.substr(Begin, std::min(Next, End) - Begin);
    auto Count = [&](const std::string &Needle) {
      size_t N = 0;
      for (size_t P = Body.find(Needle); P != std::string::npos;
           P = Body.find(Needle, P + 1))
        ++N;
      return N;
    };
    EXPECT_EQ(Count("switch (echo_cls" + std::to_string(Q) + "[x])"), 1u)
        << "S" << Q << ":\n" << Body.substr(0, 2000);
    // One top-level block: the table's.  A guard chain would open a
    // second.
    EXPECT_EQ(Count("\n  {\n"), 1u) << "S" << Q << ":\n"
                                     << Body.substr(0, 2000);
    EXPECT_EQ(Count("default: break;"), 0u) << "S" << Q;
  }
  EXPECT_EQ(compileAndRun(Src, "echo_tables", "-Wall -Wextra -Werror"), 0);
}

TEST_F(CodeGenTest, WindowedAverageCompilesAndChecks) {
  // Exercises many register fields and staged writes.
  Bst A = lib::makeWindowedAverage(Ctx, 4);
  CodeGenOptions Opts;
  Opts.FunctionName = "wavg";
  Opts.EmitMain = true;
  std::vector<Value> In = lib::valuesFromInts({5, 9, 2, 8, 100, 3});
  std::vector<CodeGenTestVector> Vs = {vectorFor(A, In)};
  EXPECT_EQ(compileAndRun(generateCpp(A, Opts, Vs), "wavg"), 0);
}

TEST_F(CodeGenTest, NativeTransducerMatchesVm) {
  // Runtime-compiled shared object vs the VM on random inputs.
  Bst Rep = lib::makeRep(Ctx);
  Bst Html = lib::makeHtmlEncode(Ctx);
  Solver S(Ctx);
  Bst Fused = fuse(Rep, Html, S);

  std::string Err;
  auto Native = NativeTransducer::compile(Fused, "test_html", &Err);
  ASSERT_TRUE(Native.has_value()) << Err;
  auto Vm = CompiledTransducer::compile(Fused);
  ASSERT_TRUE(Vm.has_value());

  SplitMix64 Rng(77);
  for (int Iter = 0; Iter < 10; ++Iter) {
    std::vector<uint64_t> In;
    for (int I = 0; I < 64; ++I)
      In.push_back(Rng.below(0x10000));
    auto A = Native->run(In);
    auto B = Vm->run(In);
    ASSERT_EQ(A.has_value(), B.has_value()) << Iter;
    if (A)
      EXPECT_EQ(*A, *B) << Iter;
  }
}

TEST_F(CodeGenTest, NativeBackendAgreesWithOracleOnRandomPipelines) {
  // The full differential gate with the native .so path enabled: the
  // generated C++, compiled by the host compiler, must match the composed
  // reference interpretation on random pipelines (including register
  // tuples, which exercise the generated register-field writes).
  using namespace efc::testing;
  SplitMix64 Rng(0xC0DE);
  bool Probed = false;
  for (int T = 0; T < 3; ++T) {
    TermContext LocalCtx;
    RandomBstGen Gen(LocalCtx, Rng);
    GenOptions O;
    O.ElemWidth = T == 2 ? 8u : 4u;
    O.MaxRegTupleArity = 2;
    Oracle Or(Gen.makePipeline(2, 3, O), BK_All);
    if (!Probed) {
      Probed = true;
      if (!Or.nativeAvailable())
        GTEST_SKIP() << "host compiler unavailable: " << Or.nativeError();
    }
    ASSERT_TRUE(Or.nativeAvailable()) << Or.nativeError();
    for (int I = 0; I < 6; ++I) {
      auto In = Gen.randomInput(8, O.ElemWidth);
      auto D = Or.check(In);
      EXPECT_FALSE(D.has_value()) << "trial " << T << ": " << D->str();
    }
    for (unsigned K = 0; K < RandomBstGen::NumAdversarialKinds; ++K) {
      auto In = Gen.adversarialInput(K, 6, O.ElemWidth);
      auto D = Or.check(In);
      EXPECT_FALSE(D.has_value()) << "trial " << T << ": " << D->str();
    }
  }
}

TEST_F(CodeGenTest, NativeUnitWithoutClassifierHashIsRefused) {
  // A unit that does not export efc_classifier_hash cannot be tied to the
  // IR certification ran on, so the loader refuses it like a unit that
  // lacks an efc_stream_* entry point.  The "compiler" deletes the export
  // line from the generated source before compiling it.
  std::string Dir =
      ::testing::TempDir() + "/efc_nohash_" + std::to_string(getpid());
  ASSERT_EQ(std::system(("mkdir -p " + Dir).c_str()), 0);
  std::string Wrapper = Dir + "/cxx.sh";
  {
    std::ofstream F(Wrapper);
    F << "#!/bin/sh\n"
         "for a in \"$@\"; do\n"
         "  case \"$a\" in *.cpp) sed -i '/efc_classifier_hash()/d' \"$a\" ;;"
         " esac\n"
         "done\n"
         "exec c++ \"$@\"\n";
  }
  ASSERT_EQ(chmod(Wrapper.c_str(), 0755), 0);
  ::setenv("EFC_CACHE_DIR", (Dir + "/cache").c_str(), 1);
  ::setenv("EFC_CXX", Wrapper.c_str(), 1);
  Bst A = lib::makeToInt(Ctx);
  std::string Err;
  auto Stripped = NativeTransducer::compile(A, "nohash", &Err);
  ::unsetenv("EFC_CXX");
  EXPECT_FALSE(Stripped.has_value());
  EXPECT_NE(Err.find("efc_classifier_hash"), std::string::npos) << Err;

  // The refused artifact stays behind in the cache; the host compiler's
  // build of the same source replaces it and loads.
  Err.clear();
  auto Full = NativeTransducer::compile(A, "nohash", &Err);
  ::unsetenv("EFC_CACHE_DIR");
  ASSERT_TRUE(Full.has_value()) << Err;
  EXPECT_EQ(Full->classifierHash(), classifierHash(A));
}

TEST_F(CodeGenTest, NativeTransducerRejectsLikeInterpreter) {
  Bst A = lib::makeToInt(Ctx);
  std::string Err;
  auto Native = NativeTransducer::compile(A, "test_toint", &Err);
  ASSERT_TRUE(Native.has_value()) << Err;
  std::vector<uint64_t> Good = {'1', '2'};
  std::vector<uint64_t> Bad = {'1', 'x'};
  std::vector<uint64_t> Empty;
  EXPECT_TRUE(Native->run(Good).has_value());
  EXPECT_FALSE(Native->run(Bad).has_value());
  EXPECT_FALSE(Native->run(Empty).has_value());
  EXPECT_EQ((*Native->run(Good))[0], 12u);
}

} // namespace
