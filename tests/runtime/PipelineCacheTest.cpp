//===- tests/runtime/PipelineCacheTest.cpp - Cache layer tests ------------===//
//
// Spec canonicalization round-trips, hit/miss/coalesce counters,
// single-flight builds under contention, LRU eviction, and the on-disk
// native artifact cache (warm restart never invokes the host compiler).
//
//===----------------------------------------------------------------------===//

#include "runtime/PipelineCache.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace efc;
using namespace efc::runtime;

namespace {

PipelineSpec csvMaxSpec() {
  PipelineSpec S;
  S.Kind = PipelineSpec::Frontend::Regex;
  S.Pattern = "(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*";
  S.Agg = "max";
  S.Format = "decimal";
  return S;
}

TEST(PipelineSpec, CanonicalParseRoundTrip) {
  PipelineSpec S = csvMaxSpec();
  S.Minimize = true;
  S.Rbbe = true;
  std::string Err;
  auto R = PipelineSpec::parse(S.canonical(), &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(*R, S);
  EXPECT_EQ(R->hash(), S.hash());
  EXPECT_EQ(R->canonical(), S.canonical());
}

TEST(PipelineSpec, DefaultsRoundTrip) {
  PipelineSpec S;
  S.Pattern = "(?<v>\\d+)";
  auto R = PipelineSpec::parse(S.canonical());
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, S);
}

TEST(PipelineSpec, HashDistinguishesFields) {
  PipelineSpec A = csvMaxSpec();
  PipelineSpec B = A;
  B.Agg = "min";
  PipelineSpec C = A;
  C.Rbbe = !A.Rbbe;
  EXPECT_NE(A.hash(), B.hash());
  EXPECT_NE(A.hash(), C.hash());
  EXPECT_NE(A.canonical(), B.canonical());
}

TEST(PipelineSpec, ParseRejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(PipelineSpec::parse("frontend=bogus\npattern=x\n", &Err));
  EXPECT_NE(Err.find("frontend"), std::string::npos);
  EXPECT_FALSE(PipelineSpec::parse("pattern=x\n", &Err)); // no frontend
  EXPECT_FALSE(PipelineSpec::parse("frontend=regex\n", &Err)); // no pattern
  EXPECT_FALSE(
      PipelineSpec::parse("frontend=regex\npattern=x\nagg=sum\n", &Err));
  EXPECT_FALSE(
      PipelineSpec::parse("frontend=regex\npattern=x\nformat=json\n", &Err));
  EXPECT_FALSE(PipelineSpec::parse("frontend=regex\npattern=x\nwat=1\n",
                                   &Err)); // unknown key
  EXPECT_FALSE(PipelineSpec::parse("garbage", &Err)); // no '='
}

TEST(PipelineCache, HitMissCounters) {
  PipelineCache Cache(4);
  std::string Err;
  auto A = Cache.get(csvMaxSpec(), false, &Err);
  ASSERT_TRUE(A) << Err;
  auto B = Cache.get(csvMaxSpec(), false, &Err);
  ASSERT_TRUE(B);
  EXPECT_EQ(A.get(), B.get()) << "repeat lookups share one entry";

  auto St = Cache.stats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Builds, 1u) << "second lookup must not re-fuse";
  EXPECT_GT(St.BuildSeconds, 0.0);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_NE(St.str().find("hits=1"), std::string::npos);
}

TEST(PipelineCache, InvalidSpecIsNegativeCached) {
  PipelineCache Cache(4);
  PipelineSpec Bad = csvMaxSpec();
  Bad.Pattern = "(?<v>[unterminated";
  std::string Err;
  EXPECT_FALSE(Cache.get(Bad, false, &Err));
  EXPECT_FALSE(Err.empty());
  // The failure is cached: a retry answers from the slot, no rebuild.
  // Spec errors are deterministic, so they stay sticky forever and are
  // accounted separately from positive hits.
  EXPECT_FALSE(Cache.get(Bad, false, &Err));
  EXPECT_EQ(Cache.stats().Builds, 0u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().NegativeHits, 1u);
  EXPECT_EQ(Cache.stats().Hits, 0u);
  EXPECT_NE(Cache.stats().str().find("negative_hits=1"), std::string::npos);
}

TEST(PipelineCache, SingleFlightUnderContention) {
  PipelineCache Cache(4);
  constexpr int N = 8;
  std::atomic<int> Ok{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&] {
      if (Cache.get(csvMaxSpec()))
        ++Ok;
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Ok.load(), N);
  auto St = Cache.stats();
  EXPECT_EQ(St.Builds, 1u) << "N concurrent gets must fuse exactly once";
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits + St.Coalesced, uint64_t(N - 1));
}

TEST(PipelineCache, LruEviction) {
  PipelineCache Cache(2);
  PipelineSpec A = csvMaxSpec();
  PipelineSpec B = A, C = A;
  B.Agg = "min";
  C.Agg = "avg";
  ASSERT_TRUE(Cache.get(A));
  ASSERT_TRUE(Cache.get(B));
  ASSERT_TRUE(Cache.get(A)); // A is now most recent; B is the LRU victim
  ASSERT_TRUE(Cache.get(C));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  // A survived the eviction; B was dropped and rebuilds.
  ASSERT_TRUE(Cache.get(A));
  EXPECT_EQ(Cache.stats().Builds, 3u);
  ASSERT_TRUE(Cache.get(B));
  EXPECT_EQ(Cache.stats().Builds, 4u);
}

TEST(PipelineCache, NativeDiskArtifactCache) {
  std::string Dir = ::testing::TempDir() + "/efc_cache_test";
  ::setenv("EFC_CACHE_DIR", Dir.c_str(), 1);
  EXPECT_EQ(NativeTransducer::cacheDir(), Dir);

  std::string Err;
  PipelineSpec S = csvMaxSpec();
  S.Agg = "avg"; // avoid colliding with other suites' warm artifacts

  PipelineCache Cold(4);
  auto P1 = Cold.get(S, /*WantNative=*/true, &Err);
  if (!P1 && Err.find("native backend unavailable") != std::string::npos)
    GTEST_SKIP() << Err;
  ASSERT_TRUE(P1) << Err;
  auto StCold = Cold.stats();
  // First process-wide build either compiles or reuses an artifact left
  // by an earlier run of this very test binary.
  EXPECT_EQ(StCold.NativeCompiles + StCold.NativeDiskHits, 1u);

  // A fresh cache (fresh process, conceptually) must find the artifact
  // on disk and never invoke the host compiler.
  PipelineCache Warm(4);
  auto P2 = Warm.get(S, true, &Err);
  ASSERT_TRUE(P2) << Err;
  auto StWarm = Warm.stats();
  EXPECT_EQ(StWarm.NativeCompiles, 0u)
      << "warm artifact cache must not invoke the compiler";
  EXPECT_EQ(StWarm.NativeDiskHits, 1u);
  EXPECT_EQ(StWarm.Builds, 1u) << "fusion is in-memory only, so it reruns";

  // In-memory warm path: the same cache serves native repeats without
  // touching the disk again.
  auto P3 = Warm.get(S, true, &Err);
  ASSERT_TRUE(P3);
  EXPECT_EQ(P2.get(), P3.get());
  EXPECT_EQ(Warm.stats().NativeDiskHits, 1u);
  EXPECT_EQ(Warm.stats().Hits, 1u);
}

TEST(PipelineCache, VmEntryUpgradesToNative) {
  std::string Dir = ::testing::TempDir() + "/efc_cache_test";
  ::setenv("EFC_CACHE_DIR", Dir.c_str(), 1);
  PipelineCache Cache(4);
  std::string Err;
  auto P = Cache.get(csvMaxSpec(), false, &Err);
  ASSERT_TRUE(P) << Err;
  EXPECT_EQ(Cache.stats().NativeCompiles + Cache.stats().NativeDiskHits, 0u)
      << "VM-only lookups must not touch the native toolchain";
  auto P2 = Cache.get(csvMaxSpec(), true, &Err);
  if (!P2 && Err.find("native backend unavailable") != std::string::npos)
    GTEST_SKIP() << Err;
  ASSERT_TRUE(P2) << Err;
  EXPECT_EQ(P.get(), P2.get()) << "upgrade happens in place";
  const NativeTransducer *N = P2->native(&Err);
  ASSERT_NE(N, nullptr) << Err;
  EXPECT_GT(N->stateWords(), 0u);
}

/// Environment guard for the native-retry tests: points the artifact
/// cache at a private directory (so a warm .so cannot mask the broken
/// compiler) and restores every variable on scope exit.
class NativeRetryEnv {
public:
  NativeRetryEnv(const char *Sub, const char *RetryMs) {
    Dir = ::testing::TempDir() + Sub;
    // A warm artifact from a previous run would disk-hit before the
    // (broken) compiler is ever invoked — start cold every time.
    std::filesystem::remove_all(Dir);
    ::setenv("EFC_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("EFC_NATIVE_RETRY_MS", RetryMs, 1);
  }
  ~NativeRetryEnv() {
    ::unsetenv("EFC_CXX");
    ::unsetenv("EFC_NATIVE_RETRY_MS");
    ::setenv("EFC_CACHE_DIR",
             (::testing::TempDir() + "/efc_cache_test").c_str(), 1);
  }
  std::string Dir;
};

// The failed-then-fixed scenario: a toolchain outage (every cc invocation
// fails) must not poison the entry forever — once the compiler works
// again, the same entry recovers without a rebuild of the pipeline.
TEST(PipelineCache, TransientNativeFailureRecovers) {
  NativeRetryEnv Env("/efc_retry_recover", /*RetryMs=*/"0");
  ::setenv("EFC_CXX", "false", 1); // "compiler" that always fails

  PipelineCache Cache(4);
  PipelineSpec S = csvMaxSpec();
  S.Agg = "min"; // keep this entry's artifact key test-private
  std::string Err;
  auto P = Cache.get(S, /*WantNative=*/false, &Err);
  ASSERT_TRUE(P) << Err;

  CompiledPipeline::NativeOutcome Outcome;
  NativeCompileInfo Info;
  EXPECT_EQ(P->native(&Err, &Outcome, &Info), nullptr);
  EXPECT_EQ(Outcome, CompiledPipeline::NativeOutcome::Failed);
  EXPECT_TRUE(Info.Transient) << "a failing cc is an environmental error";

  // Still broken: the immediate retry (EFC_NATIVE_RETRY_MS=0) runs the
  // compiler again and fails again.
  EXPECT_EQ(P->native(&Err, &Outcome, &Info), nullptr);
  EXPECT_EQ(Outcome, CompiledPipeline::NativeOutcome::Failed);

  // Toolchain restored: the very same entry must now compile.
  ::unsetenv("EFC_CXX");
  const NativeTransducer *N = P->native(&Err, &Outcome, &Info);
  if (!N && Err.find("no host C++ compiler") != std::string::npos)
    GTEST_SKIP() << Err;
  ASSERT_NE(N, nullptr) << Err;
  EXPECT_EQ(Outcome, CompiledPipeline::NativeOutcome::Compiled);
  EXPECT_FALSE(Info.Transient);
  // And the recovery is cached like any success.
  EXPECT_EQ(P->native(&Err, &Outcome), N);
  EXPECT_EQ(Outcome, CompiledPipeline::NativeOutcome::Ready);
  EXPECT_EQ(Cache.stats().Builds, 1u) << "recovery must not re-fuse";
}

// While the backoff deadline is pending, repeated native() calls answer
// from the cached error without invoking the compiler again.
TEST(PipelineCache, TransientNativeFailureBacksOff) {
  NativeRetryEnv Env("/efc_retry_backoff", /*RetryMs=*/"3600000");
  ::setenv("EFC_CXX", "false", 1);

  PipelineCache Cache(4);
  PipelineSpec S = csvMaxSpec();
  S.Agg = "avg";
  S.Format = "lines"; // test-private artifact key
  std::string Err;
  auto P = Cache.get(S, false, &Err);
  ASSERT_TRUE(P) << Err;

  auto &Failures = metrics::Registry::instance().counter(
      "efc_native_compile_failures_total");
  uint64_t F0 = Failures.value();
  CompiledPipeline::NativeOutcome Outcome;
  EXPECT_EQ(P->native(&Err, &Outcome), nullptr);
  EXPECT_EQ(Failures.value(), F0 + 1);
  std::string FirstErr = Err;
  // An hour-long backoff: these must be served from the cached error.
  EXPECT_EQ(P->native(&Err, &Outcome), nullptr);
  EXPECT_EQ(P->native(&Err, &Outcome), nullptr);
  EXPECT_EQ(Failures.value(), F0 + 1)
      << "no compiler invocation while the backoff is pending";
  EXPECT_EQ(Err, FirstErr);
}

TEST(AssembleStages, MirrorsEfccShape) {
  TermContext Ctx;
  std::string Err;
  auto Stages = assembleStages(csvMaxSpec(), Ctx, &Err);
  ASSERT_TRUE(Stages.has_value()) << Err;
  // decode + extract + agg + format + encode
  EXPECT_EQ(Stages->size(), 5u);

  PipelineSpec NoAgg = csvMaxSpec();
  NoAgg.Agg = "none";
  auto S2 = assembleStages(NoAgg, Ctx, &Err);
  ASSERT_TRUE(S2.has_value());
  EXPECT_EQ(S2->size(), 4u);

  PipelineSpec Bad = csvMaxSpec();
  Bad.Pattern = "(?<v>[oops";
  EXPECT_FALSE(assembleStages(Bad, Ctx, &Err));
  EXPECT_NE(Err.find("regex error"), std::string::npos);
}

} // namespace
