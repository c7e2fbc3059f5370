//===- tests/runtime/StreamSessionTest.cpp - Chunk-boundary invariance ----===//
//
// The streaming contract: for ANY split of an input into chunks — fixed
// sizes from 1 to 4096, random partitions, cuts inside multi-byte UTF-8
// sequences — the concatenated session output is byte-identical to the
// one-shot run, on the bytecode VM, the byte-class fast path, and the
// native suspend/resume entry points.  Swept over every Figure 9
// pipeline.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "common/FuzzSeed.h"
#include "data/Datasets.h"
#include "runtime/StreamSession.h"
#include "stdlib/Transducers.h"

#include <gtest/gtest.h>

#include <random>

using namespace efc;
using namespace efc::bench;
using namespace efc::runtime;

namespace {

std::string bytesOf(const std::vector<uint64_t> &Raw) {
  std::string S;
  S.reserve(Raw.size());
  for (uint64_t V : Raw)
    S.push_back(char(V));
  return S;
}

/// Streams \p In through \p S at the given cut points and returns the
/// concatenated output, or std::nullopt when the session rejects.
std::optional<std::string> streamAt(StreamSession S, const std::string &In,
                                    const std::vector<size_t> &Cuts) {
  std::string Got;
  size_t Prev = 0;
  for (size_t Cut : Cuts) {
    if (!S.feed(std::string_view(In).substr(Prev, Cut - Prev)))
      return std::nullopt;
    Got += S.takeOutput();
    Prev = Cut;
  }
  if (!S.feed(std::string_view(In).substr(Prev)))
    return std::nullopt;
  if (!S.finish())
    return std::nullopt;
  Got += S.takeOutput();
  return Got;
}

std::vector<size_t> fixedCuts(size_t Len, size_t Chunk) {
  std::vector<size_t> Cuts;
  for (size_t I = Chunk; I < Len; I += Chunk)
    Cuts.push_back(I);
  return Cuts;
}

struct Fig9Case {
  const char *Name;
  BuiltPipeline (*Make)();
  std::string (*Input)();
};

// Without this gtest prints the case as a byte dump of its pointers, and
// gtest_discover_tests copies that dump into the ctest name.
void PrintTo(const Fig9Case &C, std::ostream *OS) { *OS << C.Name; }

/// Rep+HtmlEncode over UTF-8 bytes: a byte-to-byte pipeline (sessions
/// serve bytes) with copy and const-append run kernels, and one that
/// rejects malformed UTF-8.
BuiltPipeline makeHtmlUtf8Pipeline() {
  auto Owner = std::make_shared<TermContext>();
  std::vector<Bst> Stages;
  Stages.push_back(lib::makeUtf8Decode(*Owner));
  Stages.push_back(lib::makeRep(*Owner));
  Stages.push_back(lib::makeHtmlEncode(*Owner));
  Stages.push_back(lib::makeUtf8Encode(*Owner));
  return buildPipeline("HTML-utf8", std::move(Stages), *Owner, Owner);
}

// Small datasets: the VM cursor feeds byte-at-a-time, and the sweep runs
// every pipeline at seven chunk sizes on two backends.
std::string csvIn() { return data::makeCsv(64, 4096, 6, 4, 9999); }
std::string chsiIn() { return data::makeChsiCsv(62, 4096, 3); }
std::string sboIn() { return data::makeSboCsv(61, 4096, 5); }
std::string ccIn() { return data::makeCcCsv(63, 4096); }
std::string b64In() { return data::makeBase64Ints(65, 512, 1u << 28); }
std::string engIn() { return data::makeEnglishText(66, 4096); }

const Fig9Case Cases[] = {
    {"Base64_avg", &makeBase64AvgPipeline, &b64In},
    {"Base64_delta", &makeBase64DeltaPipeline, &b64In},
    {"UTF8_lines", &makeUtf8LinesPipeline, &engIn},
    {"CSV_max", &makeCsvMaxPipeline, &csvIn},
    {"CHSI_deaths", [] { return makeChsiPipeline("deaths"); }, &chsiIn},
    {"SBO_employees", [] { return makeSboPipeline("employees"); }, &sboIn},
    {"CC_id", &makeCcIdPipeline, &ccIn},
};

class StreamChunkInvariance : public ::testing::TestWithParam<Fig9Case> {};

TEST_P(StreamChunkInvariance, FixedAndRandomSplitsMatchOneShot) {
  const Fig9Case &C = GetParam();
  BuiltPipeline P = C.Make();
  std::string In = C.Input();

  auto Want = P.CompiledFused->run(rawOfBytes(In));
  ASSERT_TRUE(Want.has_value()) << C.Name;
  std::string WantBytes = bytesOf(*Want);

  // Acceptance sweep: chunk sizes spanning 1..4096 (1 = worst case,
  // 4096 >= |input| = the one-shot degenerate split).
  for (size_t Chunk : {size_t(1), size_t(2), size_t(3), size_t(7),
                       size_t(64), size_t(1021), size_t(4096)}) {
    auto Cuts = fixedCuts(In.size(), Chunk);
    auto Vm = streamAt(StreamSession::overVm(*P.CompiledFused), In, Cuts);
    ASSERT_TRUE(Vm.has_value()) << C.Name << " chunk=" << Chunk;
    EXPECT_EQ(*Vm, WantBytes) << C.Name << " vm chunk=" << Chunk;
    auto Fast = streamAt(
        StreamSession::overFast(*P.FastPlan, *P.CompiledFused), In, Cuts);
    ASSERT_TRUE(Fast.has_value()) << C.Name << " chunk=" << Chunk;
    EXPECT_EQ(*Fast, WantBytes) << C.Name << " fastpath chunk=" << Chunk;
    if (P.Native) {
      auto N = streamAt(StreamSession::overNative(*P.Native), In, Cuts);
      ASSERT_TRUE(N.has_value()) << C.Name << " chunk=" << Chunk;
      EXPECT_EQ(*N, WantBytes) << C.Name << " native chunk=" << Chunk;
    }
  }

  // Random partitions, including empty chunks (repeated cut points).
  uint64_t Seed = efc::testing::fuzzSeed(0xefc0) + In.size();
  std::mt19937_64 Rng(Seed);
  for (int Round = 0; Round < 8; ++Round) {
    std::vector<size_t> Cuts;
    size_t NumCuts = 1 + Rng() % 40;
    for (size_t I = 0; I < NumCuts; ++I)
      Cuts.push_back(Rng() % (In.size() + 1));
    std::sort(Cuts.begin(), Cuts.end());
    auto Vm = streamAt(StreamSession::overVm(*P.CompiledFused), In, Cuts);
    ASSERT_TRUE(Vm.has_value())
        << C.Name << " round=" << Round << " "
        << efc::testing::seedNote(Seed);
    EXPECT_EQ(*Vm, WantBytes) << C.Name << " vm round=" << Round << " "
                              << efc::testing::seedNote(Seed);
    auto Fast = streamAt(
        StreamSession::overFast(*P.FastPlan, *P.CompiledFused), In, Cuts);
    ASSERT_TRUE(Fast.has_value())
        << C.Name << " round=" << Round << " "
        << efc::testing::seedNote(Seed);
    EXPECT_EQ(*Fast, WantBytes)
        << C.Name << " fastpath round=" << Round << " "
        << efc::testing::seedNote(Seed);
    if (P.Native) {
      auto N = streamAt(StreamSession::overNative(*P.Native), In, Cuts);
      ASSERT_TRUE(N.has_value())
          << C.Name << " round=" << Round << " "
          << efc::testing::seedNote(Seed);
      EXPECT_EQ(*N, WantBytes)
          << C.Name << " native round=" << Round << " "
          << efc::testing::seedNote(Seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig9, StreamChunkInvariance, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<Fig9Case> &Info) {
      return Info.param.Name;
    });

TEST(StreamSession, MidUtf8SplitsEverywhere) {
  // 2-, 3- and 4-byte sequences; every single split point, so every cut
  // that lands inside a multi-byte encoding is exercised.
  BuiltPipeline P = makeUtf8LinesPipeline();
  std::string In = "h\xc3\xa9llo\n\xe2\x9c\x93 w\xc3\xb6rld\n"
                   "\xf0\x9d\x84\x9e quartet\nlast\n";
  auto Want = P.CompiledFused->run(rawOfBytes(In));
  ASSERT_TRUE(Want.has_value());
  std::string WantBytes = bytesOf(*Want);

  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    auto Vm = streamAt(StreamSession::overVm(*P.CompiledFused), In, {Cut});
    ASSERT_TRUE(Vm.has_value()) << "cut=" << Cut;
    EXPECT_EQ(*Vm, WantBytes) << "vm cut=" << Cut;
    auto Fast = streamAt(
        StreamSession::overFast(*P.FastPlan, *P.CompiledFused), In, {Cut});
    ASSERT_TRUE(Fast.has_value()) << "cut=" << Cut;
    EXPECT_EQ(*Fast, WantBytes) << "fastpath cut=" << Cut;
    if (P.Native) {
      auto N = streamAt(StreamSession::overNative(*P.Native), In, {Cut});
      ASSERT_TRUE(N.has_value()) << "cut=" << Cut;
      EXPECT_EQ(*N, WantBytes) << "native cut=" << Cut;
    }
  }
}

TEST(StreamSession, MidRunSplitsEverywhere) {
  // One 4096-'a' line is a single maximal run-kernel span for the fused
  // UTF8-lines pipeline.  Cut the stream once at every position inside
  // the run, on the VM, fast-path and native backends: the span is
  // consumed in two kernel applications that must resume with no state
  // drift, and the concatenation must equal the one-shot output.
  BuiltPipeline P = makeUtf8LinesPipeline();
  std::string In(4096, 'a');
  In += '\n';
  auto Want = P.CompiledFused->run(rawOfBytes(In));
  ASSERT_TRUE(Want.has_value());
  std::string WantBytes = bytesOf(*Want);

  // Kernel engagement: the counters prove this test exercises run
  // acceleration rather than per-element dispatch.
  {
    StreamSession S = StreamSession::overFast(*P.FastPlan, *P.CompiledFused);
    ASSERT_TRUE(S.feed(std::string_view(In)));
    ASSERT_TRUE(S.finish());
    EXPECT_EQ(S.takeOutput(), WantBytes);
    EXPECT_GT(S.fastRuns(), 0u);
    EXPECT_GE(S.fastRunElements(), 4096u);
  }

  for (size_t Cut = 0; Cut <= In.size(); Cut += 7) {
    auto Vm = streamAt(StreamSession::overVm(*P.CompiledFused), In, {Cut});
    ASSERT_TRUE(Vm.has_value()) << "cut=" << Cut;
    EXPECT_EQ(*Vm, WantBytes) << "vm cut=" << Cut;
    auto Fast = streamAt(
        StreamSession::overFast(*P.FastPlan, *P.CompiledFused), In, {Cut});
    ASSERT_TRUE(Fast.has_value()) << "cut=" << Cut;
    EXPECT_EQ(*Fast, WantBytes) << "fastpath cut=" << Cut;
    if (P.Native) {
      auto N = streamAt(StreamSession::overNative(*P.Native), In, {Cut});
      ASSERT_TRUE(N.has_value()) << "cut=" << Cut;
      EXPECT_EQ(*N, WantBytes) << "native cut=" << Cut;
    }
  }
}

TEST(StreamSession, CopyRunsFedOneByteAtATime) {
  // Rep+HtmlEncode drives copy/const-append kernels.  Long safe runs
  // around the escapes, streamed in 1-byte chunks (every feed() boundary
  // lands inside some span) and in 3-byte chunks, must match one-shot on
  // all backends.  The 16-bit pipeline runs on the VM and the fast path;
  // its native unit reads uint16_t elements, so a session feeding it
  // bytes must reject, and the native output check runs on the same
  // stages between UTF-8 decode and encode.
  BuiltPipeline Wide = makeHtmlEncodePipeline();
  BuiltPipeline Bytes = makeHtmlUtf8Pipeline();
  std::string In = std::string(2048, 'x') + "<&>\"" + std::string(2048, 'y');
  for (const BuiltPipeline *P : {&Wide, &Bytes}) {
    auto Want = P->CompiledFused->run(rawOfBytes(In));
    ASSERT_TRUE(Want.has_value());
    std::string WantBytes = bytesOf(*Want);

    for (size_t Chunk : {size_t(1), size_t(3)}) {
      auto Cuts = fixedCuts(In.size(), Chunk);
      auto Vm = streamAt(StreamSession::overVm(*P->CompiledFused), In, Cuts);
      ASSERT_TRUE(Vm.has_value()) << "chunk=" << Chunk;
      EXPECT_EQ(*Vm, WantBytes) << "vm chunk=" << Chunk;
      auto Fast = streamAt(
          StreamSession::overFast(*P->FastPlan, *P->CompiledFused), In, Cuts);
      ASSERT_TRUE(Fast.has_value()) << "chunk=" << Chunk;
      EXPECT_EQ(*Fast, WantBytes) << "fastpath chunk=" << Chunk;
      if (!P->Native)
        continue;
      auto N = streamAt(StreamSession::overNative(*P->Native), In, Cuts);
      if (P == &Wide) {
        EXPECT_FALSE(N.has_value()) << "a 16-bit unit must refuse bytes";
        continue;
      }
      ASSERT_TRUE(N.has_value()) << "chunk=" << Chunk;
      EXPECT_EQ(*N, WantBytes) << "native chunk=" << Chunk;
    }
  }
}

/// Feeds \p In to \p S in \p Chunk-byte pieces (the whole input when
/// Chunk is 0) and finishes.  Returns whether the stream was accepted and
/// every output byte produced, the output before the rejecting byte
/// included; on rejection, also checks that the session stays rejected.
std::pair<bool, std::string> feedAll(StreamSession S, const std::string &In,
                                     size_t Chunk) {
  std::string Got;
  bool Ok = true;
  size_t Step = Chunk ? Chunk : std::max<size_t>(In.size(), 1);
  for (size_t I = 0; Ok && I < In.size(); I += Step) {
    Ok = S.feed(std::string_view(In).substr(I, Step));
    Got += S.takeOutput();
  }
  Ok = Ok && S.finish();
  Got += S.takeOutput();
  if (!Ok) {
    EXPECT_TRUE(S.rejected());
    EXPECT_FALSE(S.feed(std::string_view("a")));
    EXPECT_FALSE(S.finish());
    EXPECT_EQ(S.takeOutput(), "");
  }
  return {Ok, Got};
}

TEST(StreamSession, BlockEdgesInsideOneWholeFeed) {
  // One feed spanning more than two StreamSession blocks, with the block
  // edges placed inside a 3-byte UTF-8 sequence, inside a run-kernel
  // span, and right before a rejecting byte.  Fed whole, every backend
  // must produce what the one-shot VM run and 1- and 7-byte feeds do,
  // including the output before the rejection and the rejection itself.
  BuiltPipeline P = makeHtmlUtf8Pipeline();
  constexpr size_t B = StreamSession::BlockBytes;
  std::string Good;
  while (Good.size() < 3 * B + 4096)
    Good += "plain words <b>&amp; \"quoted\" text\n";
  Good.replace(B - 1, 3, "\xe2\x9c\x93");             // edge 1 cuts a sequence
  Good.replace(2 * B - 100, 200, std::string(200, 'a')); // edge 2 cuts a run
  std::string Bad = Good;
  Bad[3 * B] = '\xff'; // edge 3 sits before a byte UTF-8 decode rejects

  auto Want = P.CompiledFused->run(rawOfBytes(Good));
  ASSERT_TRUE(Want.has_value());
  ASSERT_FALSE(P.CompiledFused->run(rawOfBytes(Bad)).has_value());
  const std::string WantBytes = bytesOf(*Want);
  // The output before the rejection, from the VM fed byte by byte.
  auto [BadOk, WantPartial] =
      feedAll(StreamSession::overVm(*P.CompiledFused), Bad, 1);
  ASSERT_FALSE(BadOk);
  ASSERT_FALSE(WantPartial.empty());
  EXPECT_EQ(WantBytes.compare(0, WantPartial.size(), WantPartial), 0);

  std::vector<std::pair<const char *, StreamSession (*)(const BuiltPipeline &)>>
      Backends = {
          {"vm",
           [](const BuiltPipeline &P) {
             return StreamSession::overVm(*P.CompiledFused);
           }},
          {"fastpath",
           [](const BuiltPipeline &P) {
             return StreamSession::overFast(*P.FastPlan, *P.CompiledFused);
           }},
      };
  if (P.Native)
    Backends.push_back({"native", [](const BuiltPipeline &P) {
                          return StreamSession::overNative(*P.Native);
                        }});
  for (auto &[Name, Open] : Backends) {
    for (size_t Chunk : {size_t(0), size_t(1), size_t(7)}) {
      auto [Ok, Got] = feedAll(Open(P), Good, Chunk);
      EXPECT_TRUE(Ok) << Name << " chunk=" << Chunk;
      EXPECT_EQ(Got, WantBytes) << Name << " chunk=" << Chunk;
      auto [ROk, Partial] = feedAll(Open(P), Bad, Chunk);
      EXPECT_FALSE(ROk) << Name << " chunk=" << Chunk;
      EXPECT_EQ(Partial, WantPartial) << Name << " chunk=" << Chunk;
    }
  }

  // The run across edge 2 is consumed by the kernels on the fast path.
  StreamSession S = StreamSession::overFast(*P.FastPlan, *P.CompiledFused);
  ASSERT_TRUE(S.feed(std::string_view(Good).substr(0, 2 * B + 100)));
  EXPECT_GE(S.fastRunElements(), 200u);
}

TEST(StreamSession, EmptyInputMatchesOneShot) {
  BuiltPipeline P = makeUtf8LinesPipeline();
  auto Want = P.CompiledFused->run({});
  ASSERT_TRUE(Want.has_value());
  auto Got = streamAt(StreamSession::overVm(*P.CompiledFused), "", {});
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, bytesOf(*Want));
}

TEST(StreamSession, RejectionIsSticky) {
  // utf8 decode rejects 0xFF; once rejected, every later call fails.
  BuiltPipeline P = makeUtf8LinesPipeline();
  StreamSession S = StreamSession::overVm(*P.CompiledFused);
  ASSERT_TRUE(S.feed(std::string_view("ok\n")));
  EXPECT_FALSE(S.feed(std::string_view("\xff")));
  EXPECT_TRUE(S.rejected());
  EXPECT_FALSE(S.feed(std::string_view("more")));
  EXPECT_FALSE(S.finish());
}

TEST(StreamSession, FastPathRejectionIsSticky) {
  BuiltPipeline P = makeUtf8LinesPipeline();
  StreamSession S = StreamSession::overFast(*P.FastPlan, *P.CompiledFused);
  ASSERT_TRUE(S.feed(std::string_view("ok\n")));
  EXPECT_FALSE(S.feed(std::string_view("\xff")));
  EXPECT_TRUE(S.rejected());
  EXPECT_FALSE(S.feed(std::string_view("more")));
  EXPECT_FALSE(S.finish());
}

TEST(StreamSession, OpenFastBackendUsesCachedPlan) {
  PipelineCache Cache(2);
  PipelineSpec Spec;
  Spec.Kind = PipelineSpec::Frontend::Regex;
  Spec.Pattern = "(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*";
  Spec.Agg = "max";
  Spec.Format = "decimal";
  std::string Err;
  auto P = Cache.get(Spec, false, &Err);
  ASSERT_TRUE(P) << Err;
  ASSERT_TRUE(P->Fast != nullptr) << "cache entries carry a fast-path plan";
  auto S = StreamSession::open(P, StreamSession::Backend::Fast, &Err);
  ASSERT_TRUE(S.has_value()) << Err;
  ASSERT_TRUE(S->feed(std::string_view("a,7,x\nb,31,y\n")));
  ASSERT_TRUE(S->finish());
  EXPECT_EQ(S->takeOutput(), "31");
}

TEST(StreamSession, FinishIsIdempotentAndFinal) {
  BuiltPipeline P = makeUtf8LinesPipeline();
  StreamSession S = StreamSession::overVm(*P.CompiledFused);
  ASSERT_TRUE(S.feed(std::string_view("a\nb\n")));
  ASSERT_TRUE(S.finish());
  std::string Out = S.takeOutput();
  EXPECT_EQ(Out, "2");
  EXPECT_TRUE(S.finish()) << "finish is idempotent";
  EXPECT_EQ(S.takeOutput(), "") << "no duplicate finalizer output";
  EXPECT_TRUE(S.finished());
  EXPECT_EQ(S.bytesIn(), 4u);
  EXPECT_EQ(S.bytesOut(), 1u);
}

TEST(StreamSession, OpenOverCacheEntrySharesOwnership) {
  PipelineCache Cache(2);
  PipelineSpec Spec;
  Spec.Kind = PipelineSpec::Frontend::Regex;
  Spec.Pattern = "(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*";
  Spec.Agg = "max";
  Spec.Format = "decimal";
  std::string Err;
  auto P = Cache.get(Spec, false, &Err);
  ASSERT_TRUE(P) << Err;
  auto S = StreamSession::open(P, StreamSession::Backend::Vm, &Err);
  ASSERT_TRUE(S.has_value()) << Err;
  ASSERT_TRUE(S->feed(std::string_view("a,7,x\nb,31,y\n")));
  ASSERT_TRUE(S->finish());
  EXPECT_EQ(S->takeOutput(), "31");
}

} // namespace
