//===- perfbench/harness/CompileCold.cpp - Cold spec opens -----------------===//
///
/// \file
/// compile_cold: a 1-shard in-process Server with a fresh native artifact
/// directory.  Connection A opens a seeded draw of never-seen specs one
/// at a time and checks each on a small input; connection B feeds an
/// already-warm echo session at a low fixed open-loop rate the whole
/// time, so its latency shows how long cold compiles stall the other
/// sessions of the shard.
///
/// The draw is stratified so every seed gets the same mix: four CSV
/// column regexes (column 0..9, any aggregate and format), four XPath
/// queries over the four XML schemas and four digit-run patterns, each
/// group drawn with the same four shapes (aggregate, format, backend),
/// one of them native.
///
///   work_s  compile_s: the sum of the cold-open round trips
///
/// The latency figures (open_cold_p50_ms, warm_p99_ms) are in the report
/// only: they follow the two or three longest compiles of a draw, and
/// moved by 20-45% from run to run on a shared 4-vCPU host.
///
//===----------------------------------------------------------------------===//

#include "Client.h"
#include "Pipelines.h"
#include "Refs.h"
#include "Workloads.h"

#include "data/Datasets.h"
#include "pipeline/PassManager.h"
#include "runtime/Server.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

using namespace efc;
using namespace efc::runtime;

namespace pb {
namespace {

constexpr unsigned SetupReps = 3;
constexpr size_t CheckBytes = 4096;
constexpr double WarmFps = 200;
constexpr size_t WarmFrameBytes = 512;
constexpr double MaxPhaseS = 150;
constexpr unsigned ConnA = 0, ConnB = 1;

/// The four spec shapes every group is drawn with, so each seed opens
/// the same mix of aggregates, formats and backends; the seed picks the
/// columns, the pairing of shapes with schemas and separators, and the
/// open order.  The native XPath open is always the DBLP query, the
/// largest native build, so the longest shard stall is the same kind of
/// compile on every seed.  Slow shapes stay out of the draw: "avg" (its
/// division makes one compile take 5-8 s) and agg=none with lines
/// (about 1.2 s against 0.3-0.6 s), so that the median open is a fast
/// one and compile_s counts a fixed mix rather than the luck of a draw.
struct Shape {
  const char *Agg, *Format;
  bool Native;
};
const Shape Shapes[] = {{"max", "decimal", true},
                        {"min", "lines", false},
                        {"max", "sql", false},
                        {"min", "decimal", false}};
constexpr size_t NativeXPath = 2; ///< index of the DBLP schema

struct ColdSpec {
  std::string Label, Text, Agg, Format;
  bool Native = false;
  std::string Input, Expected;
};

struct XmlSchema {
  const char *Query;
  std::string (*Make)(uint64_t, size_t);
};
const XmlSchema Schemas[] = {
    {"/customers/customer/account", data::makeTpcDiXml},
    {"/proteins/protein/length", data::makePirXml},
    {"/dblp/article/year", data::makeDblpXml},
    {"/mondial/country/city/population", data::makeMondialXml},
};

/// Separator classes for the digit-run patterns, as regex text and as
/// the characters the input generator may use.
struct SepClass {
  const char *Regex, *Chars;
};
const SepClass Seps[] = {{"\\n", "\n"},      {" \\n", " \n"},
                         {",\\n", ",\n"},    {";\\n", ";\n"},
                         {" ,;\\n", " ,;\n"}, {"\\t \\n", "\t \n"}};

std::string specText(const char *Frontend, const std::string &Pattern,
                     const std::string &Agg, const std::string &Format) {
  return std::string("frontend=") + Frontend + "\npattern=" + Pattern +
         "\nagg=" + Agg + "\nformat=" + Format + "\n";
}

/// A seeded order of the shapes for one group of four specs; with
/// \p NativeAt set, that member takes the native shape.
std::vector<const Shape *> shapeOrder(SplitMix64 &Rng,
                                      std::optional<size_t> NativeAt) {
  std::vector<const Shape *> P = {&Shapes[1], &Shapes[2], &Shapes[3]};
  if (!NativeAt)
    P.push_back(&Shapes[0]);
  for (size_t I = P.size(); I > 1; --I)
    std::swap(P[I - 1], P[Rng.below(I)]);
  if (NativeAt)
    P.insert(P.begin() + ptrdiff_t(*NativeAt), &Shapes[0]);
  return P;
}

std::vector<ColdSpec> drawSpecs(uint64_t Seed) {
  SplitMix64 Rng(Seed * 0xd1342543de82ef95ull + 3);
  std::vector<ColdSpec> Out;
  std::vector<const Shape *> Order;
  auto AggFmt = [&](ColdSpec &S) {
    const Shape &Sh = *Order.back();
    Order.pop_back();
    S.Agg = Sh.Agg;
    S.Format = Sh.Format;
    S.Native = Sh.Native;
  };
  Order = shapeOrder(Rng, std::nullopt);
  // Four distinct CSV columns.
  std::vector<unsigned> Cols{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (unsigned I = 0; I < 4; ++I) {
    std::swap(Cols[I], Cols[I + Rng.below(Cols.size() - I)]);
    unsigned K = Cols[I];
    ColdSpec S;
    AggFmt(S);
    S.Label = "csv k=" + std::to_string(K);
    S.Text = specText("regex",
                      "(?:(?:[^,\\n]*,){" + std::to_string(K) +
                          "}(?<v>\\d+),[^\\n]*\\n)*",
                      S.Agg, S.Format);
    S.Input = data::makeCsv(Rng.next(), CheckBytes, 11, K, 1000000);
    S.Expected =
        refs::aggregate(refs::csvColumn(S.Input, K), S.Agg, S.Format);
    Out.push_back(std::move(S));
  }
  Order = shapeOrder(Rng, std::size(Schemas) - 1 - NativeXPath);
  for (const XmlSchema &X : Schemas) {
    ColdSpec S;
    AggFmt(S);
    S.Label = std::string("xpath ") + X.Query;
    S.Text = specText("xpath", X.Query, S.Agg, S.Format);
    S.Input = X.Make(Rng.next(), CheckBytes);
    S.Expected =
        refs::aggregate(refs::xmlValues(S.Input, X.Query), S.Agg, S.Format);
    Out.push_back(std::move(S));
  }
  Order = shapeOrder(Rng, std::nullopt);
  std::vector<unsigned> SepIdx{0, 1, 2, 3, 4, 5};
  for (unsigned I = 0; I < 4; ++I) {
    std::swap(SepIdx[I], SepIdx[I + Rng.below(SepIdx.size() - I)]);
    const SepClass &Sep = Seps[SepIdx[I]];
    ColdSpec S;
    AggFmt(S);
    S.Label = std::string("digit runs [") + Sep.Regex + "]";
    S.Text = specText("regex", std::string("(?:(?<v>\\d+)|[") + Sep.Regex +
                                   "])*",
                      S.Agg, S.Format);
    std::string Chars = Sep.Chars;
    while (S.Input.size() < CheckBytes) {
      S.Input += std::to_string(Rng.below(100000000));
      S.Input += Chars[Rng.below(Chars.size())];
    }
    S.Input += '\n';
    S.Expected =
        refs::aggregate(refs::digitRuns(S.Input), S.Agg, S.Format);
    Out.push_back(std::move(S));
  }
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[Rng.below(I)]);
  return Out;
}

const char *EchoSpec = "frontend=regex\npattern=(?:(?<v>\\d+)|\\n)*\n"
                       "agg=none\nformat=lines\n";

struct WarmFrame {
  std::string Bytes, Echo;
};

class Harness {
public:
  explicit Harness(Report &R) : R(R) {}

  /// Fresh artifact directory and per-pass cache, server start, warm
  /// session open on connection B.  Seconds, or < 0.
  double setUp() {
    pipeline::PassManager::resetCacheForTests();
    freshArtifactDir("cold");
    Clock::time_point T0 = Clock::now();
    ServerOptions SO;
    SO.SocketPath = "cold.sock";
    SO.Shards = 1;
    SO.IdleMs = 3600000;
    Srv = std::make_unique<Server>(SO);
    std::string Err, Body;
    char Status = 0;
    if (!Srv->start(&Err))
      return fail("server start: " + Err);
    Cli = std::make_unique<WireClient>();
    if (!Cli->connect(SO.SocketPath, 2, &Err))
      return fail(Err);
    ++R.Attempted;
    if (!Cli->call(ConnB, std::string("Owarm\nfastpath\n") + EchoSpec,
                   &Status, &Body, &Err) ||
        Status != 'k')
      return fail("warm open: " + Err + Body);
    return secondsBetween(T0, Clock::now());
  }

  void tearDown() {
    Cli.reset();
    if (Srv)
      Srv->stop();
    Srv.reset();
  }

  double fail(const std::string &Msg) {
    ++R.Failed;
    if (R.Mismatch.empty())
      R.Mismatch = "workload compile_cold: " + Msg;
    return -1;
  }

  Report &R;
  std::unique_ptr<Server> Srv;
  std::unique_ptr<WireClient> Cli;
};

/// The cold phase: A walks the specs, B is fed open-loop meanwhile.
struct ColdResult {
  std::vector<double> OpenMs, WarmMs;
  double StallMaxMs = 0;
};

bool coldPhase(Harness &H, std::vector<ColdSpec> &Specs,
               const std::vector<WarmFrame> &Pool,
               const std::vector<std::pair<double, uint16_t>> &WarmSched,
               ColdResult &CR) {
  Report &R = H.R;
  WireClient &Cli = *H.Cli;
  enum : uint32_t { OpenOp = 1u << 30, FeedOp = 2u << 30, FinOp = 3u << 30 };
  size_t SpecIdx = 0;
  unsigned AStage = 0; // 0: send open, 1: await open, 2: await check
  std::string Got;
  Clock::time_point OpenSent;
  Clock::time_point LastWarm{};
  size_t WarmNext = 0;
  Clock::time_point T0 = Clock::now();
  std::string Err, Payload;

  auto OnReply = [&](const Reply &Rp) {
    if (Rp.Conn == ConnB) {
      const WarmFrame &F = Pool[WarmSched[Rp.Req.Op].second];
      if (Rp.Status != 'k' || Rp.Body != F.Echo)
        R.mismatch("compile_cold", "warm echo session", F.Echo,
                   std::string(Rp.Body));
      CR.WarmMs.push_back(secondsBetween(Rp.Req.Due, Rp.At) * 1e3);
      if (LastWarm != Clock::time_point{})
        CR.StallMaxMs =
            std::max(CR.StallMaxMs, secondsBetween(LastWarm, Rp.At) * 1e3);
      LastWarm = Rp.At;
      return;
    }
    ColdSpec &S = Specs[SpecIdx];
    uint32_t Kind = Rp.Req.Op & (3u << 30);
    if (Rp.Status != 'k') {
      H.fail("spec " + S.Label + ": " + std::string(Rp.Body));
      return;
    }
    if (Kind == OpenOp) {
      CR.OpenMs.push_back(secondsBetween(OpenSent, Rp.At) * 1e3);
      AStage = 2;
      return;
    }
    Got.append(Rp.Body);
    if (Kind == FinOp) {
      if (Got != S.Expected)
        R.mismatch("compile_cold", "spec " + S.Label + " (agg " + S.Agg +
                                       ", format " + S.Format + ")",
                   S.Expected, Got);
      ++SpecIdx;
      AStage = 0;
    }
  };

  while (SpecIdx < Specs.size() || Cli.outstanding()) {
    if (!R.Mismatch.empty())
      return false;
    Clock::time_point Now = Clock::now();
    if (secondsBetween(T0, Now) > MaxPhaseS)
      return H.fail("cold phase did not finish") >= 0;
    if (SpecIdx < Specs.size() && AStage == 0) {
      ColdSpec &S = Specs[SpecIdx];
      std::string Name = "c" + std::to_string(SpecIdx);
      R.Attempted += 3;
      OpenSent = Clock::now();
      AStage = 1;
      Got.clear();
      if (!Cli.send(ConnA,
                    "O" + Name + "\n" + (S.Native ? "native" : "fastpath") +
                        "\n" + S.Text,
                    {OpenOp, OpenSent}, &Err) ||
          !Cli.send(ConnA, "F" + Name + "\n" + S.Input, {FeedOp, OpenSent},
                    &Err) ||
          !Cli.send(ConnA, "E" + Name, {FinOp, OpenSent}, &Err))
        return H.fail(Err) >= 0;
      continue;
    }
    // Connection B's schedule runs while specs remain.
    Clock::time_point Until = Now + std::chrono::milliseconds(20);
    if (SpecIdx < Specs.size() && WarmNext < WarmSched.size()) {
      Clock::time_point Due =
          T0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(WarmSched[WarmNext].first));
      if (Due <= Now) {
        ++R.Attempted;
        Payload = "Fwarm\n" + Pool[WarmSched[WarmNext].second].Bytes;
        if (!Cli.send(ConnB, Payload, {uint32_t(WarmNext), Due}, &Err))
          return H.fail(Err) >= 0;
        ++WarmNext;
        continue;
      }
      Until = std::min(Until, Due);
    }
    if (!Cli.pump(Until, OnReply, &Err))
      return H.fail(Err) >= 0;
  }
  return R.Mismatch.empty();
}

/// Cost of one span with tracing on, in ms (calibrates the overhead).
double spanCostMs() {
  Tracer &T = Tracer::get();
  bool Was = T.On;
  size_t Mark = T.Spans.size();
  T.On = true;
  Clock::time_point T0 = Clock::now();
  for (unsigned I = 0; I < 10000; ++I)
    Span S("bench", "calibrate");
  double Ms = msSince(T0) / 10000;
  T.Spans.resize(Mark);
  T.On = Was;
  return Ms;
}

} // namespace

void runCompileCold(const Options &O, Report &R) {
  std::vector<ColdSpec> Specs = drawSpecs(O.Seed);
  SplitMix64 Rng(O.Seed * 0x9e3779b97f4a7c15ull + 5);
  std::vector<WarmFrame> Pool;
  for (unsigned I = 0; I < 64; ++I) {
    WarmFrame F;
    while (F.Bytes.size() + 10 < WarmFrameBytes)
      F.Bytes += std::to_string(Rng.below(100000000)) + "\n";
    F.Echo = refs::aggregate(refs::digitRuns(F.Bytes), "none", "lines");
    Pool.push_back(std::move(F));
  }
  std::vector<std::pair<double, uint16_t>> WarmSched;
  for (double At = 0; At < MaxPhaseS;) {
    double U = (double(Rng.next() >> 11) + 0.5) / double(1ull << 53);
    At += -std::log(U) / WarmFps;
    WarmSched.push_back({At, uint16_t(Rng.below(Pool.size()))});
  }
  fprintf(stderr, "compile_cold: seed %llu, %zu cold specs:\n",
          (unsigned long long)O.Seed, Specs.size());
  for (const ColdSpec &S : Specs)
    fprintf(stderr, "  %-8s %s, agg %s, format %s\n",
            S.Native ? "native" : "fastpath", S.Label.c_str(), S.Agg.c_str(),
            S.Format.c_str());

  // Repeated set-ups run in child processes; the last one, in this
  // process, is the one the cold phase runs on.
  Harness H(R);
  std::vector<double> SetupS;
  for (unsigned I = 1; I < (O.Trace ? 1 : SetupReps); ++I) {
    double S = setUpInChild([&] {
      double S = H.setUp();
      H.tearDown();
      return S;
    });
    if (S < 0) {
      R.Mismatch = "workload compile_cold: set-up failed in a child process";
      return;
    }
    SetupS.push_back(S);
  }
  double S = H.setUp();
  if (S < 0)
    return;
  SetupS.push_back(S);

  char Status = 0;
  std::string M0, M1, Err;
  if (O.Trace && !H.Cli->call(ConnA, "M", &Status, &M0, &Err)) {
    H.fail(Err);
    return;
  }
  PassCacheMark Mark = passCacheMark();
  ColdResult CR;
  bool Ok = coldPhase(H, Specs, Pool, WarmSched, CR);
  double PassHit = passCacheHitRatio(Mark);
  if (Ok && O.Trace && !H.Cli->call(ConnA, "M", &Status, &M1, &Err))
    H.fail(Err);
  H.tearDown();
  if (!Ok || !R.Mismatch.empty())
    return;

  double CompileS = 0;
  for (size_t I = 0; I < CR.OpenMs.size(); ++I) {
    CompileS += CR.OpenMs[I] / 1e3;
    fprintf(stderr, "  open %9.1f ms  %s\n", CR.OpenMs[I],
            Specs[I].Label.c_str());
  }
  R.e2e("setup_s", "s", median(SetupS), SetupS.size());
  R.e2e("work_s", "s", CompileS, CR.OpenMs.size());
  R.named("compile_s", "s", CompileS, CR.OpenMs.size());
  R.named("open_cold_p50_ms", "ms", median(CR.OpenMs), CR.OpenMs.size());
  R.named("warm_p99_ms", "ms", quantile(CR.WarmMs, 0.99), CR.WarmMs.size());
  R.named("warm_p90_ms", "ms", quantile(CR.WarmMs, 0.90), CR.WarmMs.size());
  R.named("warm_p50_ms", "ms", median(CR.WarmMs), CR.WarmMs.size());

  if (!O.Trace)
    return;
  R.layer("pipeline.pass_cache_hit_ratio", PassHit);
  R.layer("server.stall_max_ms", CR.StallMaxMs);
  double Hits = promValue(M1, "efc_cache_hits_total") -
                promValue(M0, "efc_cache_hits_total");
  double Misses = promValue(M1, "efc_cache_misses_total") -
                  promValue(M0, "efc_cache_misses_total");
  R.layer("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  R.layer("cache.misses", Misses);
  R.layer("server.errors", promValue(M1, "efc_server_errors_total") -
                               promValue(M0, "efc_server_errors_total"));
  R.layer("server.rejected", promValue(M1, "efc_server_rejected_total") -
                                 promValue(M0, "efc_server_rejected_total"));
  R.layer("server.frames_dropped",
          promValue(M1, "efc_server_frames_dropped_total") -
              promValue(M0, "efc_server_frames_dropped_total"));
  R.layer("server.sessions_evicted",
          promValue(M1, "efc_server_sessions_evicted_total") -
              promValue(M0, "efc_server_sessions_evicted_total"));

  // The per-layer split of the same compiles: one pass at a time, in
  // process, from a cold per-pass cache and artifact directory.
  pipeline::PassManager::resetCacheForTests();
  freshArtifactDir("traced");
  CompileLayers Layers;
  size_t From = Tracer::get().Spans.size();
  Tracer::get().On = true;
  for (const ColdSpec &S : Specs) {
    PipelineDef D{S.Label, pb::specOf(S.Text), {}};
    if (!tracedCompile(D, S.Native, Layers, &Err)) {
      R.Mismatch = "workload compile_cold, spec " + S.Label +
                   ": traced compile failed: " + Err;
      return;
    }
  }
  Tracer::get().On = false;
  Layers.report(R);
  // Against the server-side compile_s, the uncovered rest is what the
  // server, cache and transport add to a cold open.
  addLayerAccounting(R, From, CompileS * 1e3);
  size_t Spans = Tracer::get().Spans.size() - From;
  double TracedMs = Tracer::get().rootMs(From);
  R.layer("trace.overhead_share",
          TracedMs > 0 ? double(Spans) * spanCostMs() / TracedMs : 0);
}

} // namespace pb
