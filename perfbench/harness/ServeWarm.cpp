//===- perfbench/harness/ServeWarm.cpp - Open-loop warm serving ------------===//
///
/// \file
/// serve_warm: an in-process 2-shard Server on a Unix socket, ~2000
/// concurrent sessions opened in set-up over four warm specs (one
/// digit-run echo spec whose replies are input-sized, three CSV
/// aggregate specs whose replies stay empty until finish), driven by one
/// client thread over 4 connections with pre-built ~512 B frames.
///
/// Traffic, all built from the seed before timing: an open-loop ladder
/// of fixed Poisson rates — low, mid, high (about 25%, 60% and 90% of the
/// saturation measured on the reference machine) plus two steps above.
/// About 1% of operations finish a session and reopen it, which hits the
/// warm PipelineCache.  Latency is measured from when a frame was due,
/// so a stall also charges the frames queued behind it.
///
///   work_s  CPU seconds (user + system) the server's threads spend on
///           the low, mid, high and saturation steps: the cost of a fixed
///           amount of traffic, which wall time cannot show in an open
///           loop.  The client thread's own CPU time (building, sending,
///           reading and checking frames) is left out.
///
/// The latency figures (serve_p50_ms.*, serve_p99_ms.*, serve_max_fps)
/// are in the report only: on a shared 4-vCPU host they rose 3-15x in
/// runs where the host took CPU time away, so they cannot gate.
///
//===----------------------------------------------------------------------===//

#include "Client.h"
#include "Pipelines.h"
#include "Refs.h"
#include "Workloads.h"

#include "runtime/Server.h"
#include "runtime/StreamSession.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace efc;
using namespace efc::runtime;

namespace pb {
namespace {

constexpr unsigned Shards = 2;
constexpr unsigned NumConns = 4;
constexpr uint32_t NumSessions = 2000;
constexpr size_t FrameBytes = 512;
constexpr unsigned PoolFrames = 64;
constexpr unsigned SetupReps = 3;
/// Saturation of the reference machine (frames/s, 4 cores, the rate at
/// which the backlog starts to grow), measured once; the ladder rates
/// are fixed fractions of it.
constexpr double SatFps = 55000;
constexpr double LimitP99Ms = 20; ///< latency limit for serve_max_fps
constexpr double LateLimitMs = 2; ///< generator lateness that voids a rate
/// Each step's percentiles are the medians of those of its Windows
/// equal parts, so one scheduling hiccup of the shared host moves one
/// window's tail rather than the reported one.
constexpr unsigned Windows = 5;
/// An unmeasured stretch at the low rate first, so the ladder starts on
/// a server whose sessions have all been fed.
constexpr double WarmupS = 0.5;
constexpr double KneeStepS = 0.5; ///< length of the sat and over steps

struct Ladder {
  const char *Name;
  double Fps;
};
const Ladder Rates[] = {{"low", 0.25 * SatFps},
                        {"mid", 0.60 * SatFps},
                        {"high", 0.90 * SatFps},
                        {"sat", 1.00 * SatFps},
                        {"over", 1.15 * SatFps}};
constexpr unsigned LowStep = 0, MidStep = 1, SatStep = 3, OverStep = 4;

/// The four warm specs; session I uses spec (I / NumConns) % 4.
struct WarmSpec {
  std::string Text, Agg;
  unsigned Column; ///< CSV int column (echo: unused)
  bool Echo;
};
std::vector<WarmSpec> warmSpecs() {
  auto Csv = [](unsigned Col, const char *Agg) {
    return WarmSpec{"frontend=regex\npattern=(?:(?:[^,\\n]*,){" +
                        std::to_string(Col) +
                        "}(?<v>\\d+),[^\\n]*\\n)*\nagg=" + Agg +
                        "\nformat=decimal\n",
                    Agg, Col, false};
  };
  return {{"frontend=regex\npattern=(?:(?<v>\\d+)|\\n)*\nagg=none\n"
           "format=lines\n",
           "none", 0, true},
          Csv(2, "max"), Csv(4, "min"), Csv(5, "avg")};
}

/// A pre-built feed payload and what it contributes.
struct Frame {
  std::string Bytes;
  std::string Echo;            ///< expected reply body (echo spec)
  std::vector<uint32_t> Vals;  ///< CSV values it carries
};

void appendToken(SplitMix64 &Rng, std::string &Out) {
  static const char Al[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  unsigned N = 3 + unsigned(Rng.below(6));
  for (unsigned I = 0; I < N; ++I)
    Out.push_back(Al[Rng.below(sizeof(Al) - 1)]);
}

/// Whole rows up to FrameBytes: digit rows for the echo spec, 7-column
/// CSV rows with an integer in \p Col otherwise.
Frame makeFrame(SplitMix64 &Rng, const WarmSpec &S) {
  Frame F;
  for (;;) {
    std::string Row;
    if (S.Echo) {
      Row = std::to_string(Rng.below(100000000)) + "\n";
    } else {
      for (unsigned C = 0; C < 7; ++C) {
        if (C == S.Column)
          Row += std::to_string(Rng.below(1000000));
        else
          appendToken(Rng, Row);
        Row += C == 6 ? '\n' : ',';
      }
    }
    if (F.Bytes.size() + Row.size() > FrameBytes)
      break;
    F.Bytes += Row;
  }
  if (S.Echo)
    F.Echo = refs::aggregate(refs::digitRuns(F.Bytes), "none", "lines");
  else
    F.Vals = refs::csvColumn(F.Bytes, S.Column);
  return F;
}

std::string sessionName(uint32_t I) { return "w" + std::to_string(I); }
unsigned connOf(uint32_t Sess) { return Sess % NumConns; }
unsigned specOf(uint32_t Sess) { return (Sess / NumConns) % 4; }

/// One operation of the pre-built traffic.
struct Op {
  double DueS = 0; ///< offset from the step start (open loop)
  uint32_t Sess = 0;
  char Kind = 'F'; ///< 'F' feed, 'E' finish, 'O' reopen
  uint16_t Frame = 0;
  uint32_t Expect = 0; ///< finish: index into Traffic::Finals
};

struct Traffic {
  std::vector<WarmSpec> Specs;
  std::vector<std::vector<Frame>> Pool; ///< per spec
  std::vector<Op> Warmup; ///< unmeasured, before the ladder
  std::vector<std::vector<Op>> Steps;
  std::vector<std::string> Finals; ///< expected finish bodies
  std::vector<std::vector<uint32_t>> Acc; ///< per-session values since open
  std::vector<char> Fed; ///< per session: fed since its last open
};

void addFeed(Traffic &T, SplitMix64 &Rng, std::vector<Op> &Ops, double Due,
             uint32_t Sess) {
  Op O;
  O.DueS = Due;
  O.Sess = Sess;
  O.Frame = uint16_t(Rng.below(PoolFrames));
  const Frame &F = T.Pool[specOf(Sess)][O.Frame];
  std::vector<uint32_t> &A = T.Acc[Sess];
  A.insert(A.end(), F.Vals.begin(), F.Vals.end());
  T.Fed[Sess] = 1;
  Ops.push_back(O);
}

Traffic buildTraffic(uint64_t Seed, double StepS) {
  SplitMix64 Rng(Seed * 0x2545f4914f6cdd1dull + 7);
  Traffic T;
  T.Specs = warmSpecs();
  for (const WarmSpec &S : T.Specs) {
    T.Pool.emplace_back();
    for (unsigned I = 0; I < PoolFrames; ++I)
      T.Pool.back().push_back(makeFrame(Rng, S));
  }
  T.Acc.resize(NumSessions);
  T.Fed.resize(NumSessions);
  std::vector<Ladder> Plan(std::begin(Rates), std::end(Rates));
  Plan.insert(Plan.begin(), Rates[LowStep]);
  for (size_t P = 0; P < Plan.size(); ++P) {
    const Ladder &L = Plan[P];
    std::vector<Op> &Ops = P ? T.Steps.emplace_back() : T.Warmup;
    // The steps past the knee are short: they only need to show whether
    // the backlog grows, and a long one would let it (and peak RSS) grow
    // by an amount that depends on how fast the host happens to be.
    bool Knee = P == SatStep + 1 || P == OverStep + 1; // after the warm-up
    double Len = P == 0 ? WarmupS : Knee ? KneeStepS : StepS;
    double At = 0;
    for (;;) {
      // Exponential inter-arrival times: a Poisson process at L.Fps.
      double U = (double(Rng.next() >> 11) + 0.5) / double(1ull << 53);
      At += -std::log(U) / L.Fps;
      if (At >= Len)
        break;
      uint32_t Sess = uint32_t(Rng.below(NumSessions));
      if (Rng.below(100) == 0 && T.Fed[Sess]) {
        const WarmSpec &S = T.Specs[specOf(Sess)];
        T.Finals.push_back(
            S.Echo ? "" : refs::aggregate(T.Acc[Sess], S.Agg, "decimal"));
        T.Acc[Sess].clear();
        T.Fed[Sess] = 0;
        Op E{At, Sess, 'E', 0, uint32_t(T.Finals.size() - 1)};
        Op Re{At, Sess, 'O', 0, 0};
        Ops.push_back(E);
        Ops.push_back(Re);
        continue;
      }
      addFeed(T, Rng, Ops, At, Sess);
    }
  }
  return T;
}

std::string openPayload(const Traffic &T, uint32_t Sess) {
  return "O" + sessionName(Sess) + "\nfastpath\n" + T.Specs[specOf(Sess)].Text;
}

/// Per-step measurements.
struct StepStats {
  std::vector<double> FeedMs, LateMs;
  /// Feed latencies split by due time into Windows equal parts.
  std::vector<std::vector<double>> WinMs;
  size_t BacklogStart = 0, BacklogEnd = 0;
  double WallS = 0;
  double CpuS = 0;       ///< process CPU time minus the client thread's
  double ClientCpuS = 0; ///< the client (this) thread's CPU time
  double OtherCpuS = 0;  ///< every other thread's, or < 0 if unknown
};

class Harness {
public:
  Harness(const Traffic &T, Report &R) : T(T), R(R) {}

  /// Starts a fresh server and opens every session.  Seconds, or < 0.
  double setUp() {
    Clock::time_point T0 = Clock::now();
    ServerOptions SO;
    SO.SocketPath = "serve.sock";
    SO.Shards = Shards;
    SO.CacheCapacity = 16;
    SO.IdleMs = 3600000; // never reap during a run
    Srv = std::make_unique<Server>(SO);
    std::string Err;
    if (!Srv->start(&Err))
      return fail("server start: " + Err);
    Cli = std::make_unique<WireClient>();
    if (!Cli->connect(SO.SocketPath, NumConns, &Err))
      return fail(Err);
    for (uint32_t S = 0; S < NumSessions; ++S)
      if (!Cli->send(connOf(S), openPayload(T, S), {OpenTag, T0}, &Err))
        return fail(Err);
    if (!drain())
      return -1;
    return secondsBetween(T0, Clock::now());
  }

  void tearDown() {
    Cli.reset();
    if (Srv)
      Srv->stop();
    Srv.reset();
  }

  /// Open loop over one ladder step.
  bool step(const std::vector<Op> &Ops, StepStats &St) {
    Cur = &Ops;
    Stats = &St;
    double Cpu0 = cpuSeconds(), Client0 = threadCpuSeconds(),
           Other0 = otherThreadsCpuSeconds();
    Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(2);
    StepT0 = T0;
    WinS = Ops.empty() ? 1 : (Ops.back().DueS + 1e-9) / Windows;
    St.WinMs.assign(Windows, {});
    size_t Next = 0;
    size_t Quarter = Ops.size() / 4;
    std::vector<double> Early;
    while (Next < Ops.size()) {
      Clock::time_point Due =
          T0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(Ops[Next].DueS));
      Clock::time_point Now = Clock::now();
      if (Now < Due) {
        if (!pumpUntil(Due))
          return false;
        continue;
      }
      St.LateMs.push_back(secondsBetween(Due, Now) * 1e3);
      if (Next < Quarter)
        Early.push_back(double(Cli->outstanding()));
      if (!sendOp(uint32_t(Next), T0))
        return false;
      ++Next;
    }
    // Backlog left when the schedule ends, against the early backlog.
    St.BacklogStart = size_t(quantile(Early, 0.9));
    St.BacklogEnd = Cli->outstanding();
    bool Ok = drain();
    St.WallS = secondsBetween(T0, Clock::now());
    St.ClientCpuS = threadCpuSeconds() - Client0;
    St.CpuS = cpuSeconds() - Cpu0 - St.ClientCpuS;
    double Other1 = otherThreadsCpuSeconds();
    St.OtherCpuS = Other0 < 0 || Other1 < 0 ? -1 : Other1 - Other0;
    Stats = nullptr;
    return Ok;
  }

  /// One 'S' or 'M' request on connection 0 (nothing else in flight).
  std::string probe(char Op) {
    char Status = 0;
    std::string Body, Err;
    if (!Cli->call(0, std::string(1, Op), &Status, &Body, &Err))
      fail(Err);
    return Body;
  }

private:
  static constexpr uint32_t OpenTag = UINT32_MAX - 1;

  double fail(const std::string &Msg) {
    ++R.Failed;
    if (R.Mismatch.empty())
      R.Mismatch = "workload serve_warm: " + Msg;
    return -1;
  }

  bool sendOp(uint32_t Idx, Clock::time_point T0) {
    const Op &O = (*Cur)[Idx];
    Payload.clear();
    Payload += O.Kind;
    Payload += sessionName(O.Sess);
    if (O.Kind == 'F') {
      Payload += '\n';
      Payload += T.Pool[specOf(O.Sess)][O.Frame].Bytes;
    } else if (O.Kind == 'O') {
      Payload = openPayload(T, O.Sess);
    }
    ++R.Attempted;
    std::string Err;
    Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(O.DueS));
    if (!Cli->send(connOf(O.Sess), Payload, {Idx, Due}, &Err))
      return fail(Err) >= 0;
    return true;
  }

  void onReply(const Reply &Rp) {
    if (Rp.Req.Op == OpenTag) { // set-up open
      ++R.Attempted;
      if (Rp.Status != 'k')
        fail("open " + std::string(Rp.Name) + ": " + std::string(Rp.Body));
      return;
    }
    const Op &O = (*Cur)[Rp.Req.Op];
    std::string What = std::string(1, O.Kind) + " " + sessionName(O.Sess);
    if (Rp.Status != 'k' || Rp.Name != sessionName(O.Sess)) {
      fail(What + " failed: " + std::string(Rp.Name) + " " +
           std::string(Rp.Body));
      return;
    }
    const WarmSpec &S = T.Specs[specOf(O.Sess)];
    std::string_view Want;
    if (O.Kind == 'F')
      Want = S.Echo ? std::string_view(T.Pool[specOf(O.Sess)][O.Frame].Echo)
                    : std::string_view();
    else if (O.Kind == 'E')
      Want = T.Finals[O.Expect];
    if (Rp.Body != Want)
      R.mismatch("serve_warm", What + " (spec " + S.Agg + ")",
                 std::string(Want), std::string(Rp.Body));
    if (O.Kind == 'F' && Stats) {
      double Ms = secondsBetween(Rp.Req.Due, Rp.At) * 1e3;
      Stats->FeedMs.push_back(Ms);
      size_t W = size_t(secondsBetween(StepT0, Rp.Req.Due) / WinS);
      Stats->WinMs[std::min<size_t>(W, Windows - 1)].push_back(Ms);
    }
  }

  bool pumpUntil(Clock::time_point Until) {
    std::string Err;
    if (!Cli->pump(Until, [this](const Reply &Rp) { onReply(Rp); }, &Err))
      return fail(Err) >= 0;
    return R.Mismatch.empty();
  }

  bool drain() {
    Clock::time_point Deadline = Clock::now() + std::chrono::seconds(60);
    while (Cli->outstanding()) {
      if (Clock::now() > Deadline)
        return fail("replies still outstanding after 60 s") >= 0;
      if (!pumpUntil(Clock::now() + std::chrono::milliseconds(50)))
        return false;
    }
    return R.Mismatch.empty();
  }

  const Traffic &T;
  Report &R;
  std::unique_ptr<Server> Srv;
  std::unique_ptr<WireClient> Cli;
  const std::vector<Op> *Cur = nullptr;
  StepStats *Stats = nullptr;
  Clock::time_point StepT0;
  double WinS = 1;
  std::string Payload;
};

/// Median over a step's windows of their \p Q quantile.
double windowed(const StepStats &St, double Q) {
  std::vector<double> Per;
  for (const std::vector<double> &W : St.WinMs)
    if (!W.empty())
      Per.push_back(quantile(W, Q));
  return median(Per);
}

/// In-process feed of one serve frame on the echo spec (no server).
double chunk512Us(const Traffic &T) {
  PipelineCache Cache(4);
  std::string Err;
  auto P = Cache.get(pb::specOf(T.Specs[0].Text), false, &Err);
  auto S = P ? StreamSession::open(P, StreamSession::Backend::Fast, &Err)
             : std::nullopt;
  if (!S)
    return 0;
  std::vector<double> Us;
  for (unsigned I = 0; I < 4000; ++I) {
    const std::string &F = T.Pool[0][I % PoolFrames].Bytes;
    Clock::time_point T0 = Clock::now();
    S->feed(F);
    S->takeOutput();
    Us.push_back(secondsBetween(T0, Clock::now()) * 1e6);
  }
  return median(Us);
}

/// A warm PipelineCache hit, in-process.
double openHitUs(const Traffic &T) {
  PipelineCache Cache(4);
  std::string Err;
  PipelineSpec Spec = pb::specOf(T.Specs[1].Text);
  if (!Cache.get(Spec, false, &Err))
    return 0;
  std::vector<double> Us;
  for (unsigned I = 0; I < 2000; ++I) {
    Clock::time_point T0 = Clock::now();
    auto P = Cache.get(Spec, false, &Err);
    Us.push_back(secondsBetween(T0, Clock::now()) * 1e6);
  }
  return median(Us);
}

} // namespace

void runServeWarm(const Options &O, Report &R) {
  // low, mid and high share the run; sat and over take KneeStepS each.
  double StepS = std::max(0.5, (O.Seconds - 2 * KneeStepS) / 3);
  Traffic T = buildTraffic(O.Seed, StepS);
  fprintf(stderr,
          "serve_warm: seed %llu, %u sessions over %u connections, %u "
          "shards, specs:",
          (unsigned long long)O.Seed, NumSessions, NumConns, Shards);
  for (const WarmSpec &S : T.Specs)
    fprintf(stderr, " [%s]", S.Echo ? "echo digit runs" : S.Agg.c_str());
  fprintf(stderr, "; ladder");
  for (size_t I = 0; I < std::size(Rates); ++I)
    fprintf(stderr, " %s=%.0f/s (%zu ops)", Rates[I].Name, Rates[I].Fps,
            T.Steps[I].size());
  fprintf(stderr, "\n");

  // Repeated set-ups run in child processes; the last one, in this
  // process, is the one the ladder runs on.
  Harness H(T, R);
  std::vector<double> SetupS;
  for (unsigned I = 1; I < (O.Trace ? 1 : SetupReps); ++I) {
    double S = setUpInChild([&] {
      double S = H.setUp();
      H.tearDown();
      return S;
    });
    if (S < 0) {
      R.Mismatch = "workload serve_warm: set-up failed in a child process";
      return;
    }
    SetupS.push_back(S);
  }
  double S = H.setUp();
  if (S < 0)
    return;
  SetupS.push_back(S);

  std::string S0 = H.probe('S'), M0 = H.probe('M');
  StepStats WarmupStats;
  if (!H.step(T.Warmup, WarmupStats))
    return;
  std::vector<StepStats> Steps(T.Steps.size());
  std::string SMid0, MMid0, SMid1, MMid1;
  for (size_t I = 0; I < std::size(Rates); ++I) {
    if (I == MidStep && O.Trace) {
      SMid0 = H.probe('S');
      MMid0 = H.probe('M');
    }
    if (!H.step(T.Steps[I], Steps[I]))
      return;
    if (I == MidStep && O.Trace) {
      SMid1 = H.probe('S');
      MMid1 = H.probe('M');
    }
  }
  std::string S1 = H.probe('S'), M1 = H.probe('M');
  H.tearDown();
  if (!R.Mismatch.empty())
    return;

  double MaxFps = 0;
  unsigned Grew = 0;
  for (size_t I = 0; I < std::size(Rates); ++I) {
    StepStats &St = Steps[I];
    double P50 = windowed(St, 0.5), P99 = windowed(St, 0.99);
    double Late = quantile(St.LateMs, 0.99);
    bool Growing = St.BacklogEnd > 2 * St.BacklogStart + 64;
    Grew += Growing;
    bool Over = Growing || Late > LateLimitMs;
    if (!Over && P99 <= LimitP99Ms)
      MaxFps = std::max(MaxFps, Rates[I].Fps);
    fprintf(stderr,
            "  rate %-4s %7.0f/s: p50 %.3f ms p99 %.3f ms (n=%zu), "
            "gen.late_p99 %.3f ms, backlog %zu -> %zu%s\n",
            Rates[I].Name, Rates[I].Fps, P50, P99, St.FeedMs.size(), Late,
            St.BacklogStart, St.BacklogEnd,
            Over ? "  [over capacity]" : "");
  }
  const StepStats &Mid = Steps[MidStep];
  double CpuS = 0, ClientCpuS = 0;
  size_t Frames = 0;
  for (unsigned I = 0; I < OverStep; ++I) {
    CpuS += Steps[I].CpuS;
    ClientCpuS += Steps[I].ClientCpuS;
    Frames += T.Steps[I].size();
  }

  R.e2e("setup_s", "s", median(SetupS), SetupS.size());
  R.e2e("work_s", "s", CpuS, Frames);
  R.named("cpu_us_per_op", "us", Frames ? CpuS / double(Frames) * 1e6 : 0,
          Frames);
  R.named("client_cpu_us_per_op", "us",
          Frames ? ClientCpuS / double(Frames) * 1e6 : 0, Frames);
  for (unsigned I : {0u, 1u, 2u}) {
    const StepStats &St = Steps[I];
    std::string N = Rates[I].Name;
    if (I < 2)
      R.named("serve_p50_ms." + N, "ms", windowed(St, 0.5), St.FeedMs.size());
    R.named("serve_p99_ms." + N, "ms", windowed(St, 0.99), St.FeedMs.size());
  }
  R.named("serve_max_fps", "1/s", MaxFps, std::size(Rates));

  if (!O.Trace)
    return;
  // Server-side layer figures over the mid step, from the 'S'/'M' frames.
  double FeedSum = promValue(MMid1, "efc_server_feed_latency_seconds_sum") -
                   promValue(MMid0, "efc_server_feed_latency_seconds_sum");
  double FeedN = promValue(MMid1, "efc_server_feed_latency_seconds_count") -
                 promValue(MMid0, "efc_server_feed_latency_seconds_count");
  double FeedMeanUs = FeedN > 0 ? FeedSum / FeedN * 1e6 : 0;
  double P50Us = median(Mid.FeedMs) * 1e3;
  R.layer("server.rtt_minus_feed_us", P50Us - FeedMeanUs);
  R.layer("server.feed_busy_share",
          Mid.WallS > 0 ? FeedSum / (Mid.WallS * Shards) : 0);
  double Wake = statField(SMid1, "wakeups") - statField(SMid0, "wakeups");
  R.layer("server.frames_per_wakeup",
          Wake > 0 ? (statField(SMid1, "frames_in") -
                      statField(SMid0, "frames_in")) /
                         Wake
                   : 0);
  R.layer("server.errors", statField(S1, "errors") - statField(S0, "errors"));
  R.layer("server.rejected",
          statField(S1, "rejected") - statField(S0, "rejected"));
  R.layer("server.frames_dropped",
          statField(S1, "frames_dropped") - statField(S0, "frames_dropped"));
  R.layer("server.sessions_evicted",
          statField(S1, "evicted") - statField(S0, "evicted"));
  double Hits = promValue(M1, "efc_cache_hits_total") -
                promValue(M0, "efc_cache_hits_total");
  double Misses = promValue(M1, "efc_cache_misses_total") -
                  promValue(M0, "efc_cache_misses_total");
  R.layer("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  R.layer("cache.misses", Misses);
  R.layer("cache.open_hit_us", openHitUs(T));
  R.layer("session.chunk512_us", chunk512Us(T));
  R.layer("gen.late_p99_ms", quantile(Mid.LateMs, 0.99));
  R.layer("gen.backlog_growth", Grew);

  // Where the process's CPU time goes over the mid step, each part from
  // its own clock: the client thread (the load generator: building,
  // sending, reading and checking frames), feed execution on the shards
  // (the server's feed latency histogram), and the rest of the shard
  // threads' time (framing, epoll, socket transport).  What no thread
  // clock covers stays unattributed.
  double GenMs = Mid.ClientCpuS * 1e3, SessMs = FeedSum * 1e3;
  double ServerMs = std::max(0.0, Mid.OtherCpuS * 1e3 - SessMs);
  double TotalMs = (Mid.CpuS + Mid.ClientCpuS) * 1e3;
  R.layer("self_ms.gen", GenMs);
  R.layer("self_ms.session", SessMs);
  R.layer("self_ms.server", ServerMs);
  R.layer("unattributed_share",
          TotalMs > 0
              ? std::max(0.0, 1.0 - (GenMs + SessMs + ServerMs) / TotalMs)
              : 0);
  // serve_warm opens no spans (its layer figures are the server's own
  // counters and thread clocks, read outside the timed steps), so tracing
  // adds nothing to its work.
  R.layer("trace.overhead_share", 0);
}

} // namespace pb
