//===- perfbench/harness/main.cpp - efc-perfbench entry point --------------===//
///
/// \file
///   efc-perfbench --workload batch_scan|serve_warm|compile_cold
///                 --seed N --seconds S --trace 0|1
///
/// Runs one workload (see Workloads.h), prints a human-readable report
/// on stderr and, as the last line of stdout, one JSON object:
///
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// With --trace 0 the metrics are the gated end-to-end ones; with
/// --trace 1 they are the per-layer metrics of the table below, each
/// tagged in the report with the end-to-end metric it should move.
/// Exits 1 on any output mismatch against the independent references,
/// 2 on bad usage.  perfbench/run.py builds this binary and pins the
/// environment before running it.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "vm/Simd.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace pb;

namespace {

const char *const Pipes[] = {"UTF8-lines", "HTML-utf8", "CHSI-deaths",
                             "CC-id", "DBLP-oldest"};
const char *const TraceLayers[] = {"codegen", "frontends", "fusion",
                                   "gen",     "parallel",  "rbbe",
                                   "server",  "session",   "vm"};

struct LayerMetric {
  std::string Name, Unit, Better, Moves;
};

/// Every per-layer metric, in report order.  A workload that does not
/// exercise a layer reports 0 for it.
std::vector<LayerMetric> layerMetrics() {
  const std::string Compile = "compile_s on compile_cold; setup_s everywhere";
  const std::string Kernel =
      "scan_mb_s, stream_mb_s on batch_scan; no move on compile_cold";
  const std::string Par =
      "scan_mb_s on batch_scan only; no move on stream_mb_s or serve_*";
  const std::string Native = "setup_s, scan_native_mb_s on batch_scan; "
                             "compile_s on compile_cold";
  const std::string Sess =
      "stream_mb_s on batch_scan; serve_p50_ms.* on serve_warm";
  const std::string Cache =
      "serve_p99_ms.* on serve_warm; compile_s on compile_cold";
  const std::string Server = "serve_max_fps, serve_p99_ms.high on "
                             "serve_warm; warm_p99_ms on compile_cold";
  const std::string Fail = "ops_failed_ratio everywhere";
  const std::string Gen = "validity check of the load generator";
  const std::string Acct = "layer accounting of this workload's work";

  std::vector<LayerMetric> M = {
      {"frontends.assemble_ms", "ms", "lower",
       "compile_s, open_cold_p50_ms on compile_cold"},
      {"fusion.fuse_ms", "ms", "lower", Compile},
      {"fusion.states", "count", "lower", Compile},
      {"fusion.branches", "count", "lower", Compile},
      {"rbbe.rbbe_ms", "ms", "lower", "compile_s on compile_cold"},
      {"rbbe.branches_removed", "count", "higher", "compile_s on compile_cold"},
      {"solver.checks", "count", "lower", "compile_s on compile_cold"},
      {"solver.unknown", "count", "lower", "compile_s on compile_cold"},
      {"pipeline.pass_cache_hit_ratio", "ratio", "higher",
       "compile_s on compile_cold"},
      {"vm.vm_compile_ms", "ms", "lower", "compile_s on compile_cold"},
      {"vm.fastpath_plan_ms", "ms", "lower", "compile_s on compile_cold"},
      {"parallel.plan_ms", "ms", "lower", Par},
      {"parallel.feeds", "count", "higher", Par},
      {"codegen.native_build_ms", "ms", "lower", Native},
  };
  for (const char *P : Pipes) {
    std::string N = P;
    M.push_back({"vm.fast." + N + ".mb_s", "MB/s", "higher", Kernel});
    M.push_back({"vm.fast." + N + ".run_share", "ratio", "higher", Kernel});
    M.push_back({"vm.fast." + N + ".spec_share", "ratio", "higher", Kernel});
    M.push_back({"parallel." + N + ".whole_over_chunk", "ratio", "higher",
                 Par});
    M.push_back({"codegen.native." + N + ".mb_s", "MB/s", "higher", Native});
    M.push_back({"session." + N + ".whole_mb_s", "MB/s", "higher", Sess});
    M.push_back({"session." + N + ".chunk64k_mb_s", "MB/s", "higher", Sess});
    M.push_back({"session." + N + ".overhead_share", "ratio", "lower", Sess});
  }
  std::vector<LayerMetric> Tail = {
      {"session.chunk512_us", "us", "lower", Sess},
      {"cache.hit_ratio", "ratio", "higher", Cache},
      {"cache.open_hit_us", "us", "lower", Cache},
      {"cache.misses", "count", "lower", Cache},
      {"server.rtt_minus_feed_us", "us", "lower", Server},
      {"server.feed_busy_share", "ratio", "lower", Server},
      {"server.frames_per_wakeup", "ratio", "higher", Server},
      {"server.stall_max_ms", "ms", "lower", Server},
      {"server.errors", "count", "lower", Fail},
      {"server.rejected", "count", "lower", Fail},
      {"server.frames_dropped", "count", "lower", Fail},
      {"server.sessions_evicted", "count", "lower", Fail},
      {"gen.late_p99_ms", "ms", "lower", Gen},
      {"gen.backlog_growth", "count", "lower", Gen},
  };
  M.insert(M.end(), Tail.begin(), Tail.end());
  for (const char *L : TraceLayers)
    M.push_back({std::string("self_ms.") + L, "ms", "lower", Acct});
  M.push_back({"unattributed_share", "ratio", "lower", Acct});
  M.push_back({"trace.overhead_share", "ratio", "lower",
               "tracing cost: traced minus untraced, over untraced"});
  return M;
}

int usage() {
  fprintf(stderr,
          "usage: efc-perfbench --workload batch_scan|serve_warm|compile_cold\n"
          "                     --seed N --seconds S --trace 0|1\n");
  return 2;
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char B[64];
  snprintf(B, sizeof(B), "%.9g", V);
  return B;
}

std::string quoted(const std::string &S) {
  std::string Q = "\"";
  for (char C : S)
    Q += (C == '"' || C == '\\') ? std::string("\\") + C : std::string(1, C);
  return Q + "\"";
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasV = I + 1 < argc;
    if (A == "--workload" && HasV)
      O.Workload = argv[++I];
    else if (A == "--seed" && HasV)
      O.Seed = strtoull(argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasV)
      O.Seconds = strtod(argv[++I], nullptr);
    else if (A == "--trace" && HasV)
      O.Trace = std::string(argv[++I]) == "1";
    else
      return usage();
  }
  if (!(O.Seconds > 0))
    return usage();

  Report R;
  if (O.Workload == "batch_scan")
    runBatchScan(O, R);
  else if (O.Workload == "serve_warm")
    runServeWarm(O, R);
  else if (O.Workload == "compile_cold")
    runCompileCold(O, R);
  else
    return usage();

  if (!R.Mismatch.empty()) {
    fprintf(stderr, "efc-perfbench: FAILED: %s\n", R.Mismatch.c_str());
    return 1;
  }
  R.e2e("peak_rss_mb", "MB", peakRssMb());
  double FailedRatio =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 0;

  fprintf(stderr, "\n%s (seed %llu, %s run, isa %s)\n", O.Workload.c_str(),
          (unsigned long long)O.Seed, O.Trace ? "traced" : "untraced",
          efc::simd::levelName(efc::simd::detectedLevel()));
  fprintf(stderr, "  ops_failed_ratio = %s (%llu of %llu operations)\n",
          num(FailedRatio).c_str(), (unsigned long long)R.Failed,
          (unsigned long long)R.Attempted);
  for (const Metric &M : R.Named)
    fprintf(stderr, "  %-32s = %12s %-6s (n=%llu)\n", M.Name.c_str(),
            num(M.Value).c_str(), M.Unit.c_str(),
            (unsigned long long)M.Samples);
  if (!O.Trace)
    for (const Metric &M : R.E2E)
      fprintf(stderr, "  [gated] %-23s = %12s %-6s (n=%llu)\n",
              M.Name.c_str(), num(M.Value).c_str(), M.Unit.c_str(),
              (unsigned long long)M.Samples);

  std::string Json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  auto Add = [&](const std::string &N, double V, const std::string &U) {
    Json += (First ? "" : ", ") + quoted(N) + ": {\"value\": " + num(V) +
            ", \"unit\": " + quoted(U) + "}";
    First = false;
  };
  if (O.Trace) {
    Tracer::get().print(stderr);
    std::vector<LayerMetric> Layers = layerMetrics();
    for (const LayerMetric &L : Layers) {
      auto It = R.Layer.find(L.Name);
      double V = It == R.Layer.end() ? 0 : It->second;
      fprintf(stderr, "  %-44s = %12s %-6s moves: %s\n", L.Name.c_str(),
              num(V).c_str(), L.Unit.c_str(), L.Moves.c_str());
      Add(L.Name, V, L.Unit);
    }
    for (const auto &[Name, V] : R.Layer) {
      bool Known = false;
      for (const LayerMetric &L : Layers)
        Known |= L.Name == Name;
      if (!Known) {
        fprintf(stderr, "efc-perfbench: unlisted per-layer metric %s\n",
                Name.c_str());
        return 1;
      }
    }
  } else {
    for (const Metric &M : R.E2E)
      Add(M.Name, M.Value, M.Unit);
  }
  printf("%s}}\n", Json.c_str());
  return 0;
}
