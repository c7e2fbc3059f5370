#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
# ci.sh — the whole gate in one script.
#
#   1. Tier-1 verify (ROADMAP.md): configure, build, full ctest.
#   2. Scalar-dispatch leg: the tier-1 label re-runs with EFC_SIMD=scalar,
#      forcing every vectorized scanner (nibble shufti, run kernels) down
#      to the portable paths — the SIMD kernels must be a pure
#      optimization, never load-bearing.  Skippable with
#      EFC_SKIP_SCALAR=1.
#   3. EFC_VERIFY_IR leg: the tier-1 label re-runs with EFC_VERIFY_IR=1,
#      so every compile in the suite checks the between-pass IR
#      invariants (well-formedness, classifier-hash determinism, type
#      preservation, state/branch monotonicity — pipeline/PassManager.h).
#      Skippable with EFC_SKIP_VERIFYIR=1.
#   4. Sanitizer job: a second build with -DEFC_SANITIZE=ON (ASan+UBSan)
#      runs the tier-1 label — the fast-path boundary tests in particular
#      are written so any vectorized-scan overread trips ASan.  Skippable
#      with EFC_SKIP_ASAN=1 (roughly doubles build time).
#   5. ThreadSanitizer job: a third build with -DEFC_SANITIZE=thread runs
#      the `serve` label — the sharded server's event loops, cross-shard
#      mailboxes and fd ownership (including the 100+
#      interleaved-connection test).  Skippable with EFC_SKIP_TSAN=1.
#   6. efc-serve smoke test: start a server, stream a CSV pipeline at it in
#      7-byte chunks, and require byte-identical output to one-shot
#      `efcc --run` on the same file.  Then stream step 8's 5000-row
#      corpus, which is larger than one StreamSession block, in one frame
#      and in 7-byte frames on the fastpath and native backends: each
#      result must equal `efcc --run`, so splitting a feed into blocks is
#      gated end to end.
#   7. Serving-load smoke + latency gate: bench/serve_load drives 1000
#      concurrent sessions over 50 connections against a 1-shard
#      in-process server, byte-verifies every reply against the
#      sequential oracle (exit 1 on any loss or divergence), and merges
#      the p50/p99/MB/s row into BENCH_serve.json.  The fresh row is
#      gated against the committed one — p99 regressing by more than
#      EFC_SERVE_GATE_PCT percent (default 50; latency is noisier than
#      throughput) or MB/s dropping by more than it fails the script;
#      EFC_SERVE_GATE_PCT=0 disables.  Rows carry the recording
#      hardware (nproc + SIMD level) and foreign rows are skipped, same
#      as the throughput gate.
#   8. Fast-path gate + throughput smoke: `efcc --backend fastpath` must be
#      byte-identical to `--backend vm` on a fig9-style CSV corpus, then a
#      small fig9 benchmark run refreshes BENCH_throughput.json at the
#      repo root so the recorded numbers track HEAD.  The fresh numbers
#      are gated against the committed ones: any (pipeline, backend) row
#      dropping more than EFC_BENCH_GATE_PCT percent (default 20) fails
#      the script; EFC_BENCH_GATE_PCT=0 disables the gate (noisy shared
#      machines).  Rows carry the hardware that measured them (nproc +
#      detected SIMD level); rows recorded on different hardware are
#      skipped rather than compared — a repo benchmarked on an AVX-512
#      box must not fail CI on an SSE2 one.  Because the hot loops now
#      carry metrics folds and trace-enabled checks, this gate doubles as
#      the observability overhead gate: instrumentation that slows a
#      backend past the threshold fails here.
#   9. Emitted-code check: `efcc --emit-cpp` output must compile warning-
#      free (-Wall -Wextra -Werror) and carry no ISA-specific code of its
#      own (no immintrin, no EFC_SIMD parser): native code block-scans
#      with the host's scanner, passed in on every feed.
#  10. Benchmark harness build: perfbench/ is its own CMake project that
#      builds the library from src/, so a library change that breaks the
#      harness fails here instead of in the benchmark run.
#  11. Runtime-cache bench: cache-hit vs cache-miss request latency
#      (asserts internally that a simulated restart hits the on-disk
#      native artifact cache instead of re-invoking the host compiler).
#  12. Backend-equivalence certification: `efc-verify` proves VM bytecode,
#      fast-path tables/kernels/residual programs/nibble encodings/wide
#      tables and the codegen classifier hash agree for every
#      fig9/fig10/fig11/fig13 pipeline.  The step fails unless the summary
#      reads 17 certified and 0 unverified: a refutation fails it, and so
#      does a state left unverified (budget exhaustion, a path cap, an
#      obligation the checker cannot discharge), so certification cannot
#      degrade silently.  The same obligations are unit-tested under
#      `ctest -L certify` (mutation injection, corpus replay), which
#      already ran as part of tier-1.
#
# Every label-filtered ctest passes --no-tests=error, so a selection that
# matches nothing fails instead of passing vacuously.  ctest gets an
# explicit job count: a bare `-j` followed by `-L X` takes `-L` as its
# value and drops the label filter.
#
# Usage: ./ci.sh [build-dir]     (default: build)
#===------------------------------------------------------------------------===#
set -euo pipefail
cd "$(dirname "$0")"
BUILD=${1:-build}
JOBS=$(nproc)

echo "== [1/12] tier-1 verify =="
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS")

echo "== [2/12] EFC_SIMD=scalar tier-1 (vector kernels forced off) =="
if [ "${EFC_SKIP_SCALAR:-0}" = "1" ]; then
  echo "skipped (EFC_SKIP_SCALAR=1)"
else
  (cd "$BUILD" && EFC_SIMD=scalar \
     ctest --output-on-failure -j "$JOBS" -L tier1 --no-tests=error)
fi

echo "== [3/12] EFC_VERIFY_IR=1 tier-1 (between-pass IR invariants) =="
if [ "${EFC_SKIP_VERIFYIR:-0}" = "1" ]; then
  echo "skipped (EFC_SKIP_VERIFYIR=1)"
else
  (cd "$BUILD" && EFC_VERIFY_IR=1 \
     ctest --output-on-failure -j "$JOBS" -L tier1 --no-tests=error)
fi

echo "== [4/12] ASan+UBSan tier-1 =="
if [ "${EFC_SKIP_ASAN:-0}" = "1" ]; then
  echo "skipped (EFC_SKIP_ASAN=1)"
else
  cmake -B "$BUILD-asan" -S . -DEFC_SANITIZE=ON
  cmake --build "$BUILD-asan" -j
  # The native backend dlopens uninstrumented artifacts; that direction
  # (clean .so into an ASan process) is supported, but don't let a stale
  # instrumented cache cross builds.
  (cd "$BUILD-asan" && EFC_CACHE_DIR=$(mktemp -d) \
     ctest --output-on-failure -j "$JOBS" -L tier1 --no-tests=error)
fi

echo "== [5/12] TSan serve suite =="
if [ "${EFC_SKIP_TSAN:-0}" = "1" ]; then
  echo "skipped (EFC_SKIP_TSAN=1)"
else
  cmake -B "$BUILD-tsan" -S . -DEFC_SANITIZE=thread
  cmake --build "$BUILD-tsan" -j --target serve_test
  (cd "$BUILD-tsan" &&
     ctest --output-on-failure -j "$JOBS" -L serve --no-tests=error)
fi

echo "== [6/12] efc-serve smoke test =="
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT
SOCK="$SCRATCH/efc.sock"
PATTERN='(?:(?:[^,\n]*,){1}(?<v>\d+),[^\n]*\n)*'
printf 'a,17,x\nb,99,y\nc,40,z\nd,63,w\n' > "$SCRATCH/rows.csv"
# Deterministic fig9-style CSV corpus (also step 8's), larger than one
# StreamSession block and big enough to cross buffer-growth boundaries.
for i in $(seq 0 4999); do
  printf 'r%d,%d,x%d\n' "$i" $(( (i * 37 + 11) % 100000 )) "$i"
done > "$SCRATCH/corpus.csv"
CORPUS_BYTES=$(wc -c < "$SCRATCH/corpus.csv")

"$BUILD/tools/efc-serve" --socket "$SOCK" --shards 2 &
SERVER=$!
for _ in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "server never bound $SOCK" >&2; exit 1; }

STREAMED=$("$BUILD/tools/efc-serve" --socket "$SOCK" --run smoke \
  --regex "$PATTERN" --agg max --format decimal \
  --file "$SCRATCH/rows.csv" --chunk 7)
CORPUS_ONESHOT=$("$BUILD/tools/efcc" --regex "$PATTERN" --agg avg \
  --format decimal --run "$SCRATCH/corpus.csv")
for BACKEND in fastpath native; do
  for CHUNK in "$CORPUS_BYTES" 7; do
    CORPUS_STREAMED=$("$BUILD/tools/efc-serve" --socket "$SOCK" \
      --run "corpus-$BACKEND-$CHUNK" --backend "$BACKEND" \
      --regex "$PATTERN" --agg avg --format decimal \
      --file "$SCRATCH/corpus.csv" --chunk "$CHUNK")
    if [ "$CORPUS_STREAMED" != "$CORPUS_ONESHOT" ]; then
      echo "corpus mismatch ($BACKEND, ${CHUNK}-byte frames):" \
           "streamed='$CORPUS_STREAMED' one-shot='$CORPUS_ONESHOT'" >&2
      exit 1
    fi
  done
done
echo "corpus.csv on fastpath and native, one frame and 7-byte frames" \
     "== efcc --run: '$CORPUS_ONESHOT'"
"$BUILD/tools/efc-serve" --socket "$SOCK" --shutdown
wait "$SERVER"

ONESHOT=$("$BUILD/tools/efcc" --regex "$PATTERN" --agg max --format decimal \
  --run "$SCRATCH/rows.csv")
if [ "$STREAMED" != "$ONESHOT" ]; then
  echo "smoke test mismatch: streamed='$STREAMED' one-shot='$ONESHOT'" >&2
  exit 1
fi
echo "streamed 7-byte chunks == efcc --run: '$STREAMED'"

# Hardware identity for the benchmark gates below: committed rows
# recorded on a different machine are skipped, not compared.  The ISA
# ladder mirrors src/vm/Simd.cpp detection.
CUR_NPROC=$(nproc)
if grep -qw avx512f /proc/cpuinfo && grep -qw avx512bw /proc/cpuinfo \
    && grep -qw avx512vl /proc/cpuinfo; then CUR_ISA=avx512
elif grep -qw avx2 /proc/cpuinfo; then CUR_ISA=avx2
else CUR_ISA=sse2; fi

echo "== [7/12] serving-load smoke + latency gate =="
# 1000 concurrent sessions over 50 conns on one shard: serve_load exits
# nonzero on any frame loss or byte divergence from the sequential
# oracle, so reaching the gate at all certifies a correct run.
SERVE_GATE_PCT=${EFC_SERVE_GATE_PCT:-50}
cp BENCH_serve.json "$SCRATCH/serve.json" 2>/dev/null || true
"$BUILD/bench/serve_load" \
  --sessions "${EFC_SERVE_SESSIONS:-1000}" --conns 50 --shards 1 \
  --scenario serve_smoke --timeout-s 120 --json "$SCRATCH/serve.json"
if [ "$SERVE_GATE_PCT" != "0" ] && [ -f BENCH_serve.json ]; then
  awk -v pct="$SERVE_GATE_PCT" -v nproc="$CUR_NPROC" -v isa="$CUR_ISA" '
    function key(line) {
      match(line, /"scenario": "[^"]*"/)
      s = substr(line, RSTART + 13, RLENGTH - 14)
      match(line, /"shards": [0-9]+/)
      return s "/" substr(line, RSTART + 10, RLENGTH - 10) "-shard"
    }
    function num(line, field,  pat) {
      pat = "\"" field "\": [0-9.]+"
      if (match(line, pat))
        return substr(line, RSTART + length(field) + 4,
                      RLENGTH - length(field) - 4) + 0
      return 0
    }
    function isa_of(line) {
      if (match(line, /"isa": "[^"]*"/))
        return substr(line, RSTART + 8, RLENGTH - 9)
      return ""
    }
    function foreign(line,  i, n) {
      i = isa_of(line); n = num(line, "nproc")
      return (i != "" && i != isa) || (n != 0 && n != nproc)
    }
    NR == FNR {
      if (/"scenario"/) {
        if (foreign($0))
          printf "  %-24s skipped (recorded on %s/%d-core, this machine" \
                 " %s/%d-core)\n", key($0), isa_of($0), num($0, "nproc"), \
                 isa, nproc
        else {
          oldp99[key($0)] = num($0, "p99_ms")
          oldmb[key($0)] = num($0, "mb_per_s")
        }
      }
      next
    }
    /"scenario"/ {
      k = key($0)
      if (k in oldp99 && oldp99[k] > 0) {
        p99 = num($0, "p99_ms"); mb = num($0, "mb_per_s")
        rise = (p99 - oldp99[k]) / oldp99[k] * 100
        printf "  %-24s p99 %8.2f -> %8.2f ms (%+.1f%%)\n", k, oldp99[k], \
               p99, rise
        if (rise > pct) bad = bad "\n  " k " (p99 latency)"
        if (oldmb[k] > 0) {
          drop = (oldmb[k] - mb) / oldmb[k] * 100
          printf "  %-24s %8.2f -> %8.2f MB/s (%+.1f%%)\n", k, oldmb[k], \
                 mb, -drop
          if (drop > pct) bad = bad "\n  " k " (MB/s)"
        }
      }
    }
    END {
      if (bad != "") { printf "serving regression > %s%%:%s\n", pct, bad
                       exit 1 }
    }
  ' BENCH_serve.json "$SCRATCH/serve.json" || {
    echo "serving gate failed (override: EFC_SERVE_GATE_PCT=0 ./ci.sh," \
         "or a higher percentage for a known-noisy machine)" >&2
    exit 1
  }
fi
mv "$SCRATCH/serve.json" BENCH_serve.json

echo "== [8/12] fast-path divergence gate + throughput smoke =="
# corpus.csv: generated in step 6.
for AGG in max min avg; do
  VM_OUT=$("$BUILD/tools/efcc" --regex "$PATTERN" --agg "$AGG" \
    --format decimal --backend vm --run "$SCRATCH/corpus.csv")
  FP_OUT=$("$BUILD/tools/efcc" --regex "$PATTERN" --agg "$AGG" \
    --format decimal --backend fastpath --run "$SCRATCH/corpus.csv")
  if [ "$VM_OUT" != "$FP_OUT" ]; then
    echo "fast path diverges from VM (agg=$AGG): vm='$VM_OUT'" \
         "fastpath='$FP_OUT'" >&2
    exit 1
  fi
done
echo "fastpath == vm on corpus.csv (max/min/avg)"
# Refresh the committed throughput record for a few pipelines at 1 MB.
# The fresh rows merge into a scratch copy first and are compared against
# the committed file per (pipeline, backend); only when the gate passes
# does the scratch copy replace BENCH_throughput.json, so a failed gate
# leaves the committed numbers untouched.
GATE_PCT=${EFC_BENCH_GATE_PCT:-20}
cp BENCH_throughput.json "$SCRATCH/throughput.json" 2>/dev/null || true
EFC_BENCH_MB=1 EFC_BENCH_PIPELINES=CSV-max,UTF8-lines,CC-id \
  EFC_BENCH_JSON="$SCRATCH/throughput.json" \
  "$BUILD/bench/fig9_pipelines" \
  --benchmark_filter='/(Fused|FusedFastPath)$' --benchmark_min_time=0.1s
# The committed rows carry the hardware that measured them; compare only
# rows recorded on a matching machine (same detected SIMD level, same
# logical core count — CUR_ISA/CUR_NPROC above) so runs on
# weaker/stronger boxes skip instead of tripping the gate.
if [ "$GATE_PCT" != "0" ] && [ -f BENCH_throughput.json ]; then
  awk -v pct="$GATE_PCT" -v nproc="$CUR_NPROC" -v isa="$CUR_ISA" '
    function key(line) {
      match(line, /"pipeline": "[^"]*"/)
      p = substr(line, RSTART + 13, RLENGTH - 14)
      match(line, /"backend": "[^"]*"/)
      b = substr(line, RSTART + 12, RLENGTH - 13)
      return p "/" b
    }
    function mbps(line) {
      match(line, /"mb_per_s": [0-9.]+/)
      return substr(line, RSTART + 12, RLENGTH - 12) + 0
    }
    function isa_of(line) {
      if (match(line, /"isa": "[^"]*"/))
        return substr(line, RSTART + 8, RLENGTH - 9)
      return ""
    }
    function nproc_of(line) {
      if (match(line, /"nproc": [0-9]+/))
        return substr(line, RSTART + 9, RLENGTH - 9) + 0
      return 0
    }
    # Rows predating hardware stamps (no isa/nproc fields) still gate.
    function foreign(line,  i, n) {
      i = isa_of(line); n = nproc_of(line)
      return (i != "" && i != isa) || (n != 0 && n != nproc)
    }
    NR == FNR {
      if (/"pipeline"/) {
        if (foreign($0))
          printf "  %-28s skipped (recorded on %s/%d-core, this machine" \
                 " %s/%d-core)\n", key($0), isa_of($0), nproc_of($0), \
                 isa, nproc
        else
          old[key($0)] = mbps($0)
      }
      next
    }
    /"pipeline"/ {
      k = key($0); cur = mbps($0)
      if (k in old && old[k] > 0) {
        drop = (old[k] - cur) / old[k] * 100
        printf "  %-28s %8.2f -> %8.2f MB/s (%+.1f%%)\n", k, old[k], cur, -drop
        if (drop > pct) bad = bad "\n  " k
      }
    }
    END {
      if (bad != "") { printf "throughput regression > %s%%:%s\n", pct, bad
                       exit 1 }
    }
  ' BENCH_throughput.json "$SCRATCH/throughput.json" || {
    echo "throughput gate failed (override: EFC_BENCH_GATE_PCT=0 ./ci.sh," \
         "or a higher percentage for a known-noisy machine)" >&2
    exit 1
  }
fi
mv "$SCRATCH/throughput.json" BENCH_throughput.json

echo "== [9/12] emitted C++: warning-free, no ISA-specific code =="
# Run kernels take their nibble block scanner as a parameter, so the unit
# is plain C++17; one warning-free compile covers every target.  The unit
# exports nothing, so -fkeep-static-functions keeps GCC from dropping
# every function before the optimizer's warnings run.
"$BUILD/tools/efcc" --regex "$PATTERN" --agg max --format decimal \
  --emit-cpp "$SCRATCH/emitted.cpp"
if grep -n -e immintrin -e EFC_SIMD "$SCRATCH/emitted.cpp"; then
  echo "ci.sh: emitted C++ carries ISA-specific code (lines above)" >&2
  exit 1
fi
"${CXX:-c++}" -std=c++17 -O2 -Wall -Wextra -Werror -fkeep-static-functions \
  -c "$SCRATCH/emitted.cpp" -o "$SCRATCH/emitted.o"
echo "emitted C++ compiles under -Wall -Wextra -Werror"

echo "== [10/12] benchmark harness build =="
cmake -S perfbench -B "$BUILD-perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD-perfbench" -j --target efc-perfbench

echo "== [11/12] cache-hit vs cache-miss latency =="
"$BUILD/bench/runtime_cache"

echo "== [12/12] backend-equivalence certification =="
# efc-verify compiles all 17 pipelines through the pass manager and also
# prints the per-pass artifact-cache stats line (hits/lookups per pass).
# It writes its report to stderr.
VERIFY_LOG="$SCRATCH/verify.log"
"$BUILD/tools/efc-verify" --quiet 2> "$VERIFY_LOG" || {
  cat "$VERIFY_LOG" >&2; exit 1; }
cat "$VERIFY_LOG"
if ! grep -q "17 pipelines: 17 certified, 0 unverified, 0 refuted" \
    "$VERIFY_LOG"; then
  echo "certification degraded: want 17 certified, 0 unverified" >&2
  exit 1
fi

echo "== ci.sh: all green =="
