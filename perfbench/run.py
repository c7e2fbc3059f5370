#!/usr/bin/env python3
"""End-to-end benchmark of the fused-comprehension system.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_scan --seed 1 --seconds 8 --trace 0

Workloads (perfbench/harness/Workloads.h has the details):

  batch_scan    five byte pipelines over seeded 8 MB inputs, scanned
                whole-input and in 64 KB feeds on the fast path and
                whole-input on the native backend, through StreamSession
  serve_warm    an in-process 2-shard server on a Unix socket with ~2000
                warm sessions, driven open-loop with 512 B frames at fixed
                rates by one client thread over 4 connections
  compile_cold  a 1-shard server opening a seeded draw of never-seen specs
                on one connection while a warm session is fed at a low
                fixed rate on another

The script builds perfbench/ (and with it the library, from src/) into
.bench_build/, resets every environment knob the library reads, points
the native artifact cache at a fresh directory, runs the harness binary,
and prints a stamp (seed, nproc, revision; the harness report adds the
instruction set) and the harness's JSON result as the last line of
stdout.  --trace 0 reports the gated end-to-end metrics of
BENCHMARK.json; --trace 1 the per-layer ones.  The human-readable report,
with every workload-specific figure, its unit and sample count, goes to
stderr.  Any output that differs from the independent references makes
the run exit nonzero without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "efc-perfbench"
DEADLINE_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(3)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4",
                    "--target", "efc-perfbench"],
                   check=True, stdout=log, stderr=log)


def revision():
    """The git commit, or a digest of src/ in a checkout without .git."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def pinned_env(run_dir):
    # Every knob that changes the library's behaviour (EFC_SIMD,
    # EFC_FASTPATH_*, EFC_PARALLEL_*, EFC_CERTIFY*, EFC_VERIFY_IR,
    # EFC_BACKEND, EFC_TRACE, EFC_SESSION_IDLE_MS, EFC_NATIVE_RETRY_MS, ...)
    # starts with EFC_; dropping them all leaves each at its default.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EFC_")}
    tmp = run_dir / "tmp"
    tmp.mkdir()
    env["EFC_CACHE_DIR"] = str(run_dir / "artifacts")
    env["TMPDIR"] = str(tmp)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["batch_scan", "serve_warm", "compile_cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    start = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    build()

    run_dir = ROOT / ".bench_build" / "runs" / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        # The harness report names the instruction set it dispatched to.
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"nproc={os.cpu_count()} rev={revision()}", flush=True)
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        left = max(10.0, DEADLINE_S - (time.monotonic() - start))
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=pinned_env(run_dir),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            fail(f"harness did not finish within {left:.0f} s")
        if proc.returncode != 0:
            fail(f"harness exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("harness printed no result")
        result = json.loads(lines[-1])
        want = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
        got = result.get("metrics", {})
        if sorted(want) != sorted(got):
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"unlisted {extra}")
        if not result.get("correct") or result.get("attempted", 0) < 1:
            fail("harness reported an incorrect run")
        result["metrics"] = {n: got[n] for n in want}
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
