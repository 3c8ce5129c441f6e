#!/usr/bin/env python3
"""The repo benchmark: one command per workload, run from the checkout root.

    python3 perfbench/run.py --workload paper-saturation --seed 1 --seconds 45 --trace 0

Builds the release `netperf` binary and the `layers` helper from source
(into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload,
checks every output, prints every metric by name with its unit, and
ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
With `--trace 0` the metrics are the end-to-end ones, measured with
tracing off; with `--trace 1` they are the per-layer ones of a traced
run, whose spans are written to `.bench_out/spans/`. Exits nonzero when
an output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import traced
import workloads
from harness import Runner, block_quantile, env_with_threads, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper-saturation", "scale-sparse", "serve-mix")
# Printed with the metrics but left out of the JSON line and of
# BENCHMARK.json, because across ten seeds on a shared 2-vCPU virtual
# machine they moved by more than the largest bound (0.25 of the
# median) the benchmark may set. A hit is a few-millisecond chain of
# process wake-ups (serve-mix hit_p50 spread 0.14 to 0.46, hit_p99 up
# to 2.0), and an engine workload has too few misses for a p99 (it is
# the run's slowest operation; spread up to 0.35). On the engine
# workloads miss_p50_ms is also a median of whole passes (scale-sparse:
# exactly the pass wall), so it carries the host's slow spells that
# wall_s, a minimum, leaves out (ten-seed spread 0.18 to 0.30, against
# 0.17 to 0.20 for wall_s).
PRINTED_ONLY = {"hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "miss_p99_ms"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build `netperf` and the `layers` helper; their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"no netperf sources at {ROOT} (Cargo.toml and crates/ are missing)")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "netperf"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "layers" / "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if r.returncode != 0:
            sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
            die("build failed: " + " ".join(cmd))
    return target / "release" / "netperf", target / "release" / "perfbench-layers"


def measure(run, workload, seed, seconds, work):
    """Tracing off: passes of the fixed job for about `seconds` (at least
    one; another only if it should finish in time), then cache-hit
    replays (engine workloads) and set-up rounds. One set-up round
    follows each pass, so that the rounds sample the whole run rather
    than one moment of the host's speed."""
    start = time.perf_counter()
    reference = {}
    while True:
        d = work / f"pass{len(run.pass_walls)}"
        if workload == "serve-mix":
            *_, wall = workloads.serve_pass(run, seed, d)
        else:
            done, wall = workloads.engine_pass(run, workload, seed, d, reference)
        workloads.setup_round(run, workload, seed)
        if time.perf_counter() - start + wall > seconds:
            break
        shutil.rmtree(d)
    if workload != "serve-mix" and done:
        workloads.engine_hits(run, seed, d, done, workloads.ENGINE_HITS)
    while len(run.setup_rounds) < workloads.SETUP_ROUNDS or sum(run.setup_rounds) < workloads.SETUP_SECONDS:
        workloads.setup_round(run, workload, seed)


def end_to_end(run):
    """`wall_s` is the fastest pass, as in bench_engine's min-of-N: on a
    shared host neighbours slow a pass by up to 2x for seconds to
    minutes at a time, and the fastest pass of a run moves far less from
    run to run than the median pass (README, Bounds)."""
    pct = lambda xs, q: block_quantile(xs, q) if xs else 0.0
    wall = min(run.pass_walls)
    return {
        "wall_s": (wall, "s"),
        "node_cycles_per_s": (run.node_cycles / len(run.pass_walls) / wall, "1/s"),
        "setup_s": (median(run.setup_rounds), "s"),
        "peak_rss_mb": (run.rss_kb / 1024, "MB"),
        "hit_p50_ms": (pct(run.hit_ms, 0.50), "ms"),
        "hit_p99_ms": (pct(run.hit_ms, 0.99), "ms"),
        "miss_p50_ms": (pct(run.miss_ms, 0.50), "ms"),
        "miss_p99_ms": (pct(run.miss_ms, 0.99), "ms"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    netperf, layers = build()
    env, threads = env_with_threads()
    run = Runner(str(netperf), env)
    out_root = ROOT / ".bench_out"
    work = out_root / f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if a.trace:
            metrics, spans = traced.traced_run(run, layers, a.workload, a.seed, work, threads)
            spans_path = out_root / "spans" / f"{a.workload}-seed{a.seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps({"spans": spans.list, "self_s": spans.self_times()}))
        else:
            measure(run, a.workload, a.seed, a.seconds, work)
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.violations
    walls = " ".join(f"{w:.3f}" for w in run.pass_walls)
    print(f"workload {a.workload}, seed {a.seed}, trace {a.trace}: nproc {os.cpu_count()}, NETPERF_THREADS {threads}, pass walls {walls} s")
    print("the model is unvalidated against hardware: correctness is bit-identity, not accuracy")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':26} {run.failed / max(run.attempted, 1):>16.6g} of {run.attempted} operations")
    if a.trace:
        for name, secs in sorted(spans.self_times().items(), key=lambda kv: -kv[1]):
            print(f"  self {name:21} {secs:>16.6g} s")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for msg in run.probe_failures[:3]:
        print(f"  out-of-range request not refused with exit 2: {msg}")
    for msg in run.violations[:10]:
        print(f"  OUTPUT CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in PRINTED_ONLY},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
