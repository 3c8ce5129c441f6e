"""Process, timing and span plumbing shared by the benchmark workloads."""

import contextlib
import os
import subprocess
import time
from statistics import median


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = -(-round(q * 1000) * len(ordered) // 1000)  # ceil(q * n), exactly
    return ordered[max(rank, 1) - 1]


def block_quantile(values, q, block=1000):
    """Median over consecutive blocks of at least `block` samples (in
    arrival order) of each block's quantile, so that one burst of host
    noise moves one block, not the reported tail."""
    n = max(1, len(values) // block)
    size = len(values) // n
    blocks = [values[i * size : (i + 1) * size if i + 1 < n else len(values)] for i in range(n)]
    return median([quantile(b, q) for b in blocks])


class Spans:
    """Spans kept in memory: name, start, end, parent id, and the load
    point or request they belong to. Written out when the run ends."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.list = []

    def now(self):
        return time.perf_counter() - self.origin

    def add(self, name, start, end, parent=None, op=None):
        self.list.append(
            {"id": len(self.list), "name": name, "start": start, "end": end, "parent": parent, "op": op}
        )
        return len(self.list) - 1

    def adopt(self, helper_spans, base, parent, op=None):
        """Re-parent the spans a `layers` process reported (times relative
        to its own start) under `parent`, shifted to start at `base`."""
        ids = {}
        for s in helper_spans:
            pid = ids.get(s["parent"], parent)
            point = s.get("point")
            ids[s["id"]] = self.add(
                s["name"],
                base + s["start"],
                base + s["end"],
                pid,
                op if point is None else f"{op}@{point}",
            )

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.list if s["name"] == name)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.list if s["name"] == name]

    def self_times(self):
        """Per span name: summed duration minus the part of each span's
        interval that its child spans cover."""
        children = {}
        for s in self.list:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.list:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out


class Runner:
    """Spawns `netperf` processes and keeps the run's tallies: operations
    attempted and failed, output-gate violations, latency samples by
    class, node-cycles simulated, and the peak RSS of every process."""

    def __init__(self, netperf, env):
        self.netperf = netperf
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.violations = []
        self.probe_failures = []
        self.hit_ms = []
        self.miss_ms = []
        self.node_cycles = 0
        self.pass_walls = []
        self.setup_rounds = []
        self.rss_kb = 0
        self.spans = None

    def proc(self, argv, name="cli.op", parent=None, op=None):
        """Run one process to completion: (exit code, output, seconds).
        stderr is folded into the output, which is small for every
        command the benchmark runs."""
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=self.env)
        out = p.stdout.read()
        p.stdout.close()
        code = self.reap(p)
        secs = time.perf_counter() - t0
        if self.spans is not None:
            start = t0 - self.spans.origin
            self.last_span = self.spans.add(name, start, start + secs, parent, op)
        return code, out.decode(errors="replace"), secs

    def reap(self, p):
        """Wait for `p` and fold the peak RSS of it and its own waited-for
        children into the run's peak; returns the exit code."""
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        return p.returncode

    def gate(self, msg):
        """An output check failed: counts as failed and fails the run."""
        self.failed += 1
        self.violations.append(msg)


@contextlib.contextmanager
def one_cpu():
    """Run the processes spawned inside on one CPU. For the serve-mix
    chain of client, server and worker (one request in flight) this costs
    no parallelism, and on a shared virtual machine it removes the
    cross-CPU wake-ups that wait for the hypervisor to run the other
    vCPU, which otherwise swung per-request latency by up to 2x from
    run to run."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def last_error(output):
    lines = [l for l in output.splitlines() if l.strip()]
    errs = [l for l in lines if l.startswith("error:") or "panicked" in l]
    return (errs or lines or ["(no stderr)"])[0]


def env_with_threads():
    env = dict(os.environ)
    threads = min(2, len(os.sched_getaffinity(0)))
    env["NETPERF_THREADS"] = str(threads)
    # A panicking request would otherwise spend its time printing a
    # backtrace, which is not what the benchmark measures.
    env.pop("RUST_BACKTRACE", None)
    return env, threads
