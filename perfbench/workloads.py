"""The benchmark's three workloads, run against the release `netperf`
binary with tracing off, with the output checks each one makes.

Every workload is a fixed job of CLI operations, repeated as passes.
An operation either simulates (class `miss`: an uncached or
cache-missing run/sweep, or a traced request) or is answered from the
result cache (class `hit`).
"""

import csv
import io
import json
import random
import subprocess
import time

from harness import last_error, one_cpu

PAPER_CONFIGS = ["cube-det", "cube-duato", "tree-1vc", "tree-2vc", "tree-4vc", "cube-duato-5pct"]
PAPER_GRID = "0.7:1.0:0.3"
SCALE = ("tree-4ary-6", "0.1", "1000", "300")  # name, load, cycles, warm-up
SERVE_SCENARIOS = ["cube-duato-tiny", "tree-2vc-tiny"]
SERVE_PATTERNS = ["uniform", "complement", "bitrev", "transpose"]
SERVE_LOADS = ["0.1", "0.3", "0.5", "0.7"]
SERVE_RUN = ("2000", "500")  # cycles, warm-up of every serve-mix run request
SERVE_UNIQUE = 1000  # unique run requests per pass, each seen once as miss, 3x as hit
SERVE_TRACE_EVERY = 40  # one --trace request per this many unique requests
SERVE_PROBE_EVERY = 40  # one out-of-range request per this many unique requests
ENGINE_HITS = 2000  # cache-hit replays per engine-workload run (2 blocks of 1000)
SETUP_ROUNDS = 21  # at least this many set-up rounds per run,
SETUP_SECONDS = 2.0  # and at least this much set-up time in them

COLUMNS = [
    "offered_fraction",
    "generated_fraction",
    "accepted_fraction",
    "latency_cycles",
    "latency_p99_cycles",
    "delivered_packets",
    "backlog_packets",
]
FAULT_COLUMNS = ["dropped_packets", "unroutable_packets"]


def grid(spec):
    """The loads `netperf sweep --grid a:b:step` expands to, as the same floats."""
    a, b, step = (float(x) for x in spec.split(":"))
    loads, x = [], a
    while x <= b + 1e-9:
        loads.append(x)
        x += step
    return loads


class Op:
    """One engine-workload operation: a `netperf run|sweep` of one
    registry scenario over its loads."""

    def __init__(self, verb, name, load_args, loads, run_length=(), faulted=False):
        self.verb, self.name, self.load_args, self.loads = verb, name, load_args, loads
        self.run_length, self.faulted = list(run_length), faulted

    def argv(self, netperf, salt, cache, csv_path):
        return [netperf, self.verb, self.name, *self.load_args, *self.run_length, "--seed", str(salt), "--cache", str(cache), "--csv", str(csv_path)]


def engine_ops(workload):
    if workload == "paper-saturation":
        loads = grid(PAPER_GRID)
        return [Op("sweep", n, ["--grid", PAPER_GRID], loads, faulted=n.endswith("pct")) for n in PAPER_CONFIGS]
    name, load, cycles, warmup = SCALE
    return [Op("run", name, ["--load", load], [float(load)], ["--cycles", cycles, "--warmup", warmup])]


def setup_targets(workload):
    """(scenario, load) pairs whose set-up `setup_s` measures."""
    if workload == "serve-mix":
        return [(n, SERVE_LOADS[0]) for n in SERVE_SCENARIOS]
    return [(op.name, repr(op.loads[0])) for op in engine_ops(workload)]


def check_csv(run, label, data, loads, faulted):
    """The CLI's result CSV: expected header, one row per load, numbers
    only, traffic delivered, and drops exactly when the plan has faults."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    want = COLUMNS + (FAULT_COLUMNS if faulted else [])
    if not rows or rows[0] != want or len(rows) != len(loads) + 1:
        run.gate(f"{label}: CSV shape {rows[:1]} with {len(rows) - 1} rows")
        return
    for row, load in zip(rows[1:], loads):
        try:
            vals = [float(v) for v in row]
        except ValueError:
            run.gate(f"{label}: non-numeric CSV row {row}")
            continue
        if abs(vals[0] - load) > 1e-9 or vals[5] <= 0 or (faulted and vals[7] <= 0):
            run.gate(f"{label}: implausible CSV row {row}")


def manifest_of(csv_path):
    return json.loads(csv_path.with_name(csv_path.stem + ".manifest.json").read_text())


def take(csv_path):
    """A request's CSV bytes and run manifest, deleting both so the next
    request creates fresh files: rewriting a file in place makes ext4
    flush it on close, which would put disk latency into the timings."""
    data, manifest = csv_path.read_bytes(), manifest_of(csv_path)
    csv_path.unlink()
    csv_path.with_name(csv_path.stem + ".manifest.json").unlink()
    return data, manifest


def node_cycles(manifest):
    sc = manifest["scenarios"][0]
    return sc["nodes"] * sc["run_length"]["total"] * len(manifest["loads"])


def engine_pass(run, workload, salt, d, reference):
    """One pass of an engine workload's fixed job into a fresh cache.
    `reference` maps op name to the CSV bytes of the run's first pass:
    the same seed must give the same bytes."""
    d.mkdir(parents=True)
    parent = run.spans.add("pass", run.spans.now(), 0) if run.spans else None
    start = time.perf_counter()
    done = []
    for op in engine_ops(workload):
        path = d / f"{op.name}.csv"
        code, out, secs = run.proc(op.argv(run.netperf, salt, d / "cache", path), "cli.miss", parent, op.name)
        run.attempted += len(op.loads)
        if code != 0:
            run.gate(f"{op.name}: exit {code}: {last_error(out)}")
            continue
        run.miss_ms.append(secs * 1e3)
        data, manifest = path.read_bytes(), manifest_of(path)
        check_csv(run, op.name, data, op.loads, op.faulted)
        if manifest.get("cache") != {"hits": 0, "misses": len(op.loads)}:
            run.gate(f"{op.name}: fresh cache reported {manifest.get('cache')}")
        run.node_cycles += node_cycles(manifest)
        if reference.setdefault(op.name, data) != data:
            run.gate(f"{op.name}: same seed, different CSV across passes")
        done.append((op, data))
    wall = time.perf_counter() - start
    run.pass_walls.append(wall)
    if run.spans:
        run.spans.list[parent]["end"] = run.spans.now()
    return done, wall


def engine_hits(run, salt, d, done, count):
    """Replay the pass's operations against its filled cache: every hit
    must print the miss's CSV byte for byte."""
    for i in range(count):
        op, data = done[i % len(done)]
        hit = d / "hit.csv"
        code, out, secs = run.proc(op.argv(run.netperf, salt, d / "cache", hit), "cli.hit", None, op.name)
        run.attempted += len(op.loads)
        if code != 0:
            run.gate(f"{op.name} hit: exit {code}: {last_error(out)}")
            continue
        got, manifest = take(hit)
        if got != data:
            run.gate(f"{op.name}: cache-hit CSV differs from the miss CSV")
        elif manifest.get("cache") != {"hits": len(op.loads), "misses": 0}:
            run.gate(f"{op.name}: replay was not served from the cache")
        else:
            run.hit_ms.append(secs * 1e3)


def setup_round(run, workload, salt):
    """Set-up time of the workload's scenarios: each runs for 2 cycles, so
    the process does start-up, scenario, topology, routing and engine
    construction and next to no simulation."""
    total = 0.0
    for name, load in setup_targets(workload):
        argv = [run.netperf, "run", name, "--load", load, "--seed", str(salt), "--cycles", "2", "--warmup", "1"]
        code, out, secs = run.proc(argv, "cli.setup", None, name)
        if code != 0:
            run.gate(f"{name} set-up run: exit {code}: {last_error(out)}")
        total += secs
    run.setup_rounds.append(total)


# --- serve-mix -----------------------------------------------------------

PROBES = [
    # (request fields, what is out of range)
    ({"name": "cube-duato-tiny", "load": -1}, "load -1"),
    ({"name": "tree-2vc-tiny", "load": 0.3, "cycles": 500}, "cycles below warm-up"),
    ({"topology": "tree", "k": 2, "n": 4, "algo": "adaptive", "vcs": 1000, "load": 0.3}, "vcs 1000"),
]


def unique_request(u, salt):
    cycles, warmup = SERVE_RUN
    return {
        "name": SERVE_SCENARIOS[u % len(SERVE_SCENARIOS)],
        "pattern": SERVE_PATTERNS[(u // 2) % len(SERVE_PATTERNS)],
        "load": SERVE_LOADS[(u // 8) % len(SERVE_LOADS)],
        "seed": salt,
        "cycles": cycles,
        "warmup": warmup,
    }


def serve_plan(seed):
    """The request stream of one serve-mix pass, fixed by the seed: each
    unique run request four times (first a miss, then hits), plus trace
    requests and out-of-range probes, in a seed-shuffled order."""
    rng = random.Random(seed)
    uniques = [unique_request(u, rng.getrandbits(32)) for u in range(SERVE_UNIQUE)]
    items = [("run", u) for u in range(SERVE_UNIQUE) for _ in range(4)]
    items += [("trace", i) for i in range(SERVE_UNIQUE // SERVE_TRACE_EVERY)]
    items += [("probe", i % len(PROBES)) for i in range(SERVE_UNIQUE // SERVE_PROBE_EVERY)]
    rng.shuffle(items)
    traces = [unique_request(rng.randrange(SERVE_UNIQUE), rng.getrandbits(32)) for _ in range(SERVE_UNIQUE // SERVE_TRACE_EVERY)]
    return uniques, traces, items


def serve_pass(run, seed, d):
    """One serve-mix pass: a closed-loop client on `netperf serve --cache`
    over stdin, one request in flight at a time, all on one CPU."""
    with one_cpu():
        return _serve(run, seed, d)


def _serve(run, seed, d):
    d.mkdir(parents=True)
    uniques, traces, items = serve_plan(seed)
    parent = run.spans.add("pass", run.spans.now(), 0) if run.spans else None
    server = subprocess.Popen(
        [run.netperf, "serve", "--cache", str(d / "cache")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=run.env,
        text=True,
    )
    miss_csv = {}
    start = time.perf_counter()
    try:
        for i, (kind, k) in enumerate(items):
            rid = f"r{i}"
            if kind == "probe":
                fields = PROBES[k][0]
            else:
                cls = kind if kind == "trace" else ("hit" if k in miss_csv else "miss")
                # One output path per class; take() deletes it before
                # the next request.
                path = d / f"{cls}.csv"
                fields = {**(traces[k] if kind == "trace" else uniques[k]), "csv": str(path)}
                if kind == "trace":
                    fields["trace"] = str(d / "trace")
            t0 = time.perf_counter()
            server.stdin.write(json.dumps({"op": "run", "id": rid, **fields}) + "\n")
            server.stdin.flush()
            line = server.stdout.readline()
            ms = (time.perf_counter() - t0) * 1e3
            if run.spans:
                s0 = t0 - run.spans.origin
                run.spans.add(f"serve.{'probe' if kind == 'probe' else cls}", s0, s0 + ms / 1e3, parent, rid)
            run.attempted += 1
            try:
                resp = json.loads(line)
            except ValueError:
                run.gate(f"{rid}: unreadable response {line!r}")
                continue
            if resp.get("id") != rid:
                run.gate(f"{rid}: response carries id {resp.get('id')!r}")
                continue
            if kind == "probe":
                # Out-of-range input must be refused with the CLI's
                # one-line error (exit 2). Anything else is a failed
                # request, not a broken benchmark.
                if resp.get("exit_code") != 2:
                    run.failed += 1
                    run.probe_failures.append(f"{PROBES[k][1]}: exit {resp.get('exit_code')}")
                continue
            if resp.get("exit_code") != 0:
                run.gate(f"{rid} ({cls}): exit {resp.get('exit_code')}: {resp.get('error')}")
                continue
            data, manifest = take(path)
            if cls == "hit":
                if data != miss_csv[k]:
                    run.gate(f"{rid}: cache-hit CSV differs from its miss CSV")
                else:
                    run.hit_ms.append(ms)
                continue
            if cls == "miss":
                check_csv(run, rid, data, [float(uniques[k]["load"])], False)
                miss_csv[k] = data
            else:
                trace = d / "trace.trace.jsonl"
                if not trace.stat().st_size:
                    run.gate(f"{rid}: empty trace event log")
                for f in d.glob("trace.*"):
                    f.unlink()
            run.miss_ms.append(ms)
            run.node_cycles += node_cycles(manifest)
    finally:
        server.stdin.close()
        server.stdout.read()
        server.stdout.close()
        run.reap(server)
    wall = time.perf_counter() - start
    run.pass_walls.append(wall)
    if run.spans:
        run.spans.list[parent]["end"] = run.spans.now()
    return uniques, traces, miss_csv, wall
