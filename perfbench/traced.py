"""The traced run (`--trace 1`): the per-layer metrics.

One untraced pass of the workload's job gives the reference wall time
and CLI outputs. The traced pass then runs the same load points through
the `layers` helper, which calls each layer's public functions and
times them from outside (spans), and compares the library outcome with
the CLI's CSV byte for byte. Set-up, cache/export and telemetry layers
are measured by further helper calls.
"""

import json
import time

import workloads
from harness import Spans, last_error, median

SETUP_ROUNDS = 3
SERVE_SAMPLE = 8  # serve-mix unique requests replayed through the library
# Engine workloads time telemetry on a shortened run of their first
# point: (cycles, warm-up, repetitions).
TELEMETRY_RUN = {"paper-saturation": ("2000", "500", "3"), "scale-sparse": ("1000", "500", "1")}


def helper(run, layers, args, name, parent, op):
    """Run the `layers` helper; its JSON report, with its spans adopted."""
    code, out, secs = run.proc([str(layers), *args], name, parent, op)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if code != 0 or not lines:
        run.gate(f"layers {' '.join(args[:2])}: exit {code}: {last_error(out)}")
        return None
    report = json.loads(lines[-1])
    span = run.spans.list[run.last_span]
    run.spans.adopt(report.get("spans", []), span["start"], run.last_span, op)
    return report


def check_points(run, label, report, cli_csv_bytes):
    """The output gate on one helper report: library CSV equals the CLI's,
    and every packet is accounted for."""
    if open(report["csv"], "rb").read() != cli_csv_bytes:
        run.gate(f"{label}: library outcome differs from the CLI's CSV row")
    for p in report["points"]:
        if p["violations"] or not p["window_ok"]:
            run.gate(f"{label}@{p['load']}: packet conservation or window counters broken")
        if p["created"] != p["delivered"] + p["dropped"] + p["unroutable"] + p["in_flight"]:
            run.gate(f"{label}@{p['load']}: created != delivered + dropped + unroutable + in flight")


def traced_run(run, layers, workload, seed, work, threads):
    spans = Spans()
    out_dir = work / "layers"
    points, setups, telemetry = [], [], []

    # Untraced reference pass.
    if workload == "serve-mix":
        uniques, traces, miss_csv, untraced_wall = workloads.serve_pass(run, seed, work / "untraced")
    else:
        done, untraced_wall = workloads.engine_pass(run, workload, seed, work / "untraced", {})
    run.spans = spans
    cli_miss = list(run.miss_ms)

    # Traced pass.
    t0 = time.perf_counter()
    if workload == "serve-mix":
        workloads.serve_pass(run, seed, work / "traced")
        traced_wall = time.perf_counter() - t0
        for k in range(SERVE_SAMPLE):
            u = uniques[k]
            args = ["points", u["name"], "--pattern", u["pattern"], "--loads", u["load"], "--salt", str(u["seed"])]
            args += ["--cycles", u["cycles"], "--warmup", u["warmup"], "--threads", "1", "--out", str(out_dir / f"u{k}")]
            rep = helper(run, layers, args, "layers.points", None, f"u{k}")
            if rep:
                check_points(run, f"u{k}", rep, miss_csv[k])
                points.append(rep)
    else:
        parent = spans.add("pass.traced", spans.now(), 0)
        for op, data in done:
            args = ["points", op.name, "--loads", ",".join(repr(l) for l in op.loads), "--salt", str(seed)]
            args += [*op.run_length, "--threads", str(threads), "--out", str(out_dir)]
            rep = helper(run, layers, args, "layers.points", parent, op.name)
            if rep:
                check_points(run, op.name, rep, data)
                points.append(rep)
        spans.list[parent]["end"] = spans.now()
        traced_wall = time.perf_counter() - t0

    # Set-up layers, one cold process per scenario and round.
    for r in range(SETUP_ROUNDS):
        for name, load in workloads.setup_targets(workload):
            args = ["setup", name, "--loads", load, "--salt", str(seed), "--cycles", "2", "--warmup", "1"]
            rep = helper(run, layers, args, "layers.setup", None, name)
            if rep:
                rep["round"] = r
                setups.append(rep)

    # CLI hit/miss latency without the server in between.
    if workload == "serve-mix":
        cli_miss, cli_hit = [], []
        for k in range(SERVE_SAMPLE):
            u = uniques[k]
            argv = [run.netperf, "run", u["name"], "--pattern", u["pattern"], "--load", u["load"], "--seed", str(u["seed"])]
            argv += ["--cycles", u["cycles"], "--warmup", u["warmup"], "--cache", str(work / "cli")]
            for tag, sink in (("miss", cli_miss), ("hit", cli_hit)):
                csv_path = str(work / f"u{k}.{tag}.csv")
                code, out, secs = run.proc([*argv, "--csv", csv_path], "cli.direct", None, f"u{k}")
                if code != 0:
                    run.gate(f"direct run u{k}: exit {code}: {last_error(out)}")
                sink.append(secs * 1e3)
        tele = [(t["name"], t["pattern"], t["load"], str(t["seed"]), t["cycles"], t["warmup"], "5") for t in traces[:3]]
    else:
        hits_before = len(run.hit_ms)
        workloads.engine_hits(run, seed, work / "untraced", done, 20)
        cli_hit = run.hit_ms[hits_before:]
        op = done[0][0]
        tele = [(op.name, None, repr(op.loads[0]), str(seed), *TELEMETRY_RUN[workload])]
    for name, pattern, load, salt, cycles, warmup, reps in tele:
        args = ["telemetry", name, "--loads", load, "--salt", salt, "--cycles", cycles, "--warmup", warmup, "--reps", reps]
        if pattern:
            args += ["--pattern", pattern]
        rep = helper(run, layers, args, "layers.telemetry", None, name)
        if rep:
            telemetry.append(rep)

    return per_layer(spans, points, setups, telemetry, cli_hit, cli_miss, traced_wall, untraced_wall), spans


def per_layer(spans, points, setups, telemetry, cli_hit, cli_miss, traced_wall, untraced_wall):
    pts = [p for rep in points for p in rep["points"]]
    total = lambda key: sum(p[key] for p in pts)
    warm, meas = spans.total("netsim.warmup"), spans.total("netsim.measure")
    routed, blocked = total("routed"), total("blocked")
    rounds = sorted({s["round"] for s in setups})

    def setup_layer(name):
        per_round = [sum(sp["end"] - sp["start"] for s in setups if s["round"] == r for sp in s["spans"] if sp["name"] == name) for r in rounds]
        return median(per_round) if per_round else 0.0

    first = [s for s in setups if s["round"] == 0]
    point_secs = spans.durations("point")
    # Worker-seconds available to the points: each helper's worker count
    # times its wall time.
    capacity = sum(rep["threads"] * sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] == "points") for rep in points)
    plain = sum(t["plain_s"] for t in telemetry)
    m = {
        "netsim.measure_s": (meas, "s"),
        "netsim.warmup_s": (warm, "s"),
        "netsim.ns_per_node_cycle": ((warm + meas) * 1e9 / max(total("node_cycles"), 1), "ns"),
        "netsim.ns_per_flit_move": ((warm + meas) * 1e9 / max(total("flit_moves"), 1), "ns"),
        "routing.routed_headers": (routed, "count"),
        "routing.blocked": (blocked, "count"),
        "routing.grant_ratio": (routed / max(routed + blocked, 1), "ratio"),
        "routing.escape_frac": (total("escaped") / max(routed, 1), "ratio"),
        "scenario.build_s": (setup_layer("scenario.build"), "s"),
        "topology.build_s": (setup_layer("topology.build"), "s"),
        "routing.build_s": (setup_layer("routing.build"), "s"),
        "netsim.engine_new_s": (setup_layer("netsim.engine_new"), "s"),
        "netsim.bytes_per_node": (sum(s["engine_rss_bytes"] for s in first) / max(sum(s["nodes"] for s in first), 1), "B"),
        "sweep.slowest_point_s": (max(point_secs, default=0.0), "s"),
        "sweep.busy_frac": (sum(point_secs) / capacity if capacity else 0.0, "ratio"),
        "stats.cache_get_s": (spans.total("stats.cache_get"), "s"),
        "stats.cache_put_s": (spans.total("stats.cache_put"), "s"),
        "stats.export_s": (spans.total("stats.export"), "s"),
        "cli.hit_ms": (median(cli_hit) if cli_hit else 0.0, "ms"),
        "cli.miss_ms": (median(cli_miss) if cli_miss else 0.0, "ms"),
        "telemetry.overhead_ratio": (sum(t["traced_s"] for t in telemetry) / plain - 1 if plain else 0.0, "ratio"),
        "fault.dropped_packets": (total("dropped_window"), "count"),
        "trace_overhead": (traced_wall / untraced_wall - 1, "ratio"),
    }
    return m
