//! Traced library runner of the repo benchmark (`perfbench/run.py --trace 1`).
//!
//! Times each layer from outside, around calls into its public
//! functions — `netsim::scenario`, `topology`, `routing`,
//! `netsim::engine` (through a counting [`Probe`]), and the `netstats`
//! export and cache — and prints one JSON object on stdout:
//!
//! ```sh
//! layers setup     <name> --loads L --salt S --cycles C --warmup W
//! layers points    <name> --loads a,b --salt S --threads T --out DIR
//! layers telemetry <name> --loads L --salt S --reps R
//! ```
//!
//! Every subcommand also takes `--pattern P` and `--cycles C --warmup W`,
//! applied as `netperf run` applies them.
//!
//! `setup` measures one cold set-up in a fresh process (scenario,
//! topology and routing construction, engine construction, RSS growth).
//! `points` runs load points in parallel like `netperf sweep`, writes
//! the library outcome as the CLI's CSV to `DIR/<name>.csv` (the
//! benchmark compares the two byte for byte), and reports per-point
//! spans, probe counts and packet-conservation violations. `telemetry`
//! times `try_simulate_traced` against `try_simulate`.

use netsim::scenario::{named, RunLength, Scenario, SeedMode, SpecVisitor};
use netsim::sim::{run_simulation_faulted_stepped, SimConfig, SimOutcome};
use netsim::wiring::Wiring;
use netsim::NoFaults;
use netstats::cache::{KeyDigest, ResultCache};
use netstats::{Cell, Table};
use routing::RoutingAlgorithm;
use std::fmt::Write as _;
use std::time::Instant;
use telemetry::Probe;
use traffic::Pattern;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Command-line options shared by the subcommands.
struct Opts {
    name: String,
    salt: u64,
    run_length: Option<RunLength>,
    pattern: Option<Pattern>,
    loads: Vec<f64>,
    threads: usize,
    reps: usize,
    out: String,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        name: String::new(),
        salt: 0,
        run_length: None,
        pattern: None,
        loads: Vec::new(),
        threads: 1,
        reps: 1,
        out: String::from("."),
    };
    let (mut cycles, mut warmup) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || -> &str {
            it.next()
                .unwrap_or_else(|| fail(&format!("{a} needs a value")))
        };
        let num = |s: &str| -> f64 {
            s.parse()
                .unwrap_or_else(|_| fail(&format!("bad number {s}")))
        };
        match a.as_str() {
            "--salt" => o.salt = val().parse().unwrap_or_else(|_| fail("bad --salt")),
            "--cycles" => cycles = Some(num(val()) as u32),
            "--warmup" => warmup = Some(num(val()) as u32),
            "--pattern" => {
                let p = val();
                o.pattern = Some(
                    Pattern::parse(p).unwrap_or_else(|| fail(&format!("unknown pattern {p}"))),
                );
            }
            "--loads" => o.loads = val().split(',').map(num).collect(),
            "--threads" => o.threads = num(val()) as usize,
            "--reps" => o.reps = num(val()) as usize,
            "--out" => o.out = val().to_string(),
            name if !name.starts_with("--") && o.name.is_empty() => o.name = name.to_string(),
            other => fail(&format!("unexpected argument {other}")),
        }
    }
    if let (Some(total), Some(warmup)) = (cycles, warmup) {
        o.run_length = Some(RunLength { warmup, total });
    } else if cycles.is_some() || warmup.is_some() {
        fail("--cycles and --warmup go together");
    }
    o
}

/// The registry scenario as `netperf run <name> [--pattern P]
/// [--cycles C --warmup W] --seed <salt>` builds it.
fn build_scenario(o: &Opts) -> Scenario {
    let mut s = named(&o.name).unwrap_or_else(|| fail(&format!("unknown scenario {}", o.name)));
    if let Some(p) = o.pattern {
        s = s.with_pattern(p);
    }
    if let Some(len) = o.run_length {
        s = s.with_run_length(len);
    }
    s = s.with_seed(SeedMode::Derived { salt: o.salt });
    if s.shards() > 1 {
        fail("sharded scenarios are not traced");
    }
    s
}

/// Resident set size of this process in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// One recorded span; times are seconds since the process origin.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    point: Option<f64>,
}

struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    fn push(
        &mut self,
        name: &'static str,
        a: Instant,
        b: Instant,
        parent: Option<usize>,
        point: Option<f64>,
    ) -> usize {
        let span = Span {
            name,
            start: self.at(a),
            end: self.at(b),
            parent,
            point,
        };
        self.list.push(span);
        self.list.len() - 1
    }

    fn json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let point = s.point.map_or("null".into(), |p| format!("{p:?}"));
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{parent},\"point\":{point}}}",
                s.name, s.start, s.end
            );
        }
        out.push(']');
        out
    }
}

// Packet lifecycle states tracked by the probe.
const QUEUED: u8 = 1;
const IN_NETWORK: u8 = 2;
const DELIVERED: u8 = 3;
const DROPPED: u8 = 4;
const UNROUTABLE: u8 = 5;

/// Counts what the engine does and timestamps the warm-up boundary.
/// Every packet must move queued → in network → delivered or dropped,
/// or queued → unroutable; any other transition is a violation, so
/// `created = delivered + dropped + unroutable + in flight` holds
/// exactly when `violations` is zero.
struct LayerProbe {
    warmup: u32,
    total: u32,
    engine_ready: Option<(Instant, u64)>,
    warm_end: Option<Instant>,
    run_end: Option<Instant>,
    state: Vec<u8>,
    violations: u64,
    routed: u64,
    escaped: u64,
    blocked: u64,
    /// Channel crossings (links, ejection, injection). The Probe does
    /// not see crossbar moves, so this is below `Counters::flit_moves`.
    flit_moves: u64,
    created_window: u64,
    dropped_window: u64,
    unroutable_window: u64,
}

impl LayerProbe {
    fn new(cfg: &SimConfig) -> Self {
        LayerProbe {
            warmup: cfg.warmup_cycles,
            total: cfg.total_cycles,
            engine_ready: None,
            warm_end: None,
            run_end: None,
            state: Vec::new(),
            violations: 0,
            routed: 0,
            escaped: 0,
            blocked: 0,
            flit_moves: 0,
            created_window: 0,
            dropped_window: 0,
            unroutable_window: 0,
        }
    }

    fn step(&mut self, packet: u32, from: u8, to: u8) {
        match self.state.get_mut(packet as usize) {
            Some(s) if *s == from => *s = to,
            _ => self.violations += 1,
        }
    }

    fn count(&self, state: u8) -> u64 {
        self.state.iter().filter(|&&s| s == state).count() as u64
    }
}

impl Probe for LayerProbe {
    fn packet_created(&mut self, cycle: u32, packet: u32, _: u32, _: u32, _: u16) {
        if packet as usize != self.state.len() {
            self.violations += 1;
            self.state.resize(packet as usize, 0);
        }
        self.state.push(QUEUED);
        self.created_window += u64::from(cycle >= self.warmup);
    }

    fn packet_injected(&mut self, _: u32, packet: u32, _: u32, _: u8) {
        self.step(packet, QUEUED, IN_NETWORK);
    }

    fn header_routed(&mut self, _: u32, _: u32, _: u32, _: u16, _: u16, escape: bool) {
        self.routed += 1;
        self.escaped += u64::from(escape);
    }

    fn routing_blocked(&mut self, _: u32, _: u32, _: u32, _: u16) {
        self.blocked += 1;
    }

    fn link_flit(&mut self, _: u32, _: u32, _: u32, _: u16, _: u8, _: telemetry::LinkKind) {
        self.flit_moves += 1;
    }

    fn injection_flit(&mut self, _: u32, _: u32, _: u32, _: u8) {
        self.flit_moves += 1;
    }

    fn packet_delivered(&mut self, _: u32, packet: u32, _: u32) {
        self.step(packet, IN_NETWORK, DELIVERED);
    }

    fn cycle_end(&mut self, cycle: u32) {
        if self.engine_ready.is_none() {
            self.engine_ready = Some((Instant::now(), rss_bytes()));
        }
        if self.warm_end.is_none() && cycle + 1 >= self.warmup {
            self.warm_end = Some(Instant::now());
        }
        if cycle + 1 >= self.total {
            self.run_end = Some(Instant::now());
        }
    }

    fn packet_dropped(&mut self, cycle: u32, packet: u32, _: u32) {
        self.step(packet, IN_NETWORK, DROPPED);
        self.dropped_window += u64::from(cycle >= self.warmup);
    }

    fn packet_unroutable(&mut self, cycle: u32, packet: u32, _: u32) {
        self.step(packet, QUEUED, UNROUTABLE);
        self.unroutable_window += u64::from(cycle >= self.warmup);
    }
}

/// One traced load point: construction and run of the engine under
/// the counting probe, with the instants the layer spans are cut at.
struct PointRun {
    entered: Instant,
    rss_entered: u64,
    done: Instant,
    outcome: SimOutcome,
    probe: LayerProbe,
}

struct Traced<'a> {
    scenario: &'a Scenario,
    cfg: SimConfig,
}

impl SpecVisitor for Traced<'_> {
    type Out = PointRun;
    fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> PointRun {
        let entered = Instant::now();
        let rss_entered = rss_bytes();
        let probe = LayerProbe::new(&self.cfg);
        let stepper = self.scenario.stepper();
        let run = match self.scenario.faults() {
            None => run_simulation_faulted_stepped(&algo, &self.cfg, probe, NoFaults, stepper),
            Some(plan) => {
                let w = Wiring::from_topology(algo.topology());
                let state = plan.compile(&w).expect("fault plan validated at build");
                run_simulation_faulted_stepped(&algo, &self.cfg, probe, state, stepper)
            }
        };
        let (outcome, probe) = run.unwrap_or_else(|e| fail(&e.to_string()));
        PointRun {
            entered,
            rss_entered,
            done: Instant::now(),
            outcome,
            probe,
        }
    }
}

fn run_point(s: &Scenario, load: f64) -> PointRun {
    s.with_algorithm(Traced {
        scenario: s,
        cfg: s.config_at(load),
    })
}

/// `layers setup`: one cold set-up, cut into its layers.
fn cmd_setup(o: &Opts) {
    let mut spans = Spans {
        origin: Instant::now(),
        list: Vec::new(),
    };
    let t0 = Instant::now();
    let s = build_scenario(o);
    let t1 = Instant::now();
    let nodes = s.topology().build().num_nodes();
    let t2 = Instant::now();
    let load = o
        .loads
        .first()
        .copied()
        .unwrap_or_else(|| fail("setup needs --loads"));
    let run = run_point(&s, load);
    let (ready, rss_ready) = run.probe.engine_ready.unwrap_or((run.done, rss_bytes()));
    let root = spans.push("setup", t0, ready, None, None);
    spans.push("scenario.build", t0, t1, Some(root), None);
    spans.push("topology.build", t1, t2, Some(root), None);
    spans.push("routing.build", t2, run.entered, Some(root), None);
    spans.push("netsim.engine_new", run.entered, ready, Some(root), None);
    println!(
        "{{\"nodes\":{nodes},\"engine_rss_bytes\":{},\"spans\":{}}}",
        rss_ready.saturating_sub(run.rss_entered),
        spans.json()
    );
}

/// The CLI's result table (`netperf run|sweep --csv`) for these points.
fn results_table(s: &Scenario, points: &[(f64, &SimOutcome)]) -> Table {
    let faulted = s.faults().is_some();
    let mut cols = vec![
        "offered_fraction",
        "generated_fraction",
        "accepted_fraction",
        "latency_cycles",
        "latency_p99_cycles",
        "delivered_packets",
        "backlog_packets",
    ];
    if faulted {
        cols.extend(["dropped_packets", "unroutable_packets"]);
    }
    let mut table = Table::with_columns(cols);
    for &(load, out) in points {
        let mut row = vec![
            Cell::Num(load),
            Cell::Num(out.generated_fraction),
            Cell::Num(out.accepted_fraction),
            Cell::Num(out.mean_latency_cycles()),
            Cell::Num(out.latency_hist.quantile(0.99).unwrap_or(f64::NAN)),
            Cell::Num(out.delivered_packets as f64),
            Cell::Num(out.backlog_packets as f64),
        ];
        if faulted {
            row.push(Cell::Num(out.dropped_packets as f64));
            row.push(Cell::Num(out.unroutable_packets as f64));
        }
        table.push_row(row);
    }
    table
}

/// `layers points`: the load points of one scenario, in parallel.
fn cmd_points(o: &Opts) {
    let mut spans = Spans {
        origin: Instant::now(),
        list: Vec::new(),
    };
    let s = build_scenario(o);
    let nodes = s.topology().num_nodes() as u64;
    let threads = o.threads.clamp(1, o.loads.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let t_start = Instant::now();
    let mut runs: Vec<(usize, Instant, PointRun)> = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                sc.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&load) = o.loads.get(i) else { break };
                        let begun = Instant::now();
                        mine.push((i, begun, run_point(&s, load)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("point worker"))
            .collect()
    });
    let t_engine = Instant::now();
    runs.sort_by_key(|r| r.0);

    // Export: the CLI's CSV from the library outcomes.
    let points: Vec<(f64, &SimOutcome)> = runs
        .iter()
        .map(|(i, _, r)| (o.loads[*i], &r.outcome))
        .collect();
    let table = results_table(&s, &points);
    let csv_path = format!("{}/{}.csv", o.out, o.name);
    netstats::write_csv(&table, &csv_path)
        .unwrap_or_else(|e| fail(&format!("write {csv_path}: {e}")));
    let t_export = Instant::now();

    // Cache: store every row, then look each one up again.
    let cache = ResultCache::open(format!("{}/cache", o.out));
    let csv = table.to_csv();
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    let keys: Vec<u64> = o
        .loads
        .iter()
        .map(|&l| {
            let mut k = KeyDigest::new("perfbench-point/1");
            k.push("name", &o.name)
                .push_u64("salt", o.salt)
                .push_u64("load", l.to_bits());
            k.finish()
        })
        .collect();
    for (&key, row) in keys.iter().zip(&rows) {
        cache
            .store(key, &[("row.csv".to_string(), row.as_bytes().to_vec())])
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    let t_put = Instant::now();
    for (&key, row) in keys.iter().zip(&rows) {
        let entry = cache.lookup(key).unwrap_or_else(|e| fail(&e.to_string()));
        if entry.as_ref().and_then(|e| e.artifact("row.csv")) != Some(row.as_bytes()) {
            fail("cache lookup did not return the stored row");
        }
    }
    let t_get = Instant::now();

    let root = spans.push("points", t_start, t_get, None, None);
    let mut points_json = Vec::new();
    for (i, begun, r) in &runs {
        let load = o.loads[*i];
        let p = &r.probe;
        let (ready, _) = p.engine_ready.unwrap_or((r.done, 0));
        let warm = p.warm_end.unwrap_or(ready);
        let end = p.run_end.unwrap_or(r.done);
        let id = spans.push("point", *begun, r.done, Some(root), Some(load));
        spans.push("routing.build", *begun, r.entered, Some(id), Some(load));
        spans.push("netsim.engine_new", r.entered, ready, Some(id), Some(load));
        spans.push("netsim.warmup", ready, warm, Some(id), Some(load));
        spans.push("netsim.measure", warm, end, Some(id), Some(load));
        spans.push("netsim.outcome", end, r.done, Some(id), Some(load));
        let out = &r.outcome;
        let routed = p.routed.max(1);
        let window_ok = p.created_window == out.created_packets
            && p.dropped_window == out.dropped_packets
            && p.unroutable_window == out.unroutable_packets
            && (p.escaped as f64 / routed as f64).to_bits() == out.escape_fraction.to_bits();
        points_json.push(format!(
            "{{\"load\":{load:?},\"node_cycles\":{},\"created\":{},\"delivered\":{},\"dropped\":{},\
             \"unroutable\":{},\"in_flight\":{},\"violations\":{},\"window_ok\":{window_ok},\
             \"routed\":{},\"blocked\":{},\"escaped\":{},\"flit_moves\":{},\"dropped_window\":{}}}",
            nodes * u64::from(s.run_length().total),
            p.state.len(),
            p.count(DELIVERED),
            p.count(DROPPED),
            p.count(UNROUTABLE),
            p.count(QUEUED) + p.count(IN_NETWORK),
            p.violations,
            p.routed,
            p.blocked,
            p.escaped,
            p.flit_moves,
            p.dropped_window,
        ));
    }
    spans.push("stats.export", t_engine, t_export, Some(root), None);
    spans.push("stats.cache_put", t_export, t_put, Some(root), None);
    spans.push("stats.cache_get", t_put, t_get, Some(root), None);
    println!(
        "{{\"nodes\":{nodes},\"threads\":{threads},\"csv\":\"{csv_path}\",\"points\":[{}],\"spans\":{}}}",
        points_json.join(","),
        spans.json()
    );
}

/// `layers telemetry`: `try_simulate_traced` against `try_simulate`,
/// alternating, `reps` times each.
fn cmd_telemetry(o: &Opts) {
    let s = build_scenario(o);
    let load = o
        .loads
        .first()
        .copied()
        .unwrap_or_else(|| fail("telemetry needs --loads"));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..o.reps.max(1) {
        let t = Instant::now();
        let a = s
            .try_simulate(load)
            .unwrap_or_else(|e| fail(&e.to_string()));
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (b, _rec) = s
            .try_simulate_traced(load)
            .unwrap_or_else(|e| fail(&e.to_string()));
        traced.push(t.elapsed().as_secs_f64());
        let same =
            results_table(&s, &[(load, &a)]).to_csv() == results_table(&s, &[(load, &b)]).to_csv();
        if !same {
            fail("traced and untraced outcomes differ");
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    println!(
        "{{\"plain_s\":{:?},\"traced_s\":{:?}}}",
        median(&mut plain),
        median(&mut traced)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        fail("usage: layers setup|points|telemetry <name> [options]");
    };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "setup" => cmd_setup(&o),
        "points" => cmd_points(&o),
        "telemetry" => cmd_telemetry(&o),
        other => fail(&format!("unknown subcommand {other}")),
    }
}
