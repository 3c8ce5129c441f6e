//! `netperf` — command-line driver for the flit-level simulator.
//!
//! Three subcommands over the scenario plane:
//!
//! ```sh
//! netperf list                              # named scenarios from the registry
//! netperf run cube-duato --load 0.6         # one load point of a registry entry
//! netperf sweep tree-2vc --pattern transpose --csv sweep.csv
//! netperf run --topology mesh --k 8 --n 2 --algo adaptive --vcs 2 --load 0.3
//! ```
//!
//! `run` and `sweep` accept either a registry name or explicit
//! `--topology/--k/--n/--algo/--vcs` flags; every axis goes through the
//! validating [`ScenarioBuilder`], so an impossible combination fails
//! with a message instead of a panic. When `--csv` is given, a JSON run
//! manifest (`<stem>.manifest.json`) is written next to it.
//!
//! The historical flags-first form (`netperf --topology cube ...`) still
//! works and keeps its historical semantics: one fixed seed for every
//! load point (default `0x5EED`) and no source throttling.

use netperf::costmodel::{enumerate_designs, DesignBudget, DesignPoint};
use netperf::netsim::scenario::{
    default_load_grid, named, parse_threads, registry, sweep_threads, InjectionModel, RoutingKind,
    RunLength, Scenario, ScenarioBuilder, SeedMode, Throttle, TopologySpec,
};
use netperf::netsim::sim::SimOutcome;
use netperf::netsim::{EngineSnapshot, FaultPlan, RunControl, RunSnapshot, Stepper};
use netperf::telemetry::{trace, FlightRecorder, TelemetryConfig};
use netperf::traffic::Pattern;
use netstats::cache::{KeyDigest, ResultCache};
use netstats::export::format_num;
use netstats::{Cell, Manifest, ManifestValue, Table};
use std::time::Instant;

fn main() {
    // Validate the thread-count override up front: the library helpers
    // silently ignore garbage, but an interactive user who typed
    // NETPERF_THREADS=0 deserves an error, not a silent default.
    if let Ok(v) = std::env::var("NETPERF_THREADS") {
        if let Err(e) = parse_threads(&v) {
            fail(&format!("bad NETPERF_THREADS: {e}"));
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..], false),
        Some("sweep") => cmd_run(&args[1..], true),
        Some("design") => cmd_design(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        None | Some("--help" | "-h") => usage(),
        // Flags-first invocation: the historical single-level CLI.
        Some(f) if f.starts_with("--") => legacy(&args),
        Some(other) => {
            eprintln!("error: unknown subcommand {other}");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: netperf <subcommand> [options]\n\
         \n\
         subcommands:\n\
         list                        print the named-scenario registry\n\
         run   [name] [options]      simulate one offered load\n\
         sweep [name] [options]      sweep a load grid (in parallel)\n\
         design [options]            rank design points under a pin budget:\n\
                                     --nodes <int> (default 256),\n\
                                     --pin-budget <int> (default 160),\n\
                                     --out <stem> (default results/design_report),\n\
                                     --quick; writes <stem>.{{csv,json}} + manifest\n\
         serve [options]             service JSONL requests (one flat JSON object\n\
                                     per line) from stdin, or from a watched\n\
                                     --spool <dir> of *.json files; each request\n\
                                     names an op (run|sweep|design) plus the\n\
                                     matching CLI flags as string fields, and is\n\
                                     executed with misses farmed across\n\
                                     NETPERF_THREADS. --cache <dir> applies a\n\
                                     default result cache; --once drains the\n\
                                     spool and exits\n\
         snapshot <file>             describe a checkpoint file (version, ident,\n\
                                     cycle, state hash) without simulating\n\
         \n\
         scenario selection (instead of a registry name):\n\
         --topology <family>         cube|tree|tapered-tree|mesh|thc (or an alias)\n\
         --k <int>                   radix / arity (default 16)\n\
         --n <int>                   dimension / levels (default 2)\n\
         --taper <int>               up-link oversubscription ratio\n\
                                     (tapered-tree only; default 2)\n\
         --algo det|duato|adaptive   routing (default: the family's paper choice)\n\
         --vcs <int>                 virtual channels (default 4)\n\
         \n\
         scenario overrides (work with a name too):\n\
         --pattern <name>            uniform|complement|bitrev|transpose|shuffle|\n\
                                     butterfly|tornado|neighbor|hotspot (default uniform)\n\
         --injection <model>         bernoulli|periodic|onoff:<on>:<off> (default bernoulli)\n\
         --throttle auto|off|<int>   source throttling (default auto: the paper's rule)\n\
         --buffer <int>              lane depth in flits (default 4)\n\
         --packet-bytes <int>        packet size (default 64)\n\
         --cycles <int>              total cycles (default 20000)\n\
         --warmup <int>              warm-up cycles (default 2000)\n\
         --quick                     short run (1000/6000 cycles)\n\
         --seed <salt>               salt the derived per-run seeds (default 0)\n\
         --fixed-seed <int>          one fixed seed for every load point\n\
         --label <text>              override the display label (feeds the seed)\n\
         --faults <spec>             deterministic fault plan: comma-separated\n\
                                     links=<frac>, routers=<count>,\n\
                                     transient=<links>:<period>:<down>, seed=<int>,\n\
                                     or the literal none (default: healthy network)\n\
         \n\
         run/sweep control:\n\
         --load <frac>               offered load for `run` (default 0.5)\n\
         --grid a:b:step             load grid for `sweep` (default 0.05:1.0:0.05)\n\
         --shards <int>              domain-decompose each run into this many shards\n\
                                     (default 1 = serial; results are bit-identical\n\
                                     for every value; clamped to the router count)\n\
         --stepper <name>            engine stepper: soa|wheel|reference\n\
                                     (default soa; results are bit-identical for\n\
                                     every choice; see docs/PERFORMANCE.md for\n\
                                     which to pick; soa and wheel compose with\n\
                                     --shards > 1, reference does not)\n\
         --csv <path>                write results as CSV (+ JSON manifest)\n\
         --trace <stem>              record telemetry (alias --probe): writes\n\
                                     <stem>[.lNNN].trace.jsonl (event log),\n\
                                     <stem>[.lNNN].trace.json (Chrome about://tracing),\n\
                                     <stem>[.lNNN].breakdown.csv (latency decomposition),\n\
                                     <stem>[.lNNN].util.csv (channel utilization)\n\
         --probe-stride <n>          utilization sampling stride in cycles (default 100)\n\
         \n\
         serving plane (run only unless noted):\n\
         --checkpoint-every <n>      write a checkpoint every n cycles (needs\n\
                                     --snapshot; the file is replaced atomically)\n\
         --snapshot <path>           where checkpoints are written\n\
         --resume <path>             resume a run from a checkpoint file; the\n\
                                     finished run is bit-identical to an\n\
                                     uninterrupted one\n\
         --cache <dir>               run/sweep/design: content-addressed result\n\
                                     cache; hits skip simulation entirely and\n\
                                     reproduce byte-identical result rows\n\
         \n\
         environment:\n\
         NETPERF_THREADS             worker threads for sweeps and sharded runs\n\
                                     (positive integer; default: the machine's\n\
                                     available parallelism)\n\
         \n\
         The historical flags-first form (netperf --topology ... --load ...)\n\
         is still accepted, with its historical fixed-seed, unthrottled\n\
         semantics."
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `cube|tree|mesh|...` — the registered family slugs, for error text.
fn family_slugs() -> String {
    netperf::topology::families()
        .iter()
        .map(|f| f.slug)
        .collect::<Vec<_>>()
        .join("|")
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Whether this build carries the reference stepper.
fn reference_compiled() -> bool {
    netperf::netsim::engine_features().contains(&("reference-engine", true))
}

/// An offered load: a fraction of capacity in `[0, 1]` (NaN refused).
fn parse_load(s: &str) -> Option<f64> {
    s.parse().ok().filter(|x| (0.0..=1.0).contains(x))
}

fn parse_grid(spec: &str) -> Option<Vec<f64>> {
    let parts: Vec<f64> = spec
        .split(':')
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    match parts.as_slice() {
        [a, b, step] if *step > 0.0 && b >= a && *a >= 0.0 && *b <= 1.0 => {
            let mut g = Vec::new();
            let mut x = *a;
            while x <= b + 1e-9 {
                g.push(x);
                x += step;
            }
            Some(g)
        }
        _ => None,
    }
}

fn parse_injection(spec: &str) -> Option<InjectionModel> {
    match spec {
        "bernoulli" => Some(InjectionModel::Bernoulli),
        "periodic" => Some(InjectionModel::Periodic),
        _ => {
            let rest = spec.strip_prefix("onoff:")?;
            let (on, off) = rest.split_once(':')?;
            Some(InjectionModel::OnOff {
                mean_on: on.parse().ok().filter(|v: &f64| *v > 0.0)?,
                mean_off: off.parse().ok().filter(|v: &f64| *v >= 0.0)?,
            })
        }
    }
}

fn cmd_list() {
    println!(
        "{:18} {:28} {:13} {:3} {:>6} {:>7} {:>6} summary",
        "name", "label", "routing", "vcs", "nodes", "router", "bisect"
    );
    for e in registry() {
        let s = e.scenario();
        let t = s.topology();
        println!(
            "{:18} {:28} {:13} {:3} {:>6} {:>7} {:>6} {}",
            e.name,
            s.label(),
            s.routing().name(),
            s.vcs(),
            t.num_nodes(),
            t.num_routers(),
            t.bisection_links()
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
            e.summary
        );
    }
    println!("\npaper set: cube-det cube-duato tree-1vc tree-2vc tree-4vc");
}

/// Everything `run`/`sweep` parse: the scenario plus sweep control.
struct Request {
    scenario: Scenario,
    loads: Vec<f64>,
    csv: Option<String>,
    quick: bool,
    /// Artifact stem for telemetry output (`--trace`/`--probe`).
    trace: Option<String>,
    /// Checkpoint cadence in cycles (`--checkpoint-every`, run only).
    checkpoint_every: Option<u32>,
    /// Checkpoint output path (`--snapshot`).
    snapshot: Option<String>,
    /// Checkpoint to resume from (`--resume`).
    resume: Option<String>,
    /// Result-cache root (`--cache`).
    cache: Option<String>,
}

fn parse_request(args: &[String], sweep: bool) -> Request {
    let mut it = args.iter();
    let mut name: Option<String> = None;
    // Builder axes (only used when no registry name is given).
    let mut family: Option<String> = None;
    let (mut k, mut n) = (16usize, 2usize);
    let mut taper: Option<usize> = None;
    let mut algo: Option<RoutingKind> = None;
    let mut vcs: Option<usize> = None;
    // Overrides that apply to both paths.
    let mut pattern: Option<Pattern> = None;
    let mut injection: Option<InjectionModel> = None;
    let mut throttle: Option<Throttle> = None;
    let mut buffer: Option<usize> = None;
    let mut packet_bytes: Option<usize> = None;
    let mut label: Option<String> = None;
    let mut seed: Option<SeedMode> = None;
    let mut run_length: Option<RunLength> = None;
    let (mut cycles, mut warmup): (Option<u32>, Option<u32>) = (None, None);
    let mut quick = false;
    // Sweep control.
    let mut load = 0.5f64;
    let mut grid: Option<Vec<f64>> = None;
    let mut csv: Option<String> = None;
    // Telemetry.
    let mut trace: Option<String> = None;
    let mut probe_stride: Option<u32> = None;
    // Intra-run sharding (execution detail: results are bit-identical).
    let mut shards: Option<usize> = None;
    // Engine stepper (execution detail too; see docs/PERFORMANCE.md).
    let mut stepper: Option<Stepper> = None;
    // Serving plane: checkpoint/resume and the result cache.
    let mut checkpoint_every: Option<u32> = None;
    let mut snapshot: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut cache: Option<String> = None;
    // Fault plane. Outer None = flag absent; inner None = explicit
    // `--faults none` (strips a registry entry's plan).
    let mut faults: Option<Option<FaultPlan>> = None;

    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> &str {
            it.next()
                .unwrap_or_else(|| fail(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--topology" => family = Some(val("--topology").to_string()),
            "--k" => k = val("--k").parse().unwrap_or_else(|_| fail("bad --k")),
            "--n" => n = val("--n").parse().unwrap_or_else(|_| fail("bad --n")),
            "--taper" => {
                taper = Some(
                    val("--taper")
                        .parse()
                        .ok()
                        .filter(|&t: &usize| t >= 1)
                        .unwrap_or_else(|| fail("bad --taper (want an integer >= 1)")),
                )
            }
            "--algo" => {
                let a = val("--algo");
                algo = Some(RoutingKind::parse(a).unwrap_or_else(|| {
                    fail(&format!("unknown algorithm {a} (det|duato|adaptive)"))
                }));
            }
            "--vcs" => vcs = Some(val("--vcs").parse().unwrap_or_else(|_| fail("bad --vcs"))),
            "--pattern" => {
                let p = val("--pattern");
                pattern = Some(
                    Pattern::parse(p).unwrap_or_else(|| fail(&format!("unknown pattern {p}"))),
                );
            }
            "--injection" => {
                let i = val("--injection");
                injection = Some(parse_injection(i).unwrap_or_else(|| {
                    fail(&format!(
                        "bad injection model {i} (bernoulli|periodic|onoff:<on>:<off>)"
                    ))
                }));
            }
            "--throttle" => {
                let t = val("--throttle");
                throttle = Some(match t {
                    "auto" => Throttle::Auto,
                    "off" => Throttle::Off,
                    other => Throttle::Limit(
                        other
                            .parse()
                            .unwrap_or_else(|_| fail("bad --throttle (auto|off|<int>)")),
                    ),
                });
            }
            "--buffer" => {
                buffer = Some(
                    val("--buffer")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --buffer")),
                )
            }
            "--packet-bytes" => {
                packet_bytes = Some(
                    val("--packet-bytes")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --packet-bytes")),
                )
            }
            "--label" => label = Some(val("--label").to_string()),
            "--seed" => {
                let s = val("--seed");
                seed = Some(SeedMode::Derived {
                    salt: parse_u64(s).unwrap_or_else(|| fail("bad --seed")),
                });
            }
            "--fixed-seed" => {
                let s = val("--fixed-seed");
                seed = Some(SeedMode::Fixed(
                    parse_u64(s).unwrap_or_else(|| fail("bad --fixed-seed")),
                ));
            }
            "--cycles" => {
                cycles = Some(
                    val("--cycles")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --cycles")),
                )
            }
            "--warmup" => {
                warmup = Some(
                    val("--warmup")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --warmup")),
                )
            }
            "--quick" => quick = true,
            "--faults" => {
                let spec = val("--faults");
                let plan = FaultPlan::parse(spec)
                    .unwrap_or_else(|e| fail(&format!("bad --faults spec: {e}")));
                faults = Some((!plan.is_empty()).then_some(plan));
            }
            "--load" => {
                load = parse_load(val("--load"))
                    .unwrap_or_else(|| fail("bad --load (want an offered load in [0, 1])"))
            }
            "--sweep" | "--grid" => {
                let g = val("--grid");
                grid =
                    Some(parse_grid(g).unwrap_or_else(|| {
                        fail("bad --grid (want a:b:step with loads in [0, 1])")
                    }));
            }
            "--csv" => csv = Some(val("--csv").to_string()),
            "--trace" | "--probe" => trace = Some(val("--trace").to_string()),
            "--probe-stride" => {
                probe_stride = Some(
                    val("--probe-stride")
                        .parse()
                        .ok()
                        .filter(|&v: &u32| v >= 1)
                        .unwrap_or_else(|| fail("bad --probe-stride (want an integer >= 1)")),
                )
            }
            "--shards" => {
                shards = Some(
                    val("--shards")
                        .parse()
                        .ok()
                        .filter(|&v: &usize| v >= 1)
                        .unwrap_or_else(|| fail("bad --shards (want an integer >= 1)")),
                )
            }
            "--stepper" => {
                stepper = Some(
                    val("--stepper")
                        .parse()
                        .unwrap_or_else(|e: String| fail(&e)),
                )
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    val("--checkpoint-every")
                        .parse()
                        .ok()
                        .filter(|&v: &u32| v >= 1)
                        .unwrap_or_else(|| fail("bad --checkpoint-every (want an integer >= 1)")),
                )
            }
            "--snapshot" => snapshot = Some(val("--snapshot").to_string()),
            "--resume" => resume = Some(val("--resume").to_string()),
            "--cache" => cache = Some(val("--cache").to_string()),
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            positional if name.is_none() => name = Some(positional.to_string()),
            other => fail(&format!("unexpected argument {other}")),
        }
    }

    if quick {
        run_length = Some(RunLength::quick());
    }
    if cycles.is_some() || warmup.is_some() {
        let base = run_length.unwrap_or_else(RunLength::paper);
        run_length = Some(RunLength {
            warmup: warmup.unwrap_or(base.warmup),
            total: cycles.unwrap_or(base.total),
        });
    }

    let scenario = if let Some(name) = &name {
        if family.is_some() || algo.is_some() || vcs.is_some() || taper.is_some() {
            fail("give either a registry name or --topology/--algo/--vcs flags, not both");
        }
        let mut s = named(name)
            .unwrap_or_else(|| fail(&format!("unknown scenario {name} (see `netperf list`)")));
        // Apply the overrides the axis accessors allow without
        // rebuilding: pattern (revalidated), run length, seed.
        if let Some(p) = pattern {
            s = s.with_pattern(p);
        }
        if let Some(len) = run_length {
            s = s
                .try_with_run_length(len)
                .unwrap_or_else(|e| fail(&e.to_string()));
        }
        if let Some(mode) = seed {
            s = s.with_seed(mode);
        }
        if injection.is_some()
            || throttle.is_some()
            || buffer.is_some()
            || packet_bytes.is_some()
            || label.is_some()
        {
            fail("registry scenarios fix injection/throttle/buffer/packet size; use explicit --topology flags to change them");
        }
        s
    } else {
        let family = family.unwrap_or_else(|| fail("need a registry name or --topology"));
        let mut topology = TopologySpec::parse(&family, k, n)
            .unwrap_or_else(|| fail(&format!("unknown topology {family} ({})", family_slugs())));
        if let Some(t) = taper {
            topology = topology.with_taper(t).unwrap_or_else(|| {
                fail(&format!(
                    "--taper applies to tapered trees, not the {family}"
                ))
            });
        }
        let mut b = ScenarioBuilder::new().topology(topology);
        if let Some(r) = algo {
            b = b.routing(r);
        }
        if let Some(v) = vcs {
            b = b.vcs(v);
        }
        if let Some(p) = pattern {
            b = b.pattern(p);
        }
        if let Some(i) = injection {
            b = b.injection(i);
        }
        if let Some(t) = throttle {
            b = b.throttle(t);
        }
        if let Some(d) = buffer {
            b = b.buffer_depth(d);
        }
        if let Some(bytes) = packet_bytes {
            b = b.packet_bytes(bytes);
        }
        if let Some(l) = label {
            b = b.label(l);
        }
        if let Some(len) = run_length {
            b = b.run_length(len);
        }
        if let Some(mode) = seed {
            b = b.seed(mode);
        }
        b.build().unwrap_or_else(|e| fail(&e.to_string()))
    };

    let scenario = match faults {
        Some(plan) => scenario
            .with_faults(plan)
            .unwrap_or_else(|e| fail(&e.to_string())),
        None => scenario,
    };

    if probe_stride.is_some() && trace.is_none() {
        fail("--probe-stride requires --trace");
    }
    let scenario = if trace.is_some() {
        scenario.with_telemetry(TelemetryConfig {
            stride: probe_stride.unwrap_or(100),
            record_events: true,
        })
    } else {
        scenario
    };

    let scenario = match shards {
        Some(n) => scenario.with_shards(n),
        None => scenario,
    };

    let scenario = match stepper {
        Some(st) => {
            if st == Stepper::Reference && !reference_compiled() {
                fail(
                    "the reference stepper is not compiled into this binary \
                      (build with the netsim reference-engine feature)",
                );
            }
            if scenario.shards() > 1 && !st.shardable() {
                fail(&format!(
                    "sharded runs compose with the soa or wheel stepper only \
                     (got --stepper {st} with {} shards)",
                    scenario.shards()
                ));
            }
            scenario.with_stepper(st)
        }
        None => scenario,
    };

    if sweep && (checkpoint_every.is_some() || snapshot.is_some() || resume.is_some()) {
        fail("--checkpoint-every/--snapshot/--resume apply to `run`, not `sweep`");
    }
    if checkpoint_every.is_some() && snapshot.is_none() {
        fail("--checkpoint-every needs --snapshot <path> to write checkpoints to");
    }
    if snapshot.is_some() && checkpoint_every.is_none() {
        fail("--snapshot needs --checkpoint-every <n> to decide when to checkpoint");
    }
    if cache.is_some() {
        if trace.is_some() {
            fail("--cache does not apply to traced runs (trace artifacts are not cached)");
        }
        if checkpoint_every.is_some() || resume.is_some() {
            fail("--cache cannot be combined with --checkpoint-every/--resume");
        }
    }

    let loads = if sweep {
        grid.unwrap_or_else(default_load_grid)
    } else {
        vec![load]
    };
    Request {
        scenario,
        loads,
        csv,
        quick,
        trace,
        checkpoint_every,
        snapshot,
        resume,
        cache,
    }
}

fn cmd_run(args: &[String], sweep: bool) {
    let req = parse_request(args, sweep);
    let s = &req.scenario;
    let norm = s.normalization();
    println!(
        "{} | {} | {} | {} flits/packet | capacity {:.3} flits/node/cycle | clock {:.2} ns",
        s.topology().describe(),
        s.routing().name(),
        s.pattern().name(),
        (s.packet_bytes() / norm.flit_bytes()).max(1),
        norm.capacity_flits_per_cycle(),
        norm.timing().clock_ns(),
    );

    let faulted = s.faults().is_some();
    if let Some(plan) = s.faults() {
        println!(
            "faults: {} (digest 0x{:016x})",
            plan.spec_string(),
            plan.digest()
        );
    }

    if req.cache.is_some() {
        return cmd_run_cached(&req, faulted);
    }

    let start = Instant::now();
    // Traced runs go through the serial probed path (the recorder is a
    // per-run accumulator); untraced runs keep the parallel sweep. A
    // wedged run (possible under aggressive fault plans) surfaces as a
    // one-line structured error, not a panic backtrace. Checkpointed or
    // resumed runs (`run` only, a single load) go through the
    // controlled path — bit-identical to the plain one.
    let (outcomes, recorders) = if req.checkpoint_every.is_some() || req.resume.is_some() {
        let (out, rec) = run_controlled(&req, req.loads[0]);
        (vec![out], rec.map(|r| vec![r]))
    } else if req.trace.is_some() {
        let mut outs = Vec::with_capacity(req.loads.len());
        let mut recs = Vec::with_capacity(req.loads.len());
        for &l in &req.loads {
            let (o, r) = s
                .try_simulate_traced(l)
                .unwrap_or_else(|e| fail(&e.to_string()));
            outs.push(o);
            recs.push(r);
        }
        (outs, Some(recs))
    } else {
        (
            s.try_sweep_outcomes(&req.loads)
                .unwrap_or_else(|e| fail(&e.to_string())),
            None,
        )
    };
    let wall = start.elapsed().as_secs_f64();

    let rows: Vec<PointRow> = req
        .loads
        .iter()
        .zip(&outcomes)
        .map(|(&load, out)| point_row(load, out, faulted))
        .collect();

    if let Some(recs) = &recorders {
        let stem = req.trace.as_deref().unwrap();
        for (&load, rec) in req.loads.iter().zip(recs) {
            write_trace_artifacts(stem, load, req.loads.len() > 1, rec);
        }
    }

    emit_results(&req, &rows, faulted, wall, recorders.as_deref(), None);
}

/// The checkpoint/resume path of `netperf run`: a single load point
/// driven through [`RunControl`], with an optional atomic checkpoint
/// sink. The finished outcome is bit-identical to an uninterrupted run.
fn run_controlled(req: &Request, load: f64) -> (SimOutcome, Option<FlightRecorder>) {
    let s = &req.scenario;
    let ident = s.state_ident(load);
    let mut ctl = RunControl::new(ident);
    if let Some(path) = &req.resume {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| fail(&format!("read checkpoint {path}: {e}")));
        let snap = RunSnapshot::from_bytes(&bytes).unwrap_or_else(|e| fail(&e.to_string()));
        eprintln!(
            "resume: {path} (cycle {}, ident 0x{:016x}, state hash 0x{:016x})",
            snap.cycle(),
            snap.ident(),
            snap.state_hash(),
        );
        ctl.resume = Some(snap);
    }
    ctl.checkpoint_every = req.checkpoint_every;
    let mut sink;
    if let Some(path) = req.snapshot.clone() {
        sink = move |snap: &RunSnapshot| {
            // Write-then-rename so a crash mid-checkpoint leaves the
            // previous checkpoint intact, never a torn file.
            let tmp = format!("{path}.tmp");
            std::fs::write(&tmp, snap.to_bytes())
                .unwrap_or_else(|e| fail(&format!("write checkpoint {tmp}: {e}")));
            std::fs::rename(&tmp, &path)
                .unwrap_or_else(|e| fail(&format!("rename checkpoint into {path}: {e}")));
            eprintln!("checkpoint: cycle {} -> {path}", snap.cycle());
        };
        ctl.on_checkpoint = Some(&mut sink);
    }
    if req.trace.is_some() {
        let (out, rec) = s
            .try_simulate_traced_controlled(load, &mut ctl)
            .unwrap_or_else(|e| fail(&e.to_string()));
        (out, Some(rec))
    } else {
        let out = s
            .try_simulate_controlled(load, &mut ctl)
            .unwrap_or_else(|e| fail(&e.to_string()));
        (out, None)
    }
}

/// The `--cache` path of `run`/`sweep`: look every load point up in the
/// content-addressed result store, simulate only the misses (in
/// parallel, exactly like a plain sweep), store them, and emit rows
/// that are byte-identical whether hit or miss. Every miss logs its
/// reason; a corrupt entry is a hard error, never a silent recompute.
fn cmd_run_cached(req: &Request, faulted: bool) {
    let root = req.cache.as_deref().unwrap();
    let cache = ResultCache::open(root);
    let s = &req.scenario;
    let start = Instant::now();
    let keys: Vec<u64> = req
        .loads
        .iter()
        .map(|&l| point_cache_key(s, l, faulted))
        .collect();
    let mut rows: Vec<Option<PointRow>> = Vec::with_capacity(req.loads.len());
    let mut missing = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match cache.lookup(key) {
            Ok(Some(entry)) => rows.push(Some(decode_point(&entry, faulted))),
            Ok(None) => {
                eprintln!(
                    "cache miss: load {:.2} (key 0x{key:016x}, no entry)",
                    req.loads[i]
                );
                missing.push(i);
                rows.push(None);
            }
            Err(e) => fail(&e.to_string()),
        }
    }
    let miss_loads: Vec<f64> = missing.iter().map(|&i| req.loads[i]).collect();
    let fresh = s
        .try_sweep_outcomes(&miss_loads)
        .unwrap_or_else(|e| fail(&e.to_string()));
    for (&i, out) in missing.iter().zip(&fresh) {
        let row = point_row(req.loads[i], out, faulted);
        cache
            .store(keys[i], &encode_point(&row))
            .unwrap_or_else(|e| fail(&e.to_string()));
        rows[i] = Some(row);
    }
    let wall = start.elapsed().as_secs_f64();
    let rows: Vec<PointRow> = rows
        .into_iter()
        .map(|r| r.expect("every miss was simulated and filled in"))
        .collect();
    let hits = (req.loads.len() - missing.len()) as u64;
    emit_results(
        req,
        &rows,
        faulted,
        wall,
        None,
        Some((hits, missing.len() as u64)),
    );
}

/// Shared tail of `run`/`sweep`: the per-load stdout lines, then the
/// CSV + manifest pair when `--csv` was given. `rows` carries the
/// canonical rendering whether freshly simulated or replayed from the
/// cache, so both paths emit identical bytes.
fn emit_results(
    req: &Request,
    rows: &[PointRow],
    faulted: bool,
    wall: f64,
    recorders: Option<&[FlightRecorder]>,
    cache_stats: Option<(u64, u64)>,
) {
    let mut table = results_table(faulted);
    let mut totals = [0u64; 4];
    for row in rows {
        for (t, c) in totals.iter_mut().zip(row.counters) {
            *t += c;
        }
        table.push_row(row.cells.iter().cloned().map(Cell::Text).collect());
        println!("{}", row.line);
    }
    if let Some((hits, misses)) = cache_stats {
        println!("cache: {hits} hits, {misses} misses");
    }
    if let Some(path) = &req.csv {
        netstats::write_csv(&table, path).expect("write csv");
        let manifest = cli_manifest(req, wall, rows.len(), totals, recorders, cache_stats);
        let mpath = manifest_sibling(path);
        netstats::write_manifest(&manifest, &mpath).expect("write manifest");
        eprintln!("wrote {path}");
        eprintln!("wrote {mpath}");
    }
}

/// One result row in its canonical rendered form — the unit the result
/// cache stores and replays. Cells are pre-rendered with [`format_num`]
/// (the same renderer `Cell::Num` goes through), so a warm replay is
/// byte-identical to a cold render.
struct PointRow {
    cells: Vec<String>,
    /// created, delivered, dropped, unroutable — the manifest counters.
    counters: [u64; 4],
    /// The per-load stdout summary line, replayed verbatim on a hit.
    line: String,
}

fn point_row(load: f64, out: &SimOutcome, faulted: bool) -> PointRow {
    let p99 = out.latency_hist.quantile(0.99).unwrap_or(f64::NAN);
    let mut cells = vec![
        format_num(load),
        format_num(out.generated_fraction),
        format_num(out.accepted_fraction),
        format_num(out.mean_latency_cycles()),
        format_num(p99),
        format_num(out.delivered_packets as f64),
        format_num(out.backlog_packets as f64),
    ];
    if faulted {
        cells.push(format_num(out.dropped_packets as f64));
        cells.push(format_num(out.unroutable_packets as f64));
    }
    let degraded = if faulted {
        format!(
            " ({} dropped, {} unroutable)",
            out.dropped_packets, out.unroutable_packets
        )
    } else {
        String::new()
    };
    let line = format!(
        "load {:>5.2}: accepted {:>6.3} of capacity, latency {:>7.1} cycles (p99 {:>6.0}), {} packets{degraded}",
        load,
        out.accepted_fraction,
        out.mean_latency_cycles(),
        p99,
        out.delivered_packets
    );
    PointRow {
        cells,
        counters: [
            out.created_packets,
            out.delivered_packets,
            out.dropped_packets,
            out.unroutable_packets,
        ],
        line,
    }
}

/// Cache key of one `run`/`sweep` result row. Covers everything the
/// row's bytes depend on: the full simulation identity at this load
/// (via [`Scenario::state_ident`], which folds in every scenario axis,
/// the fault-plan digest and the run length) plus the column shape
/// (faulted runs carry two extra columns).
fn point_cache_key(s: &Scenario, load: f64, faulted: bool) -> u64 {
    let mut k = KeyDigest::new("netperf-point-cache/1");
    k.push_u64("ident", s.state_ident(load))
        .push_u64("faulted_columns", faulted as u64);
    k.finish()
}

fn encode_point(row: &PointRow) -> Vec<(String, Vec<u8>)> {
    vec![
        ("row.tsv".into(), (row.cells.join("\t") + "\n").into_bytes()),
        (
            "counters.txt".into(),
            format!(
                "{} {} {} {}\n",
                row.counters[0], row.counters[1], row.counters[2], row.counters[3]
            )
            .into_bytes(),
        ),
        ("summary.txt".into(), (row.line.clone() + "\n").into_bytes()),
    ]
}

fn decode_point(entry: &netstats::cache::CacheEntry, faulted: bool) -> PointRow {
    let text = |name: &str| -> String {
        let bytes = entry
            .artifact(name)
            .unwrap_or_else(|| fail(&format!("corrupt cache entry: missing artifact {name}")));
        String::from_utf8(bytes.to_vec()).unwrap_or_else(|_| {
            fail(&format!(
                "corrupt cache entry: artifact {name} is not UTF-8"
            ))
        })
    };
    let cells: Vec<String> = text("row.tsv")
        .trim_end_matches('\n')
        .split('\t')
        .map(str::to_string)
        .collect();
    let want = if faulted { 9 } else { 7 };
    if cells.len() != want {
        fail(&format!(
            "corrupt cache entry: expected {want} result cells, found {}",
            cells.len()
        ));
    }
    let nums: Vec<u64> = text("counters.txt")
        .split_whitespace()
        .map(|w| {
            w.parse()
                .unwrap_or_else(|_| fail(&format!("corrupt cache entry: bad counter {w}")))
        })
        .collect();
    let counters: [u64; 4] = nums.try_into().unwrap_or_else(|v: Vec<u64>| {
        fail(&format!(
            "corrupt cache entry: expected 4 counters, found {}",
            v.len()
        ))
    });
    let line = text("summary.txt").trim_end_matches('\n').to_string();
    PointRow {
        cells,
        counters,
        line,
    }
}

/// Write the four telemetry artifacts of one traced load point:
/// JSONL event log, Chrome trace, latency-decomposition CSV and
/// channel-utilization CSV. Multi-load runs tag each file with the
/// load percentage (`stem.l040.trace.jsonl`).
fn write_trace_artifacts(stem: &str, load: f64, tagged: bool, rec: &FlightRecorder) {
    let tag = if tagged {
        format!(".l{:03}", (load * 100.0).round() as u32)
    } else {
        String::new()
    };
    let write = |suffix: &str, contents: String| {
        let path = format!("{stem}{tag}{suffix}");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create trace dir");
            }
        }
        std::fs::write(&path, contents).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    };
    write(".trace.jsonl", trace::events_jsonl(rec.events()));
    write(".trace.json", trace::chrome_trace(rec));
    write(".breakdown.csv", rec.breakdown_table().to_csv());
    write(".util.csv", rec.utilization_series_table(8).to_csv());
    if let Some(sum) = rec.breakdown_summary() {
        println!(
            "load {:>5.2}: latency decomposition (mean cycles over {} packets): \
             src_queue {:.1} + routing {:.1} + blocked {:.1} + transfer {:.1} = {:.1} \
             ({:.0}% blocked)",
            load,
            sum.packets,
            sum.mean_src_queue,
            sum.mean_routing,
            sum.mean_blocked,
            sum.mean_transfer,
            sum.mean_total,
            sum.blocked_share() * 100.0,
        );
    }
}

/// Result columns; the fault columns appear only on faulted runs so
/// healthy CSV output keeps its historical shape.
fn results_table(faulted: bool) -> Table {
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
    Table::with_columns(cols)
}

fn push_outcome(
    table: &mut Table,
    load: f64,
    out: &netperf::netsim::sim::SimOutcome,
    faulted: bool,
) {
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

/// The run manifest written next to `--csv` output (same schema as the
/// bench binaries'). Untraced runs keep the historical
/// `netperf-run-manifest/1` bytes; traced runs advertise
/// `netperf-run-manifest/2` and append a `telemetry` object; faulted
/// runs advertise `netperf-run-manifest/3` and add drop accounting
/// (the scenario object then carries a `faults` description). Cached
/// runs append a trailing `cache` object (hit/miss counts); every
/// historical key keeps its bytes.
fn cli_manifest(
    req: &Request,
    wall: f64,
    sims: usize,
    [created, delivered, dropped, unroutable]: [u64; 4],
    recorders: Option<&[FlightRecorder]>,
    cache_stats: Option<(u64, u64)>,
) -> Manifest {
    let faulted = req.scenario.faults().is_some();
    let mut m = netstats::export::run_manifest_preamble(
        netstats::export::run_manifest_schema_tag(recorders.is_some(), faulted),
        "netperf-cli",
        req.csv.as_deref().unwrap_or(""),
        req.quick,
    );
    m.push(
        "loads",
        ManifestValue::List(req.loads.iter().map(|&l| ManifestValue::Num(l)).collect()),
    );
    m.push(
        "engine",
        netstats::export::engine_manifest(&netperf::netsim::engine_features()),
    );
    m.push(
        "scenarios",
        ManifestValue::List(vec![req.scenario.manifest().into()]),
    );
    m.push("wall_clock_secs", wall);
    let mut c = netstats::export::counters_manifest(sims as f64, created as f64, delivered as f64);
    if faulted {
        c.push("dropped_packets", dropped as f64);
        c.push("unroutable_packets", unroutable as f64);
    }
    m.push("counters", ManifestValue::Object(c));
    if let Some(recs) = recorders {
        let cfg = req.scenario.telemetry().unwrap_or_default();
        let mut t = Manifest::new();
        t.push("stride", cfg.stride as f64);
        t.push("record_events", cfg.record_events);
        if let Some(stem) = &req.trace {
            t.push("trace_stem", stem.as_str());
        }
        t.push(
            "runs",
            ManifestValue::List(recs.iter().map(|r| r.manifest().into()).collect()),
        );
        m.push("telemetry", t);
    }
    if let Some((hits, misses)) = cache_stats {
        let mut c = Manifest::new();
        c.push("hits", hits as f64);
        c.push("misses", misses as f64);
        m.push("cache", ManifestValue::Object(c));
    }
    m
}

fn manifest_sibling(csv_path: &str) -> String {
    match csv_path.strip_suffix(".csv") {
        Some(stem) => format!("{stem}.manifest.json"),
        None => format!("{csv_path}.manifest.json"),
    }
}

// ---------------------------------------------------------------------
// The design-space optimizer: enumerate, price, screen, simulate, rank.
// ---------------------------------------------------------------------

/// One simulated design point: the enumerated/priced point plus the
/// measured saturation throughput (feasible points only) and the final
/// rank among feasible points (1 = best).
struct RankedPoint {
    point: DesignPoint,
    measured_saturation_fraction: Option<f64>,
    measured_bits_per_ns: Option<f64>,
    rank: Option<usize>,
}

/// The scenario a design point names: the family's default
/// routing/vcs choice from the enumeration, at the given run length.
fn design_scenario(p: &DesignPoint, run_length: RunLength) -> Scenario {
    let spec = TopologySpec::parse(p.family, p.k, p.n)
        .unwrap_or_else(|| fail(&format!("design point {} names an unknown family", p.id())));
    let spec = if spec.taper() == p.taper {
        spec
    } else {
        spec.with_taper(p.taper)
            .expect("only tapered families enumerate taper > 1")
    };
    let routing = RoutingKind::parse(p.routing).expect("design points use registered routings");
    Scenario::builder()
        .topology(spec)
        .routing(routing)
        .vcs(p.vcs)
        .run_length(run_length)
        .build()
        .unwrap_or_else(|e| fail(&format!("design point {}: {e}", p.id())))
}

fn cmd_design(args: &[String]) {
    let mut nodes = 256usize;
    let mut pin_budget = 160usize;
    let mut quick = false;
    let mut out_stem = "results/design_report".to_string();
    let mut cache_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> &str {
            it.next()
                .unwrap_or_else(|| fail(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--nodes" => {
                nodes = val("--nodes")
                    .parse()
                    .ok()
                    .filter(|&v: &usize| v >= 2)
                    .unwrap_or_else(|| fail("bad --nodes (want an integer >= 2)"))
            }
            "--pin-budget" => {
                pin_budget = val("--pin-budget")
                    .parse()
                    .ok()
                    .filter(|&v: &usize| v >= 1)
                    .unwrap_or_else(|| fail("bad --pin-budget (want an integer >= 1)"))
            }
            "--out" => out_stem = val("--out").to_string(),
            "--quick" => quick = true,
            "--cache" => cache_dir = Some(val("--cache").to_string()),
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag {other}")),
        }
    }

    let budget = DesignBudget { nodes, pin_budget };
    let points = enumerate_designs(&budget);
    if points.is_empty() {
        fail(&format!(
            "no registered family has an exact {nodes}-node shape"
        ));
    }
    let feasible = points.iter().filter(|p| p.feasible).count();
    // Short sharded simulations on the feasible survivors, at offered
    // load 1.0: the ranking metric is sustained saturation throughput
    // in absolute bits/ns, the y-axis ceiling of the paper's Figure 7.
    let run_length = if quick {
        RunLength {
            warmup: 200,
            total: 1500,
        }
    } else {
        RunLength::quick()
    };
    let threads = sweep_threads();
    println!(
        "design space: {} nodes, {} data pins/router: {} candidates, {} feasible \
         (simulating each at saturation, {} cycles, {} threads)",
        nodes,
        pin_budget,
        points.len(),
        feasible,
        run_length.total,
        threads
    );

    let start = Instant::now();
    let cache = cache_dir.as_deref().map(ResultCache::open);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut ranked: Vec<RankedPoint> = points
        .into_iter()
        .map(|point| {
            if !point.feasible {
                return RankedPoint {
                    point,
                    measured_saturation_fraction: None,
                    measured_bits_per_ns: None,
                    rank: None,
                };
            }
            let s = design_scenario(&point, run_length);
            // The saturation measurement is a pure function of the
            // scenario identity at load 1.0, so it caches under the
            // same digest family as `run` rows (the accepted fraction
            // round-trips exactly through its IEEE-754 bits).
            let key = cache.as_ref().map(|_| {
                let mut k = KeyDigest::new("netperf-design-cache/1");
                k.push_u64("ident", s.state_ident(1.0));
                k.finish()
            });
            let cached = match (&cache, key) {
                (Some(c), Some(k)) => match c.lookup(k) {
                    Ok(Some(entry)) => Some(decode_design_entry(&entry, &point)),
                    Ok(None) => {
                        eprintln!(
                            "cache miss: design point {} (key 0x{k:016x}, no entry)",
                            point.id()
                        );
                        None
                    }
                    Err(e) => fail(&e.to_string()),
                },
                _ => None,
            };
            let accepted = match cached {
                Some(a) => {
                    hits += 1;
                    a
                }
                None => {
                    let shards = threads.min(point.routers).max(1);
                    let out = s
                        .try_simulate_sharded(1.0, shards, threads)
                        .unwrap_or_else(|e| fail(&format!("design point {}: {e}", point.id())));
                    if let (Some(c), Some(k)) = (&cache, key) {
                        misses += 1;
                        let artifact = format!("{:016x}\n", out.accepted_fraction.to_bits());
                        c.store(k, &[("accepted.txt".into(), artifact.into_bytes())])
                            .unwrap_or_else(|e| fail(&e.to_string()));
                    }
                    out.accepted_fraction
                }
            };
            let bits = accepted * point.capacity_bits_per_ns;
            println!(
                "  {:42} pins {:>4}  clock {:>5.2} ns  sustained {:.3} of capacity = {:>6.2} bits/ns",
                point.id(),
                point.pins_per_router,
                point.clock_ns,
                accepted,
                bits
            );
            RankedPoint {
                point,
                measured_saturation_fraction: Some(accepted),
                measured_bits_per_ns: Some(bits),
                rank: None,
            }
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    if cache.is_some() {
        println!("cache: {hits} hits, {misses} misses");
    }

    // Rank: feasible by measured throughput (descending, id as the
    // deterministic tie-break), then the infeasible points by how far
    // they overshoot the budget (the nearest misses first).
    ranked.sort_by(|a, b| {
        let key = |r: &RankedPoint| r.measured_bits_per_ns.unwrap_or(f64::NEG_INFINITY);
        key(b)
            .partial_cmp(&key(a))
            .unwrap()
            .then_with(|| a.point.pins_per_router.cmp(&b.point.pins_per_router))
            .then_with(|| a.point.id().cmp(&b.point.id()))
    });
    for (i, r) in ranked
        .iter_mut()
        .take_while(|r| r.point.feasible)
        .enumerate()
    {
        r.rank = Some(i + 1);
    }
    if let Some(best) = ranked.first().filter(|r| r.rank.is_some()) {
        println!(
            "best design: {} at {:.2} bits/ns sustained",
            best.point.id(),
            best.measured_bits_per_ns.unwrap()
        );
    } else {
        println!("no feasible design under {pin_budget} pins/router");
    }

    let csv_path = format!("{out_stem}.csv");
    netstats::write_csv(&design_table(&ranked), &csv_path).expect("write csv");
    eprintln!("wrote {csv_path}");
    let json_path = format!("{out_stem}.json");
    netstats::write_manifest(
        &design_report(&budget, quick, run_length, &ranked),
        &json_path,
    )
    .expect("write report");
    eprintln!("wrote {json_path}");
    let mpath = manifest_sibling(&csv_path);
    let cache_stats = cache.is_some().then_some((hits, misses));
    netstats::write_manifest(
        &design_manifest(
            &budget,
            quick,
            run_length,
            threads,
            wall,
            &ranked,
            cache_stats,
        ),
        &mpath,
    )
    .expect("write manifest");
    eprintln!("wrote {mpath}");
}

/// Decode one design-cache entry: the saturation accepted fraction,
/// stored as its exact IEEE-754 bit pattern in hex. Corruption is a
/// hard error, matching the run-cache contract.
fn decode_design_entry(entry: &netstats::cache::CacheEntry, point: &DesignPoint) -> f64 {
    let bytes = entry.artifact("accepted.txt").unwrap_or_else(|| {
        fail(&format!(
            "corrupt cache entry: design point {} is missing artifact accepted.txt",
            point.id()
        ))
    });
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|t| u64::from_str_radix(t.trim(), 16).ok())
        .map(f64::from_bits)
        .unwrap_or_else(|| {
            fail(&format!(
                "corrupt cache entry: design point {} has a malformed accepted.txt",
                point.id()
            ))
        })
}

fn opt_num(v: Option<f64>) -> Cell {
    v.map_or(Cell::Text(String::new()), Cell::Num)
}

fn design_table(ranked: &[RankedPoint]) -> Table {
    let mut table = Table::with_columns([
        "rank",
        "id",
        "family",
        "k",
        "n",
        "taper",
        "vcs",
        "routing",
        "routers",
        "ports_per_router",
        "flit_bytes",
        "pins_per_router",
        "feasible",
        "bisection_links",
        "capacity_flits_per_cycle",
        "clock_ns",
        "clock_bottleneck",
        "capacity_bits_per_ns",
        "analytic_saturation_fraction",
        "predicted_bits_per_ns",
        "measured_saturation_fraction",
        "measured_bits_per_ns",
    ]);
    for r in ranked {
        let p = &r.point;
        table.push_row(vec![
            opt_num(r.rank.map(|x| x as f64)),
            Cell::Text(p.id()),
            Cell::Text(p.family.to_string()),
            Cell::Num(p.k as f64),
            Cell::Num(p.n as f64),
            Cell::Num(p.taper as f64),
            Cell::Num(p.vcs as f64),
            Cell::Text(p.routing.to_string()),
            Cell::Num(p.routers as f64),
            Cell::Num(p.ports_per_router as f64),
            Cell::Num(p.flit_bytes as f64),
            Cell::Num(p.pins_per_router as f64),
            Cell::Num(p.feasible as u8 as f64),
            Cell::Num(p.bisection_links as f64),
            Cell::Num(p.capacity_flits_per_cycle),
            Cell::Num(p.clock_ns),
            Cell::Text(p.clock_bottleneck.to_string()),
            Cell::Num(p.capacity_bits_per_ns),
            opt_num(p.analytic_saturation_fraction),
            opt_num(p.predicted_bits_per_ns),
            opt_num(r.measured_saturation_fraction),
            opt_num(r.measured_bits_per_ns),
        ]);
    }
    table
}

fn point_manifest(r: &RankedPoint) -> Manifest {
    let p = &r.point;
    let mut m = Manifest::new();
    if let Some(rank) = r.rank {
        m.push("rank", rank as f64);
    }
    m.push("id", p.id());
    m.push("family", p.family);
    m.push("k", p.k as f64);
    m.push("n", p.n as f64);
    m.push("taper", p.taper as f64);
    m.push("vcs", p.vcs as f64);
    m.push("routing", p.routing);
    m.push("routers", p.routers as f64);
    m.push("ports_per_router", p.ports_per_router as f64);
    m.push("flit_bytes", p.flit_bytes as f64);
    m.push("pins_per_router", p.pins_per_router as f64);
    m.push("feasible", p.feasible);
    m.push("bisection_links", p.bisection_links as f64);
    m.push("capacity_flits_per_cycle", p.capacity_flits_per_cycle);
    m.push("clock_ns", p.clock_ns);
    m.push("clock_bottleneck", p.clock_bottleneck);
    m.push("capacity_bits_per_ns", p.capacity_bits_per_ns);
    if let Some(f) = p.analytic_saturation_fraction {
        m.push("analytic_saturation_fraction", f);
        m.push("predicted_bits_per_ns", p.predicted_bits_per_ns.unwrap());
    }
    if let Some(f) = r.measured_saturation_fraction {
        m.push("measured_saturation_fraction", f);
        m.push("measured_bits_per_ns", r.measured_bits_per_ns.unwrap());
    }
    m
}

/// The machine-readable report (`design_report.json`), validated by
/// `scripts/design_report.schema.json` in the verify pipeline.
fn design_report(
    budget: &DesignBudget,
    quick: bool,
    run_length: RunLength,
    ranked: &[RankedPoint],
) -> Manifest {
    let mut m = Manifest::new();
    m.push("schema", "netperf-design-report/1");
    m.push("generator", "netperf-cli");
    let mut b = Manifest::new();
    b.push("nodes", budget.nodes as f64);
    b.push("pin_budget", budget.pin_budget as f64);
    m.push("budget", b);
    m.push("quick", quick);
    let mut rl = Manifest::new();
    rl.push("warmup", run_length.warmup as f64);
    rl.push("total", run_length.total as f64);
    m.push("run_length", rl);
    m.push("offered_fraction", 1.0);
    m.push("candidates", ranked.len() as f64);
    m.push(
        "feasible",
        ranked.iter().filter(|r| r.point.feasible).count() as f64,
    );
    m.push(
        "points",
        ManifestValue::List(ranked.iter().map(|r| point_manifest(r).into()).collect()),
    );
    m
}

/// The provenance manifest sibling (`design_report.manifest.json`).
fn design_manifest(
    budget: &DesignBudget,
    quick: bool,
    run_length: RunLength,
    threads: usize,
    wall: f64,
    ranked: &[RankedPoint],
    cache_stats: Option<(u64, u64)>,
) -> Manifest {
    let mut m = Manifest::new();
    m.push("schema", "netperf-design-manifest/1");
    m.push("generator", "netperf-cli");
    m.push("artifact", "design_report");
    let mut b = Manifest::new();
    b.push("nodes", budget.nodes as f64);
    b.push("pin_budget", budget.pin_budget as f64);
    m.push("budget", b);
    m.push("quick", quick);
    let mut rl = Manifest::new();
    rl.push("warmup", run_length.warmup as f64);
    rl.push("total", run_length.total as f64);
    m.push("run_length", rl);
    m.push("threads", threads as f64);
    m.push(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |p| p.get() as f64),
    );
    m.push(
        "engine",
        netstats::export::engine_manifest(&netperf::netsim::engine_features()),
    );
    m.push("wall_clock_secs", wall);
    let mut c = Manifest::new();
    c.push("candidates", ranked.len() as f64);
    c.push(
        "feasible",
        ranked.iter().filter(|r| r.point.feasible).count() as f64,
    );
    c.push(
        "simulated",
        ranked
            .iter()
            .filter(|r| r.measured_bits_per_ns.is_some())
            .count() as f64,
    );
    m.push("counters", ManifestValue::Object(c));
    if let Some((hits, misses)) = cache_stats {
        let mut cc = Manifest::new();
        cc.push("hits", hits as f64);
        cc.push("misses", misses as f64);
        m.push("cache", ManifestValue::Object(cc));
    }
    m
}

// ---------------------------------------------------------------------
// The historical flags-first CLI, now a thin veneer over the builder.
// ---------------------------------------------------------------------

fn legacy(args: &[String]) {
    let mut it = args.iter();
    let mut family = "cube".to_string();
    let (mut k, mut n) = (16usize, 2usize);
    let mut algo = "duato".to_string();
    let mut vcs = 4usize;
    let mut taper: Option<usize> = None;
    let mut pattern = Pattern::Uniform;
    let mut load = 0.5f64;
    let mut sweep: Option<Vec<f64>> = None;
    let (mut cycles, mut warmup) = (20_000u32, 2_000u32);
    let mut seed = 0x5EEDu64;
    let mut buffer = 4usize;
    let mut packet_bytes = 64usize;
    let mut csv: Option<String> = None;

    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> &str {
            it.next()
                .unwrap_or_else(|| fail(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--topology" => family = val("--topology").to_string(),
            "--k" => k = val("--k").parse().unwrap_or_else(|_| fail("bad --k")),
            "--n" => n = val("--n").parse().unwrap_or_else(|_| fail("bad --n")),
            "--algo" => algo = val("--algo").to_string(),
            "--vcs" => vcs = val("--vcs").parse().unwrap_or_else(|_| fail("bad --vcs")),
            "--taper" => {
                taper = Some(
                    val("--taper")
                        .parse()
                        .ok()
                        .filter(|t| *t >= 1)
                        .unwrap_or_else(|| fail("bad --taper (want an integer >= 1)")),
                )
            }
            "--pattern" => {
                let p = val("--pattern");
                pattern =
                    Pattern::parse(p).unwrap_or_else(|| fail(&format!("unknown pattern {p}")));
            }
            "--load" => {
                load = parse_load(val("--load"))
                    .unwrap_or_else(|| fail("bad --load (want an offered load in [0, 1])"))
            }
            "--sweep" => {
                let g = val("--sweep");
                sweep =
                    Some(parse_grid(g).unwrap_or_else(|| {
                        fail("bad --sweep (want a:b:step with loads in [0, 1])")
                    }));
            }
            "--cycles" => {
                cycles = val("--cycles")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --cycles"))
            }
            "--warmup" => {
                warmup = val("--warmup")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --warmup"))
            }
            "--seed" => seed = parse_u64(val("--seed")).unwrap_or_else(|| fail("bad --seed")),
            "--buffer" => {
                buffer = val("--buffer")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --buffer"))
            }
            "--packet-bytes" => {
                packet_bytes = val("--packet-bytes")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --packet-bytes"))
            }
            "--csv" => csv = Some(val("--csv").to_string()),
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag {other}")),
        }
    }

    // The historical CLI accepted `mesh + duato` as a synonym for the
    // adaptive mesh router and silently raised the VC count to its
    // 2-lane minimum.
    let routing = match (family.as_str(), algo.as_str()) {
        ("mesh", "duato") => RoutingKind::Adaptive,
        _ => RoutingKind::parse(&algo)
            .unwrap_or_else(|| fail(&format!("unknown algorithm {algo} (det|duato|adaptive)"))),
    };
    if family == "mesh" && routing == RoutingKind::Adaptive {
        vcs = vcs.max(2);
    }
    let mut topology = TopologySpec::parse(&family, k, n)
        .unwrap_or_else(|| fail(&format!("unknown topology {family} ({})", family_slugs())));
    if let Some(t) = taper {
        topology = topology.with_taper(t).unwrap_or_else(|| {
            fail(&format!(
                "--taper applies to tapered trees, not the {family}"
            ))
        });
    }
    let scenario = ScenarioBuilder::new()
        .topology(topology)
        .routing(routing)
        .vcs(vcs)
        .pattern(pattern)
        .run_length(RunLength {
            warmup,
            total: cycles,
        })
        .seed(SeedMode::Fixed(seed))
        .buffer_depth(buffer)
        .packet_bytes(packet_bytes)
        .throttle(Throttle::Off)
        .build()
        .unwrap_or_else(|e| fail(&e.to_string()));

    let norm = scenario.normalization();
    let algo_obj = scenario.build_algorithm();
    println!(
        "{} | {} | {} | {} flits/packet | capacity {:.3} flits/node/cycle",
        algo_obj.topology().label(),
        algo_obj.name(),
        pattern.name(),
        (packet_bytes / norm.flit_bytes()).max(1),
        norm.capacity_flits_per_cycle(),
    );

    let loads = sweep.unwrap_or_else(|| vec![load]);
    let mut table = results_table(false);
    for &l in &loads {
        let out = scenario.simulate(l);
        println!(
            "load {:>5.2}: accepted {:>6.3} of capacity, latency {:>7.1} cycles (p99 {:>6.0}), {} packets",
            l,
            out.accepted_fraction,
            out.mean_latency_cycles(),
            out.latency_hist.quantile(0.99).unwrap_or(f64::NAN),
            out.delivered_packets
        );
        push_outcome(&mut table, l, &out, false);
    }
    if let Some(path) = &csv {
        netstats::write_csv(&table, path).expect("write csv");
        eprintln!("wrote {path}");
    }
}

// ---------------------------------------------------------------------
// The serving plane: `netperf serve` (request loop) and
// `netperf snapshot` (checkpoint inspector).
// ---------------------------------------------------------------------

/// One parsed serve request: the op, an optional id echoed back in the
/// response, and the CLI argv the op expands to.
struct ServeRequest {
    id: Option<String>,
    argv: Vec<String>,
}

/// Parse one flat JSON object (string/number/bool values only — the
/// request language is deliberately a flat map of CLI flags). Returns
/// an error string for anything malformed; the server answers with an
/// error response and keeps going.
fn parse_serve_request(line: &str) -> Result<ServeRequest, String> {
    let fields = parse_flat_json(line)?;
    let mut op = None;
    let mut name = None;
    let mut id = None;
    let mut flags: Vec<(String, String)> = Vec::new();
    for (k, v) in fields {
        match k.as_str() {
            "op" => op = Some(v),
            "name" => name = Some(v),
            "id" => id = Some(v),
            _ => flags.push((k, v)),
        }
    }
    let op = op.ok_or_else(|| "request has no \"op\" field".to_string())?;
    match op.as_str() {
        "run" | "sweep" | "design" => {}
        other => return Err(format!("unknown op {other:?} (run|sweep|design)")),
    }
    let mut argv = vec![op];
    if let Some(n) = name {
        argv.push(n);
    }
    for (k, v) in flags {
        argv.push(format!("--{k}"));
        // A bare boolean flag (--quick) is spelled "flag": "true".
        if v != "true" {
            argv.push(v);
        }
    }
    Ok(ServeRequest { id, argv })
}

/// A minimal flat-JSON-object parser: `{"key": value, ...}` where each
/// value is a string (with \" \\ \/ \n \t \r escapes), a number, or
/// true/false. Nested objects and arrays are rejected — the request
/// language is flat by design.
fn parse_flat_json(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected a string".to_string());
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(s),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('/') => s.push('/'),
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('r') => s.push('\r'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    },
                    Some(c) => s.push(c),
                    None => return Err("unterminated string".to_string()),
                }
            }
        };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("request must be a JSON object".to_string());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("missing ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => parse_string(&mut chars)?,
            Some('{') | Some('[') => {
                return Err(format!("key {key:?}: nested values are not supported"));
            }
            _ => {
                // Bare token: number / true / false / null.
                let mut t = String::new();
                while chars
                    .peek()
                    .is_some_and(|&c| !c.is_whitespace() && c != ',' && c != '}')
                {
                    t.push(chars.next().unwrap());
                }
                if t.is_empty() || t == "null" {
                    return Err(format!("key {key:?} has no usable value"));
                }
                t
            }
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    Ok(fields)
}

/// Escape a string into a JSON literal (quotes included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Execute one request as a child `netperf` process (so the one-line
/// exit-2 error contract applies unchanged, and `NETPERF_THREADS` farms
/// each miss across the worker pool) and render the JSON response line.
fn serve_one(line: &str, default_cache: Option<&str>) -> String {
    let parsed = match parse_serve_request(line) {
        Ok(r) => r,
        Err(e) => {
            return format!(
                "{{\"status\": \"error\", \"exit_code\": 2, \"error\": {}}}",
                json_escape(&format!("bad request: {e}"))
            );
        }
    };
    let mut argv = parsed.argv;
    // Requests inherit the server's result cache unless they name
    // their own, or ask for something --cache excludes (tracing,
    // checkpointing).
    if let Some(dir) = default_cache {
        let excluded = [
            "--cache",
            "--trace",
            "--probe",
            "--checkpoint-every",
            "--resume",
        ];
        if !argv.iter().any(|a| excluded.contains(&a.as_str())) {
            argv.push("--cache".to_string());
            argv.push(dir.to_string());
        }
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let out = std::process::Command::new(exe)
        .args(&argv)
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn worker: {e}")));
    let id_field = parsed
        .id
        .map(|id| format!("\"id\": {}, ", json_escape(&id)))
        .unwrap_or_default();
    if out.status.success() {
        format!("{{{id_field}\"status\": \"ok\", \"exit_code\": 0}}")
    } else {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr
            .lines()
            .find(|l| l.starts_with("error:"))
            .or_else(|| stderr.lines().next())
            .unwrap_or("worker failed");
        format!(
            "{{{id_field}\"status\": \"error\", \"exit_code\": {}, \"error\": {}}}",
            out.status.code().unwrap_or(-1),
            json_escape(first)
        )
    }
}

fn cmd_serve(args: &[String]) {
    let mut spool: Option<String> = None;
    let mut once = false;
    let mut cache: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> &str {
            it.next()
                .unwrap_or_else(|| fail(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--spool" => spool = Some(val("--spool").to_string()),
            "--cache" => cache = Some(val("--cache").to_string()),
            "--once" => once = true,
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if once && spool.is_none() {
        fail("--once applies to --spool mode");
    }

    match spool {
        None => serve_stdin(cache.as_deref()),
        Some(dir) => serve_spool(&dir, once, cache.as_deref()),
    }
}

/// Stdin mode: one flat JSON request per line, one JSON response per
/// line on stdout, until EOF. Blank lines are skipped.
fn serve_stdin(cache: Option<&str>) {
    use std::io::BufRead;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("read stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        println!("{}", serve_one(&line, cache));
    }
}

/// Spool mode: poll `dir` for `*.json` request files (lexicographic
/// order, so zero-padded names form a queue), answer each with a
/// sibling `<stem>.resp.json`, and rename the request to `<stem>.done`
/// so it is serviced exactly once. `--once` drains the spool and exits.
fn serve_spool(dir: &str, once: bool, cache: Option<&str>) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("create spool {dir}: {e}")));
    eprintln!(
        "serving spool {dir} ({}; cache: {})",
        if once { "drain once" } else { "watching" },
        cache.unwrap_or("none"),
    );
    loop {
        let mut requests: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| fail(&format!("read spool {dir}: {e}")))
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter(|p| {
                !p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".resp.json"))
            })
            .collect();
        requests.sort();
        for path in &requests {
            let line = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("skip {}: {e}", path.display());
                    continue;
                }
            };
            let response = serve_one(&line, cache);
            let stem = path.with_extension("");
            let resp_path = format!("{}.resp.json", stem.display());
            std::fs::write(&resp_path, response + "\n")
                .unwrap_or_else(|e| fail(&format!("write {resp_path}: {e}")));
            let done_path = format!("{}.done", stem.display());
            std::fs::rename(path, &done_path).unwrap_or_else(|e| {
                fail(&format!("rename {} -> {done_path}: {e}", path.display()))
            });
            eprintln!("served {} -> {resp_path}", path.display());
        }
        if once {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// `netperf snapshot [--json] <file>` — describe a checkpoint without
/// running anything: format, version, identity digest, cycle,
/// measurement progress and state hash. Works on both the run-level
/// `NPCK` envelope and a bare engine-level `NPSN` snapshot. `--json`
/// prints one `netperf-snapshot-info/1` object instead
/// (schema-checked by `scripts/snapshot.schema.json` in verify.sh).
fn cmd_snapshot(args: &[String]) {
    let (json, path) = match args {
        [p] if !p.starts_with("--") => (false, p),
        [j, p] if j == "--json" && !p.starts_with("--") => (true, p),
        _ => fail("usage: netperf snapshot [--json] <file>"),
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let is_run = bytes.len() >= 4 && bytes[..4] == netperf::netsim::sim::RUN_SNAPSHOT_MAGIC;
    if is_run {
        let snap = RunSnapshot::from_bytes(&bytes).unwrap_or_else(|e| fail(&e.to_string()));
        if json {
            println!(
                "{{\"schema\": \"netperf-snapshot-info/1\", \"format\": \"NPCK\", \
                 \"version\": {}, \"ident\": \"0x{:016x}\", \"cycle\": {}, \
                 \"warmed_up\": {}, \"batches_recorded\": {}, \"state_hash\": \"0x{:016x}\"}}",
                netperf::netsim::sim::RUN_SNAPSHOT_VERSION,
                snap.ident(),
                snap.cycle(),
                snap.past_warmup(),
                snap.batches_recorded(),
                snap.state_hash(),
            );
        } else {
            println!(
                "format:      run checkpoint (NPCK v{})",
                netperf::netsim::sim::RUN_SNAPSHOT_VERSION
            );
            println!("ident:       0x{:016x}", snap.ident());
            println!("cycle:       {}", snap.cycle());
            println!("warmed up:   {}", snap.past_warmup());
            println!("batches:     {}", snap.batches_recorded());
            println!("state hash:  0x{:016x}", snap.state_hash());
        }
    } else {
        let snap = EngineSnapshot::from_bytes(bytes).unwrap_or_else(|e| fail(&e.to_string()));
        if json {
            println!(
                "{{\"schema\": \"netperf-snapshot-info/1\", \"format\": \"NPSN\", \
                 \"version\": {}, \"ident\": \"0x{:016x}\", \"cycle\": {}, \
                 \"state_hash\": \"0x{:016x}\"}}",
                snap.version(),
                snap.ident(),
                snap.cycle(),
                snap.state_hash(),
            );
        } else {
            println!("format:      engine snapshot (NPSN v{})", snap.version());
            println!("ident:       0x{:016x}", snap.ident());
            println!("cycle:       {}", snap.cycle());
            println!("state hash:  0x{:016x}", snap.state_hash());
        }
    }
}
