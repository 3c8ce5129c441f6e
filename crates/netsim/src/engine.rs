//! The cycle-driven wormhole engine.
//!
//! Each simulated clock executes four phases, in an order chosen so that
//! a flit advances at most one pipeline stage per cycle (additionally
//! enforced by the per-flit `moved` stamp):
//!
//! 1. **Link** — for every physical channel direction a fair round-robin
//!    arbiter picks one output lane with a ready flit and a credit and
//!    moves the flit into the peer's input lane (`T_link`). Ejection
//!    channels (router → node) work the same way but sink into the node,
//!    and injection channels (node → router) drain the node-side lanes.
//! 2. **Crossbar** — every input lane whose head-of-line packet owns a
//!    crossbar path forwards one flit to its output lane if space allows
//!    (`T_crossbar`); an acknowledgment immediately restores one credit
//!    upstream. A tail flit tears the path down.
//! 3. **Routing** — at most one header per router is routed per cycle
//!    (`T_routing`): the routing function produces the admissible lanes
//!    and the selection policy picks the least-loaded link (most free
//!    virtual channels, fair random tie-break), falling back to the
//!    escape class only when no preferred lane is allocatable.
//! 4. **Injection** — each node runs its packet-creation process, starts
//!    at most one packet at a time into the single injection channel
//!    (source throttling) and streams one flit per cycle into the chosen
//!    injection lane.
//!
//! # State layout: lane banks, worklists and lane masks
//!
//! The engine's resident state is one set of struct-of-arrays lane
//! banks ([`soa::SoaBanks`]): every lane queue, credit counter, route
//! and occupancy mask lives in a flat array indexed by router (or node)
//! and lane. The per-cycle cost is proportional to *active* work, not
//! to network size:
//!
//! * **Per-phase worklists** ([`crate::active::ActiveSet`]): the link,
//!   crossbar and routing phases each walk a bitset of only the routers
//!   that can possibly act this cycle. A router enters a worklist when
//!   the enabling event occurs (a flit buffered on an output lane, an
//!   input lane with an assigned crossbar path, an unrouted header) and
//!   leaves when it drains, so idle routers cost exactly zero. The
//!   injection-link loop keeps the analogous worklist over nodes.
//! * **Occupancy lane masks**: `pending` (unrouted header at the
//!   front), `out_bound` (crossbar path ends here), `in_occ`/`out_occ`
//!   (non-empty input/output lanes) and `routed` (lanes with an assigned
//!   output). Phase inner loops walk set bits with `trailing_zeros`
//!   instead of inspecting every `port × vc` lane.
//! * **Monomorphized routing dispatch**: [`Engine`] is generic over the
//!   routing algorithm (defaulting to `dyn RoutingAlgorithm`, so the
//!   boxed API keeps working); constructing it with a concrete algorithm
//!   type lets the per-header `route` call inline into the routing phase.
//!
//! # Steppers
//!
//! Every stepper is *observably equivalent*: the same counters, packet
//! tables, shared selection-RNG consumption order and probe event
//! streams. `tests/engine_equivalence.rs` and the unit tests assert it.
//!
//! * **Default** ([`Engine::step`], module [`soa`]): the worklist-driven
//!   mask scans over the banks.
//! * **Reference** ([`Engine::step_reference`], behind the
//!   `reference-engine` feature): the same per-lane handlers with every
//!   mask-based early-out compiled away, visiting every router, node,
//!   port and lane in the same order — the independent oracle.
//! * **Wheel** ([`Engine::step_wheel`], module [`wheel`]): indexes future
//!   injection-process firings by cycle in a calendar queue, so an idle
//!   network fast-forwards over cycles whose wheel slot is empty.
//! * **Sharded** ([`Engine::run_sharded`], module [`shard`]): domain
//!   decomposition across worker threads. A sharded segment moves the
//!   lane state out of the banks when it starts (per-router structs
//!   for routes, credits and masks; per-shard views of the queues) and
//!   folds it back when it ends.
//!
//! The wheel's scanned-ahead injection state is carried in an `Option`
//! side structure; entry points that need the canonical per-node
//! streams (the other steppers, snapshots) replay it away first, so the
//! steppers interleave freely.
//!
//! A watchdog panics if flits are in flight but nothing has moved for
//! a long time — with the deadlock-free routing functions of the
//! `routing` crate this must never fire, and the integration tests rely
//! on it as a runtime deadlock detector.
#![deny(missing_docs)]

pub mod shard;
pub mod snapshot;
pub mod soa;
pub mod wheel;

use crate::active::ActiveSet;
use crate::fault::{FaultModel, LinkFlip, NoFaults};
use crate::flit::{PacketRec, NEVER};
use crate::wiring::{Peer, Wiring};
use routing::{CandidateSet, RoutingAlgorithm};
use soa::SoaBanks;
use std::collections::VecDeque;
use telemetry::{NullProbe, Probe};
use traffic::{InjectionProcess, Rng64, TrafficGen};

/// Sentinel for "no route assigned".
const NO_ROUTE: u32 = u32::MAX;

/// Sentinel route for a lane whose head-of-line packet was declared
/// undeliverable by the fault plane: the crossbar phase drains such a
/// lane (one flit per cycle, credits returned upstream) instead of
/// forwarding it. Distinct from `NO_ROUTE`, so the `routed` mask
/// invariant (`routed` bit ⟺ `in_route[l] != NO_ROUTE`) still holds.
const DROP_ROUTE: u32 = u32::MAX - 1;

/// How many consecutive all-idle cycles (with flits in flight) before
/// the watchdog declares a deadlock. Generous: a legal configuration can
/// stall for at most a few round-trips of credit propagation.
const WATCHDOG_CYCLES: u32 = 50_000;

/// Most lanes (`ports × vcs`) one router can have: the per-router lane
/// masks are one `u64` each.
pub const MAX_LANES_PER_ROUTER: usize = 64;

/// Per-node injection state (the node's lanes live in the banks).
struct NodeState {
    /// Unbounded source queue of created packets (ids).
    src_queue: VecDeque<u32>,
    /// Packet currently streaming into the network: (id, flits left).
    active: Option<(u32, u16)>,
    /// Injection lane of the active packet.
    active_lane: u8,
    /// Per-node random stream (destinations + injection process).
    rng: Rng64,
    /// Packet creation process.
    proc: Box<dyn InjectionProcess>,
}

/// Aggregate counters updated as the simulation runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total flits delivered to nodes.
    pub delivered_flits: u64,
    /// Total packets delivered (tail received).
    pub delivered_packets: u64,
    /// Total packets created at the sources.
    pub created_packets: u64,
    /// Flits currently inside the network (injection lanes included).
    pub in_flight_flits: u64,
    /// Total headers routed.
    pub routed_headers: u64,
    /// Routing attempts that found no available lane.
    pub routing_blocked: u64,
    /// Headers that had to take an escape (fallback) lane.
    pub escape_routings: u64,
    /// Total flit movements executed (link + crossbar + injection
    /// pushes) — the engine-throughput unit of the benchmark harness.
    pub flit_moves: u64,
    /// Packets abandoned in-network by the fault plane (every
    /// admissible direction permanently dead); their flits are drained.
    pub dropped_packets: u64,
    /// Flits drained from dropped packets.
    pub dropped_flits: u64,
    /// Packets abandoned at the source because their source or
    /// destination node is dead (never injected).
    pub unroutable_packets: u64,
}

/// The flit-level simulation engine for one network + routing algorithm.
///
/// Generic over the routing algorithm so concrete instantiations
/// (`Engine<'_, CubeDuato>` etc.) inline the per-header route call; the
/// default parameter keeps the historical boxed form `Engine<'_>`
/// (= `Engine<'_, dyn RoutingAlgorithm>`) source-compatible.
///
/// Also generic over the telemetry [`Probe`] observing the run. The
/// default [`NullProbe`] monomorphizes every observation call to an
/// inlined empty body, so an untraced engine compiles to the same hot
/// path as before the telemetry plane existed (pinned by
/// `bench_engine`); [`Engine::with_probe`] attaches a recording probe
/// such as `telemetry::FlightRecorder`.
///
/// Finally, generic over the [`FaultModel`] degrading the network. The
/// default [`NoFaults`] has `ACTIVE = false`, so every fault check
/// (each written `F::ACTIVE && …`) constant-folds away and the healthy
/// engine is the pre-fault-plane code, bit for bit;
/// [`Engine::with_probe_and_faults`] attaches a compiled
/// [`crate::fault::FaultState`].
pub struct Engine<
    'a,
    A: RoutingAlgorithm + ?Sized = dyn RoutingAlgorithm,
    P: Probe = NullProbe,
    F: FaultModel = NoFaults,
> {
    algo: &'a A,
    w: Wiring,
    vcs: usize,
    lanes_per_router: usize,
    flits_per_packet: u16,
    pattern: TrafficGen,
    /// Every lane, credit, route and mask (see [`soa`]). Empty only
    /// while a sharded segment has the lanes mounted elsewhere.
    banks: SoaBanks,
    nodes: Vec<NodeState>,
    packets: Vec<PacketRec>,
    cycle: u32,
    idle_cycles: u32,
    moves_this_cycle: u64,
    counters: Counters,
    cand: CandidateSet,
    rng: Rng64,
    /// Limited injection (source throttling, after Petrini & Vanneschi's
    /// Supercomputing'96 scheme referenced by the paper): a node may
    /// start a new packet only while fewer than this many network output
    /// lanes of its local router are allocated to packets. `None`
    /// disables the throttle.
    injection_limit: Option<u32>,
    /// Request-reply mode: every delivered request causes the receiving
    /// node to enqueue a same-size reply to the sender (models the
    /// shared-memory read traffic of the machines in the paper's
    /// introduction). Replies are not answered again.
    request_reply: bool,
    /// Flits transmitted per directed channel (`router * ports + port`),
    /// for spatial congestion analysis. Ejection channels included;
    /// injection channels are tracked per node separately.
    link_flits: Vec<u64>,
    /// Routers with at least one non-empty output lane (`out_occ != 0`).
    link_work: ActiveSet,
    /// Routers with a forwardable input lane (`in_occ & routed != 0`).
    xbar_work: ActiveSet,
    /// Routers with an unrouted header (`pending != 0`).
    route_work: ActiveSet,
    /// Nodes with a non-empty injection lane (`lane_occ != 0`).
    inject_work: ActiveSet,
    /// Requests delivered this cycle awaiting reply creation
    /// (request-reply mode); drained at the end of the link phase.
    reply_buf: Vec<u32>,
    /// Telemetry observer ([`NullProbe`] = zero-cost no-op).
    probe: P,
    /// Fault model ([`NoFaults`] = zero-cost no-op).
    faults: F,
    /// Scratch buffer for per-cycle fault transitions (reused).
    fault_flips: Vec<LinkFlip>,
    /// Stall captured by the watchdog when `report_stall` is set
    /// (instead of panicking).
    stall: Option<Stall>,
    /// Report watchdog trips through [`Engine::stall`] rather than
    /// panicking (set by [`Engine::run_checked`]).
    report_stall: bool,
    /// Event-wheel injection scheduler, mounted while the engine runs
    /// in wheel mode (see [`wheel`]). [`Engine::leave_wheel`] replays
    /// it away.
    wheel: Option<Box<wheel::WheelState>>,
}

/// A watchdog trip, reported by [`Engine::run_checked`]: flits were in
/// flight but nothing moved for the watchdog horizon — the network is
/// deadlocked (or a fault configuration wedged it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// Cycle at which the watchdog gave up.
    pub cycle: u32,
    /// Flits stuck in the network.
    pub in_flight_flits: u64,
    /// Consecutive cycles without a single flit movement.
    pub idle_cycles: u32,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock watchdog: {} flits in flight, nothing moved for {} cycles (cycle {})",
            self.in_flight_flits, self.idle_cycles, self.cycle
        )
    }
}

/// Fault-plane dead-end detection at routing time: whether a header
/// offered `cand` at router `r` can never be routed to completion.
///
/// * With a non-empty fallback (escape) class — the algorithms whose
///   deadlock freedom rests on the escape network — the packet is
///   unroutable as soon as **every escape direction is permanently
///   dead**: routing on only adaptive lanes would void the
///   deadlock-freedom argument, so escape-channel loss is reported as a
///   structured drop rather than risked as a hang.
/// * Without a fallback class (fat-tree ascent/descent, where every
///   candidate class is safe), the packet is unroutable only when every
///   candidate direction is dead.
///
/// Transiently-down channels never make a packet unroutable; they only
/// block it until the repair.
fn fault_unroutable<F: FaultModel>(faults: &F, r: usize, cand: &CandidateSet) -> bool {
    let dead = |c: &routing::Candidate| faults.channel_dead(r, c.port as usize);
    if !cand.fallback.is_empty() {
        cand.fallback.iter().all(dead)
    } else {
        cand.preferred.iter().all(dead)
    }
}

impl<'a, A: RoutingAlgorithm + ?Sized> Engine<'a, A> {
    /// Build an engine.
    ///
    /// * `buf` — lane depth in flits (4 in the paper).
    /// * `flits_per_packet` — 16 (cube) or 32 (tree) for 64-byte packets.
    /// * `pattern` — destination pattern bound to this network size.
    /// * `make_proc` — factory for the per-node packet creation process.
    /// * `seed` — master seed; every node derives an independent stream.
    pub fn new(
        algo: &'a A,
        buf: usize,
        flits_per_packet: u16,
        pattern: TrafficGen,
        make_proc: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
    ) -> Self {
        Engine::with_probe(
            algo,
            buf,
            flits_per_packet,
            pattern,
            make_proc,
            seed,
            NullProbe,
        )
    }
}

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe> Engine<'a, A, P> {
    /// Build an engine observed by `probe` (see [`Engine::new`] for the
    /// other parameters). The engine is monomorphized over the probe
    /// type; retrieve a recording probe afterwards with
    /// [`Engine::into_probe`].
    pub fn with_probe(
        algo: &'a A,
        buf: usize,
        flits_per_packet: u16,
        pattern: TrafficGen,
        make_proc: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
        probe: P,
    ) -> Self {
        Engine::with_probe_and_faults(
            algo,
            buf,
            flits_per_packet,
            pattern,
            make_proc,
            seed,
            probe,
            NoFaults,
        )
    }
}

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'a, A, P, F> {
    /// Build an engine observed by `probe` and degraded by `faults`
    /// (see [`Engine::new`] for the other parameters). Pass a compiled
    /// [`crate::fault::FaultState`]; the [`NoFaults`] default of the
    /// other constructors compiles every fault check out.
    ///
    /// # Panics
    /// Panics if a router would have more than
    /// [`MAX_LANES_PER_ROUTER`] lanes, if `buf` is outside
    /// `1..=`[`crate::queue::MAX_DEPTH`], or if the pattern is bound to
    /// a different network size (the scenario layer rejects all three
    /// before building an engine).
    #[allow(clippy::too_many_arguments)]
    pub fn with_probe_and_faults(
        algo: &'a A,
        buf: usize,
        flits_per_packet: u16,
        pattern: TrafficGen,
        make_proc: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
        probe: P,
        faults: F,
    ) -> Self {
        let w = Wiring::from_topology(algo.topology());
        let vcs = algo.num_vcs();
        let lanes = w.ports * vcs;
        assert!(
            lanes <= MAX_LANES_PER_ROUTER,
            "{lanes} lanes per router exceed the {MAX_LANES_PER_ROUTER}-lane mask"
        );
        assert_eq!(
            pattern.num_nodes(),
            w.num_nodes,
            "pattern bound to wrong network size"
        );
        assert!(flits_per_packet >= 1);

        let master = Rng64::seed_from(seed);
        let nodes = (0..w.num_nodes)
            .map(|n| NodeState {
                src_queue: VecDeque::new(),
                active: None,
                active_lane: 0,
                rng: master.derive(n as u64 + 1),
                proc: make_proc(n),
            })
            .collect();
        let banks = SoaBanks::new(&w, vcs, buf);

        let num_channels = w.num_routers * w.ports;
        let num_routers = w.num_routers;
        let num_nodes = w.num_nodes;
        Engine {
            algo,
            w,
            vcs,
            lanes_per_router: lanes,
            flits_per_packet,
            pattern,
            banks,
            nodes,
            packets: Vec::new(),
            cycle: 0,
            idle_cycles: 0,
            moves_this_cycle: 0,
            counters: Counters::default(),
            cand: CandidateSet::default(),
            rng: master.derive(0),
            injection_limit: None,
            request_reply: false,
            link_flits: vec![0; num_channels],
            link_work: ActiveSet::new(num_routers),
            xbar_work: ActiveSet::new(num_routers),
            route_work: ActiveSet::new(num_routers),
            inject_work: ActiveSet::new(num_nodes),
            reply_buf: Vec::new(),
            probe,
            faults,
            fault_flips: Vec::new(),
            stall: None,
            report_stall: false,
            wheel: None,
        }
    }

    /// Shared access to the attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the engine, returning the attached probe (e.g. a
    /// `telemetry::FlightRecorder` holding the recording).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Enable limited injection: a node may start streaming a new packet
    /// only while fewer than `max_busy_lanes` of its local router's
    /// network output lanes are allocated. This is the stabilization
    /// mechanism of the paper's reference \[28\] ("Minimal Adaptive
    /// Routing with Limited Injection on Toroidal k-ary n-cubes") that
    /// keeps the accepted bandwidth flat above saturation.
    pub fn set_injection_limit(&mut self, max_busy_lanes: Option<u32>) {
        self.injection_limit = max_busy_lanes;
    }

    /// Enable request-reply mode: each delivered request makes the
    /// receiving node generate one reply packet of the same size back
    /// to the requester (through its normal source queue and injection
    /// channel). Replies are terminal — they do not trigger further
    /// messages — so the message-dependency chain is bounded and,
    /// because nodes sink arriving flits unconditionally, no
    /// protocol-level deadlock can arise.
    pub fn set_request_reply(&mut self, enabled: bool) {
        self.request_reply = enabled;
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Aggregate counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The packet table (records for every created packet).
    pub fn packets(&self) -> &[PacketRec] {
        &self.packets
    }

    /// Total packets waiting in all source queues right now.
    pub fn source_queue_len(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.src_queue.len() + usize::from(n.active.is_some()))
            .sum()
    }

    /// The stall captured by the watchdog under [`Engine::run_checked`],
    /// if any.
    pub fn stall(&self) -> Option<Stall> {
        self.stall
    }

    /// Apply this cycle's transient fault transitions and report them
    /// to the probe. Called only when `F::ACTIVE`.
    fn begin_fault_cycle(&mut self) {
        let mut flips = std::mem::take(&mut self.fault_flips);
        self.faults.begin_cycle(self.cycle, &mut flips);
        for fl in flips.drain(..) {
            self.probe
                .fault_transition(self.cycle, fl.router, fl.port, fl.down);
        }
        self.fault_flips = flips; // return the allocation
    }

    /// Leave wheel mode: if a wheel is mounted, replay its scanned-ahead
    /// injection state back to the canonical per-node streams. Free when
    /// none is mounted. Every entry point that ticks the injection
    /// processes itself (the other steppers) or reads the streams
    /// (snapshots, state hashes) calls this first, which is what lets
    /// the steppers interleave freely while staying bit-identical.
    pub(crate) fn leave_wheel(&mut self) {
        if self.wheel.is_some() {
            self.wheel_resync();
        }
    }

    /// Rebuild the four phase worklists from the occupancy masks.
    /// Worklist membership is a pure function of the masks at a cycle
    /// boundary; used by snapshot restore.
    pub(crate) fn rebuild_worklists(&mut self) {
        let b = &self.banks;
        self.link_work = ActiveSet::new(self.w.num_routers);
        self.xbar_work = ActiveSet::new(self.w.num_routers);
        self.route_work = ActiveSet::new(self.w.num_routers);
        self.inject_work = ActiveSet::new(self.w.num_nodes);
        for r in 0..self.w.num_routers {
            if b.out_occ[r] != 0 {
                self.link_work.insert(r);
            }
            if b.in_occ[r] & b.routed[r] != 0 {
                self.xbar_work.insert(r);
            }
            if b.pending[r] != 0 {
                self.route_work.insert(r);
            }
        }
        for n in 0..self.w.num_nodes {
            if b.node_lane_occ[n] != 0 {
                self.inject_work.insert(n);
            }
        }
    }

    /// Watchdog bookkeeping shared by every stepper.
    fn end_cycle(&mut self) {
        self.probe.cycle_end(self.cycle);
        self.counters.flit_moves += self.moves_this_cycle;
        if self.moves_this_cycle == 0 && self.counters.in_flight_flits > 0 {
            self.idle_cycles += 1;
            if self.idle_cycles >= WATCHDOG_CYCLES {
                if self.report_stall {
                    // Structured liveness failure for run_checked
                    // callers; reset the horizon so a caller that keeps
                    // stepping anyway is not re-tripped every cycle.
                    self.stall = Some(Stall {
                        cycle: self.cycle,
                        in_flight_flits: self.counters.in_flight_flits,
                        idle_cycles: self.idle_cycles,
                    });
                    self.idle_cycles = 0;
                } else {
                    panic!(
                        "deadlock watchdog: {} flits in flight, nothing moved for {} cycles \
                         (cycle {}, algorithm {})",
                        self.counters.in_flight_flits,
                        self.idle_cycles,
                        self.cycle,
                        self.algo.name()
                    );
                }
            }
        } else {
            self.idle_cycles = 0;
        }
        self.cycle += 1;
    }

    /// Request-reply mode: delivered requests spawn replies at the
    /// receiving node (entering its normal source queue, so they share
    /// the single injection channel with that node's own traffic).
    fn spawn_replies(&mut self) {
        if self.reply_buf.is_empty() {
            return;
        }
        let cycle = self.cycle;
        let mut buf = std::mem::take(&mut self.reply_buf);
        for req in buf.drain(..) {
            let rec = self.packets[req as usize];
            let id = self.packets.len() as u32;
            self.packets.push(PacketRec {
                src: rec.dest,
                dest: rec.src,
                created: cycle,
                injected: NEVER,
                delivered: NEVER,
                flits: rec.flits,
                hops: 0,
                in_reply_to: req,
            });
            self.nodes[rec.dest as usize].src_queue.push_back(id);
            self.counters.created_packets += 1;
            self.probe
                .packet_created(cycle, id, rec.dest, rec.src, rec.flits);
        }
        self.reply_buf = buf; // return the allocation
    }

    /// Flits transmitted so far on the directed channel leaving
    /// `router` through `port` (ejection channels included).
    pub fn link_flits(&self, router: usize, port: usize) -> u64 {
        self.link_flits[router * self.w.ports + port]
    }

    /// Total flits forwarded by each router onto its *network* ports
    /// (ejection excluded): a spatial congestion map.
    pub fn router_forwarded_flits(&self) -> Vec<u64> {
        (0..self.w.num_routers)
            .map(|r| {
                (0..self.w.ports)
                    .filter(|&p| matches!(self.w.peer(r, p), Peer::Router { .. }))
                    .map(|p| self.link_flits[r * self.w.ports + p])
                    .sum()
            })
            .collect()
    }

    /// Verify the credit-counting invariant: for every cabled channel,
    /// the upstream output lane's credits plus the downstream input
    /// lane's occupancy equal the buffer depth. Returns the first
    /// violation as `(router, port, vc, credits, occupancy)`.
    pub fn check_credit_invariant(&self) -> Result<(), (usize, usize, usize, u8, usize)> {
        let b = &self.banks;
        let (vcs, lanes) = (self.vcs, self.lanes_per_router);
        let cap = b.in_q.capacity();
        for r in 0..self.w.num_routers {
            for p in 0..self.w.ports {
                if let Peer::Router {
                    router: r2,
                    port: p2,
                } = self.w.peer(r, p)
                {
                    for v in 0..vcs {
                        let credits = b.out_credits[r * lanes + p * vcs + v];
                        let occ = b.in_q.len(r2 as usize * lanes + p2 as usize * vcs + v);
                        if credits as usize + occ != cap {
                            return Err((r, p, v, credits, occ));
                        }
                    }
                }
            }
        }
        // Node-side injection channels.
        for n in 0..self.w.num_nodes {
            let (r, p) = self.w.node_ports[n];
            for v in 0..vcs {
                let credits = b.node_credits[n * vcs + v];
                let occ = b.in_q.len(r as usize * lanes + p as usize * vcs + v);
                if credits as usize + occ != cap {
                    return Err((r as usize, p as usize, v, credits, occ));
                }
            }
        }
        Ok(())
    }

    /// Verify the worklist/occupancy-mask invariants the default
    /// stepper relies on: every occupancy mask mirrors its queues,
    /// `routed` mirrors `in_route`, and each worklist contains exactly
    /// the routers/nodes whose enabling condition holds. Returns the
    /// first violation as a description.
    pub fn check_worklist_invariant(&self) -> Result<(), String> {
        let b = &self.banks;
        let lanes = self.lanes_per_router;
        for r in 0..self.w.num_routers {
            for ll in 0..lanes {
                let (bit, l) = (1u64 << ll, r * lanes + ll);
                if (b.in_occ[r] & bit != 0) == b.in_q.is_empty(l) {
                    return Err(format!("router {r} lane {ll}: in_occ mask desynced"));
                }
                if (b.out_occ[r] & bit != 0) == b.out_q.is_empty(l) {
                    return Err(format!("router {r} lane {ll}: out_occ mask desynced"));
                }
                if (b.routed[r] & bit != 0) != (b.in_route[l] != NO_ROUTE) {
                    return Err(format!("router {r} lane {ll}: routed mask desynced"));
                }
            }
            if (b.out_occ[r] != 0) != self.link_work.contains(r) {
                return Err(format!("router {r}: link worklist desynced"));
            }
            if (b.in_occ[r] & b.routed[r] != 0) != self.xbar_work.contains(r) {
                return Err(format!("router {r}: crossbar worklist desynced"));
            }
            if (b.pending[r] != 0) != self.route_work.contains(r) {
                return Err(format!("router {r}: routing worklist desynced"));
            }
        }
        for n in 0..self.w.num_nodes {
            for v in 0..self.vcs {
                if (b.node_lane_occ[n] & (1u64 << v) != 0)
                    == b.node_lanes.is_empty(n * self.vcs + v)
                {
                    return Err(format!("node {n} lane {v}: lane_occ mask desynced"));
                }
            }
            if (b.node_lane_occ[n] != 0) != self.inject_work.contains(n) {
                return Err(format!("node {n}: injection worklist desynced"));
            }
        }
        Ok(())
    }

    /// Count every flit currently buffered in any lane (for conservation
    /// checks in tests).
    pub fn buffered_flits(&self) -> u64 {
        let b = &self.banks;
        (b.in_q.total_len() + b.out_q.total_len() + b.node_lanes.total_len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing::{CubeDeterministic, CubeDuato, TreeAdaptive};
    use topology::{KAryNCube, KAryNTree};
    use traffic::{Bernoulli, Pattern, Periodic};

    fn one_shot_proc(node: usize, at_node: usize) -> Box<dyn InjectionProcess> {
        // Fires once on the first cycle for `at_node`, never for others.
        struct Once(bool);
        impl InjectionProcess for Once {
            fn tick(&mut self, _rng: &mut Rng64) -> bool {
                std::mem::take(&mut self.0)
            }
            fn mean_rate(&self) -> f64 {
                0.0
            }
        }
        Box::new(Once(node == at_node))
    }

    #[test]
    fn single_packet_on_tiny_tree_has_exact_latency() {
        // 2-ary 1-tree: two nodes, one switch. Path: node -> switch ->
        // node. Head pipeline: inject (c0), link (c0+1), route (c0+2),
        // crossbar (c0+3), ejection link (c0+4). Tail of an F-flit
        // packet lands F-1 cycles later: latency = F + 3.
        let tree = KAryNTree::new(2, 1);
        let algo = TreeAdaptive::new(tree, 1);
        let flits = 4u16;
        let pattern = TrafficGen::new(Pattern::Complement, 2);
        let mut eng = Engine::new(&algo, 4, flits, pattern, &|n| one_shot_proc(n, 0), 7);
        eng.run(40);
        assert_eq!(eng.counters().created_packets, 1);
        assert_eq!(eng.counters().delivered_packets, 1);
        let p = eng.packets()[0];
        assert_eq!(p.src, 0);
        assert_eq!(p.dest, 1);
        assert_eq!(p.injected, 0);
        assert_eq!(p.latency(), Some(flits as u32 + 3));
        assert_eq!(eng.counters().in_flight_flits, 0);
        assert_eq!(eng.buffered_flits(), 0);
    }

    #[test]
    fn single_packet_on_two_node_ring_has_exact_latency() {
        // 2-ary 1-cube: nodes 0 and 1, one link. Head: inject, node
        // link, route@r0, xbar, link, route@r1, xbar, ejection link =
        // latency 7 for the head, + F-1 for the tail.
        let cube = KAryNCube::new(2, 1);
        let algo = CubeDeterministic::new(cube);
        let flits = 4u16;
        let pattern = TrafficGen::new(Pattern::Complement, 2);
        let mut eng = Engine::new(&algo, 4, flits, pattern, &|n| one_shot_proc(n, 0), 7);
        eng.run(60);
        assert_eq!(eng.counters().delivered_packets, 1);
        assert_eq!(eng.packets()[0].latency(), Some(flits as u32 + 6));
    }

    #[test]
    fn flit_conservation_invariant() {
        let cube = KAryNCube::new(4, 2);
        let algo = CubeDuato::new(cube);
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(
            &algo,
            4,
            16,
            pattern,
            &|_| Box::new(Bernoulli::new(0.02)),
            99,
        );
        for _ in 0..500 {
            eng.step();
            assert_eq!(eng.buffered_flits(), eng.counters().in_flight_flits);
        }
        let c = eng.counters();
        assert!(c.created_packets > 0);
        // injected = delivered + in flight (in flits).
        let injected_flits: u64 = eng
            .packets()
            .iter()
            .filter(|p| p.injected != NEVER)
            .map(|p| {
                // flits already pushed into the network

                if p.delivered != NEVER {
                    p.flits as u64
                } else {
                    // partially streamed packets are harder to count
                    // exactly; bounded above by flits
                    0
                }
            })
            .sum();
        assert!(injected_flits <= c.delivered_flits + c.in_flight_flits);
    }

    #[test]
    fn all_packets_drain_after_sources_stop() {
        // Run uniform traffic on the small cube with both algorithms,
        // then stop injecting and let the network drain completely.
        for algo_box in [
            Box::new(CubeDeterministic::new(KAryNCube::new(4, 2))) as Box<dyn RoutingAlgorithm>,
            Box::new(CubeDuato::new(KAryNCube::new(4, 2))),
        ] {
            struct Window(u32);
            impl InjectionProcess for Window {
                fn tick(&mut self, rng: &mut Rng64) -> bool {
                    if self.0 > 0 {
                        self.0 -= 1;
                        rng.chance(0.05)
                    } else {
                        false
                    }
                }
                fn mean_rate(&self) -> f64 {
                    0.0
                }
            }
            let pattern = TrafficGen::new(Pattern::Uniform, 16);
            let mut eng = Engine::new(
                algo_box.as_ref(),
                4,
                16,
                pattern,
                &|_| Box::new(Window(300)),
                5,
            );
            eng.run(300 + 3000);
            let c = eng.counters();
            assert!(c.created_packets > 10, "{}", algo_box.name());
            assert_eq!(
                c.delivered_packets,
                c.created_packets,
                "{}",
                algo_box.name()
            );
            assert_eq!(c.in_flight_flits, 0, "{}", algo_box.name());
            assert_eq!(eng.source_queue_len(), 0, "{}", algo_box.name());
            // Everything drained: every worklist must be empty again.
            assert_eq!(eng.check_worklist_invariant(), Ok(()));
            assert!(eng.link_work.is_empty() && eng.route_work.is_empty());
        }
    }

    #[test]
    fn tree_drains_too() {
        struct Window(u32);
        impl InjectionProcess for Window {
            fn tick(&mut self, rng: &mut Rng64) -> bool {
                if self.0 > 0 {
                    self.0 -= 1;
                    rng.chance(0.02)
                } else {
                    false
                }
            }
            fn mean_rate(&self) -> f64 {
                0.0
            }
        }
        for vcs in [1usize, 2, 4] {
            let algo = TreeAdaptive::new(KAryNTree::new(2, 3), vcs);
            let pattern = TrafficGen::new(Pattern::Uniform, 8);
            let mut eng = Engine::new(&algo, 4, 32, pattern, &|_| Box::new(Window(400)), 11);
            eng.run(400 + 4000);
            let c = eng.counters();
            assert!(c.created_packets > 5);
            assert_eq!(c.delivered_packets, c.created_packets, "vcs={vcs}");
            assert_eq!(c.in_flight_flits, 0, "vcs={vcs}");
        }
    }

    #[test]
    fn packets_are_delivered_to_the_right_node_in_order() {
        // Periodic injection of several packets 0 -> 1 on the tiny tree;
        // deliveries must be complete and FIFO per source-destination
        // pair (wormhole + single injection channel guarantee this).
        let algo = TreeAdaptive::new(KAryNTree::new(2, 1), 2);
        let pattern = TrafficGen::new(Pattern::Complement, 2);
        let mut eng = Engine::new(
            &algo,
            4,
            8,
            pattern,
            &|n| {
                if n == 0 {
                    Box::new(Periodic::every(10))
                } else {
                    Box::new(Bernoulli::new(0.0))
                }
            },
            3,
        );
        eng.run(200);
        let c = eng.counters();
        assert!(c.delivered_packets >= 15);
        let mut last_delivery = 0;
        for p in eng.packets().iter().filter(|p| p.src == 0) {
            if p.delivered != NEVER {
                assert!(p.delivered > last_delivery);
                last_delivery = p.delivered;
                assert_eq!(p.dest, 1);
            }
        }
    }

    #[test]
    fn escape_lanes_are_used_under_contention() {
        // Duato on a small cube at very high load: some headers must
        // fall back to the escape channels.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(
            &algo,
            4,
            16,
            pattern,
            &|_| Box::new(Bernoulli::new(0.06)),
            13,
        );
        eng.run(5000);
        let c = eng.counters();
        assert!(c.escape_routings > 0, "escape channels never used");
        assert!(
            c.routed_headers > c.escape_routings,
            "adaptive channels never used"
        );
    }

    #[test]
    fn deterministic_runs_are_bit_reproducible() {
        let run = |seed: u64| {
            let algo = CubeDuato::new(KAryNCube::new(4, 2));
            let pattern = TrafficGen::new(Pattern::Uniform, 16);
            let mut eng = Engine::new(
                &algo,
                4,
                16,
                pattern,
                &|_| Box::new(Bernoulli::new(0.03)),
                seed,
            );
            eng.run(2000);
            let c = eng.counters();
            (
                c.created_packets,
                c.delivered_packets,
                c.delivered_flits,
                c.routed_headers,
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// Build the pair of engines used by the step/step_reference
    /// equivalence tests.
    fn engine_pair<'a, Algo: RoutingAlgorithm>(
        algo: &'a Algo,
        rate: f64,
        seed: u64,
    ) -> (Engine<'a, Algo>, Engine<'a, Algo>) {
        let n = algo.topology().num_nodes();
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(rate)) };
        let a = Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), &mk, seed);
        let b = Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), &mk, seed);
        (a, b)
    }

    #[test]
    fn step_matches_reference_step_exactly() {
        // Cycle-by-cycle lockstep comparison on both network families,
        // checking the full observable state every few cycles.
        let cube = CubeDuato::new(KAryNCube::new(4, 2));
        let tree = TreeAdaptive::new(KAryNTree::new(2, 3), 2);
        fn check<Algo: RoutingAlgorithm>(algo: &Algo, rate: f64) {
            let (mut opt, mut refr) = engine_pair(algo, rate, 77);
            for cycle in 0..1500 {
                opt.step();
                refr.step_reference();
                if cycle % 64 == 0 {
                    assert_eq!(opt.counters(), refr.counters(), "cycle {cycle}");
                    assert_eq!(opt.packets(), refr.packets(), "cycle {cycle}");
                    assert_eq!(opt.check_worklist_invariant(), Ok(()), "cycle {cycle}");
                }
            }
            assert_eq!(opt.counters(), refr.counters());
            assert_eq!(opt.packets(), refr.packets());
            assert_eq!(opt.buffered_flits(), refr.buffered_flits());
            assert_eq!(opt.state_hash(), refr.state_hash());
        }
        check(&cube, 0.01);
        check(&cube, 0.08); // saturating
        check(&tree, 0.02);
    }

    #[test]
    fn steppers_can_interleave() {
        // Both steppers maintain the same state, so alternating them
        // must equal running either one alone.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let (mut pure, mut mixed) = engine_pair(&algo, 0.03, 5);
        for cycle in 0..1200 {
            pure.step();
            if cycle % 3 == 0 {
                mixed.step_reference();
            } else {
                mixed.step();
            }
            if cycle % 97 == 0 {
                assert_eq!(mixed.check_worklist_invariant(), Ok(()), "cycle {cycle}");
                assert_eq!(mixed.check_credit_invariant(), Ok(()), "cycle {cycle}");
            }
        }
        assert_eq!(pure.counters(), mixed.counters());
        assert_eq!(pure.packets(), mixed.packets());
        assert_eq!(pure.state_hash(), mixed.state_hash());
    }

    #[test]
    fn worklist_invariants_hold_under_request_reply_and_throttle() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(
            &algo,
            4,
            8,
            pattern,
            &|_| Box::new(Bernoulli::new(0.04)),
            21,
        );
        eng.set_request_reply(true);
        eng.set_injection_limit(Some(4));
        for _ in 0..800 {
            eng.step();
            assert_eq!(eng.check_worklist_invariant(), Ok(()));
        }
        assert!(eng.counters().delivered_packets > 0);
    }

    #[test]
    fn recording_probe_mirrors_packet_table() {
        // A FlightRecorder attached to the engine must observe exactly
        // what the engine's own packet table records — and attaching it
        // must not change anything a NullProbe run produces.
        use telemetry::{FlightRecorder, Geometry, TelemetryConfig};
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let mk_pattern = || TrafficGen::new(Pattern::Uniform, 16);
        let w = Wiring::from_topology(algo.topology());
        let geo = Geometry {
            routers: w.num_routers,
            ports: w.ports,
            vcs: algo.num_vcs(),
            nodes: w.num_nodes,
        };
        let cfg = TelemetryConfig {
            stride: 64,
            record_events: true,
        };
        let mut traced = Engine::with_probe(
            &algo,
            4,
            8,
            mk_pattern(),
            &mk,
            31,
            FlightRecorder::new(cfg, geo),
        );
        let mut plain = Engine::new(&algo, 4, 8, mk_pattern(), &mk, 31);
        traced.set_request_reply(true);
        plain.set_request_reply(true);
        traced.run(1500);
        plain.run(1500);
        assert_eq!(
            traced.counters(),
            plain.counters(),
            "probe perturbed the run"
        );
        assert_eq!(traced.packets(), plain.packets());

        let packets: Vec<PacketRec> = traced.packets().to_vec();
        let counters = traced.counters();
        let rec = traced.into_probe();
        assert!(counters.created_packets > 20, "want a busy run");
        assert_eq!(rec.packet_traces().len(), packets.len());
        let mut delivered = 0u64;
        for (t, p) in rec.packet_traces().iter().zip(&packets) {
            assert_eq!((t.src, t.dest), (p.src, p.dest));
            assert_eq!(t.flits, p.flits);
            assert_eq!(
                (t.created, t.injected, t.delivered),
                (p.created, p.injected, p.delivered)
            );
            assert_eq!(t.hops, p.hops);
            if t.delivered != NEVER {
                delivered += 1;
            }
        }
        assert_eq!(delivered, counters.delivered_packets);
        let routed: u64 = rec.packet_traces().iter().map(|t| u64::from(t.hops)).sum();
        assert_eq!(routed, counters.routed_headers);
        let blocked: u64 = rec
            .packet_traces()
            .iter()
            .map(|t| u64::from(t.blocked_attempts))
            .sum();
        assert_eq!(blocked, counters.routing_blocked);
        let escapes: u64 = rec
            .packet_traces()
            .iter()
            .map(|t| u64::from(t.escape_hops))
            .sum();
        assert_eq!(escapes, counters.escape_routings);
        // Every delivered packet decomposes, components summing to the
        // engine's own latency.
        for (id, (t, p)) in rec.packet_traces().iter().zip(&packets).enumerate() {
            if let Some(b) = t.breakdown(id as u32) {
                assert_eq!(b.network(), p.latency().unwrap());
                assert_eq!(
                    b.src_queue + b.routing + b.blocked + b.transfer,
                    p.delivered - p.created
                );
            }
        }
        assert!(!rec.events().is_empty());
    }

    #[test]
    fn idle_network_has_empty_worklists() {
        let algo = CubeDeterministic::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(&algo, 4, 16, pattern, &|_| Box::new(Bernoulli::new(0.0)), 1);
        eng.run(100);
        assert!(eng.link_work.is_empty());
        assert!(eng.xbar_work.is_empty());
        assert!(eng.route_work.is_empty());
        assert!(eng.inject_work.is_empty());
        assert_eq!(eng.counters().flit_moves, 0);
    }
}
