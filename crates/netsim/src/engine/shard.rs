//! Sharded intra-run stepping: domain decomposition of one engine
//! cycle across worker threads with deterministic phase barriers.
//!
//! [`Engine::run_sharded`] partitions routers (and, independently,
//! nodes) into `S` contiguous, 64-aligned id ranges and runs each
//! engine phase shard-parallel. Every cross-shard effect is carried
//! through per-`(src-shard, dst-shard)` handoff queues that a serial
//! barrier drains in a fixed total order — destination-shard major,
//! source-shard minor, record order within a queue — so the result is
//! **bit-identical** to [`Engine::step`]: counters, the packet table,
//! RNG consumption order, and the telemetry event stream.
//! `tests/engine_equivalence.rs` enforces this the same way it pins the
//! default stepper to the reference stepper.
//!
//! # Segments
//!
//! The sharded kernels run on a `Partition` of the lane state. A call
//! to one of the run functions below is a *segment*: when it starts,
//! the engine's queue banks and node-side arrays move into the
//! partition whole, and the per-router routes, credits, masks and
//! cursors are cut into per-router structs (the banks' copies are
//! released); each phase then splits the queues and node arrays into
//! per-shard views by id range for the workers; when the segment ends
//! everything is folded back into the banks. So the engine never holds
//! two copies of its lanes.
//!
//! # Why each phase decomposes
//!
//! * **Link** — a worker owns its routers' *send* side outright; the
//!   receive side of an intra-shard hop is applied immediately (the
//!   worker is the destination's single writer too), while a
//!   cross-shard hop defers the receive to the barrier. Each
//!   destination input lane has exactly one upstream source, so at most
//!   one flit arrives per lane per cycle and receive application is
//!   order-free; the only order-sensitive observables — probe events —
//!   are buffered per shard and replayed in shard order, which *is* the
//!   serial ascending-id emission order. Node injection links use the
//!   same handoff mechanism (nodes are ranged independently of their
//!   attached routers).
//! * **Crossbar** — all mutations are router-local except the one-flit
//!   credit acknowledgment, which is deferred when cross-shard (and for
//!   every node-side credit, since crossbar workers own no nodes);
//!   nothing in the phase reads a credit count, so deferral is
//!   unobservable. The phase makes no probe calls.
//! * **Routing** — the *preparation* (round-robin pending-lane scan and
//!   the routing-function call) is a pure function of pre-phase state
//!   and runs shard-parallel; the *selection* consumes the engine's
//!   single shared RNG stream (the fair tie-break of the selection
//!   policy) and therefore runs serially at the barrier, in ascending
//!   router order — exactly the serial stepper's consumption order.
//! * **Injection** — the per-node creation processes tick their
//!   node-local RNGs shard-parallel; packet-id assignment, source
//!   queueing and flit streaming run serially (ids are global sequence
//!   numbers and the probe observes them in node order).
//!
//! `shards <= 1` falls straight through to the serial steppers.

use super::soa::{select_output, NodeLanesMut, SoaBanks};
use super::{fault_unroutable, Counters, Engine, NodeState, Stall, DROP_ROUTE, NO_ROUTE};
use crate::fault::FaultModel;
use crate::flit::{Flit, PacketRec, NEVER};
use crate::queue::{LaneView, QueueBank};
use crate::wiring::{Peer, Wiring};
use routing::{CandidateSet, RoutingAlgorithm};
use telemetry::{LinkKind, Probe};
use topology::{NodeId, RouterId};
use traffic::TrafficGen;

/// One router's routes, credits, masks and cursors in the layout the
/// sharded kernels run on (same field meanings as [`SoaBanks`]); its
/// lane queues stay in the partition's banks.
struct RouterState {
    in_route: Vec<u32>,
    out_credits: Vec<u8>,
    out_bound: u64,
    network_lanes: u64,
    pending: u64,
    in_occ: u64,
    out_occ: u64,
    routed: u64,
    route_rr: u32,
    link_rr: Vec<u8>,
}

/// The lane state of a sharded segment (see the module docs): the
/// engine's queue banks and node-side arrays, moved in whole and split
/// into per-shard views each phase, plus per-router structs for the
/// rest.
struct Partition {
    routers: Vec<RouterState>,
    in_q: QueueBank,
    out_q: QueueBank,
    node_lanes: QueueBank,
    node_credits: Vec<u8>,
    node_lane_occ: Vec<u64>,
    node_lane_rr: Vec<u8>,
    /// Lanes per router.
    lanes: usize,
}

impl Partition {
    /// Take the lane state out of `b`: the queue banks and node-side
    /// arrays move over as they are, the router arrays are cut per
    /// router and released. Leaves `b` holding only its wiring-derived
    /// tables.
    fn mount(b: &mut SoaBanks, lanes: usize, ports: usize) -> Self {
        let routers = (0..b.out_bound.len())
            .map(|r| RouterState {
                in_route: b.in_route[r * lanes..(r + 1) * lanes].to_vec(),
                out_credits: b.out_credits[r * lanes..(r + 1) * lanes].to_vec(),
                out_bound: b.out_bound[r],
                network_lanes: b.network_lanes[r],
                pending: b.pending[r],
                in_occ: b.in_occ[r],
                out_occ: b.out_occ[r],
                routed: b.routed[r],
                route_rr: b.route_rr[r],
                link_rr: b.link_rr[r * ports..(r + 1) * ports].to_vec(),
            })
            .collect();
        let part = Partition {
            routers,
            in_q: std::mem::take(&mut b.in_q),
            out_q: std::mem::take(&mut b.out_q),
            node_lanes: std::mem::take(&mut b.node_lanes),
            node_credits: std::mem::take(&mut b.node_credits),
            node_lane_occ: std::mem::take(&mut b.node_lane_occ),
            node_lane_rr: std::mem::take(&mut b.node_lane_rr),
            lanes,
        };
        b.release();
        part
    }

    /// Hand the lane state back to `b` (the inverse of
    /// [`Partition::mount`]).
    fn unmount(self, b: &mut SoaBanks) {
        let rs = &self.routers;
        b.in_route = rs.iter().flat_map(|r| r.in_route.iter().copied()).collect();
        b.out_credits = rs
            .iter()
            .flat_map(|r| r.out_credits.iter().copied())
            .collect();
        b.link_rr = rs.iter().flat_map(|r| r.link_rr.iter().copied()).collect();
        b.out_bound = rs.iter().map(|r| r.out_bound).collect();
        b.pending = rs.iter().map(|r| r.pending).collect();
        b.in_occ = rs.iter().map(|r| r.in_occ).collect();
        b.out_occ = rs.iter().map(|r| r.out_occ).collect();
        b.routed = rs.iter().map(|r| r.routed).collect();
        b.route_rr = rs.iter().map(|r| r.route_rr).collect();
        b.in_q = self.in_q;
        b.out_q = self.out_q;
        b.node_lanes = self.node_lanes;
        b.node_credits = self.node_credits;
        b.node_lane_occ = self.node_lane_occ;
        b.node_lane_rr = self.node_lane_rr;
    }
}

/// The shard decomposition of one engine plus its reusable per-shard
/// scratch state (handoff queues, probe-event buffers, candidate
/// pools). Build one with [`Engine::shard_plan`] and feed it to
/// [`Engine::run_sharded`] and its siblings; it is only valid
/// for engines of the same topology it was built from.
pub struct ShardPlan {
    /// Effective shard count (after clamping to the router count).
    shards: usize,
    /// Worker threads: `<= 1` runs every shard on the calling thread
    /// (in ascending shard order — bit-identical by construction),
    /// `> 1` spawns one scoped thread per shard per phase.
    threads: usize,
    /// Router id boundaries, `shards + 1` entries; interior boundaries
    /// are multiples of 64 so the worklist bitset words split exactly.
    router_starts: Vec<usize>,
    /// Node id boundaries, aligned the same way (independent of router
    /// attachment: a shard's nodes need not hang off its routers).
    node_starts: Vec<usize>,
    /// `router_starts[i] / 64` (worklist word boundaries).
    router_word_starts: Vec<usize>,
    /// `node_starts[i] / 64`.
    node_word_starts: Vec<usize>,
    /// `router_starts[i] * ports` (per-channel counter boundaries).
    link_flit_starts: Vec<usize>,
    /// `router_starts[i] * lanes_per_router` (router lane boundaries).
    router_lane_starts: Vec<usize>,
    /// `node_starts[i] * vcs` (node-side lane boundaries).
    node_lane_starts: Vec<usize>,
    /// Per-shard scratch, reused across cycles.
    scratch: Vec<ShardScratch>,
}

impl ShardPlan {
    /// Effective shard count (requests beyond the router count are
    /// clamped at construction).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Worker-thread setting (`<= 1` = run shards on the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Per-shard scratch: everything a worker produces for the barrier to
/// consume. All queues are drained every cycle, so the allocations are
/// reused for the lifetime of the plan.
struct ShardScratch {
    /// Cross-shard flit arrivals, one queue per destination shard:
    /// `(dst router, dst input lane, flit)`. The flit's `moved` stamp
    /// is set by the sender, exactly as on an intra-shard hop.
    flits_out: Vec<Vec<(u32, u16, Flit)>>,
    /// Cross-shard credit acknowledgments, per destination shard:
    /// `(router, output lane)`.
    credits_out: Vec<Vec<(u32, u16)>>,
    /// Node-side credit acknowledgments `(node, vc)` — always deferred
    /// (crossbar workers own routers, not nodes).
    node_credits: Vec<(u32, u8)>,
    /// Packets whose tail was ejected this cycle; the `delivered` stamp
    /// is applied at the barrier so the packet table stays read-only
    /// during the parallel phase.
    delivered: Vec<u32>,
    /// Delivered requests awaiting reply creation (request-reply mode).
    replies: Vec<u32>,
    /// Probe events from the router leg of the link phase, in emission
    /// order (replayed shard-ascending = serial router order).
    router_events: Vec<LinkEvent>,
    /// Probe events from the node (injection) leg of the link phase.
    node_events: Vec<LinkEvent>,
    /// Routing decisions prepared by this shard, ascending router order.
    decisions: Vec<RouteDecision>,
    /// Reusable candidate-set allocations for `decisions`.
    cand_pool: Vec<CandidateSet>,
    /// Packet creations from the injection tick pass: `(node, dest)`.
    creations: Vec<(u32, u32)>,
    /// Counter deltas. Decrements (e.g. `in_flight_flits` on ejection)
    /// wrap below the zero-initialized delta and are reconciled by the
    /// wrapping merge in [`Engine::merge_shard_counters`].
    counters: Counters,
    /// Flit movements executed by this shard this cycle.
    moves: u64,
}

impl ShardScratch {
    fn new(shards: usize) -> Self {
        ShardScratch {
            flits_out: (0..shards).map(|_| Vec::new()).collect(),
            credits_out: (0..shards).map(|_| Vec::new()).collect(),
            node_credits: Vec::new(),
            delivered: Vec::new(),
            replies: Vec::new(),
            router_events: Vec::new(),
            node_events: Vec::new(),
            decisions: Vec::new(),
            cand_pool: Vec::new(),
            creations: Vec::new(),
            counters: Counters::default(),
            moves: 0,
        }
    }
}

/// A buffered probe observation from the link phase (the only parallel
/// phase that makes probe calls). Replayed on the stepping thread, so
/// probes need not be `Send`.
enum LinkEvent {
    /// `Probe::link_flit`.
    Link {
        packet: u32,
        router: u32,
        port: u16,
        vc: u8,
        kind: LinkKind,
    },
    /// `Probe::packet_delivered` (emitted right after the tail's
    /// ejection `Link` event, as in the serial handler).
    Delivered { packet: u32, node: u32 },
    /// `Probe::injection_flit`.
    Injection { packet: u32, node: u32, vc: u8 },
}

/// One prepared routing decision: everything `route_lane` computes
/// before the RNG-consuming output selection.
struct RouteDecision {
    router: u32,
    lane: u8,
    packet: u32,
    /// Fault-plane dead end: drop instead of selecting.
    unroutable: bool,
    /// At least one candidate direction is transiently down (reroute
    /// telemetry).
    degraded: bool,
    cand: CandidateSet,
}

/// 64-aligned boundary table: `shards + 1` monotone offsets into
/// `0..len` whose interior entries are multiples of 64. Later shards
/// may receive empty ranges when there are fewer id words than shards.
fn aligned_starts(len: usize, shards: usize) -> Vec<usize> {
    let words = len.div_ceil(64);
    (0..=shards)
        .map(|i| ((words * i).div_ceil(shards) * 64).min(len))
        .collect()
}

/// Split `s` into the consecutive sub-slices delimited by `starts`
/// (`starts[0] == 0`, `starts.last() == s.len()`).
fn split_mut<'s, T>(mut s: &'s mut [T], starts: &[usize]) -> Vec<&'s mut [T]> {
    let mut out = Vec::with_capacity(starts.len().saturating_sub(1));
    let mut prev = 0;
    for &b in &starts[1..] {
        let (head, tail) = s.split_at_mut(b - prev);
        out.push(head);
        s = tail;
        prev = b;
    }
    out
}

/// The shard owning `id` under boundary table `starts`.
#[inline]
fn shard_of(starts: &[usize], id: usize) -> usize {
    debug_assert!(id < *starts.last().expect("non-empty boundary table"));
    starts.partition_point(|&s| s <= id) - 1
}

/// Set bit `id` in a worklist word slice whose first word covers ids
/// `word_base * 64 ..`.
#[inline]
fn set_bit(words: &mut [u64], word_base: usize, id: usize) {
    words[(id >> 6) - word_base] |= 1u64 << (id & 63);
}

/// Clear bit `id`, same addressing as [`set_bit`].
#[inline]
fn clear_bit(words: &mut [u64], word_base: usize, id: usize) {
    words[(id >> 6) - word_base] &= !(1u64 << (id & 63));
}

/// Run one closure per shard context: on the calling thread in
/// ascending shard order when `threads <= 1`, else on one scoped worker
/// thread per shard. Both modes execute the identical worker code; the
/// barriers around this call are what make the schedule unobservable.
fn run_shards<C: Send, W: Fn(&mut C) + Sync>(threads: usize, ctxs: &mut [C], work: W) {
    if threads <= 1 {
        for c in ctxs.iter_mut() {
            work(c);
        }
    } else {
        let work = &work;
        std::thread::scope(|s| {
            for c in ctxs.iter_mut() {
                s.spawn(move || work(c));
            }
        });
    }
}

// ---------------------------------------------------------------------
// Phase 1: link.
// ---------------------------------------------------------------------

/// Shared (read-only) link-phase environment.
struct LinkEnv<'e, F> {
    w: &'e Wiring,
    faults: &'e F,
    packets: &'e [PacketRec],
    router_starts: &'e [usize],
    cycle: u32,
    vcs: usize,
    lanes: usize,
    request_reply: bool,
}

/// One link-phase worker's exclusive state.
struct LinkShard<'e> {
    router_base: usize,
    node_base: usize,
    routers: &'e mut [RouterState],
    /// This shard's routers' lanes (router-local lane `l` of router `r`
    /// at `(r - router_base) * lanes + l`), and its nodes' lanes,
    /// credits, masks and cursors (node `n` at `n - node_base`, its
    /// lane `v` at `(n - node_base) * vcs + v`).
    in_q: LaneView<'e>,
    out_q: LaneView<'e>,
    node_lanes: LaneView<'e>,
    node_credits: &'e mut [u8],
    node_occ: &'e mut [u64],
    node_rr: &'e mut [u8],
    link_flits: &'e mut [u64],
    link_words: &'e mut [u64],
    route_words: &'e mut [u64],
    xbar_words: &'e mut [u64],
    inject_words: &'e mut [u64],
    scratch: &'e mut ShardScratch,
}

/// Mirror of the serial stepper's link-phase worklist walk, restricted
/// to one shard's router and node word ranges.
fn link_worker<F: FaultModel>(env: &LinkEnv<'_, F>, sh: &mut LinkShard<'_>) {
    let rword_base = sh.router_base >> 6;
    for wi in 0..sh.link_words.len() {
        let mut bits = sh.link_words[wi];
        while bits != 0 {
            let r = ((rword_base + wi) << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            link_router_sharded(env, sh, r);
            if sh.routers[r - sh.router_base].out_occ == 0 {
                clear_bit(sh.link_words, rword_base, r);
            }
        }
    }
    let nword_base = sh.node_base >> 6;
    for wi in 0..sh.inject_words.len() {
        let mut bits = sh.inject_words[wi];
        while bits != 0 {
            let n = ((nword_base + wi) << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            link_node_sharded(env, sh, n);
            if sh.node_occ[n - sh.node_base] == 0 {
                clear_bit(sh.inject_words, nword_base, n);
            }
        }
    }
}

/// Shard mirror of the default stepper's per-router link handler:
/// identical mutations on the send side; intra-shard receives applied
/// inline, cross-shard receives handed off; probe calls and
/// packet/counter writes buffered.
fn link_router_sharded<F: FaultModel>(env: &LinkEnv<'_, F>, sh: &mut LinkShard<'_>, r: usize) {
    let cycle = env.cycle;
    let vcs = env.vcs;
    let ports = env.w.ports;
    let port_lanes = (1u64 << vcs) - 1;
    let rbase = sh.router_base;
    let rend = rbase + sh.routers.len();
    let rword_base = rbase >> 6;
    let lo = (r - rbase) * env.lanes;
    for p in 0..ports {
        if F::ACTIVE && env.faults.channel_down(r, p) {
            continue; // channel down: nothing crosses this cycle
        }
        if sh.routers[r - rbase].out_occ & (port_lanes << (p * vcs)) == 0 {
            continue; // nothing buffered towards this direction
        }
        match env.w.peer(r, p) {
            Peer::None => {
                debug_assert!(false, "flit buffered on an uncabled port");
            }
            Peer::Node(node) => {
                // Ejection: the node always sinks (no credits).
                let rs = &mut sh.routers[r - rbase];
                let start = rs.link_rr[p] as usize;
                for i in 0..vcs {
                    let v = (start + i) % vcs;
                    let l = p * vcs + v;
                    if rs.out_occ & (1u64 << l) == 0 {
                        continue;
                    }
                    let ready = matches!(sh.out_q.front(lo + l),
                            Some(f) if f.moved < cycle);
                    if ready {
                        let f = sh.out_q.pop(lo + l);
                        if sh.out_q.is_empty(lo + l) {
                            rs.out_occ &= !(1u64 << l);
                        }
                        rs.link_rr[p] = ((v + 1) % vcs) as u8;
                        sh.link_flits[(r - rbase) * ports + p] += 1;
                        sh.scratch.counters.delivered_flits += 1;
                        sh.scratch.counters.in_flight_flits =
                            sh.scratch.counters.in_flight_flits.wrapping_sub(1);
                        sh.scratch.moves += 1;
                        sh.scratch.router_events.push(LinkEvent::Link {
                            packet: f.packet,
                            router: r as u32,
                            port: p as u16,
                            vc: v as u8,
                            kind: LinkKind::Ejection,
                        });
                        if f.is_tail() {
                            let rec = &env.packets[f.packet as usize];
                            debug_assert_eq!(rec.delivered, NEVER);
                            sh.scratch.delivered.push(f.packet);
                            let reply = env.request_reply && !rec.is_reply();
                            sh.scratch.counters.delivered_packets += 1;
                            if reply {
                                sh.scratch.replies.push(f.packet);
                            }
                            sh.scratch.router_events.push(LinkEvent::Delivered {
                                packet: f.packet,
                                node,
                            });
                        }
                        break;
                    }
                }
            }
            Peer::Router {
                router: r2,
                port: p2,
            } => {
                let (r2, p2) = (r2 as usize, p2 as usize);
                debug_assert_ne!(r, r2);
                if r2 >= rbase && r2 < rend {
                    // Intra-shard hop: the serial handler, verbatim.
                    let [rs, dst] = sh
                        .routers
                        .get_disjoint_mut([r - rbase, r2 - rbase])
                        .expect("distinct routers");
                    let start = rs.link_rr[p] as usize;
                    for i in 0..vcs {
                        let v = (start + i) % vcs;
                        let l = p * vcs + v;
                        if rs.out_occ & (1u64 << l) == 0 {
                            continue;
                        }
                        let ready = rs.out_credits[l] > 0
                            && matches!(sh.out_q.front(lo + l), Some(f) if f.moved < cycle);
                        if ready {
                            let mut f = sh.out_q.pop(lo + l);
                            if sh.out_q.is_empty(lo + l) {
                                rs.out_occ &= !(1u64 << l);
                            }
                            rs.out_credits[l] -= 1;
                            rs.link_rr[p] = ((v + 1) % vcs) as u8;
                            sh.link_flits[(r - rbase) * ports + p] += 1;
                            f.moved = cycle;
                            let dl = p2 * vcs + v;
                            let dq = (r2 - rbase) * env.lanes + dl;
                            let was_empty = sh.in_q.is_empty(dq);
                            sh.in_q.push(dq, f);
                            dst.in_occ |= 1u64 << dl;
                            if was_empty && f.is_head() {
                                debug_assert_eq!(dst.in_route[dl], NO_ROUTE);
                                dst.pending |= 1 << dl;
                                set_bit(sh.route_words, rword_base, r2);
                            }
                            if dst.routed & (1u64 << dl) != 0 {
                                set_bit(sh.xbar_words, rword_base, r2);
                            }
                            sh.scratch.moves += 1;
                            sh.scratch.router_events.push(LinkEvent::Link {
                                packet: f.packet,
                                router: r as u32,
                                port: p as u16,
                                vc: v as u8,
                                kind: LinkKind::Network,
                            });
                            break;
                        }
                    }
                } else {
                    // Cross-shard hop: readiness depends only on the
                    // send side (credits stand in for receiver state),
                    // so the receive is deferred whole to the barrier.
                    let rs = &mut sh.routers[r - rbase];
                    let start = rs.link_rr[p] as usize;
                    for i in 0..vcs {
                        let v = (start + i) % vcs;
                        let l = p * vcs + v;
                        if rs.out_occ & (1u64 << l) == 0 {
                            continue;
                        }
                        let ready = rs.out_credits[l] > 0
                            && matches!(sh.out_q.front(lo + l), Some(f) if f.moved < cycle);
                        if ready {
                            let mut f = sh.out_q.pop(lo + l);
                            if sh.out_q.is_empty(lo + l) {
                                rs.out_occ &= !(1u64 << l);
                            }
                            rs.out_credits[l] -= 1;
                            rs.link_rr[p] = ((v + 1) % vcs) as u8;
                            sh.link_flits[(r - rbase) * ports + p] += 1;
                            f.moved = cycle;
                            let dl = p2 * vcs + v;
                            let dst_shard = shard_of(env.router_starts, r2);
                            sh.scratch.flits_out[dst_shard].push((r2 as u32, dl as u16, f));
                            sh.scratch.moves += 1;
                            sh.scratch.router_events.push(LinkEvent::Link {
                                packet: f.packet,
                                router: r as u32,
                                port: p as u16,
                                vc: v as u8,
                                kind: LinkKind::Network,
                            });
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Shard mirror of the default stepper's node-link handler. The
/// attached router is looked up against this shard's *router* range
/// (node and router ranges are independent); a cross-shard push rides
/// the same handoff queue as a router-to-router hop.
fn link_node_sharded<F: FaultModel>(env: &LinkEnv<'_, F>, sh: &mut LinkShard<'_>, n: usize) {
    if F::ACTIVE && env.faults.node_dead(n) {
        return; // dead node: its injection channel carries nothing
    }
    let cycle = env.cycle;
    let vcs = env.vcs;
    let (r, p) = env.w.node_ports[n];
    let (r, p) = (r as usize, p as usize);
    let rbase = sh.router_base;
    let rend = rbase + sh.routers.len();
    let ni = n - sh.node_base;
    let no = ni * vcs;
    let start = sh.node_rr[ni] as usize;
    for i in 0..vcs {
        let v = (start + i) % vcs;
        if sh.node_occ[ni] & (1u64 << v) == 0 {
            continue;
        }
        let ready = sh.node_credits[no + v] > 0
            && matches!(sh.node_lanes.front(no + v), Some(f) if f.moved < cycle);
        if ready {
            let mut f = sh.node_lanes.pop(no + v);
            if sh.node_lanes.is_empty(no + v) {
                sh.node_occ[ni] &= !(1u64 << v);
            }
            sh.node_credits[no + v] -= 1;
            sh.node_rr[ni] = ((v + 1) % vcs) as u8;
            f.moved = cycle;
            let dl = p * vcs + v;
            if r >= rbase && r < rend {
                let rs = &mut sh.routers[r - rbase];
                let dq = (r - rbase) * env.lanes + dl;
                let was_empty = sh.in_q.is_empty(dq);
                sh.in_q.push(dq, f);
                rs.in_occ |= 1u64 << dl;
                if was_empty && f.is_head() {
                    rs.pending |= 1 << dl;
                    set_bit(sh.route_words, rbase >> 6, r);
                }
                if rs.routed & (1u64 << dl) != 0 {
                    set_bit(sh.xbar_words, rbase >> 6, r);
                }
            } else {
                let dst_shard = shard_of(env.router_starts, r);
                sh.scratch.flits_out[dst_shard].push((r as u32, dl as u16, f));
            }
            sh.scratch.moves += 1;
            sh.scratch.node_events.push(LinkEvent::Injection {
                packet: f.packet,
                node: n as u32,
                vc: v as u8,
            });
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Phase 2: crossbar.
// ---------------------------------------------------------------------

/// Shared crossbar-phase environment.
struct XbarEnv<'e> {
    w: &'e Wiring,
    router_starts: &'e [usize],
    cycle: u32,
    vcs: usize,
    lanes_per_router: usize,
}

/// One crossbar worker's exclusive state.
struct XbarShard<'e> {
    router_base: usize,
    routers: &'e mut [RouterState],
    /// This shard's routers' lanes, addressed as in [`LinkShard`].
    in_q: LaneView<'e>,
    out_q: LaneView<'e>,
    link_words: &'e mut [u64],
    route_words: &'e mut [u64],
    xbar_words: &'e mut [u64],
    scratch: &'e mut ShardScratch,
}

/// Mirror of the serial crossbar worklist walk for one shard.
fn xbar_worker<F: FaultModel>(env: &XbarEnv<'_>, sh: &mut XbarShard<'_>) {
    let word_base = sh.router_base >> 6;
    for wi in 0..sh.xbar_words.len() {
        let mut bits = sh.xbar_words[wi];
        while bits != 0 {
            let r = ((word_base + wi) << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // Snapshot, as in the serial handler: lanes cannot become
            // forwardable during the phase.
            let mut mask = {
                let rs = &sh.routers[r - sh.router_base];
                rs.in_occ & rs.routed
            };
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                xbar_lane_sharded::<F>(env, sh, r, l);
            }
            let rs = &sh.routers[r - sh.router_base];
            if rs.in_occ & rs.routed == 0 {
                clear_bit(sh.xbar_words, word_base, r);
            }
        }
    }
}

/// Shard mirror of the default stepper's crossbar and drain handlers:
/// all mutations are router-local except the upstream credit, which is
/// returned inline intra-shard and deferred otherwise (node credits
/// always deferred). No probe calls in this phase.
fn xbar_lane_sharded<F: FaultModel>(env: &XbarEnv<'_>, sh: &mut XbarShard<'_>, r: usize, l: usize) {
    let cycle = env.cycle;
    let vcs = env.vcs;
    let rbase = sh.router_base;
    let rend = rbase + sh.routers.len();
    let draining = F::ACTIVE && sh.routers[r - rbase].in_route[l] == DROP_ROUTE;
    let lo = (r - rbase) * env.lanes_per_router;
    {
        let rs = &mut sh.routers[r - rbase];
        if draining {
            // Fault-plane drain: sink one flit, credits still returned.
            let movable = matches!(sh.in_q.front(lo + l), Some(f) if f.moved < cycle);
            if !movable {
                return;
            }
            let f = sh.in_q.pop(lo + l);
            if sh.in_q.is_empty(lo + l) {
                rs.in_occ &= !(1u64 << l);
            }
            sh.scratch.counters.in_flight_flits =
                sh.scratch.counters.in_flight_flits.wrapping_sub(1);
            sh.scratch.counters.dropped_flits += 1;
            sh.scratch.moves += 1;
            if f.is_tail() {
                rs.in_route[l] = NO_ROUTE;
                rs.routed &= !(1u64 << l);
                if matches!(sh.in_q.front(lo + l), Some(nf) if nf.is_head()) {
                    rs.pending |= 1 << l;
                    set_bit(sh.route_words, rbase >> 6, r);
                }
            }
        } else {
            let route = rs.in_route[l];
            debug_assert_ne!(route, NO_ROUTE);
            let movable = matches!(sh.in_q.front(lo + l), Some(f) if f.moved < cycle)
                && !sh.out_q.is_full(lo + route as usize);
            if !movable {
                return;
            }
            let mut f = sh.in_q.pop(lo + l);
            if sh.in_q.is_empty(lo + l) {
                rs.in_occ &= !(1u64 << l);
            }
            f.moved = cycle;
            sh.out_q.push(lo + route as usize, f);
            rs.out_occ |= 1u64 << route;
            set_bit(sh.link_words, rbase >> 6, r);
            sh.scratch.moves += 1;
            if f.is_tail() {
                rs.in_route[l] = NO_ROUTE;
                rs.routed &= !(1u64 << l);
                rs.out_bound &= !(1u64 << route);
                if matches!(sh.in_q.front(lo + l), Some(nf) if nf.is_head()) {
                    rs.pending |= 1 << l;
                    set_bit(sh.route_words, rbase >> 6, r);
                }
            }
        }
    }
    // Acknowledgment: one buffer freed in this input lane.
    let (p, v) = (l / vcs, l % vcs);
    match env.w.peer(r, p) {
        Peer::Router {
            router: r2,
            port: p2,
        } => {
            let ul = p2 as usize * vcs + v;
            let r2 = r2 as usize;
            if r2 >= rbase && r2 < rend {
                let up = &mut sh.routers[r2 - rbase];
                up.out_credits[ul] += 1;
                debug_assert!(up.out_credits[ul] as usize <= sh.out_q.capacity());
            } else {
                let dst_shard = shard_of(env.router_starts, r2);
                sh.scratch.credits_out[dst_shard].push((r2 as u32, ul as u16));
            }
        }
        Peer::Node(nn) => {
            sh.scratch.node_credits.push((nn, v as u8));
        }
        Peer::None => unreachable!("flit arrived through an uncabled port"),
    }
    debug_assert!(l < env.lanes_per_router);
}

// ---------------------------------------------------------------------
// Phase 3: routing (parallel preparation, serial selection).
// ---------------------------------------------------------------------

/// Shared routing-preparation environment (entirely read-only: the
/// phase writes nothing but its own decision list).
struct RouteEnv<'e, A: ?Sized, F> {
    routers: &'e [RouterState],
    in_q: &'e QueueBank,
    lanes: usize,
    route_words: &'e [u64],
    packets: &'e [PacketRec],
    algo: &'e A,
    faults: &'e F,
    cycle: u32,
    vcs: usize,
}

/// One routing-preparation worker's exclusive state.
struct RouteShard<'e> {
    /// Word range `[word_lo, word_hi)` of `route_words` owned here.
    word_lo: usize,
    word_hi: usize,
    scratch: &'e mut ShardScratch,
}

/// Mirror of the serial routing phase up to (not including) the
/// RNG-consuming output selection: scan the round-robin pending order
/// for the first visible header, call the routing function, and record
/// the decision for the barrier to select and apply in serial order.
fn route_prepare_worker<A: RoutingAlgorithm + ?Sized, F: FaultModel>(
    env: &RouteEnv<'_, A, F>,
    sh: &mut RouteShard<'_>,
) {
    for wi in sh.word_lo..sh.word_hi {
        let mut bits = env.route_words[wi];
        while bits != 0 {
            let r = (wi << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            prepare_router(env, sh, r);
        }
    }
}

/// The per-router preparation: same lane visit order as the default
/// stepper's routing handler.
fn prepare_router<A: RoutingAlgorithm + ?Sized, F: FaultModel>(
    env: &RouteEnv<'_, A, F>,
    sh: &mut RouteShard<'_>,
    r: usize,
) {
    let rs = &env.routers[r];
    let pending = rs.pending;
    debug_assert_ne!(
        pending, 0,
        "router on routing worklist without pending header"
    );
    let start = rs.route_rr as usize;
    let below_start = (1u64 << start) - 1;
    'scan: for part in [pending & !below_start, pending & below_start] {
        let mut bits = part;
        while bits != 0 {
            let l = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let front = *env
                .in_q
                .front(r * env.lanes + l)
                .expect("pending lane must hold a flit");
            debug_assert!(front.is_head(), "pending lane front must be a header");
            if front.moved >= env.cycle {
                // Arrived this very cycle; visible next cycle — the
                // serial scan tries the next pending lane.
                continue;
            }
            let dest = env.packets[front.packet as usize].dest;
            let in_port = l / env.vcs;
            let mut cand = sh.scratch.cand_pool.pop().unwrap_or_default();
            env.algo
                .route(RouterId(r as u32), Some(in_port), NodeId(dest), &mut cand);
            debug_assert!(!cand.is_empty(), "routing function returned no candidate");
            let unroutable = F::ACTIVE && fault_unroutable(env.faults, r, &cand);
            let degraded = !unroutable
                && F::ACTIVE
                && cand
                    .preferred
                    .iter()
                    .chain(cand.fallback.iter())
                    .any(|c| env.faults.channel_down(r, c.port as usize));
            sh.scratch.decisions.push(RouteDecision {
                router: r as u32,
                lane: l as u8,
                packet: front.packet,
                unroutable,
                degraded,
                cand,
            });
            break 'scan;
        }
    }
}

// ---------------------------------------------------------------------
// Phase 4: injection (parallel creation ticks, serial remainder).
// ---------------------------------------------------------------------

/// One injection-tick worker's exclusive state.
struct TickShard<'e> {
    node_base: usize,
    nodes: &'e mut [NodeState],
    scratch: &'e mut ShardScratch,
}

/// Advance every node's creation process one cycle and record the
/// `(node, destination)` of each created packet. Only node-local RNG
/// streams are consumed, in the same per-node order as the serial
/// stepper; hoisting the ticks ahead of the serial remainder is
/// unobservable because nothing later in the phase touches them.
fn tick_worker(pattern: &TrafficGen, sh: &mut TickShard<'_>) {
    for (i, ns) in sh.nodes.iter_mut().enumerate() {
        if ns.proc.tick(&mut ns.rng) {
            let n = (sh.node_base + i) as u32;
            if let Some(dest) = pattern.dest(NodeId(n), &mut ns.rng) {
                sh.scratch.creations.push((n, dest.0));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The sharded stepper.
// ---------------------------------------------------------------------

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'a, A, P, F> {
    /// Build a shard decomposition of this engine: `shards` contiguous,
    /// 64-aligned router ranges (nodes are ranged independently) plus
    /// the per-shard scratch the sharded stepper reuses across cycles.
    ///
    /// A request beyond the router count is clamped (with a warning on
    /// stderr) rather than rejected, so tiny topologies keep working
    /// under a blanket `--shards` setting. `threads <= 1` runs every
    /// shard on the calling thread; `> 1` spawns one scoped thread per
    /// shard per phase. Either way the outcome is bit-identical.
    pub fn shard_plan(&self, shards: usize, threads: usize) -> ShardPlan {
        let want = shards.max(1);
        let cap = self.w.num_routers.max(1);
        let shards = if want > cap {
            eprintln!(
                "warning: {want} shards exceed the {cap} router(s) of this topology; \
                 clamping to {cap}"
            );
            cap
        } else {
            want
        };
        let router_starts = aligned_starts(self.w.num_routers, shards);
        let node_starts = aligned_starts(self.w.num_nodes, shards);
        let router_word_starts: Vec<usize> = router_starts.iter().map(|s| s.div_ceil(64)).collect();
        let node_word_starts: Vec<usize> = node_starts.iter().map(|s| s.div_ceil(64)).collect();
        let link_flit_starts: Vec<usize> = router_starts.iter().map(|s| s * self.w.ports).collect();
        let router_lane_starts = router_starts
            .iter()
            .map(|s| s * self.lanes_per_router)
            .collect();
        let node_lane_starts = node_starts.iter().map(|s| s * self.vcs).collect();
        ShardPlan {
            shards,
            threads: threads.max(1),
            router_starts,
            node_starts,
            router_word_starts,
            node_word_starts,
            link_flit_starts,
            router_lane_starts,
            node_lane_starts,
            scratch: (0..shards).map(|_| ShardScratch::new(shards)).collect(),
        }
    }

    /// Execute one clock cycle with the sharded stepper: a one-cycle
    /// segment (see [`Engine::run_sharded`]).
    pub fn step_sharded(&mut self, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        self.run_sharded(1, plan);
    }

    /// Advance the simulation by `cycles` clocks with the sharded
    /// stepper, as one segment: the lanes are cut into a per-router
    /// partition when it starts and folded back into the banks when it
    /// ends. Bit-identical to [`Engine::run`] for every shard/thread
    /// count; `shards <= 1` *is* [`Engine::run`]. The plan must have
    /// been built by [`Engine::shard_plan`] on an engine of the same
    /// topology.
    pub fn run_sharded(&mut self, cycles: u32, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        if plan.shards <= 1 {
            return self.run(cycles);
        }
        let _ = self.sharded_segment(cycles, plan, false, false);
    }

    /// [`Engine::run_checked`] on the sharded stepper: the watchdog
    /// reports a [`Stall`] instead of panicking.
    pub fn run_checked_sharded(&mut self, cycles: u32, plan: &mut ShardPlan) -> Result<(), Stall>
    where
        F: Sync,
    {
        self.report_stall = true;
        if plan.shards <= 1 {
            return self.run_checked(cycles);
        }
        self.sharded_segment(cycles, plan, false, true)
    }

    /// Advance by `cycles` clocks with the wheel×shards composition:
    /// the sharded phases 1–3, with the injection phase driven by a
    /// calendar wheel partitioned along the plan's node ranges, and the
    /// idle fast-forward of [`Engine::run_wheel`] (the skip predicate
    /// spans every wheel part, so the minimum next-fire across shards
    /// bounds the jump). Bit-identical to every other stepper for any
    /// shard/thread count; `shards <= 1` *is* [`Engine::run_wheel`].
    pub fn run_wheel_sharded(&mut self, cycles: u32, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        if plan.shards <= 1 {
            return self.run_wheel(cycles);
        }
        let _ = self.sharded_segment(cycles, plan, true, false);
    }

    /// [`Engine::run_wheel_sharded`] with the watchdog reporting a
    /// [`Stall`] instead of panicking.
    pub fn run_checked_wheel_sharded(
        &mut self,
        cycles: u32,
        plan: &mut ShardPlan,
    ) -> Result<(), Stall>
    where
        F: Sync,
    {
        self.report_stall = true;
        if plan.shards <= 1 {
            return self.run_checked_wheel(cycles);
        }
        self.sharded_segment(cycles, plan, true, true)
    }

    /// One sharded segment of `cycles` cycles (wheel-driven injection
    /// if `wheel`): mount the partition, step, fold it back. With
    /// `checked`, a watchdog stall ends the segment early.
    fn sharded_segment(
        &mut self,
        cycles: u32,
        plan: &mut ShardPlan,
        wheel: bool,
        checked: bool,
    ) -> Result<(), Stall>
    where
        F: Sync,
    {
        debug_assert_eq!(
            *plan.router_starts.last().unwrap(),
            self.w.num_routers,
            "shard plan built for a different topology"
        );
        if wheel {
            // (Re)mount the wheel on the plan's node partition. A wheel
            // with a different partition is replayed away first; the
            // round-trip is bit-identical because the wheel is a pure
            // per-node RNG time shift.
            let mounted = self
                .wheel
                .as_ref()
                .is_some_and(|w| w.partitioned_as(&plan.node_starts));
            if !mounted {
                self.leave_wheel();
                self.enter_wheel(&plan.node_starts);
            }
        } else {
            self.leave_wheel();
        }
        let mut part = Partition::mount(&mut self.banks, self.lanes_per_router, self.w.ports);
        let target = self.cycle + cycles;
        let mut result = Ok(());
        while self.cycle < target {
            if wheel {
                self.wheel_skip_idle(target);
                if self.cycle >= target {
                    break;
                }
            }
            self.shard_cycle(&mut part, plan, wheel);
            if let Some(s) = self.stall.filter(|_| checked) {
                result = Err(s);
                break;
            }
        }
        part.unmount(&mut self.banks);
        result
    }

    /// One sharded cycle over a mounted partition.
    fn shard_cycle(&mut self, part: &mut Partition, plan: &mut ShardPlan, wheel: bool)
    where
        F: Sync,
    {
        self.moves_this_cycle = 0;
        if F::ACTIVE {
            self.begin_fault_cycle();
        }
        self.shard_phase_link(part, plan);
        self.link_barrier(part, plan);
        self.shard_phase_xbar(part, plan);
        self.xbar_barrier(part, plan);
        self.shard_phase_route_prepare(part, plan);
        self.apply_route_decisions(part, plan);
        if wheel {
            // Wheel-driven and serial: it already touches only the
            // firing and backlogged nodes.
            let mut w = self.wheel.take().expect("wheel mounted");
            self.wheel_phase_injection(&mut w, |eng, n, created| {
                eng.partition_inject_node(part, n, created)
            });
            self.wheel = Some(w);
        } else {
            self.shard_phase_injection_ticks(plan);
            self.apply_injection(part, plan);
        }
        self.end_cycle();
    }

    /// The shared per-node injection body over the partition's lanes.
    fn partition_inject_node(&mut self, part: &mut Partition, n: usize, created: Option<u32>) {
        let rs = &part.routers[self.w.node_ports[n].0 as usize];
        let lanes = NodeLanesMut {
            lanes: &mut part.node_lanes,
            base: n * self.vcs,
            credits: &part.node_credits[n * self.vcs..(n + 1) * self.vcs],
            occ: &mut part.node_lane_occ[n],
            rr: part.node_lane_rr[n],
        };
        self.inject_node(n, created, lanes, || {
            (rs.out_bound & rs.network_lanes).count_ones()
        });
    }

    /// Phase 1, shard-parallel.
    fn shard_phase_link(&mut self, part: &mut Partition, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        let env = LinkEnv {
            w: &self.w,
            faults: &self.faults,
            packets: &self.packets,
            router_starts: &plan.router_starts,
            cycle: self.cycle,
            vcs: self.vcs,
            lanes: self.lanes_per_router,
            request_reply: self.request_reply,
        };
        let mut routers = split_mut(&mut part.routers, &plan.router_starts).into_iter();
        let mut in_q = part.in_q.split(&plan.router_lane_starts).into_iter();
        let mut out_q = part.out_q.split(&plan.router_lane_starts).into_iter();
        let mut node_lanes = part.node_lanes.split(&plan.node_lane_starts).into_iter();
        let mut node_credits =
            split_mut(&mut part.node_credits, &plan.node_lane_starts).into_iter();
        let mut node_occ = split_mut(&mut part.node_lane_occ, &plan.node_starts).into_iter();
        let mut node_rr = split_mut(&mut part.node_lane_rr, &plan.node_starts).into_iter();
        let mut link_flits = split_mut(&mut self.link_flits, &plan.link_flit_starts).into_iter();
        let rw = &plan.router_word_starts;
        let mut link_words = split_mut(self.link_work.words_mut(), rw).into_iter();
        let mut route_words = split_mut(self.route_work.words_mut(), rw).into_iter();
        let mut xbar_words = split_mut(self.xbar_work.words_mut(), rw).into_iter();
        let mut inject_words =
            split_mut(self.inject_work.words_mut(), &plan.node_word_starts).into_iter();
        let mut ctxs: Vec<LinkShard<'_>> = plan
            .scratch
            .iter_mut()
            .enumerate()
            .map(|(i, scratch)| LinkShard {
                router_base: plan.router_starts[i],
                node_base: plan.node_starts[i],
                routers: routers.next().expect("one range per shard"),
                in_q: in_q.next().expect("one range per shard"),
                out_q: out_q.next().expect("one range per shard"),
                node_lanes: node_lanes.next().expect("one range per shard"),
                node_credits: node_credits.next().expect("one range per shard"),
                node_occ: node_occ.next().expect("one range per shard"),
                node_rr: node_rr.next().expect("one range per shard"),
                link_flits: link_flits.next().expect("one range per shard"),
                link_words: link_words.next().expect("one range per shard"),
                route_words: route_words.next().expect("one range per shard"),
                xbar_words: xbar_words.next().expect("one range per shard"),
                inject_words: inject_words.next().expect("one range per shard"),
                scratch,
            })
            .collect();
        run_shards(plan.threads, &mut ctxs, |sh| link_worker(&env, sh));
    }

    /// Replay one buffered link-phase probe observation.
    fn replay_link_event(&mut self, e: &LinkEvent) {
        match *e {
            LinkEvent::Link {
                packet,
                router,
                port,
                vc,
                kind,
            } => self
                .probe
                .link_flit(self.cycle, packet, router, port, vc, kind),
            LinkEvent::Delivered { packet, node } => {
                self.probe.packet_delivered(self.cycle, packet, node)
            }
            LinkEvent::Injection { packet, node, vc } => {
                self.probe.injection_flit(self.cycle, packet, node, vc)
            }
        }
    }

    /// Serial barrier after the link phase: drain the cross-shard flit
    /// handoffs in fixed total order, apply the deferred delivered
    /// stamps, replay the buffered probe events in serial order, spawn
    /// replies, and merge the counter deltas.
    fn link_barrier(&mut self, part: &mut Partition, plan: &mut ShardPlan) {
        let cycle = self.cycle;
        let shards = plan.shards;
        // Handoff drain order: destination-shard major, source-shard
        // minor, record order within a queue. The state updates are
        // order-free (one arrival per input lane per cycle), but the
        // fixed order keeps the drain auditable and deterministic.
        for dst in 0..shards {
            for src in 0..shards {
                let mut q = std::mem::take(&mut plan.scratch[src].flits_out[dst]);
                for (r2, dl, f) in q.drain(..) {
                    let (r2, dl) = (r2 as usize, dl as usize);
                    let rs = &mut part.routers[r2];
                    let dq = r2 * part.lanes + dl;
                    let was_empty = part.in_q.is_empty(dq);
                    part.in_q.push(dq, f);
                    rs.in_occ |= 1u64 << dl;
                    if was_empty && f.is_head() {
                        debug_assert_eq!(rs.in_route[dl], NO_ROUTE);
                        rs.pending |= 1 << dl;
                        self.route_work.insert(r2);
                    }
                    if rs.routed & (1u64 << dl) != 0 {
                        // Body/tail arriving on a lane whose head
                        // already holds a crossbar path.
                        self.xbar_work.insert(r2);
                    }
                }
                plan.scratch[src].flits_out[dst] = q; // return the allocation
            }
        }
        // Deferred delivered stamps (the packet table was read-only
        // during the parallel phase).
        for sh in plan.scratch.iter_mut() {
            for pkt in sh.delivered.drain(..) {
                let rec = &mut self.packets[pkt as usize];
                debug_assert_eq!(rec.delivered, NEVER);
                rec.delivered = cycle;
            }
        }
        // Probe replay: router legs shard-ascending (= ascending router
        // order), then node legs (= ascending node order) — the serial
        // stepper's exact emission order.
        for i in 0..shards {
            let evs = std::mem::take(&mut plan.scratch[i].router_events);
            for e in &evs {
                self.replay_link_event(e);
            }
            let mut evs = evs;
            evs.clear();
            plan.scratch[i].router_events = evs;
        }
        for i in 0..shards {
            let evs = std::mem::take(&mut plan.scratch[i].node_events);
            for e in &evs {
                self.replay_link_event(e);
            }
            let mut evs = evs;
            evs.clear();
            plan.scratch[i].node_events = evs;
        }
        // Replies were recorded during the (router-ascending) ejection
        // walk, so shard-ascending concatenation is the serial push
        // order.
        for i in 0..shards {
            let mut r = std::mem::take(&mut plan.scratch[i].replies);
            self.reply_buf.append(&mut r);
            plan.scratch[i].replies = r;
        }
        // Wheel-sharded composition: replies enter the receiving node's
        // source queue when spawned below, so the wheel's injection
        // phase must visit those nodes this cycle (mirror of the hook
        // in `wheel_step_inner`). A plain sharded run has no wheel
        // mounted and skips this.
        if let Some(mut w) = self.wheel.take() {
            self.wheel_note_replies(&mut w);
            self.wheel = Some(w);
        }
        self.spawn_replies();
        self.merge_shard_counters(plan);
    }

    /// Phase 2, shard-parallel.
    fn shard_phase_xbar(&mut self, part: &mut Partition, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        let env = XbarEnv {
            w: &self.w,
            router_starts: &plan.router_starts,
            cycle: self.cycle,
            vcs: self.vcs,
            lanes_per_router: self.lanes_per_router,
        };
        let mut routers = split_mut(&mut part.routers, &plan.router_starts).into_iter();
        let mut in_q = part.in_q.split(&plan.router_lane_starts).into_iter();
        let mut out_q = part.out_q.split(&plan.router_lane_starts).into_iter();
        let rw = &plan.router_word_starts;
        let mut link_words = split_mut(self.link_work.words_mut(), rw).into_iter();
        let mut route_words = split_mut(self.route_work.words_mut(), rw).into_iter();
        let mut xbar_words = split_mut(self.xbar_work.words_mut(), rw).into_iter();
        let mut ctxs: Vec<XbarShard<'_>> = plan
            .scratch
            .iter_mut()
            .enumerate()
            .map(|(i, scratch)| XbarShard {
                router_base: plan.router_starts[i],
                routers: routers.next().expect("one range per shard"),
                in_q: in_q.next().expect("one range per shard"),
                out_q: out_q.next().expect("one range per shard"),
                link_words: link_words.next().expect("one range per shard"),
                route_words: route_words.next().expect("one range per shard"),
                xbar_words: xbar_words.next().expect("one range per shard"),
                scratch,
            })
            .collect();
        run_shards(plan.threads, &mut ctxs, |sh| xbar_worker::<F>(&env, sh));
    }

    /// Serial barrier after the crossbar phase: apply the deferred
    /// credit acknowledgments (cross-shard router credits in fixed
    /// total order, then all node-side credits) and merge deltas.
    fn xbar_barrier(&mut self, part: &mut Partition, plan: &mut ShardPlan) {
        let shards = plan.shards;
        for dst in 0..shards {
            for src in 0..shards {
                let mut q = std::mem::take(&mut plan.scratch[src].credits_out[dst]);
                for (r2, ul) in q.drain(..) {
                    let up = &mut part.routers[r2 as usize];
                    up.out_credits[ul as usize] += 1;
                    debug_assert!(up.out_credits[ul as usize] as usize <= part.out_q.capacity());
                }
                plan.scratch[src].credits_out[dst] = q;
            }
        }
        for i in 0..shards {
            let mut q = std::mem::take(&mut plan.scratch[i].node_credits);
            for (nn, v) in q.drain(..) {
                let ni = nn as usize * self.vcs + v as usize;
                part.node_credits[ni] += 1;
                debug_assert!(part.node_credits[ni] as usize <= part.node_lanes.capacity());
            }
            plan.scratch[i].node_credits = q;
        }
        self.merge_shard_counters(plan);
    }

    /// Phase 3 preparation, shard-parallel (read-only).
    fn shard_phase_route_prepare(&mut self, part: &Partition, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        let env = RouteEnv {
            routers: &part.routers,
            in_q: &part.in_q,
            lanes: self.lanes_per_router,
            route_words: self.route_work.words(),
            packets: &self.packets,
            algo: self.algo,
            faults: &self.faults,
            cycle: self.cycle,
            vcs: self.vcs,
        };
        let word_starts = &plan.router_word_starts;
        let mut ctxs: Vec<RouteShard<'_>> = plan
            .scratch
            .iter_mut()
            .enumerate()
            .map(|(i, scratch)| RouteShard {
                word_lo: word_starts[i],
                word_hi: word_starts[i + 1],
                scratch,
            })
            .collect();
        run_shards(plan.threads, &mut ctxs, |sh| route_prepare_worker(&env, sh));
    }

    /// Serial half of the routing phase: run the RNG-consuming output
    /// selection over the prepared decisions in ascending router order
    /// (shard-ascending, ascending within a shard) and apply the
    /// results — exactly the serial stepper's order of RNG draws,
    /// counter updates and probe calls.
    fn apply_route_decisions(&mut self, part: &mut Partition, plan: &mut ShardPlan) {
        let lanes = self.lanes_per_router;
        for i in 0..plan.shards {
            let mut decisions = std::mem::take(&mut plan.scratch[i].decisions);
            for d in decisions.drain(..) {
                let r = d.router as usize;
                let l = d.lane as usize;
                if d.unroutable {
                    // Degraded-mode dead end: drop the packet and hand
                    // the lane to the crossbar phase for draining.
                    let rs = &mut part.routers[r];
                    rs.in_route[l] = DROP_ROUTE;
                    rs.routed |= 1u64 << l;
                    rs.pending &= !(1 << l);
                    rs.route_rr = ((l + 1) % lanes) as u32;
                    self.xbar_work.insert(r);
                    self.counters.dropped_packets += 1;
                    self.probe.packet_dropped(self.cycle, d.packet, r as u32);
                } else {
                    let rs = &part.routers[r];
                    let choice = select_output(
                        &mut self.rng,
                        &self.faults,
                        r,
                        self.vcs,
                        rs.out_bound,
                        &part.out_q,
                        &rs.out_credits,
                        r * lanes,
                        &d.cand,
                    );
                    match choice {
                        Some((ol, used_fallback)) => {
                            let rs = &mut part.routers[r];
                            rs.in_route[l] = ol as u32;
                            rs.routed |= 1u64 << l;
                            rs.out_bound |= 1u64 << ol;
                            rs.pending &= !(1 << l);
                            debug_assert_ne!(rs.in_occ & (1u64 << l), 0);
                            self.xbar_work.insert(r);
                            self.counters.routed_headers += 1;
                            self.packets[d.packet as usize].hops += 1;
                            if used_fallback {
                                self.counters.escape_routings += 1;
                            }
                            self.probe.header_routed(
                                self.cycle,
                                d.packet,
                                r as u32,
                                l as u16,
                                ol as u16,
                                used_fallback,
                            );
                            if d.degraded {
                                self.probe
                                    .header_rerouted(self.cycle, d.packet, r as u32, ol as u16);
                            }
                        }
                        None => {
                            self.counters.routing_blocked += 1;
                            self.probe
                                .routing_blocked(self.cycle, d.packet, r as u32, l as u16);
                        }
                    }
                    part.routers[r].route_rr = ((l + 1) % lanes) as u32;
                }
                if part.routers[r].pending == 0 {
                    self.route_work.remove(r);
                }
                let mut cand = d.cand;
                cand.clear();
                plan.scratch[i].cand_pool.push(cand);
            }
            plan.scratch[i].decisions = decisions;
        }
    }

    /// Phase 4 creation ticks, shard-parallel.
    fn shard_phase_injection_ticks(&mut self, plan: &mut ShardPlan) {
        let pattern = &self.pattern;
        let node_starts = &plan.node_starts;
        let mut ctxs: Vec<TickShard<'_>> = split_mut(&mut self.nodes, node_starts)
            .into_iter()
            .zip(plan.scratch.iter_mut())
            .enumerate()
            .map(|(i, (nodes, scratch))| TickShard {
                node_base: node_starts[i],
                nodes,
                scratch,
            })
            .collect();
        run_shards(plan.threads, &mut ctxs, |sh| tick_worker(pattern, sh));
    }

    /// Serial remainder of the injection phase: mirror of the default
    /// stepper's injection phase with the creation ticks replaced by
    /// the recorded `(node, dest)` pairs (shard-ascending concatenation
    /// = ascending node order), so packet ids, probe events, queueing
    /// and streaming all happen in the serial per-node order. The
    /// per-node body itself is the shared `Engine::inject_node`.
    fn apply_injection(&mut self, part: &mut Partition, plan: &mut ShardPlan) {
        let mut si = 0usize; // shard cursor into the creation records
        let mut pi = 0usize;
        for n in 0..self.w.num_nodes {
            while n >= plan.node_starts[si + 1] {
                si += 1;
                pi = 0;
            }

            // Packet creation (tick already ran in the parallel pass).
            let created = if pi < plan.scratch[si].creations.len()
                && plan.scratch[si].creations[pi].0 == n as u32
            {
                let dest = plan.scratch[si].creations[pi].1;
                pi += 1;
                Some(dest)
            } else {
                None
            };
            self.partition_inject_node(part, n, created);
        }
        for sh in plan.scratch.iter_mut() {
            sh.creations.clear();
        }
    }

    /// Fold every shard's counter/movement delta into the engine
    /// (wrapping: deltas may hold borrowed decrements).
    fn merge_shard_counters(&mut self, plan: &mut ShardPlan) {
        for sh in plan.scratch.iter_mut() {
            let d = std::mem::take(&mut sh.counters);
            let c = &mut self.counters;
            c.delivered_flits = c.delivered_flits.wrapping_add(d.delivered_flits);
            c.delivered_packets = c.delivered_packets.wrapping_add(d.delivered_packets);
            c.created_packets = c.created_packets.wrapping_add(d.created_packets);
            c.in_flight_flits = c.in_flight_flits.wrapping_add(d.in_flight_flits);
            c.routed_headers = c.routed_headers.wrapping_add(d.routed_headers);
            c.routing_blocked = c.routing_blocked.wrapping_add(d.routing_blocked);
            c.escape_routings = c.escape_routings.wrapping_add(d.escape_routings);
            c.flit_moves = c.flit_moves.wrapping_add(d.flit_moves);
            c.dropped_packets = c.dropped_packets.wrapping_add(d.dropped_packets);
            c.dropped_flits = c.dropped_flits.wrapping_add(d.dropped_flits);
            c.unroutable_packets = c.unroutable_packets.wrapping_add(d.unroutable_packets);
            self.moves_this_cycle += std::mem::take(&mut sh.moves);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_starts_cover_and_align() {
        for (len, shards) in [(256, 4), (100, 3), (64, 4), (1, 4), (4096, 8), (130, 2)] {
            let starts = aligned_starts(len, shards);
            assert_eq!(starts.len(), shards + 1);
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap(), len);
            for w in starts.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for &s in &starts[1..shards] {
                assert!(s % 64 == 0 || s == len, "interior boundary {s} unaligned");
            }
        }
    }

    #[test]
    fn shard_of_handles_empty_ranges() {
        let starts = vec![0usize, 0, 64, 64, 100];
        assert_eq!(shard_of(&starts, 0), 1);
        assert_eq!(shard_of(&starts, 63), 1);
        assert_eq!(shard_of(&starts, 64), 3);
        assert_eq!(shard_of(&starts, 99), 3);
    }

    #[test]
    fn split_mut_partitions() {
        let mut v: Vec<u32> = (0..10).collect();
        let parts = split_mut(&mut v, &[0, 4, 4, 10]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &[0, 1, 2, 3]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2], &[4, 5, 6, 7, 8, 9]);
    }
}
