//! The engine's resident state: struct-of-arrays lane banks, and the
//! steppers that run over them.
//!
//! Every router's lanes, credits and masks live in flat, contiguous
//! banks ([`SoaBanks`]) indexed `router * lanes + lane` (node-side:
//! `node * vcs + vc`), with the per-router masks in dense `Vec<u64>`
//! arrays. Arbitration is then a two-level word scan: the phase's
//! worklist bitmap (one `u64` covers 64 routers) selects busy routers,
//! and each busy router's lane mask is walked with word-wide `u64` ops,
//! so the credit/occupancy updates of a move land in dense arrays
//! instead of scattered per-router heap objects.
//!
//! Every per-lane handler takes a `MASKED` flag that selects the scan
//! strategy only. `MASKED = true` is the default stepper
//! ([`Engine::step`]): it walks set mask bits and skips idle routers
//! through the worklists. `MASKED = false` is the reference oracle
//! ([`Engine::step_reference`]): it visits every router, node, port and
//! lane and inspects each queue directly. The mutation bodies are the
//! same either way, and both scans visit routers, ports and lanes in
//! the same ascending (or round-robin) order — the order is observable
//! through the shared selection-policy RNG — so the two steppers are
//! bit-identical and interleave freely.

use super::{fault_unroutable, Engine, Stall, DROP_ROUTE, NO_ROUTE};
use crate::fault::FaultModel;
use crate::flit::{Flit, PacketRec, HEAD, NEVER, TAIL};
use crate::queue::QueueBank;
use crate::wiring::{Peer, Wiring};
use routing::{CandidateSet, RoutingAlgorithm};
use telemetry::{LinkKind, Probe};
use topology::{NodeId, RouterId};
use traffic::Rng64;

/// The flat lane banks every stepper runs over.
///
/// Layouts: per-lane arrays are indexed `router * lanes_per_router +
/// lane` (node-side: `node * vcs + vc`), per-router mask/cursor arrays
/// by router id, and the per-port link round-robin cursors by
/// `router * ports + port`.
#[derive(Default)]
pub struct SoaBanks {
    // Router state, lane-indexed.
    /// Input lanes.
    pub(super) in_q: QueueBank,
    /// Assigned output lane per input lane (`NO_ROUTE` if none; applies
    /// to the packet at the head of the lane).
    pub(super) in_route: Vec<u32>,
    /// Output lanes.
    pub(super) out_q: QueueBank,
    /// Credits: free buffers in the downstream input lane.
    pub(super) out_credits: Vec<u8>,
    // Router state, router-indexed.
    /// Output lanes a crossbar path currently ends at.
    pub(super) out_bound: Vec<u64>,
    /// Output lanes on ports cabled to another router (used by the
    /// limited-injection throttle; derived from the wiring).
    pub(super) network_lanes: Vec<u64>,
    /// Input lanes holding an unrouted header at the front.
    pub(super) pending: Vec<u64>,
    /// Non-empty input lanes.
    pub(super) in_occ: Vec<u64>,
    /// Non-empty output lanes.
    pub(super) out_occ: Vec<u64>,
    /// Input lanes with an assigned route (mirror of `in_route[l] !=
    /// NO_ROUTE`, kept as a mask so the crossbar phase can intersect it
    /// with `in_occ`).
    pub(super) routed: Vec<u64>,
    /// Round-robin cursor of the routing phase.
    pub(super) route_rr: Vec<u32>,
    // Router state, port-indexed.
    /// Round-robin cursor of each port's link arbiter.
    pub(super) link_rr: Vec<u8>,
    // Node state, lane- and node-indexed.
    /// Node-side injection lanes (one per VC).
    pub(super) node_lanes: QueueBank,
    /// Credits towards the router's node-port input lanes.
    pub(super) node_credits: Vec<u8>,
    /// Non-empty node-side lanes.
    pub(super) node_lane_occ: Vec<u64>,
    /// Round-robin cursor for lane choice and the injection link
    /// arbiter.
    pub(super) node_lane_rr: Vec<u8>,
    // Local-lane decomposition tables (`ll -> (port, vc)`), shared by
    // every router: the hot handlers replace the `ll / vcs` and
    // `ll % vcs` divisions with two cache-resident byte loads.
    lane_port: Vec<u8>,
    lane_vc: Vec<u8>,
}

impl SoaBanks {
    /// Empty banks for a network wired as `w` with `vcs` lanes per port
    /// of depth `depth`: every queue empty, every credit full.
    pub(super) fn new(w: &Wiring, vcs: usize, depth: usize) -> Self {
        let (nr, nn, ports) = (w.num_routers, w.num_nodes, w.ports);
        let lanes = ports * vcs;
        let port_lanes = (1u64 << vcs) - 1;
        SoaBanks {
            in_q: QueueBank::new(nr * lanes, depth),
            in_route: vec![NO_ROUTE; nr * lanes],
            out_q: QueueBank::new(nr * lanes, depth),
            out_credits: vec![depth as u8; nr * lanes],
            out_bound: vec![0; nr],
            network_lanes: (0..nr)
                .map(|r| {
                    (0..ports)
                        .filter(|&p| matches!(w.peer(r, p), Peer::Router { .. }))
                        .fold(0, |m, p| m | port_lanes << (p * vcs))
                })
                .collect(),
            pending: vec![0; nr],
            in_occ: vec![0; nr],
            out_occ: vec![0; nr],
            routed: vec![0; nr],
            route_rr: vec![0; nr],
            link_rr: vec![0; nr * ports],
            node_lanes: QueueBank::new(nn * vcs, depth),
            node_credits: vec![depth as u8; nn * vcs],
            node_lane_occ: vec![0; nn],
            node_lane_rr: vec![0; nn],
            lane_port: (0..lanes).map(|ll| (ll / vcs) as u8).collect(),
            lane_vc: (0..lanes).map(|ll| (ll % vcs) as u8).collect(),
        }
    }

    /// Drop every lane, route, credit, mask and cursor array, keeping
    /// only the wiring-derived tables: the sharded stepper holds the
    /// lane state meanwhile and writes the arrays back.
    pub(super) fn release(&mut self) {
        *self = SoaBanks {
            network_lanes: std::mem::take(&mut self.network_lanes),
            lane_port: std::mem::take(&mut self.lane_port),
            lane_vc: std::mem::take(&mut self.lane_vc),
            ..SoaBanks::default()
        };
    }
}

/// Bit `j` set iff `vals[j] != 0` (`vals.len() <= 64`): which of a
/// worklist word's routers still satisfy their phase condition. LLVM
/// vectorizes this loop on its own.
#[inline]
fn nonzero_mask(vals: &[u64]) -> u64 {
    debug_assert!(vals.len() <= 64);
    let mut mask = 0u64;
    for (j, &v) in vals.iter().enumerate() {
        mask |= u64::from(v != 0) << j;
    }
    mask
}

/// Bit `j` set iff `a[j] & b[j] != 0` — [`nonzero_mask`] over a
/// lanewise AND.
#[inline]
fn and_nonzero_mask(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= 64);
    let mut mask = 0u64;
    for (j, (&va, &vb)) in a.iter().zip(b).enumerate() {
        mask |= u64::from(va & vb != 0) << j;
    }
    mask
}

/// The node-side lane state the shared injection body works on: the
/// node's lanes in `lanes` at `base + vc`, its credits (`credits[vc]`),
/// its occupancy mask and round-robin cursor.
pub(super) struct NodeLanesMut<'b> {
    pub(super) lanes: &'b mut QueueBank,
    pub(super) base: usize,
    pub(super) credits: &'b [u8],
    pub(super) occ: &'b mut u64,
    pub(super) rr: u8,
}

/// The selection policy: among admissible preferred lanes pick the
/// port with the most free virtual channels (fair random tie-break on
/// the shared `rng`), then the lane with the most headroom on that
/// port; fall back to the first admissible escape lane. Returns the
/// chosen router-local output lane and whether the fallback class was
/// used. Lanes on currently-down channels are never admissible.
///
/// Router `r`'s output lane `ll` is `out_q` lane `base + ll` (`base =
/// r * lanes_per_router` in a whole bank), with its credits at
/// `out_credits[ll]`.
#[allow(clippy::too_many_arguments)]
pub(super) fn select_output<F: FaultModel>(
    rng: &mut Rng64,
    faults: &F,
    r: usize,
    vcs: usize,
    out_bound: u64,
    out_q: &QueueBank,
    out_credits: &[u8],
    base: usize,
    cand: &CandidateSet,
) -> Option<(usize, bool)> {
    let admissible = |lane: usize| {
        out_bound & (1u64 << lane) == 0
            && !out_q.is_full(base + lane)
            && !(F::ACTIVE && faults.channel_down(r, lane / vcs))
    };

    // Pass 1: best port among preferred candidates.
    let mut best_port: Option<usize> = None;
    let mut best_score = 0usize;
    let mut ties = 0u64;
    let mut last_port = usize::MAX;
    for c in &cand.preferred {
        let port = c.port as usize;
        if port == last_port {
            continue; // candidates are grouped by port
        }
        last_port = port;
        let has_admissible = (0..vcs).any(|v| {
            cand.preferred
                .iter()
                .any(|cc| cc.port as usize == port && cc.vc as usize == v)
                && admissible(port * vcs + v)
        });
        if !has_admissible {
            continue;
        }
        let port_mask = ((1u64 << vcs) - 1) << (port * vcs);
        let free_vcs = vcs - (out_bound & port_mask).count_ones() as usize;
        if best_port.is_none() || free_vcs > best_score {
            best_port = Some(port);
            best_score = free_vcs;
            ties = 1;
        } else if free_vcs == best_score {
            // Reservoir sampling for a fair tie-break.
            ties += 1;
            if rng.below(ties) == 0 {
                best_port = Some(port);
            }
        }
    }

    if let Some(port) = best_port {
        // Pass 2: best lane on the chosen port.
        let mut best_lane = None;
        let mut best_headroom = 0usize;
        for c in &cand.preferred {
            if c.port as usize != port {
                continue;
            }
            let lane = port * vcs + c.vc as usize;
            if !admissible(lane) {
                continue;
            }
            let headroom = out_credits[lane] as usize + out_q.free(base + lane);
            if best_lane.is_none() || headroom > best_headroom {
                best_lane = Some(lane);
                best_headroom = headroom;
            }
        }
        return best_lane.map(|l| (l, false));
    }

    // Fallback (escape) class, in the order the algorithm listed.
    for c in &cand.fallback {
        let lane = c.port as usize * vcs + c.vc as usize;
        if admissible(lane) {
            return Some((lane, true));
        }
    }
    None
}

impl<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'_, A, P, F> {
    /// Execute one clock cycle: the four phases, each driven by its
    /// worklist and a chunked mask scan, so idle routers and nodes cost
    /// nothing. Replays a mounted event wheel away first (this stepper
    /// ticks every injection process itself).
    pub fn step(&mut self) {
        self.leave_wheel();
        let mut b = std::mem::take(&mut self.banks);
        self.soa_step_inner(&mut b);
        self.banks = b;
    }

    /// Advance the simulation by `cycles` clocks with [`Engine::step`].
    pub fn run(&mut self, cycles: u32) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Advance by `cycles` clocks with the watchdog reporting instead
    /// of panicking: a run that stops making progress (flits in flight,
    /// nothing moving for the watchdog horizon) returns the [`Stall`]
    /// as a structured error rather than aborting the process.
    pub fn run_checked(&mut self, cycles: u32) -> Result<(), Stall> {
        self.report_stall = true;
        for _ in 0..cycles {
            self.step();
            if let Some(s) = self.stall {
                return Err(s);
            }
        }
        Ok(())
    }

    /// Execute one clock cycle with the naive scan-everything stepper:
    /// every router and node is visited in every phase and every port
    /// and lane is inspected through its queues directly (the handlers
    /// run with `MASKED = false`, compiling out every mask-based
    /// early-out). The mutation bodies are those of [`Engine::step`] —
    /// masks and worklists are still maintained — so the two steppers
    /// are bit-identical and may be interleaved. Kept as the
    /// equivalence oracle and the benchmark baseline.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn step_reference(&mut self) {
        self.leave_wheel();
        let mut b = std::mem::take(&mut self.banks);
        self.reference_step_inner(&mut b);
        self.banks = b;
    }

    /// Advance the simulation by `cycles` clocks using
    /// [`Engine::step_reference`].
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_reference(&mut self, cycles: u32) {
        for _ in 0..cycles {
            self.step_reference();
        }
    }

    /// [`Engine::run_reference`] with the watchdog reporting a
    /// [`Stall`] instead of panicking, mirroring
    /// [`Engine::run_checked`].
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_checked_reference(&mut self, cycles: u32) -> Result<(), Stall> {
        self.report_stall = true;
        for _ in 0..cycles {
            self.step_reference();
            if let Some(s) = self.stall {
                return Err(s);
            }
        }
        Ok(())
    }

    /// One default-stepper cycle over the banks.
    pub(super) fn soa_step_inner(&mut self, b: &mut SoaBanks) {
        self.moves_this_cycle = 0;
        if F::ACTIVE {
            self.begin_fault_cycle();
        }
        self.soa_phase_link(b);
        self.soa_phase_node_link(b);
        self.spawn_replies();
        self.soa_phase_xbar(b);
        self.soa_phase_route(b);
        self.soa_phase_injection(b);
        self.end_cycle();
    }

    /// One reference cycle: every phase visits every router and node
    /// with the unmasked handlers, retiring drained worklist members
    /// exactly as the masked phases do.
    #[cfg(any(test, feature = "reference-engine"))]
    fn reference_step_inner(&mut self, b: &mut SoaBanks) {
        self.moves_this_cycle = 0;
        if F::ACTIVE {
            self.begin_fault_cycle();
        }

        // Phase 1: link.
        for r in 0..self.w.num_routers {
            self.soa_link_router::<false>(b, r);
            if b.out_occ[r] == 0 {
                self.link_work.remove(r);
            }
        }
        for n in 0..self.w.num_nodes {
            self.soa_link_node::<false>(b, n);
            if b.node_lane_occ[n] == 0 {
                self.inject_work.remove(n);
            }
        }
        self.spawn_replies();

        // Phase 2: crossbar.
        let lanes = self.lanes_per_router;
        for r in 0..self.w.num_routers {
            for ll in 0..lanes {
                if b.in_route[r * lanes + ll] != NO_ROUTE {
                    self.soa_xbar_lane(b, r, ll);
                }
            }
            if b.in_occ[r] & b.routed[r] == 0 {
                self.xbar_work.remove(r);
            }
        }

        // Phase 3: routing.
        for r in 0..self.w.num_routers {
            if b.pending[r] == 0 {
                continue;
            }
            self.soa_route_router::<false>(b, r);
            if b.pending[r] == 0 {
                self.route_work.remove(r);
            }
        }

        // Phase 4: injection.
        self.soa_phase_injection(b);
        self.end_cycle();
    }

    /// Phase 1 (router half): link arbitration, driven by the
    /// `link_work` bitmap — a set summary bit selects each word of busy
    /// routers (64 fully idle routers cost nothing at all: the
    /// sparse-drain fast path), a wide scan over the word's 64 `out_occ`
    /// condition words batch-retires members whose buffered output
    /// already drained, and only the survivors get the per-router lane
    /// scan.
    ///
    /// The batch retire is bit-identical to the one-by-one form: a
    /// member whose condition word is zero would be visited as a
    /// guarded no-op and then removed, and no link handler mutates
    /// *another* router's `out_occ` during this phase, so the wide
    /// snapshot can only go stale for the member being visited.
    pub(super) fn soa_phase_link(&mut self, b: &mut SoaBanks) {
        self.link_work.sync_summary();
        for si in 0..self.link_work.num_summary_words() {
            let mut sbits = self.link_work.summary_word(si);
            while sbits != 0 {
                let wi = (si << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let ww = self.link_work.word(wi);
                if ww == 0 {
                    continue;
                }
                let base = wi << 6;
                let live = nonzero_mask(&b.out_occ[base..(base + 64).min(self.w.num_routers)]);
                self.link_work.remove_word_bits(wi, ww & !live);
                let mut bits = ww & live;
                while bits != 0 {
                    let r = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.soa_link_router::<true>(b, r);
                    if b.out_occ[r] == 0 {
                        self.link_work.remove(r);
                    }
                }
            }
        }
    }

    /// Phase 1 (node half): the injection channels of every node on the
    /// `inject_work` bitmap with a non-empty node-side lane, with the
    /// same summary skip + wide condition scan as
    /// [`Engine::soa_phase_link`] (condition word: `node_lane_occ`).
    pub(super) fn soa_phase_node_link(&mut self, b: &mut SoaBanks) {
        self.inject_work.sync_summary();
        for si in 0..self.inject_work.num_summary_words() {
            let mut sbits = self.inject_work.summary_word(si);
            while sbits != 0 {
                let wi = (si << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let ww = self.inject_work.word(wi);
                if ww == 0 {
                    continue;
                }
                let base = wi << 6;
                let live = nonzero_mask(&b.node_lane_occ[base..(base + 64).min(self.w.num_nodes)]);
                self.inject_work.remove_word_bits(wi, ww & !live);
                let mut bits = ww & live;
                while bits != 0 {
                    let n = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.soa_link_node::<true>(b, n);
                    if b.node_lane_occ[n] == 0 {
                        self.inject_work.remove(n);
                    }
                }
            }
        }
    }

    /// Phase 2: crossbar forwarding for every router on the `xbar_work`
    /// bitmap with a routed, occupied input lane (the wide scan ANDs
    /// `in_occ` and `routed` lanewise: the phase needs a lane that is
    /// both occupied *and* owns a crossbar path).
    pub(super) fn soa_phase_xbar(&mut self, b: &mut SoaBanks) {
        self.xbar_work.sync_summary();
        for si in 0..self.xbar_work.num_summary_words() {
            let mut sbits = self.xbar_work.summary_word(si);
            while sbits != 0 {
                let wi = (si << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let ww = self.xbar_work.word(wi);
                if ww == 0 {
                    continue;
                }
                let base = wi << 6;
                let lim = (base + 64).min(self.w.num_routers);
                let live = and_nonzero_mask(&b.in_occ[base..lim], &b.routed[base..lim]);
                self.xbar_work.remove_word_bits(wi, ww & !live);
                let mut bits = ww & live;
                while bits != 0 {
                    let r = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // Snapshot: lanes of this router cannot become
                    // forwardable during the phase (routes are only
                    // assigned in the routing phase, arrivals only in
                    // the link phase).
                    let mut mask = b.in_occ[r] & b.routed[r];
                    while mask != 0 {
                        let l = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        self.soa_xbar_lane(b, r, l);
                    }
                    if b.in_occ[r] & b.routed[r] == 0 {
                        self.xbar_work.remove(r);
                    }
                }
            }
        }
    }

    /// Phase 3: at most one routing decision per router on the
    /// `route_work` bitmap with a pending header (condition word:
    /// `pending`).
    pub(super) fn soa_phase_route(&mut self, b: &mut SoaBanks) {
        self.route_work.sync_summary();
        for si in 0..self.route_work.num_summary_words() {
            let mut sbits = self.route_work.summary_word(si);
            while sbits != 0 {
                let wi = (si << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let ww = self.route_work.word(wi);
                if ww == 0 {
                    continue;
                }
                let base = wi << 6;
                let live = nonzero_mask(&b.pending[base..(base + 64).min(self.w.num_routers)]);
                self.route_work.remove_word_bits(wi, ww & !live);
                let mut bits = ww & live;
                while bits != 0 {
                    let r = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.soa_route_router::<true>(b, r);
                    if b.pending[r] == 0 {
                        self.route_work.remove(r);
                    }
                }
            }
        }
    }

    /// Link phase, one router: move at most one flit per physical
    /// channel direction. `MASKED` walks only the occupied directions
    /// of `out_occ` (ascending lane order is ascending port order, and
    /// handlers only ever clear bits of the port being served, so the
    /// local copy stays exact for the ports not yet visited); unmasked,
    /// every port is visited.
    fn soa_link_router<const MASKED: bool>(&mut self, b: &mut SoaBanks, r: usize) {
        if MASKED {
            let vcs = self.vcs;
            let port_lanes = (1u64 << vcs) - 1;
            let mut occ = b.out_occ[r];
            while occ != 0 {
                let p = b.lane_port[occ.trailing_zeros() as usize] as usize;
                occ &= !(port_lanes << (p * vcs));
                self.soa_link_port::<true>(b, r, p);
            }
        } else {
            for p in 0..self.w.ports {
                self.soa_link_port::<false>(b, r, p);
            }
        }
    }

    /// Link phase, one physical channel direction `r`:`p`: a fair
    /// round-robin arbiter picks one output lane with a ready flit (and,
    /// towards a router, a credit) and moves the flit across.
    #[inline(always)]
    fn soa_link_port<const MASKED: bool>(&mut self, b: &mut SoaBanks, r: usize, p: usize) {
        if F::ACTIVE && self.faults.channel_down(r, p) {
            return; // channel down: nothing crosses this cycle
        }
        let cycle = self.cycle;
        let vcs = self.vcs;
        let ports = self.w.ports;
        let base = r * self.lanes_per_router;
        match self.w.peer(r, p) {
            Peer::None => {
                // Reachable only in the unmasked full scan: flits are
                // never routed towards an uncabled port.
                debug_assert!(!MASKED, "flit buffered on an uncabled port");
            }
            Peer::Node(node) => {
                // Ejection: the node always sinks (no credits).
                let mut v = b.link_rr[r * ports + p] as usize;
                for _ in 0..vcs {
                    // Round-robin without `%`: `v` wraps manually.
                    let next = if v + 1 == vcs { 0 } else { v + 1 };
                    let ll = p * vcs + v;
                    if MASKED && b.out_occ[r] & (1u64 << ll) == 0 {
                        v = next;
                        continue;
                    }
                    let l = base + ll;
                    let ready = matches!(b.out_q.front(l), Some(f) if f.moved < cycle);
                    if ready {
                        let f = b.out_q.pop(l);
                        if b.out_q.is_empty(l) {
                            b.out_occ[r] &= !(1u64 << ll);
                        }
                        b.link_rr[r * ports + p] = next as u8;
                        self.link_flits[r * ports + p] += 1;
                        self.counters.delivered_flits += 1;
                        self.counters.in_flight_flits -= 1;
                        self.moves_this_cycle += 1;
                        self.probe.link_flit(
                            cycle,
                            f.packet,
                            r as u32,
                            p as u16,
                            v as u8,
                            LinkKind::Ejection,
                        );
                        if f.is_tail() {
                            let rec = &mut self.packets[f.packet as usize];
                            debug_assert_eq!(rec.delivered, NEVER);
                            rec.delivered = cycle;
                            let reply = self.request_reply && !rec.is_reply();
                            self.counters.delivered_packets += 1;
                            if reply {
                                self.reply_buf.push(f.packet);
                            }
                            self.probe.packet_delivered(cycle, f.packet, node);
                        }
                        break;
                    }
                    v = next;
                }
            }
            Peer::Router {
                router: r2,
                port: p2,
            } => {
                let (r2, p2) = (r2 as usize, p2 as usize);
                debug_assert_ne!(r, r2);
                let base2 = r2 * self.lanes_per_router;
                let mut v = b.link_rr[r * ports + p] as usize;
                for _ in 0..vcs {
                    let next = if v + 1 == vcs { 0 } else { v + 1 };
                    let ll = p * vcs + v;
                    if MASKED && b.out_occ[r] & (1u64 << ll) == 0 {
                        v = next;
                        continue;
                    }
                    let l = base + ll;
                    let ready = b.out_credits[l] > 0
                        && matches!(b.out_q.front(l), Some(f) if f.moved < cycle);
                    if ready {
                        let mut f = b.out_q.pop(l);
                        if b.out_q.is_empty(l) {
                            b.out_occ[r] &= !(1u64 << ll);
                        }
                        b.out_credits[l] -= 1;
                        b.link_rr[r * ports + p] = next as u8;
                        self.link_flits[r * ports + p] += 1;
                        f.moved = cycle;
                        let dll = p2 * vcs + v;
                        let dl = base2 + dll;
                        let was_empty = b.in_q.is_empty(dl);
                        b.in_q.push(dl, f);
                        b.in_occ[r2] |= 1u64 << dll;
                        if was_empty && f.is_head() {
                            debug_assert_eq!(b.in_route[dl], NO_ROUTE);
                            b.pending[r2] |= 1 << dll;
                            self.route_work.insert(r2);
                        }
                        if b.routed[r2] & (1u64 << dll) != 0 {
                            // Body/tail arriving on a lane whose head
                            // already holds a crossbar path.
                            self.xbar_work.insert(r2);
                        }
                        self.moves_this_cycle += 1;
                        self.probe.link_flit(
                            cycle,
                            f.packet,
                            r as u32,
                            p as u16,
                            v as u8,
                            LinkKind::Network,
                        );
                        break;
                    }
                    v = next;
                }
            }
        }
    }

    /// Link phase, one node-side injection channel (node -> router).
    /// `MASKED` as on [`Engine::soa_link_router`].
    fn soa_link_node<const MASKED: bool>(&mut self, b: &mut SoaBanks, n: usize) {
        if F::ACTIVE && self.faults.node_dead(n) {
            return; // dead node: its injection channel carries nothing
        }
        let cycle = self.cycle;
        let vcs = self.vcs;
        let (r, p) = self.w.node_ports[n];
        let (r, p) = (r as usize, p as usize);
        let nb = n * vcs;
        let mut v = b.node_lane_rr[n] as usize;
        for _ in 0..vcs {
            let next = if v + 1 == vcs { 0 } else { v + 1 };
            if MASKED && b.node_lane_occ[n] & (1u64 << v) == 0 {
                v = next;
                continue;
            }
            let ready = b.node_credits[nb + v] > 0
                && matches!(b.node_lanes.front(nb + v), Some(f) if f.moved < cycle);
            if ready {
                let mut f = b.node_lanes.pop(nb + v);
                if b.node_lanes.is_empty(nb + v) {
                    b.node_lane_occ[n] &= !(1u64 << v);
                }
                b.node_credits[nb + v] -= 1;
                b.node_lane_rr[n] = next as u8;
                f.moved = cycle;
                let dll = p * vcs + v;
                let dl = r * self.lanes_per_router + dll;
                let was_empty = b.in_q.is_empty(dl);
                b.in_q.push(dl, f);
                b.in_occ[r] |= 1u64 << dll;
                if was_empty && f.is_head() {
                    b.pending[r] |= 1 << dll;
                    self.route_work.insert(r);
                }
                if b.routed[r] & (1u64 << dll) != 0 {
                    self.xbar_work.insert(r);
                }
                self.moves_this_cycle += 1;
                self.probe
                    .injection_flit(cycle, f.packet, n as u32, v as u8);
                break;
            }
            v = next;
        }
    }

    /// Return the credit for one buffer freed in router `r`'s input
    /// lane `ll` to the upstream output lane (or node-side lane).
    #[inline]
    fn soa_ack(&mut self, b: &mut SoaBanks, r: usize, ll: usize) {
        let vcs = self.vcs;
        let (p, v) = (b.lane_port[ll] as usize, b.lane_vc[ll] as usize);
        match self.w.peer(r, p) {
            Peer::Router {
                router: r2,
                port: p2,
            } => {
                let ul = r2 as usize * self.lanes_per_router + p2 as usize * vcs + v;
                b.out_credits[ul] += 1;
                debug_assert!(b.out_credits[ul] as usize <= b.out_q.capacity());
            }
            Peer::Node(nn) => {
                let ni = nn as usize * vcs + v;
                b.node_credits[ni] += 1;
                debug_assert!(b.node_credits[ni] as usize <= b.node_lanes.capacity());
            }
            Peer::None => unreachable!("flit arrived through an uncabled port"),
        }
    }

    /// Crossbar phase, one input lane `ll` of router `r` holding a
    /// path: forward a flit if the head is movable and the output lane
    /// has room; an acknowledgment immediately restores one credit
    /// upstream, and a tail tears the path down.
    fn soa_xbar_lane(&mut self, b: &mut SoaBanks, r: usize, ll: usize) {
        let cycle = self.cycle;
        let base = r * self.lanes_per_router;
        let l = base + ll;
        if F::ACTIVE && b.in_route[l] == DROP_ROUTE {
            self.soa_drain_lane(b, r, ll);
            return;
        }
        let route = b.in_route[l];
        debug_assert_ne!(route, NO_ROUTE);
        let route = route as usize;
        let movable =
            matches!(b.in_q.front(l), Some(f) if f.moved < cycle) && !b.out_q.is_full(base + route);
        if !movable {
            return;
        }
        let mut f = b.in_q.pop(l);
        if b.in_q.is_empty(l) {
            b.in_occ[r] &= !(1u64 << ll);
        }
        f.moved = cycle;
        b.out_q.push(base + route, f);
        b.out_occ[r] |= 1u64 << route;
        self.link_work.insert(r);
        self.moves_this_cycle += 1;
        if f.is_tail() {
            b.in_route[l] = NO_ROUTE;
            b.routed[r] &= !(1u64 << ll);
            b.out_bound[r] &= !(1u64 << route);
            if matches!(b.in_q.front(l), Some(nf) if nf.is_head()) {
                b.pending[r] |= 1 << ll;
                self.route_work.insert(r);
            }
        }
        self.soa_ack(b, r, ll);
    }

    /// Crossbar-phase handler for a lane whose head-of-line packet was
    /// dropped by the fault plane (`in_route == DROP_ROUTE`): sink one
    /// flit per cycle instead of forwarding it, returning the freed
    /// buffer's credit upstream exactly as a real forward would. The
    /// drain counts as movement, so a draining network never trips the
    /// watchdog; when the tail is sunk the lane is released and the
    /// next header (if any) re-enters the routing phase.
    fn soa_drain_lane(&mut self, b: &mut SoaBanks, r: usize, ll: usize) {
        let cycle = self.cycle;
        let l = r * self.lanes_per_router + ll;
        let movable = matches!(b.in_q.front(l), Some(f) if f.moved < cycle);
        if !movable {
            return;
        }
        let f = b.in_q.pop(l);
        if b.in_q.is_empty(l) {
            b.in_occ[r] &= !(1u64 << ll);
        }
        self.counters.in_flight_flits -= 1;
        self.counters.dropped_flits += 1;
        self.moves_this_cycle += 1;
        if f.is_tail() {
            b.in_route[l] = NO_ROUTE;
            b.routed[r] &= !(1u64 << ll);
            if matches!(b.in_q.front(l), Some(nf) if nf.is_head()) {
                b.pending[r] |= 1 << ll;
                self.route_work.insert(r);
            }
        }
        self.soa_ack(b, r, ll);
    }

    /// Routing phase, one router: route at most one header. `MASKED`
    /// walks the set bits of `pending` in round-robin order (bits at
    /// and above the cursor, then the wrap-around); unmasked, every
    /// lane index is rotated through — both visit the same lanes in the
    /// same order.
    fn soa_route_router<const MASKED: bool>(&mut self, b: &mut SoaBanks, r: usize) {
        let lanes = self.lanes_per_router;
        let pending = b.pending[r];
        debug_assert_ne!(pending, 0, "router scanned without pending header");
        let start = b.route_rr[r] as usize;
        debug_assert!(start < lanes);
        if MASKED {
            let below_start = (1u64 << start) - 1;
            'scan: for part in [pending & !below_start, pending & below_start] {
                let mut bits = part;
                while bits != 0 {
                    let ll = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.soa_route_lane(b, r, ll) {
                        break 'scan;
                    }
                }
            }
        } else {
            for i in 0..lanes {
                let ll = (start + i) % lanes;
                if pending & (1u64 << ll) != 0 && self.soa_route_lane(b, r, ll) {
                    break;
                }
            }
        }
    }

    /// One pending lane: attempt the routing decision. Returns whether
    /// a decision (successful or blocked) was made — the router's one
    /// routing opportunity this cycle is then spent.
    fn soa_route_lane(&mut self, b: &mut SoaBanks, r: usize, ll: usize) -> bool {
        let cycle = self.cycle;
        let lanes = self.lanes_per_router;
        let l = r * lanes + ll;
        let front = *b.in_q.front(l).expect("pending lane must hold a flit");
        debug_assert!(front.is_head(), "pending lane front must be a header");
        if front.moved >= cycle {
            // Arrived this very cycle; visible to the routing logic
            // from the next cycle on.
            return false;
        }
        let dest = self.packets[front.packet as usize].dest;
        let in_port = b.lane_port[ll] as usize;
        // Take the candidate buffer out to appease the borrow checker;
        // it is returned below.
        let mut cand = std::mem::take(&mut self.cand);
        self.algo
            .route(RouterId(r as u32), Some(in_port), NodeId(dest), &mut cand);
        debug_assert!(!cand.is_empty(), "routing function returned no candidate");
        if F::ACTIVE && fault_unroutable(&self.faults, r, &cand) {
            // Degraded-mode dead end: drop the packet and hand the lane
            // to the crossbar phase for draining.
            self.cand = cand;
            b.in_route[l] = DROP_ROUTE;
            b.routed[r] |= 1u64 << ll;
            b.pending[r] &= !(1 << ll);
            self.xbar_work.insert(r);
            self.counters.dropped_packets += 1;
            self.probe.packet_dropped(cycle, front.packet, r as u32);
            b.route_rr[r] = ((ll + 1) % lanes) as u32;
            return true;
        }
        // Degraded-mode reroute: at least one candidate direction is
        // down, so whatever lane wins below is a detour.
        let degraded = F::ACTIVE
            && cand
                .preferred
                .iter()
                .chain(cand.fallback.iter())
                .any(|c| self.faults.channel_down(r, c.port as usize));
        let choice = select_output(
            &mut self.rng,
            &self.faults,
            r,
            self.vcs,
            b.out_bound[r],
            &b.out_q,
            &b.out_credits[r * lanes..(r + 1) * lanes],
            r * lanes,
            &cand,
        );
        self.cand = cand;
        match choice {
            Some((ol, used_fallback)) => {
                b.in_route[l] = ol as u32;
                b.routed[r] |= 1u64 << ll;
                b.out_bound[r] |= 1u64 << ol;
                b.pending[r] &= !(1 << ll);
                // The header is at the front and has not moved this
                // cycle, so the lane is forwardable.
                debug_assert_ne!(b.in_occ[r] & (1u64 << ll), 0);
                self.xbar_work.insert(r);
                self.counters.routed_headers += 1;
                self.packets[front.packet as usize].hops += 1;
                if used_fallback {
                    self.counters.escape_routings += 1;
                }
                self.probe.header_routed(
                    cycle,
                    front.packet,
                    r as u32,
                    ll as u16,
                    ol as u16,
                    used_fallback,
                );
                if degraded {
                    self.probe
                        .header_rerouted(cycle, front.packet, r as u32, ol as u16);
                }
            }
            None => {
                self.counters.routing_blocked += 1;
                self.probe
                    .routing_blocked(cycle, front.packet, r as u32, ll as u16);
            }
        }
        // One routing decision per router per cycle, successful or
        // not; advance the cursor for fairness either way.
        b.route_rr[r] = ((ll + 1) % lanes) as u32;
        true
    }

    /// Phase 4: tick every node's creation process (inherently
    /// O(nodes): every process ticks its RNG every cycle), then run the
    /// shared per-node injection body.
    fn soa_phase_injection(&mut self, b: &mut SoaBanks) {
        for n in 0..self.w.num_nodes {
            let ns = &mut self.nodes[n];
            let created = if ns.proc.tick(&mut ns.rng) {
                self.pattern
                    .dest(NodeId(n as u32), &mut ns.rng)
                    .map(|d| d.0)
            } else {
                None
            };
            self.soa_inject_node(b, n, created);
        }
    }

    /// The per-node injection body over the banks (shared by the
    /// default, reference and wheel steppers).
    #[inline]
    pub(super) fn soa_inject_node(&mut self, b: &mut SoaBanks, n: usize, created: Option<u32>) {
        let r = self.w.node_ports[n].0 as usize;
        let lanes = NodeLanesMut {
            lanes: &mut b.node_lanes,
            base: n * self.vcs,
            credits: &b.node_credits[n * self.vcs..(n + 1) * self.vcs],
            occ: &mut b.node_lane_occ[n],
            rr: b.node_lane_rr[n],
        };
        let (out_bound, network) = (&b.out_bound, &b.network_lanes);
        self.inject_node(n, created, lanes, || {
            (out_bound[r] & network[r]).count_ones()
        });
    }

    /// The per-node injection body shared by every stepper: packet
    /// creation (when the caller's tick drew `created` as a
    /// destination), the fault-plane source purge, throttled packet
    /// start, and streaming one flit of the active packet into the
    /// node-side lanes `lanes`. `busy_network_lanes` counts the
    /// allocated network output lanes of the node's router (the
    /// limited-injection throttle; only evaluated when a limit is set).
    #[inline(always)]
    pub(super) fn inject_node(
        &mut self,
        n: usize,
        created: Option<u32>,
        lanes: NodeLanesMut<'_>,
        busy_network_lanes: impl FnOnce() -> u32,
    ) {
        let cycle = self.cycle;
        let flits = self.flits_per_packet;
        let ns = &mut self.nodes[n];
        if let Some(dest) = created {
            let id = self.packets.len() as u32;
            self.packets.push(PacketRec {
                src: n as u32,
                dest,
                created: cycle,
                injected: NEVER,
                delivered: NEVER,
                flits,
                hops: 0,
                in_reply_to: u32::MAX,
            });
            ns.src_queue.push_back(id);
            self.counters.created_packets += 1;
            self.probe.packet_created(cycle, id, n as u32, dest, flits);
        }

        // Fault plane: a packet whose source or destination node is
        // dead can never be delivered — abandon it at the source
        // (counted unroutable, never injected). Dead endpoints are
        // known at cycle 0, so the source queue never wedges behind a
        // doomed head.
        if F::ACTIVE {
            while let Some(&pkt) = ns.src_queue.front() {
                let dest = self.packets[pkt as usize].dest as usize;
                if !self.faults.node_dead(n) && !self.faults.node_dead(dest) {
                    break;
                }
                ns.src_queue.pop_front();
                self.counters.unroutable_packets += 1;
                self.probe.packet_unroutable(cycle, pkt, n as u32);
            }
        }

        // Start the next packet (single injection channel: one packet
        // streams at a time; limited injection may hold it back while
        // the local router is congested).
        let vcs = self.vcs;
        let nb = lanes.base;
        if ns.active.is_none() {
            let throttled = match self.injection_limit {
                None => false,
                Some(limit) => busy_network_lanes() >= limit,
            };
            if !throttled {
                if let Some(&pkt) = ns.src_queue.front() {
                    // Choose the lane with the most headroom; rotate on
                    // ties for fairness.
                    let mut v = lanes.rr as usize;
                    let mut best: Option<(usize, usize)> = None;
                    for _ in 0..vcs {
                        if !lanes.lanes.is_full(nb + v) {
                            let headroom = lanes.lanes.free(nb + v) + lanes.credits[v] as usize;
                            if best.is_none_or(|(_, h)| headroom > h) {
                                best = Some((v, headroom));
                            }
                        }
                        v += 1;
                        if v == vcs {
                            v = 0;
                        }
                    }
                    if let Some((v, _)) = best {
                        ns.src_queue.pop_front();
                        ns.active = Some((pkt, flits));
                        ns.active_lane = v as u8;
                    }
                }
            }
        }

        // Stream one flit of the active packet.
        if let Some((pkt, remaining)) = ns.active {
            let lane = ns.active_lane as usize;
            if !lanes.lanes.is_full(nb + lane) {
                let mut flags = 0u8;
                if remaining == flits {
                    flags |= HEAD;
                    self.packets[pkt as usize].injected = cycle;
                    self.probe.packet_injected(cycle, pkt, n as u32, lane as u8);
                }
                if remaining == 1 {
                    flags |= TAIL;
                }
                lanes.lanes.push(
                    nb + lane,
                    Flit {
                        packet: pkt,
                        moved: cycle,
                        flags,
                    },
                );
                *lanes.occ |= 1u64 << lane;
                self.inject_work.insert(n);
                self.counters.in_flight_flits += 1;
                self.moves_this_cycle += 1;
                ns.active = if remaining == 1 {
                    None
                } else {
                    Some((pkt, remaining - 1))
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use routing::{CubeDuato, RoutingAlgorithm};
    use topology::KAryNCube;
    use traffic::{Bernoulli, InjectionProcess, Pattern, TrafficGen};

    use super::super::Engine;
    use super::{and_nonzero_mask, nonzero_mask};

    #[test]
    fn mask_scans_flag_exactly_the_live_words() {
        let vals: Vec<u64> = (0..64)
            .map(|j| if j % 3 == 0 { 1 << j } else { 0 })
            .collect();
        let m = nonzero_mask(&vals);
        for j in 0..64 {
            assert_eq!(m >> j & 1 == 1, j % 3 == 0, "word {j}");
        }
        assert_eq!(nonzero_mask(&vals[..5]), 0b1001);
        let a = [1u64, 2, 4, 8, 16];
        let b = [1u64, 1, 4, 0, 16];
        assert_eq!(and_nonzero_mask(&a, &b), 0b10101);
        assert_eq!(nonzero_mask(&[]), 0);
    }

    #[test]
    fn step_honours_throttle_and_request_reply() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let build = || {
            let n = algo.topology().num_nodes();
            let mut eng = Engine::new(&algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), &mk, 21);
            eng.set_request_reply(true);
            eng.set_injection_limit(Some(4));
            eng
        };
        let (mut refr, mut soa) = (build(), build());
        refr.run_reference(1000);
        soa.run(1000);
        assert!(refr.counters().delivered_packets > 0);
        assert_eq!(refr.counters(), soa.counters());
        assert_eq!(refr.packets(), soa.packets());
        assert_eq!(refr.state_hash(), soa.state_hash());
    }
}
