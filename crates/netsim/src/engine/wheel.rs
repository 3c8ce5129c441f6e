//! Event-wheel (calendar-queue) execution mode.
//!
//! The injection phase is the one phase whose cost the default stepper
//! cannot compress: every node's creation process must
//! tick its RNG every cycle, even on a completely idle network. This
//! mode removes that floor. Each node's *next firing cycle* is computed
//! in advance ([`traffic::InjectionProcess::next_fire`] batches the
//! Bernoulli/periodic tick draws) and filed in a calendar queue —
//! [`SLOTS`] buckets indexed by `cycle mod SLOTS` — so the per-cycle
//! injection phase touches only the nodes that actually fire this cycle
//! plus the nodes with backlogged traffic, and a fully idle network
//! fast-forwards over cycles whose wheel slot is empty without
//! executing them at all ([`Engine::run_wheel`]).
//!
//! **Bit-identity.** The scheme is a per-node RNG *time shift*, not a
//! semantic change: `next_fire` consumes exactly the tick draws the
//! per-cycle loop would have consumed (pinned by a `traffic` unit
//! test), destination draws still happen at the firing node's visit in
//! ascending node order, and the shared selection RNG is untouched (it
//! only runs in the routing phase). Each node's canonical pre-scan
//! stream state is kept in `WheelState::synced`, and
//! `Engine::wheel_resync` replays it forward to the current cycle
//! whenever the engine must leave wheel mode (classic steppers,
//! snapshots, invariant checks), so the mode is invisible from outside.
//!
//! **Requirement**: wheel mode needs injection processes whose
//! `state_word`/`restore_state_word` round-trip faithfully captures
//! their state (true for every process in `traffic`: Bernoulli is
//! memoryless, `Periodic` and `OnOffBursty` override the hooks). A
//! custom process with hidden state outside the state word would
//! resync incorrectly — keep such processes on the other steppers.
//!
//! Fault plans stay exact: idle fast-forward stops at
//! [`crate::fault::FaultModel::next_transition`] so every transient
//! flip still happens on its scheduled cycle (and is reported to the
//! probe), and cycles with in-flight flits or backlog are always
//! stepped in full.

use super::soa::SoaBanks;
use super::{Engine, Stall};
use crate::active::ActiveSet;
use crate::fault::FaultModel;
use routing::RoutingAlgorithm;
use telemetry::Probe;
use topology::NodeId;
use traffic::Rng64;

/// Wheel size in slots (a power of two, so the slot index is a mask).
pub const SLOTS: usize = 1024;

/// Scan horizon in cycles: `next_fire` looks this far ahead. Must be
/// at most `SLOTS - 1` so a filed event is never a full wheel
/// revolution away (no slot ambiguity), and must not divide `SLOTS`
/// evenly into 0 — i.e. a rescan filed `HORIZON` ahead never lands in
/// the slot currently being drained.
pub const HORIZON: u32 = 512;

/// Event tag bit: the node's process produced no firing within
/// [`HORIZON`]; re-scan it when this event comes up instead of firing.
const RESCAN: u32 = 1 << 31;

/// Canonical (pre-scan) stream state of one node, from which the live
/// scanned-ahead RNG/process state can be replayed to any cycle.
#[derive(Clone, Copy, Debug)]
struct NodeSync {
    /// RNG state before the tick draw of cycle `synced_at`.
    rng: [u64; 4],
    /// Process state word at the same point.
    proc_word: u64,
    /// Tick draws for every cycle `< synced_at` are consumed; the draw
    /// for `synced_at` itself is not.
    synced_at: u32,
}

/// The calendar queue and per-node sync state of wheel mode.
///
/// The calendar is *partitioned*: part `k` holds the events of the
/// nodes in `starts[k]..starts[k+1]`. Serial wheel mode mounts a
/// single part covering every node; the wheel-sharded stepper
/// ([`Engine::run_wheel_sharded`]) partitions along the shard plan's
/// node ranges, so each shard's future firings live in their own slot
/// vectors and the global idle skip is "every part's current slot is
/// empty" — the minimum next-fire across shards decides how far the
/// network may fast-forward. The partition is an execution detail:
/// event membership is a pure function of node id, so re-partitioning
/// (via resync + remount) never changes what fires when.
pub struct WheelState {
    /// `parts[k][c mod SLOTS]` holds part `k`'s events due at cycle
    /// `c`: a node id, optionally tagged [`RESCAN`].
    parts: Vec<Vec<Vec<u32>>>,
    /// Node partition: part `k` owns nodes `starts[k]..starts[k+1]`
    /// (`starts[0] == 0`, last entry == node count).
    starts: Vec<usize>,
    /// Canonical stream state per node (see [`NodeSync`]).
    synced: Vec<NodeSync>,
    /// Nodes with queued or actively-streaming packets — exactly the
    /// nodes whose injection body can act without a fresh firing.
    pub(super) backlog: ActiveSet,
    /// Nodes firing in the cycle being stepped (cleared afterwards).
    fired: ActiveSet,
}

impl WheelState {
    /// The part owning node `n`.
    fn part_of(&self, n: usize) -> usize {
        self.starts.partition_point(|&s| s <= n) - 1
    }

    fn push(&mut self, cycle: u32, event: u32) {
        let n = (event & !RESCAN) as usize;
        let k = self.part_of(n);
        self.parts[k][cycle as usize & (SLOTS - 1)].push(event);
    }

    /// Whether no part has an event due at `cycle`.
    fn slot_empty(&self, cycle: u32) -> bool {
        let si = cycle as usize & (SLOTS - 1);
        self.parts.iter().all(|p| p[si].is_empty())
    }

    /// Whether the mounted partition matches `starts`.
    pub(super) fn partitioned_as(&self, starts: &[usize]) -> bool {
        self.starts == starts
    }
}

impl<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'_, A, P, F> {
    /// Mount a wheel over the nodes' current stream state, with the
    /// calendar partitioned at `starts` (serial callers pass the
    /// trivial `[0, num_nodes]` partition; the wheel-sharded stepper
    /// passes the shard plan's node ranges). Independent of where the
    /// lanes are mounted: the wheel only touches per-node stream state
    /// (`rng`, `proc`, source queues), which the lane banks never carry.
    pub(super) fn enter_wheel(&mut self, starts: &[usize]) {
        debug_assert!(self.wheel.is_none(), "wheel already mounted");
        debug_assert_eq!(starts.first(), Some(&0), "partition must start at 0");
        debug_assert_eq!(
            starts.last(),
            Some(&self.w.num_nodes),
            "partition must cover every node"
        );
        let nn = self.w.num_nodes;
        let mut w = Box::new(WheelState {
            parts: (0..starts.len() - 1)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            starts: starts.to_vec(),
            synced: vec![
                NodeSync {
                    rng: [0; 4],
                    proc_word: 0,
                    synced_at: 0,
                };
                nn
            ],
            backlog: ActiveSet::new(nn),
            fired: ActiveSet::new(nn),
        });
        let from = self.cycle;
        for n in 0..nn {
            self.wheel_scan_node(&mut w, n, from);
            let ns = &self.nodes[n];
            if !ns.src_queue.is_empty() || ns.active.is_some() {
                w.backlog.insert(n);
            }
        }
        self.wheel = Some(w);
    }

    /// Record node `n`'s canonical stream state as of cycle `from`
    /// (every tick below `from` consumed), then scan its process ahead
    /// and file the next firing — or a [`RESCAN`] at the horizon — in
    /// the wheel.
    fn wheel_scan_node(&mut self, w: &mut WheelState, n: usize, from: u32) {
        let ns = &mut self.nodes[n];
        w.synced[n] = NodeSync {
            rng: ns.rng.state(),
            proc_word: ns.proc.state_word(),
            synced_at: from,
        };
        match ns.proc.next_fire(&mut ns.rng, HORIZON) {
            Some(offset) => w.push(from + offset, n as u32),
            None => w.push(from + HORIZON, n as u32 | RESCAN),
        }
    }

    /// Leave wheel mode: replace every node's scanned-ahead RNG and
    /// process state with the canonical stream state replayed tick by
    /// tick up to the current cycle. Replays at most
    /// [`HORIZON`]` + 1` non-firing ticks per node.
    pub(super) fn wheel_resync(&mut self) {
        let w = self.wheel.take().expect("wheel_resync without a wheel");
        let cycle = self.cycle;
        for (n, sync) in w.synced.iter().enumerate() {
            let ns = &mut self.nodes[n];
            ns.rng = Rng64::from_state(sync.rng);
            ns.proc.restore_state_word(sync.proc_word);
            for _ in sync.synced_at..cycle {
                // Every scheduled firing at a cycle below the current
                // one was already processed, so the replayed draws are
                // all non-firing.
                let fired = ns.proc.tick(&mut ns.rng);
                debug_assert!(!fired, "wheel missed a firing for node {n}");
                let _ = fired;
            }
        }
    }

    /// Mount the serial (one-part) wheel unless one is mounted. A wheel
    /// left behind by a sharded run is kept as-is: any partition is
    /// equally correct under any stepper.
    fn ensure_wheel(&mut self) {
        if self.wheel.is_none() {
            self.enter_wheel(&[0, self.w.num_nodes]);
        }
    }

    /// Execute one clock cycle in wheel mode, mounting the wheel on
    /// first use. Bit-identical to [`Engine::step`].
    pub fn step_wheel(&mut self) {
        self.ensure_wheel();
        let mut b = std::mem::take(&mut self.banks);
        let mut w = self.wheel.take().expect("wheel mounted above");
        self.wheel_step_inner(&mut b, &mut w);
        self.banks = b;
        self.wheel = Some(w);
    }

    /// One cycle over the banks and a mounted wheel: the phases 1–3 of
    /// [`Engine::step`] plus the wheel-driven injection phase.
    fn wheel_step_inner(&mut self, b: &mut SoaBanks, w: &mut WheelState) {
        self.moves_this_cycle = 0;
        if F::ACTIVE {
            self.begin_fault_cycle();
        }
        self.soa_phase_link(b);
        self.soa_phase_node_link(b);
        // Replies enter the receiving node's source queue this cycle;
        // the injection phase below must visit those nodes.
        self.wheel_note_replies(w);
        self.spawn_replies();
        self.soa_phase_xbar(b);
        self.soa_phase_route(b);
        self.wheel_phase_injection(w, |eng, n, created| eng.soa_inject_node(b, n, created));
        self.end_cycle();
    }

    /// Put the receivers of this cycle's pending replies on the wheel
    /// backlog: the replies enter their source queues when spawned, so
    /// the injection phase must visit those nodes.
    pub(super) fn wheel_note_replies(&self, w: &mut WheelState) {
        for &req in &self.reply_buf {
            w.backlog.insert(self.packets[req as usize].dest as usize);
        }
    }

    /// Drain the current cycle's wheel slot — every part's — into the
    /// `fired` set, resolving [`RESCAN`] events (which may file fresh
    /// events — even offset-0 firings into this very slot). Leaves the
    /// slots empty with their allocations returned.
    ///
    /// Part order is unobservable: a rescan only consumes the scanned
    /// node's *own* RNG and only files into that node's own part, and
    /// `fired` is a bitset, so no cross-node ordering leaks out.
    fn wheel_drain_slot(&mut self, w: &mut WheelState, cycle: u32, fired: bool) {
        let si = cycle as usize & (SLOTS - 1);
        for k in 0..w.parts.len() {
            let mut events = std::mem::take(&mut w.parts[k][si]);
            let mut i = 0;
            while i < events.len() {
                if events[i] & RESCAN != 0 {
                    let n = (events[i] & !RESCAN) as usize;
                    events.swap_remove(i);
                    // The rescan may push an offset-0 firing into
                    // `parts[k][si]` itself (node `n` belongs to part
                    // `k` by construction); a rescan-to-rescan loop is
                    // impossible because HORIZON is not 0 mod SLOTS.
                    self.wheel_scan_node(w, n, cycle);
                } else {
                    i += 1;
                }
            }
            events.append(&mut w.parts[k][si]);
            if fired {
                for &ev in &events {
                    debug_assert_eq!(ev & RESCAN, 0);
                    w.fired.insert(ev as usize);
                }
                events.clear();
            }
            w.parts[k][si] = events; // return the allocation (or live events)
        }
    }

    /// Phase 4, wheel-driven: visit — in ascending node order, exactly
    /// like the full scan — the union of this cycle's firing nodes and
    /// the backlog, running the injection body `inject(engine, node,
    /// created)` on each: the banks' body serially, the mounted
    /// partition's under the wheel-sharded stepper.
    pub(super) fn wheel_phase_injection(
        &mut self,
        w: &mut WheelState,
        mut inject: impl FnMut(&mut Self, usize, Option<u32>),
    ) {
        let cycle = self.cycle;
        self.wheel_drain_slot(w, cycle, true);
        debug_assert_eq!(w.backlog.num_words(), w.fired.num_words());
        for wi in 0..w.backlog.num_words() {
            // Word snapshot: the handlers below only edit the visited
            // node's own membership, so later bits stay valid.
            let mut bits = w.backlog.word(wi) | w.fired.word(wi);
            while bits != 0 {
                let n = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let created = if w.fired.contains(n) {
                    // The firing tick was consumed by the scan; draw
                    // the destination now (same per-node draw order as
                    // the full scan) and file the next firing.
                    let dest = {
                        let ns = &mut self.nodes[n];
                        self.pattern
                            .dest(NodeId(n as u32), &mut ns.rng)
                            .map(|d| d.0)
                    };
                    self.wheel_scan_node(w, n, cycle + 1);
                    dest
                } else {
                    None
                };
                inject(self, n, created);
                let ns = &self.nodes[n];
                if !ns.src_queue.is_empty() || ns.active.is_some() {
                    w.backlog.insert(n);
                } else {
                    w.backlog.remove(n);
                }
            }
        }
        w.fired.clear();
    }

    /// Whether the network state permits skipping cycles outright:
    /// nothing in flight (so the link/crossbar/routing phases are
    /// no-ops), no backlogged sources and no pending replies (so the
    /// injection phase only ticks processes — which the wheel has
    /// pre-consumed). None of these can change during skipped cycles.
    fn wheel_skippable(&self, w: &WheelState) -> bool {
        self.counters.in_flight_flits == 0 && w.backlog.is_empty() && self.reply_buf.is_empty()
    }

    /// Fast-forward over empty cycles up to (exclusive) `target`,
    /// stopping at the first cycle with a wheel event or fault
    /// transition. Each skipped cycle performs exactly the observable
    /// work of an empty stepped cycle: the probe's `cycle_end` and the
    /// cycle increment.
    pub(super) fn wheel_skip_idle(&mut self, target: u32) {
        let Some(mut w) = self.wheel.take() else {
            return;
        };
        if self.wheel_skippable(&w) {
            // Transient fault flips are scheduled; never skip past one
            // (the flip must be applied and reported on its cycle).
            let fault_bound = if F::ACTIVE {
                self.faults.next_transition(self.cycle)
            } else {
                u32::MAX
            };
            while self.cycle < target && self.cycle != fault_bound {
                let cycle = self.cycle;
                self.wheel_drain_slot(&mut w, cycle, false);
                if !w.slot_empty(cycle) {
                    break; // a node fires somewhere: step for real
                }
                self.probe.cycle_end(cycle);
                self.idle_cycles = 0;
                self.cycle = cycle + 1;
            }
        }
        self.wheel = Some(w);
    }

    /// Advance by `cycles` clocks with [`Engine::step_wheel`],
    /// fast-forwarding over idle stretches (skipped cycles count
    /// against the budget, exactly as if they had been stepped).
    pub fn run_wheel(&mut self, cycles: u32) {
        self.ensure_wheel();
        let target = self.cycle + cycles;
        while self.cycle < target {
            self.wheel_skip_idle(target);
            if self.cycle >= target {
                break;
            }
            self.step_wheel();
        }
    }

    /// [`Engine::run_wheel`] with the watchdog reporting a [`Stall`]
    /// instead of panicking, mirroring [`Engine::run_checked`].
    pub fn run_checked_wheel(&mut self, cycles: u32) -> Result<(), Stall> {
        self.report_stall = true;
        self.ensure_wheel();
        let target = self.cycle + cycles;
        while self.cycle < target {
            self.wheel_skip_idle(target);
            if self.cycle >= target {
                break;
            }
            self.step_wheel();
            if let Some(s) = self.stall {
                return Err(s);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use routing::{CubeDuato, RoutingAlgorithm, TreeAdaptive};
    use topology::{KAryNCube, KAryNTree};
    use traffic::{Bernoulli, InjectionProcess, Pattern, Periodic, TrafficGen};

    use super::super::Engine;

    fn engine_pair<'a, Algo: RoutingAlgorithm>(
        algo: &'a Algo,
        mk: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
    ) -> (Engine<'a, Algo>, Engine<'a, Algo>) {
        let n = algo.topology().num_nodes();
        let a = Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), mk, seed);
        let b = Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), mk, seed);
        (a, b)
    }

    #[test]
    fn wheel_step_matches_reference_step_exactly() {
        let cube = CubeDuato::new(KAryNCube::new(4, 2));
        let tree = TreeAdaptive::new(KAryNTree::new(2, 3), 2);
        fn check<Algo: RoutingAlgorithm>(algo: &Algo, rate: f64) {
            let mk = move |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(rate)) };
            let (mut refr, mut wheel) = engine_pair(algo, &mk, 77);
            for cycle in 0..1500 {
                refr.step_reference();
                wheel.step_wheel();
                if cycle % 128 == 0 {
                    assert_eq!(refr.counters(), wheel.counters(), "cycle {cycle}");
                    assert_eq!(refr.packets(), wheel.packets(), "cycle {cycle}");
                }
            }
            assert_eq!(refr.counters(), wheel.counters());
            assert_eq!(refr.packets(), wheel.packets());
            assert_eq!(refr.state_hash(), wheel.state_hash());
        }
        check(&cube, 0.01);
        check(&cube, 0.08); // saturating
        check(&tree, 0.02);
    }

    #[test]
    fn wheel_run_skips_idle_cycles_invisibly() {
        // Very low Bernoulli load: long empty stretches between
        // packets. run_wheel fast-forwards them; every observable must
        // still match the stepped run, including mid-run hashes.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.0005)) };
        let (mut refr, mut wheel) = engine_pair(&algo, &mk, 9);
        for _ in 0..8 {
            refr.run_reference(2500);
            wheel.run_wheel(2500);
            assert_eq!(refr.cycle(), wheel.cycle());
            assert_eq!(refr.counters(), wheel.counters());
            assert_eq!(refr.state_hash(), wheel.state_hash());
        }
        assert!(refr.counters().delivered_packets > 0, "want traffic");
        assert_eq!(refr.packets(), wheel.packets());
    }

    #[test]
    fn wheel_matches_on_periodic_and_mixed_processes() {
        // Periodic uses the closed-form next_fire override; mix with
        // Bernoulli and idle nodes to cross-check scheduling, and use
        // periods beyond the horizon to exercise RESCAN events.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |n: usize| -> Box<dyn InjectionProcess> {
            match n % 4 {
                0 => Box::new(Periodic::every(97)),
                1 => Box::new(Bernoulli::new(0.01)),
                2 => Box::new(Periodic::every(700)), // beyond HORIZON
                _ => Box::new(Bernoulli::new(0.0)),  // forever idle
            }
        };
        let (mut refr, mut wheel) = engine_pair(&algo, &mk, 15);
        refr.run_reference(6000);
        wheel.run_wheel(6000);
        assert_eq!(refr.counters(), wheel.counters());
        assert_eq!(refr.packets(), wheel.packets());
        assert_eq!(refr.state_hash(), wheel.state_hash());
    }

    #[test]
    fn wheel_interleaves_with_every_other_stepper() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.03)) };
        let (mut pure, mut mixed) = engine_pair(&algo, &mk, 5);
        for cycle in 0..1200 {
            pure.step();
            match cycle % 3 {
                0 => mixed.step_wheel(),
                1 => mixed.step(),
                _ => mixed.step_reference(),
            }
            if cycle % 203 == 0 {
                assert_eq!(mixed.check_worklist_invariant(), Ok(()), "cycle {cycle}");
                assert_eq!(mixed.check_credit_invariant(), Ok(()), "cycle {cycle}");
            }
        }
        assert_eq!(pure.counters(), mixed.counters());
        assert_eq!(pure.packets(), mixed.packets());
        assert_eq!(pure.state_hash(), mixed.state_hash());
    }

    #[test]
    fn wheel_handles_request_reply_and_throttle() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let (mut refr, mut wheel) = engine_pair(&algo, &mk, 21);
        for eng in [&mut refr, &mut wheel] {
            eng.set_request_reply(true);
            eng.set_injection_limit(Some(4));
        }
        refr.run_reference(1000);
        wheel.run_wheel(1000);
        assert!(refr.counters().delivered_packets > 0);
        assert_eq!(refr.counters(), wheel.counters());
        assert_eq!(refr.packets(), wheel.packets());
        assert_eq!(refr.state_hash(), wheel.state_hash());
    }

    #[test]
    fn wheel_drain_tail_fast_forwards_to_the_same_state() {
        // Sources stop firing after the periodic burst; the wheel run
        // must drain the network identically and then skip the long
        // idle tail. Cross SLOTS cycles several times so slots wrap.
        let algo = TreeAdaptive::new(KAryNTree::new(2, 3), 2);
        let mk = |n: usize| -> Box<dyn InjectionProcess> {
            if n.is_multiple_of(3) {
                Box::new(Periodic::every(1900)) // fires once before 3700
            } else {
                Box::new(Bernoulli::new(0.0))
            }
        };
        let (mut refr, mut wheel) = engine_pair(&algo, &mk, 33);
        refr.run_reference(3700);
        wheel.run_wheel(3700);
        assert!(refr.counters().delivered_packets > 0);
        assert_eq!(refr.counters().in_flight_flits, 0, "network drained");
        assert_eq!(refr.counters(), wheel.counters());
        assert_eq!(refr.packets(), wheel.packets());
        assert_eq!(refr.state_hash(), wheel.state_hash());
    }
}
