//! Depth-packed banks of fixed-capacity flit FIFOs.
//!
//! Every lane in the network holds at most [`MAX_DEPTH`] flits (the
//! paper uses 4-flit lanes; the ablation benchmarks sweep 1..=8). A
//! `QueueBank` stores many equal-depth lanes in one flat slot array
//! strided by the *configured* depth, with each lane's ring cursor and
//! occupancy packed into parallel byte arrays: at the experiments'
//! depth-4 lanes a router's 64 lanes of cursors share one cache line,
//! and no slot is spent on padding up to the maximum depth.
//!
//! The engine keeps one bank for every router input lane, one for
//! every output lane and one for the node-side injection lanes (see
//! `engine::soa`); the sharded stepper splits those into per-shard
//! views (see `engine::shard`). Nothing outside this module
//! observes a lane's ring offset: snapshots and state hashes serialize
//! each lane as its length followed by its flits front to back.

use crate::flit::Flit;

/// Maximum supported lane depth.
pub const MAX_DEPTH: usize = 8;

const EMPTY: Flit = Flit {
    packet: 0,
    moved: 0,
    flags: 0,
};

/// A bank of flit queues of one uniform depth, addressed by lane index.
///
/// Generic over its storage: the engine owns `Vec`-backed banks, and
/// [`QueueBank::split`] hands out [`LaneView`]s — the same queue
/// operations over a disjoint run of lanes, re-indexed from 0 — so the
/// sharded stepper's workers run on the banks in place.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueueBank<S = Vec<Flit>, C = Vec<u8>> {
    /// `lane * cap + i` for slot `i` of lane `lane`.
    slots: S,
    /// Ring cursor of each lane's front flit, `0..cap`.
    head: C,
    /// Occupancy of each lane, `0..=cap`.
    len: C,
    /// The uniform lane depth.
    cap: u8,
}

/// A mutable window onto a run of a bank's lanes (see
/// [`QueueBank::split`]).
pub(crate) type LaneView<'b> = QueueBank<&'b mut [Flit], &'b mut [u8]>;

impl QueueBank {
    /// `lanes` empty queues of depth `cap`.
    ///
    /// # Panics
    /// Panics unless `1 <= cap <= MAX_DEPTH`.
    pub(crate) fn new(lanes: usize, cap: usize) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&cap),
            "lane depth {cap} unsupported"
        );
        QueueBank {
            slots: vec![EMPTY; lanes * cap],
            head: vec![0; lanes],
            len: vec![0; lanes],
            cap: cap as u8,
        }
    }

    /// Split the bank into consecutive views, view `k` covering lanes
    /// `lane_starts[k]..lane_starts[k + 1]` (`lane_starts[0] == 0`, the
    /// last entry the bank's lane count).
    pub(crate) fn split(&mut self, lane_starts: &[usize]) -> Vec<LaneView<'_>> {
        let cap = self.cap as usize;
        let (mut slots, mut head, mut len) =
            (&mut self.slots[..], &mut self.head[..], &mut self.len[..]);
        let mut views = Vec::with_capacity(lane_starts.len().saturating_sub(1));
        for w in lane_starts.windows(2) {
            let n = w[1] - w[0];
            let (s, s_rest) = std::mem::take(&mut slots).split_at_mut(n * cap);
            let (h, h_rest) = std::mem::take(&mut head).split_at_mut(n);
            let (l, l_rest) = std::mem::take(&mut len).split_at_mut(n);
            views.push(QueueBank {
                slots: s,
                head: h,
                len: l,
                cap: self.cap,
            });
            (slots, head, len) = (s_rest, h_rest, l_rest);
        }
        views
    }
}

impl<S: AsRef<[Flit]>, C: AsRef<[u8]>> QueueBank<S, C> {
    /// Depth of every lane in the bank.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Flits queued in lane `l`.
    #[inline]
    pub(crate) fn len(&self, l: usize) -> usize {
        self.len.as_ref()[l] as usize
    }

    /// Whether lane `l` holds no flits.
    #[inline]
    pub(crate) fn is_empty(&self, l: usize) -> bool {
        self.len.as_ref()[l] == 0
    }

    /// Whether lane `l` is at capacity.
    #[inline]
    pub(crate) fn is_full(&self, l: usize) -> bool {
        self.len.as_ref()[l] == self.cap
    }

    /// Free slots in lane `l`.
    #[inline]
    pub(crate) fn free(&self, l: usize) -> usize {
        (self.cap - self.len.as_ref()[l]) as usize
    }

    /// The front flit of lane `l`, if any.
    #[inline]
    pub(crate) fn front(&self, l: usize) -> Option<&Flit> {
        if self.len.as_ref()[l] == 0 {
            return None;
        }
        Some(&self.slots.as_ref()[l * self.cap as usize + self.head.as_ref()[l] as usize])
    }

    /// The flits of lane `l` front to back (the order `pop` returns
    /// them), without draining. Used by the snapshot writer.
    pub(crate) fn iter(&self, l: usize) -> impl Iterator<Item = &Flit> + '_ {
        let cap = self.cap as usize;
        let (slots, head) = (self.slots.as_ref(), self.head.as_ref()[l] as usize);
        (0..self.len(l)).map(move |i| &slots[l * cap + (head + i) % cap])
    }

    /// Total flits queued across every lane.
    pub(crate) fn total_len(&self) -> usize {
        self.len.as_ref().iter().map(|&n| n as usize).sum()
    }
}

impl<S: AsRef<[Flit]> + AsMut<[Flit]>, C: AsRef<[u8]> + AsMut<[u8]>> QueueBank<S, C> {
    /// Remove and return the front flit of lane `l` (which must be
    /// non-empty; every caller checks via [`QueueBank::front`] first).
    #[inline]
    pub(crate) fn pop(&mut self, l: usize) -> Flit {
        debug_assert!(self.len.as_ref()[l] > 0, "pop from empty lane");
        let cap = self.cap as usize;
        let h = self.head.as_ref()[l] as usize;
        let f = self.slots.as_ref()[l * cap + h];
        self.head.as_mut()[l] = if h + 1 == cap { 0 } else { (h + 1) as u8 };
        self.len.as_mut()[l] -= 1;
        f
    }

    /// Append a flit to the back of lane `l` (which must have space:
    /// a push into a full lane is a flow-control bug).
    #[inline]
    pub(crate) fn push(&mut self, l: usize, f: Flit) {
        let cap = self.cap as usize;
        let (h, n) = (
            self.head.as_ref()[l] as usize,
            self.len.as_ref()[l] as usize,
        );
        debug_assert!(n < cap, "push to full lane");
        let mut idx = h + n;
        if idx >= cap {
            idx -= cap;
        }
        self.slots.as_mut()[l * cap + idx] = f;
        self.len.as_mut()[l] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{HEAD, TAIL};

    fn f(p: u32) -> Flit {
        Flit {
            packet: p,
            moved: 0,
            flags: 0,
        }
    }

    fn drain(b: &mut QueueBank, l: usize) -> Vec<u32> {
        std::iter::from_fn(|| (!b.is_empty(l)).then(|| b.pop(l).packet)).collect()
    }

    #[test]
    fn fifo_order_per_lane() {
        let mut b = QueueBank::new(3, 4);
        for i in 0..4 {
            b.push(1, f(i));
        }
        assert!(b.is_full(1));
        assert_eq!(b.free(1), 0);
        assert!(b.is_empty(0) && b.is_empty(2));
        assert_eq!(drain(&mut b, 1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn wraps_around() {
        let mut b = QueueBank::new(2, 3);
        for round in 0..10u32 {
            b.push(0, f(round));
            assert_eq!(b.pop(0).packet, round);
        }
        assert!(b.is_empty(0));
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut b = QueueBank::new(1, 2);
        b.push(
            0,
            Flit {
                packet: 9,
                moved: 3,
                flags: HEAD | TAIL,
            },
        );
        assert_eq!(b.front(0).unwrap().packet, 9);
        assert_eq!(b.len(0), 1);
        assert!(b.front(0).unwrap().is_head());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = QueueBank::new(4, 0);
    }

    #[test]
    fn iter_matches_pop_order_across_wrap() {
        let mut b = QueueBank::new(2, 4);
        for i in 0..4 {
            b.push(1, f(i));
        }
        b.pop(1);
        b.pop(1);
        b.push(1, f(4));
        b.push(1, f(5));
        let seen: Vec<u32> = b.iter(1).map(|x| x.packet).collect();
        assert_eq!(seen, drain(&mut b, 1));
        assert_eq!(seen, vec![2, 3, 4, 5]);
    }

    #[test]
    fn split_views_address_disjoint_lane_runs() {
        let mut b = QueueBank::new(6, 4);
        {
            let mut views = b.split(&[0, 2, 2, 6]);
            assert_eq!(views.len(), 3);
            views[0].push(1, f(10));
            views[2].push(0, f(20));
            views[2].push(3, f(50));
            assert!(views[1].total_len() == 0);
        }
        assert_eq!(b.front(1).unwrap().packet, 10);
        assert_eq!(b.front(2).unwrap().packet, 20);
        assert_eq!(b.front(5).unwrap().packet, 50);
        assert_eq!(b.total_len(), 3);
    }
}
