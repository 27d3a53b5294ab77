//! The simulation event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is assigned
//! at insertion, so two events scheduled for the same instant fire in the
//! order they were scheduled. This makes every simulation run deterministic,
//! which the test suite and the figure-regeneration harnesses rely on.
//!
//! ## Calendar buckets
//!
//! [`EventQueue`] is a calendar queue: a ring of fixed-width time buckets
//! covering a sliding "near" horizon ahead of the dispatch cursor, plus an
//! overflow heap for events beyond it. Most simulation traffic (NIC
//! completions, poll backoffs, token handoffs) lands within a few
//! microseconds of *now*, so push and pop touch one small per-bucket heap
//! of O(events-per-bucket) instead of one global heap of O(all pending
//! events) — the difference between O(log 10) and O(log 100k) comparisons
//! per operation on a 4096-rank job. Events past the horizon go to the
//! overflow heap and migrate into the ring exactly once, as the cursor
//! advances toward them. The `(time, seq)` dispatch order is identical to
//! the old single-heap implementation ([`HeapEventQueue`], kept for
//! benchmarking): `(time, seq)` pairs are unique, each bucket covers a
//! disjoint time slice, and within a bucket the per-bucket heap orders by
//! the same key.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{RankId, Scheduler};
use crate::time::SimTime;

/// A boxed event callback. Callbacks run inline in the dispatch loop, on
/// whichever thread holds the execution token, and may schedule further
/// events or wake parked ranks through the [`Scheduler`].
pub type EventFn = Box<dyn FnOnce(&Scheduler) + Send>;

/// What an event does when it fires.
pub enum EventKind {
    /// Run a callback inline (NIC completions, PIOMan ltasks…).
    Call(EventFn),
    /// Resume a parked rank (or run its poll body, if it left one).
    Wake(RankId),
}

impl std::fmt::Debug for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Call(_) => write!(f, "Call(..)"),
            EventKind::Wake(r) => write!(f, "Wake({r:?})"),
        }
    }
}

struct Entry {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// log2 of the bucket width in simulated nanoseconds: 4.096 µs buckets.
/// Sized so one bucket covers a poll-backoff step or a small-message RTT
/// and the whole ring covers ~1 ms of simulated time.
const WIDTH_SHIFT: u32 = 12;
const WIDTH: u64 = 1 << WIDTH_SHIFT;
/// Ring size. `NBUCKETS × WIDTH` ≈ 1.05 ms of near horizon.
const NBUCKETS: usize = 256;

/// A deterministic calendar queue of simulation events.
pub struct EventQueue {
    /// The bucket ring. `near[i]` holds events whose bucket index
    /// (`time >> WIDTH_SHIFT`) is ≡ i (mod NBUCKETS) *and* lies within the
    /// near horizon `[cur_day, cur_day + NBUCKETS·WIDTH)`.
    near: Vec<BinaryHeap<Entry>>,
    /// Events at or beyond the near horizon, ordered by `(time, seq)`.
    far: BinaryHeap<Entry>,
    /// Number of events currently in the ring (all buckets).
    near_len: usize,
    /// Current bucket index (the cursor).
    cur: usize,
    /// Start time of bucket `cur`, always a multiple of `WIDTH`.
    cur_day: u64,
    next_seq: u64,
    popped: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            near: (0..NBUCKETS).map(|_| BinaryHeap::new()).collect(),
            far: BinaryHeap::new(),
            near_len: 0,
            cur: 0,
            cur_day: 0,
            next_seq: 0,
            popped: 0,
        }
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn horizon_end(&self) -> u64 {
        self.cur_day + (NBUCKETS as u64) * WIDTH
    }

    /// Insert an event at `time`. Returns the sequence number assigned to it.
    pub fn push(&mut self, time: SimTime, kind: EventKind) -> u64 {
        let seq = self.take_seq();
        self.push_at(time, seq, kind);
        seq
    }

    /// Draw the next sequence number without queueing anything: the
    /// engine's clean poll ticks (`engine::Dispatch::clean`) hold their
    /// `(time, seq)` outside the queue.
    #[inline]
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Insert an event under a sequence number drawn earlier with
    /// [`EventQueue::take_seq`], so it dispatches where it would have had
    /// it been pushed then.
    pub(crate) fn push_at(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        let e = Entry { time, seq, kind };
        let t = time.0;
        if t < self.horizon_end() {
            // A push below the cursor's day (engine forbids past-of-now,
            // but *now* can sit mid-bucket) still lands in the current
            // bucket; the per-bucket heap keeps it ordered correctly.
            let idx = if t < self.cur_day {
                self.cur
            } else {
                ((t >> WIDTH_SHIFT) as usize) % NBUCKETS
            };
            self.near[idx].push(e);
            self.near_len += 1;
        } else {
            self.far.push(e);
        }
    }

    /// Move `cur` onto the bucket containing `t` without scanning the
    /// ring day-by-day (used when the whole ring is empty).
    fn jump_cursor(&mut self, t: u64) {
        debug_assert_eq!(self.near_len, 0);
        self.cur_day = t & !(WIDTH - 1);
        self.cur = ((t >> WIDTH_SHIFT) as usize) % NBUCKETS;
    }

    /// Pull overflow events that now fall inside the near horizon into
    /// their ring buckets.
    fn migrate_far(&mut self) {
        let end = self.horizon_end();
        while let Some(e) = self.far.peek() {
            if e.time.0 >= end {
                break;
            }
            let e = self.far.pop().expect("peeked");
            let idx = ((e.time.0 >> WIDTH_SHIFT) as usize) % NBUCKETS;
            self.near[idx].push(e);
            self.near_len += 1;
        }
    }

    /// Move the cursor onto the bucket that holds the earliest event;
    /// `false` when the queue is empty.
    fn seek(&mut self) -> bool {
        if self.near_len == 0 && self.far.is_empty() {
            return false;
        }
        while self.near[self.cur].is_empty() {
            if self.near_len == 0 {
                // Ring empty: jump straight to the earliest overflow event
                // instead of crawling the ring one day at a time.
                let t = self.far.peek().expect("queue non-empty").time.0;
                self.jump_cursor(t);
            } else {
                // Advance one bucket. The vacated bucket becomes the ring's
                // newest day slot, so overflow events for that day (and
                // only that day) migrate in now — each far event moves
                // exactly once.
                self.cur = (self.cur + 1) % NBUCKETS;
                self.cur_day += WIDTH;
            }
            self.migrate_far();
        }
        true
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        if !self.seek() {
            return None;
        }
        let e = self.near[self.cur].pop().expect("seek found an event");
        self.near_len -= 1;
        self.popped += 1;
        Some((e.time, e.kind))
    }

    /// The `(time, seq)` of the earliest event, without removing it.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.seek()
            .then(|| self.near[self.cur].peek().map(|e| (e.time, e.seq)))
            .flatten()
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.near_len > 0 {
            // Buckets ahead of the cursor hold strictly later days, so the
            // first non-empty bucket in ring order holds the minimum; the
            // overflow heap is later than the whole ring by construction.
            for k in 0..NBUCKETS {
                let idx = (self.cur + k) % NBUCKETS;
                if let Some(e) = self.near[idx].peek() {
                    return Some(e.time);
                }
            }
            unreachable!("near_len > 0 but all buckets empty");
        }
        self.far.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.popped
    }
}

/// The pre-calendar event queue: one global binary heap. Kept as the
/// baseline for the scheduler microbenchmarks (BENCH_7 "heap vs bucketed");
/// the engine itself always runs on [`EventQueue`].
#[derive(Default)]
pub struct HeapEventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    popped: u64,
}

impl HeapEventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, kind });
        seq
    }

    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let e = self.heap.pop()?;
        self.popped += 1;
        Some((e.time, e.kind))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn dispatched(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued event is one of these: a poll body rides in the rank's
    /// slot in the dispatch loop (`engine::RankSlot`), not in the entry, to
    /// keep it this small.
    #[test]
    fn entry_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    fn call() -> EventKind {
        EventKind::Call(Box::new(|_| {}))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), call());
        q.push(SimTime(10), call());
        q.push(SimTime(20), call());
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.0)).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(5), EventKind::Wake(RankId(0)));
        let b = q.push(SimTime(5), EventKind::Wake(RankId(1)));
        assert!(a < b);
        match q.pop().unwrap().1 {
            EventKind::Wake(r) => assert_eq!(r, RankId(0)),
            _ => panic!("wrong kind"),
        }
        match q.pop().unwrap().1 {
            EventKind::Wake(r) => assert_eq!(r, RankId(1)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), call());
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn dispatched_counts_pops() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(SimTime(i), call());
        }
        for _ in 0..3 {
            q.pop();
        }
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    fn far_horizon_events_pop_in_order() {
        // Events far beyond the near horizon (≫ NBUCKETS·WIDTH) must still
        // come back in (time, seq) order after migrating through the ring.
        let mut q = EventQueue::new();
        let horizon = (NBUCKETS as u64) * WIDTH;
        let times = [
            0,
            WIDTH / 2,
            horizon - 1,
            horizon,
            horizon + 1,
            3 * horizon + 17,
            10 * horizon,
            10 * horizon, // same-time tie in the far heap
        ];
        for &t in times.iter().rev() {
            q.push(SimTime(t), call());
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.0)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn far_ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime(100 * (NBUCKETS as u64) * WIDTH);
        q.push(t, EventKind::Wake(RankId(0)));
        q.push(t, EventKind::Wake(RankId(1)));
        match q.pop().unwrap().1 {
            EventKind::Wake(r) => assert_eq!(r, RankId(0)),
            _ => panic!("wrong kind"),
        }
        match q.pop().unwrap().1 {
            EventKind::Wake(r) => assert_eq!(r, RankId(1)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Pops interleaved with pushes near and far of the moving cursor.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = |q: &mut EventQueue, base: u64| {
            for _ in 0..50 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let t = base + (rng >> 33) % (5 * (NBUCKETS as u64) * WIDTH);
                q.push(SimTime(t), call());
                expected.push(t);
            }
        };
        step(&mut q, 0);
        let mut popped = Vec::new();
        for _ in 0..25 {
            popped.push(q.pop().unwrap().0 .0);
        }
        // New pushes may not precede already-dispatched time.
        let now = *popped.last().unwrap();
        step(&mut q, now);
        while let Some((t, _)) = q.pop() {
            popped.push(t.0);
        }
        expected.sort_unstable();
        // Every expected time ≥ now must appear, in sorted order, and the
        // whole pop stream must be monotone.
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "pop stream not monotone");
        assert_eq!(popped.len(), expected.len());
    }

    #[test]
    fn matches_heap_baseline_exactly() {
        // Differential test: the calendar queue and the baseline heap must
        // dispatch identical (time, seq) streams for the same push stream.
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut rng: u64 = 42;
        let mut now = 0u64;
        let mut order_cal = Vec::new();
        let mut order_heap = Vec::new();
        for round in 0..200 {
            for _ in 0..8 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(round);
                let dt = (rng >> 40) % (3 * (NBUCKETS as u64) * WIDTH);
                cal.push(SimTime(now + dt), call());
                heap.push(SimTime(now + dt), call());
            }
            for _ in 0..6 {
                if let Some((t, _)) = cal.pop() {
                    order_cal.push((t, ()));
                    now = t.0;
                }
                if let Some((t, _)) = heap.pop() {
                    order_heap.push((t, ()));
                }
            }
        }
        while let Some((t, _)) = cal.pop() {
            order_cal.push((t, ()));
        }
        while let Some((t, _)) = heap.pop() {
            order_heap.push((t, ()));
        }
        assert_eq!(order_cal, order_heap);
    }
}
