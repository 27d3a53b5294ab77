//! The simulation event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is assigned
//! at insertion, so two events scheduled for the same instant fire in the
//! order they were scheduled. This makes every simulation run deterministic,
//! which the test suite and the figure-regeneration harnesses rely on.
//!
//! ## One binary heap
//!
//! [`EventQueue`] is one `BinaryHeap` keyed by `(time, seq)`. The pairs are
//! unique, so the dispatch order is a total order that any correct
//! priority queue reproduces bit for bit; the choice of structure only
//! moves host time, and little of it: the populations the workloads reach
//! are small. At a pop the queue holds 2–14 events on average on the
//! ledger's 2- to 9-rank workloads, 76 on `nas_cg_64`, ~790 on `coll_1024`
//! and ~3,000 (peak 8,448) on the 4,096-rank E19 sweep: 12 heap levels.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{RankId, Scheduler, HANDLER_BIT};
use crate::time::SimTime;

/// A boxed event callback. Callbacks run inline in the dispatch loop, on
/// `Sim::run`'s thread (in the rank context that holds the execution
/// token, or in `Sim::run`'s own before the first grant), and may schedule
/// further events or wake parked ranks through the [`Scheduler`].
pub type EventFn = Box<dyn FnOnce(&Scheduler)>;

/// What an event does when it fires.
pub enum EventKind {
    /// Run a callback inline (NIC completions, PIOMan ltasks…).
    Call(EventFn),
    /// Resume a parked rank (or run its poll body, if it left one), or,
    /// with `engine::HANDLER_BIT` set in the id, run a standing handler
    /// ([`Scheduler::register_handler`]): a third variant would make every
    /// entry 40 bytes.
    Wake(RankId),
}

impl std::fmt::Debug for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Call(_) => write!(f, "Call(..)"),
            EventKind::Wake(r) if r.0 & HANDLER_BIT != 0 => {
                write!(f, "Handler({})", r.0 & !HANDLER_BIT)
            }
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

/// A deterministic priority queue of simulation events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
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
        self.heap.push(Entry { time, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|e| (e.time, e.kind))
    }

    /// The `(time, seq)` of the earliest event, without removing it.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let seq = q.push(SimTime(7), call());
        assert_eq!(q.peek_key(), Some((SimTime(7), seq)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn far_horizon_events_pop_in_order() {
        // Times around and far beyond 1,048,576 ns, the near horizon of the
        // calendar ring this heap replaced, come back in (time, seq) order.
        let mut q = EventQueue::new();
        let times = [
            0, 2_048, 1_048_575, 1_048_576, 1_048_577, 3_145_745, 10_485_760,
            10_485_760, // same-time tie
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
        let t = SimTime(104_857_600);
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
        // Pops interleaved with pushes near and far of the last pop.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = |q: &mut EventQueue, base: u64| {
            for _ in 0..50 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = base + (rng >> 33) % 5_242_880;
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
        assert!(
            popped.windows(2).all(|w| w[0] <= w[1]),
            "pop stream not monotone"
        );
        assert_eq!(popped.len(), expected.len());
    }

    /// One step of the oracle test, at a delay after the last pop.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u64),
        /// Draw a seq now and insert under it at a later `Release`, as
        /// `engine::Dispatch::clean` does with a clean poll tick.
        Take(u64),
        Release,
        Pop,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Delays: same-instant ties, the dispatch loop's near future, and
        // past 1.05 ms (the calendar ring's horizon before this heap).
        let dt = || prop_oneof![Just(0u64), 1u64..5_000, 1_000_000u64..5_000_000];
        prop_oneof![
            4 => dt().prop_map(Op::Push),
            1 => dt().prop_map(Op::Take),
            1 => Just(Op::Release),
            3 => Just(Op::Pop),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Every pop is the minimum `(time, seq)` of a sorted-`Vec` oracle
        /// fed the same pushes, and so is every `peek_key`.
        #[test]
        fn pops_match_a_sorted_vec_oracle(ops in proptest::collection::vec(op(), 1..300)) {
            let mut q = EventQueue::new();
            let mut oracle: Vec<(SimTime, u64)> = Vec::new();
            let mut held: Vec<(SimTime, u64)> = Vec::new();
            // The oracle numbers pushes and takes itself; the rank id
            // carries that number, so a pop names its entry.
            let mut next = 0u64;
            let mut now = 0u64;
            let wake = |n: u64| EventKind::Wake(RankId(n as usize));
            for op in ops.into_iter().chain(std::iter::repeat_n(Op::Pop, 300)) {
                match op {
                    Op::Push(dt) => {
                        let t = SimTime(now + dt);
                        proptest::prop_assert_eq!(q.push(t, wake(next)), next);
                        oracle.push((t, next));
                        next += 1;
                    }
                    Op::Take(dt) => {
                        proptest::prop_assert_eq!(q.take_seq(), next);
                        held.push((SimTime(now + dt), next));
                        next += 1;
                    }
                    Op::Release => {
                        if let Some((t, seq)) = held.pop() {
                            q.push_at(t, seq, wake(seq));
                            oracle.push((t, seq));
                        }
                    }
                    Op::Pop => {
                        oracle.sort_unstable_by(|a, b| b.cmp(a));
                        proptest::prop_assert_eq!(q.peek_key(), oracle.last().copied());
                        let got = q.pop().map(|(t, kind)| match kind {
                            EventKind::Wake(r) => (t, r.0 as u64),
                            EventKind::Call(_) => unreachable!("only wakes are queued"),
                        });
                        proptest::prop_assert_eq!(got, oracle.pop());
                        if let Some((t, _)) = got {
                            now = t.0;
                        }
                    }
                }
                proptest::prop_assert_eq!(q.len(), oracle.len());
            }
            proptest::prop_assert!(q.is_empty());
        }
    }
}
