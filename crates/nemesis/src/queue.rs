//! The Nemesis lock-free cell queue.
//!
//! This is the queue at the heart of the Nemesis channel (§2.1.1): it
//! "allows multiple processes to enqueue cells concurrently" while a single
//! owner dequeues. The algorithm is the original one from the Nemesis paper,
//! with the consumer-side **shadow head** that lets the dequeuer drain a
//! batch of cells while enqueuers keep appending through the shared
//! `head`/`tail` words:
//!
//! * `enqueue`: set `cell.next = NIL`, atomically swap `tail` to the new
//!   cell; if the previous tail was `NIL` the queue was empty and `head` is
//!   set, otherwise the previous tail's `next` is linked.
//! * `dequeue` (single consumer): take cells from the private shadow list;
//!   when it runs dry, claim the shared `head` (publishing `NIL` so
//!   enqueuers see an empty queue). If the dequeued cell looks like the last
//!   one, try to CAS `tail` from it to `NIL`; on failure an enqueuer is
//!   mid-append, so spin briefly until its `next` link becomes visible.
//!
//! The queue is a real multi-thread-safe structure — see the stress tests at
//! the bottom and in `tests/` — even though the simulator drives it from one
//! thread at a time.

use std::sync::Arc;

use crate::cell::{CellHandle, CellPool, NIL};
use crate::sync_shim::{spin_wait, AtomicUsize, Ordering, LINK_SPIN_CAP};

/// A lock-free multi-producer single-consumer queue of cells.
///
/// The single-consumer contract: only the owning rank may call
/// [`NemQueue::dequeue`]. This is the same contract as the shared-memory
/// original; a debug-mode guard trips if it is violated.
pub struct NemQueue {
    head: AtomicUsize,
    tail: AtomicUsize,
    /// Consumer-private list of already-claimed cells. Only the consumer
    /// touches it (Relaxed is sufficient); it lives here rather than in
    /// consumer-local storage so the queue is self-contained.
    shadow_head: AtomicUsize,
    /// Debug-only reentrancy/multi-consumer guard.
    #[cfg(debug_assertions)]
    consuming: std::sync::atomic::AtomicBool,
}

impl Default for NemQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl NemQueue {
    pub fn new() -> NemQueue {
        NemQueue {
            head: AtomicUsize::new(NIL),
            tail: AtomicUsize::new(NIL),
            shadow_head: AtomicUsize::new(NIL),
            #[cfg(debug_assertions)]
            consuming: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Enqueue a cell. Safe to call concurrently from any number of
    /// producers. Consumes the handle: ownership passes to the queue.
    pub fn enqueue(&self, cell: CellHandle) {
        let (pool, idx) = cell.into_parts();
        pool.next_of(idx).store(NIL, Ordering::Relaxed);
        // Release: the cell's data and its next=NIL must be visible to
        // whoever observes this tail/link update.
        let prev = self.tail.swap(idx, Ordering::AcqRel);
        if prev == NIL {
            self.head.store(idx, Ordering::Release);
        } else {
            pool.next_of(prev).store(idx, Ordering::Release);
        }
    }

    /// Dequeue a cell, if any. **Single consumer only.**
    ///
    /// Returns `None` when the queue is (momentarily) empty.
    pub fn dequeue(&self, pool: &Arc<CellPool>) -> Option<CellHandle> {
        #[cfg(debug_assertions)]
        let _guard = ConsumeGuard::enter(&self.consuming);

        let mut cell = self.shadow_head.load(Ordering::Relaxed);
        if cell == NIL {
            // Shadow list empty: claim the shared head (batch grab).
            if self.head.load(Ordering::Acquire) == NIL {
                return None;
            }
            let claimed = self.head.swap(NIL, Ordering::AcqRel);
            if claimed == NIL {
                // Raced with ourselves between load and swap — impossible
                // with a single consumer, but be defensive.
                return None;
            }
            cell = claimed;
        }
        // Advance the shadow head past `cell`.
        let next = pool.next_of(cell).load(Ordering::Acquire);
        if next != NIL {
            self.shadow_head.store(next, Ordering::Relaxed);
        } else {
            self.shadow_head.store(NIL, Ordering::Relaxed);
            // `cell` may be the last element; detach it from `tail`.
            if self
                .tail
                .compare_exchange(cell, NIL, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // An enqueuer swapped tail but hasn't linked next yet; its
                // store is imminent — spin until visible.
                let mut spins = 0u32;
                loop {
                    let n = pool.next_of(cell).load(Ordering::Acquire);
                    if n != NIL {
                        self.shadow_head.store(n, Ordering::Relaxed);
                        break;
                    }
                    spins += 1;
                    if spins > LINK_SPIN_CAP {
                        panic!("NemQueue::dequeue: enqueuer link never appeared");
                    }
                    spin_wait();
                }
            }
        }
        // SAFETY: the consumer has exclusively removed `cell` from the
        // queue; no other handle to it exists.
        Some(unsafe { pool.handle(cell) })
    }

    /// Cheap emptiness hint for pollers. May race with enqueuers: a `false`
    /// answer is authoritative ("definitely has something"), a `true` answer
    /// can be stale the moment it is returned.
    pub fn is_empty_hint(&self) -> bool {
        self.shadow_head.load(Ordering::Relaxed) == NIL && self.head.load(Ordering::Acquire) == NIL
    }
}

#[cfg(debug_assertions)]
struct ConsumeGuard<'a>(&'a std::sync::atomic::AtomicBool);

#[cfg(debug_assertions)]
impl<'a> ConsumeGuard<'a> {
    fn enter(flag: &'a std::sync::atomic::AtomicBool) -> Self {
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "NemQueue: concurrent dequeue detected — the queue is single-consumer"
        );
        ConsumeGuard(flag)
    }
}

#[cfg(debug_assertions)]
impl Drop for ConsumeGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellPool;

    #[test]
    fn fifo_single_thread() {
        let (pool, mut handles) = CellPool::new(1, 8);
        let q = NemQueue::new();
        assert!(q.is_empty_hint());
        assert!(q.dequeue(&pool).is_none());
        for (i, mut h) in handles.remove(0).into_iter().enumerate() {
            h.fill(&[i as u8]);
            q.enqueue(h);
        }
        assert!(!q.is_empty_hint());
        for i in 0..8 {
            let h = q.dequeue(&pool).expect("expected cell");
            assert_eq!(h.payload(), &[i as u8]);
        }
        assert!(q.dequeue(&pool).is_none());
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let (pool, mut handles) = CellPool::new(1, 4);
        let q = NemQueue::new();
        let mut free: Vec<_> = handles.remove(0);
        let mut expect = 0u8;
        let mut next_val = 0u8;
        // Cycle cells through the queue many times.
        for _ in 0..100 {
            while let Some(mut h) = free.pop() {
                h.fill(&[next_val]);
                next_val = next_val.wrapping_add(1);
                q.enqueue(h);
            }
            while let Some(h) = q.dequeue(&pool) {
                assert_eq!(h.payload(), &[expect]);
                expect = expect.wrapping_add(1);
                free.push(h);
            }
        }
        assert_eq!(expect, next_val);
    }

    #[test]
    fn two_producers_one_consumer_stress() {
        // Real-thread stress: two producers hammer the queue while the
        // consumer drains, checking per-producer FIFO order.
        const PER_PRODUCER: usize = 20_000;
        let (pool, handles) = CellPool::new(2, 64);
        let q = Arc::new(NemQueue::new());
        let free: Vec<crossbeam::queue::SegQueue<crate::cell::CellHandle>> = vec![
            crossbeam::queue::SegQueue::new(),
            crossbeam::queue::SegQueue::new(),
        ];
        let free = Arc::new(free);
        for (r, hs) in handles.into_iter().enumerate() {
            for h in hs {
                free[r].push(h);
            }
        }
        let mut producers = Vec::new();
        for p in 0..2usize {
            let q = Arc::clone(&q);
            let free = Arc::clone(&free);
            producers.push(std::thread::spawn(move || {
                let mut sent = 0usize;
                while sent < PER_PRODUCER {
                    if let Some(mut h) = free[p].pop() {
                        h.header.src_rank = p;
                        h.header.seq = sent as u64;
                        q.enqueue(h);
                        sent += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        let mut got = [0usize; 2];
        let mut received = 0usize;
        while received < 2 * PER_PRODUCER {
            if let Some(h) = q.dequeue(&pool) {
                let p = h.header.src_rank;
                assert_eq!(h.header.seq, got[p] as u64, "per-producer FIFO violated");
                got[p] += 1;
                received += 1;
                free[h.origin].push(h);
            } else {
                std::hint::spin_loop();
            }
        }
        for t in producers {
            t.join().unwrap();
        }
        assert_eq!(got, [PER_PRODUCER; 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn empty_hint_tracks_state() {
        let (pool, mut handles) = CellPool::new(1, 1);
        let q = NemQueue::new();
        assert!(q.is_empty_hint());
        q.enqueue(handles[0].pop().unwrap());
        assert!(!q.is_empty_hint());
        let h = q.dequeue(&pool).unwrap();
        assert!(q.is_empty_hint());
        drop(h);
    }
}
