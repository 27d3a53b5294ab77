//! Lock-free eager credit pools.
//!
//! Flow control charges every eager send one credit from the destination
//! gate's pool. The sans-IO engine keeps that pool as a plain field of
//! the peer's `Gate` record; the real-thread front end wants to admit
//! sends from many threads without a lock, so here the pool is a
//! [`CreditPool`] — one `AtomicU32` per gate, CAS acquire / clamped-CAS
//! release — that injector threads share by `Arc`. Only that path
//! (`mpi_ch3::threaded`) uses this module. The [`CreditBank`] is the
//! per-gate registry: lazily populated on first contact, drained when a
//! peer dies.
//!
//! Conservation invariant (model-checked in `tests/loom_queue.rs`): with
//! capacity `C`, at all times `available + in_flight == C` — acquires and
//! releases never mint or leak a credit, and a release can never push the
//! pool above `C`.

use std::collections::HashMap;
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicU32, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU32, Ordering};

/// One gate's eager credit pool: lock-free acquire/release against a fixed
/// capacity.
#[derive(Debug)]
pub struct CreditPool {
    avail: AtomicU32,
    cap: u32,
}

impl CreditPool {
    /// A full pool of `cap` credits.
    pub fn new(cap: u32) -> CreditPool {
        CreditPool {
            avail: AtomicU32::new(cap),
            cap,
        }
    }

    /// Take one credit; `false` when the pool is empty (the caller demotes
    /// the send to the rendezvous path).
    pub fn try_acquire(&self) -> bool {
        let mut cur = self.avail.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return false;
            }
            match self.avail.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return `n` credits, clamped to capacity. Credits are only minted by
    /// our own sends, so a return that would overflow the pool indicates a
    /// protocol bug — asserted in debug builds, clamped in release.
    pub fn release(&self, n: u32) {
        let mut cur = self.avail.load(Ordering::Acquire);
        loop {
            debug_assert!(cur + n <= self.cap, "credit return overflows the pool");
            let next = cur.saturating_add(n).min(self.cap);
            match self
                .avail
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.avail.load(Ordering::Acquire)
    }

    /// The pool's fixed capacity.
    pub fn capacity(&self) -> u32 {
        self.cap
    }
}

/// Per-gate registry of [`CreditPool`]s, lazily seeded at `cap` credits on
/// first contact with a gate. The registry itself is touched rarely (first
/// contact, drains, snapshots); the hot-path acquire/release goes through
/// the per-gate atomics.
#[derive(Debug, Default)]
pub struct CreditBank {
    cap: u32,
    pools: parking_lot::Mutex<HashMap<usize, Arc<CreditPool>>>,
}

impl CreditBank {
    /// A bank whose pools start full at `cap` credits.
    pub fn new(cap: u32) -> CreditBank {
        CreditBank {
            cap,
            pools: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// The gate's pool, created full on first use. The returned `Arc` can
    /// be cached by injector threads to skip the registry lock entirely.
    pub fn pool(&self, gate: usize) -> Arc<CreditPool> {
        Arc::clone(
            self.pools
                .lock()
                .entry(gate)
                .or_insert_with(|| Arc::new(CreditPool::new(self.cap))),
        )
    }

    /// Take one credit from `gate`'s pool (creating the pool if this is
    /// first contact, mirroring the old lazy `HashMap::entry` seeding —
    /// a failed admission still materializes the peer entry).
    pub fn try_acquire(&self, gate: usize) -> bool {
        self.pool(gate).try_acquire()
    }

    /// Return `n` credits to `gate`'s pool, clamped to capacity.
    pub fn release(&self, gate: usize, n: u32) {
        self.pool(gate).release(n);
    }

    /// Drop `gate`'s pool (peer drain), returning the credits that were
    /// still available in it — the caller computes how many were in flight.
    pub fn remove(&self, gate: usize) -> Option<u32> {
        self.pools.lock().remove(&gate).map(|p| p.available())
    }

    /// Does `gate` have a materialized pool? (Peer-entry accounting.)
    pub fn contains(&self, gate: usize) -> bool {
        self.pools.lock().contains_key(&gate)
    }

    /// Number of materialized pools. (Peer-entry accounting.)
    pub fn len(&self) -> usize {
        self.pools.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.pools.lock().is_empty()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn acquire_exhausts_then_stalls() {
        let bank = CreditBank::new(2);
        assert!(bank.try_acquire(7));
        assert!(bank.try_acquire(7));
        assert!(!bank.try_acquire(7));
        bank.release(7, 1);
        assert!(bank.try_acquire(7));
    }

    #[test]
    fn failed_admission_still_materializes_the_peer_entry() {
        let bank = CreditBank::new(0);
        assert!(!bank.try_acquire(3));
        assert!(bank.contains(3));
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn release_clamps_at_capacity() {
        let pool = CreditPool::new(4);
        assert!(pool.try_acquire());
        // Returning more than was taken clamps (debug_assert in debug
        // builds guards the protocol; release builds clamp).
        pool.release(1);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn remove_reports_remaining_credits() {
        let bank = CreditBank::new(8);
        assert!(bank.try_acquire(1));
        assert!(bank.try_acquire(1));
        assert_eq!(bank.remove(1), Some(6));
        assert_eq!(bank.remove(1), None);
        assert!(!bank.contains(1));
    }

    #[test]
    fn concurrent_acquire_release_conserves_credits() {
        let pool = Arc::new(CreditPool::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut held = 0u32;
                    for _ in 0..10_000 {
                        if pool.try_acquire() {
                            held += 1;
                        } else if held > 0 {
                            pool.release(1);
                            held -= 1;
                        }
                    }
                    while held > 0 {
                        pool.release(1);
                        held -= 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.available(), 4);
    }
}
