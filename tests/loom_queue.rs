//! Model-checked concurrency proofs for the real-thread hot path,
//! exploring every preemption-bounded interleaving with the offline loom
//! subset in `vendor/loom`.
//!
//! Build and run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test --release --test loom_queue
//! ```
//!
//! Without `--cfg loom` this target compiles to nothing: the shimmed
//! crates use plain `std` atomics and these models would not interleave.
//!
//! What is proven (under sequential consistency, preemption bound 3 — the
//! TSan job covers the weak-memory axis):
//!
//! * **NemQueue linearizability**: concurrent enqueuers never lose or
//!   duplicate a cell, and the single consumer observes each producer's
//!   cells in that producer's order, in every schedule — including the
//!   "enqueuer swapped `tail` but has not linked `next` yet" window the
//!   dequeuer spins on.
//! * **CreditPool conservation**: concurrent acquires/releases never mint
//!   or leak a credit, and a pool of capacity 1 admits at most one of two
//!   racing acquirers.
//! * **WakeCell handoff**: the grant/wait protocol has no lost wakeup —
//!   a grant issued before, during, or after the waiter's wait is always
//!   observed (a lost wakeup would surface as a model deadlock).
//! * **Direct token handoff**: two threads passing the token back and
//!   forth through two `WakeCell`s, each granting the other before it
//!   waits on its own cell, never lose a grant and never both hold the
//!   token.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use nemesis::cell::CellPool;
use nemesis::queue::NemQueue;
use nmad::credit::CreditPool;
use simnet::WakeCell;
use std::sync::Arc;

#[test]
fn nem_queue_two_producers_never_lose_a_cell() {
    loom::model(|| {
        let (pool, mut handles) = CellPool::new(2, 1);
        let q = Arc::new(NemQueue::new());
        let mut producers = Vec::new();
        for p in 0..2usize {
            let mut h = handles[p].pop().unwrap();
            h.header.src_rank = p;
            h.header.seq = 0;
            let q = Arc::clone(&q);
            producers.push(loom::thread::spawn(move || q.enqueue(h)));
        }
        // Single consumer: drain exactly two cells, yielding while empty.
        let mut got = [0usize; 2];
        let mut received = 0;
        while received < 2 {
            match q.dequeue(&pool) {
                Some(h) => {
                    got[h.header.src_rank] += 1;
                    received += 1;
                }
                None => loom::thread::yield_now(),
            }
        }
        assert_eq!(got, [1, 1], "a producer's cell was lost or duplicated");
        assert!(q.dequeue(&pool).is_none(), "phantom cell after drain");
        for t in producers {
            t.join().unwrap();
        }
    });
}

#[test]
fn nem_queue_preserves_per_producer_fifo() {
    loom::model(|| {
        // One producer enqueues two cells concurrently with the consumer:
        // every schedule must deliver them in enqueue order, including the
        // mid-append window where `tail` points at a cell whose `next`
        // link is not yet visible.
        let (pool, mut handles) = CellPool::new(1, 2);
        let q = Arc::new(NemQueue::new());
        let mut cells = handles.remove(0);
        for (i, h) in cells.iter_mut().enumerate() {
            h.header.seq = i as u64;
        }
        let q2 = Arc::clone(&q);
        let producer = loom::thread::spawn(move || {
            // Reverse pop order so cell seq 0 goes first.
            let first = cells.remove(0);
            q2.enqueue(first);
            let second = cells.remove(0);
            q2.enqueue(second);
        });
        let mut expect = 0u64;
        while expect < 2 {
            match q.dequeue(&pool) {
                Some(h) => {
                    assert_eq!(h.header.seq, expect, "FIFO violated");
                    expect += 1;
                }
                None => loom::thread::yield_now(),
            }
        }
        producer.join().unwrap();
    });
}

#[test]
fn credit_pool_capacity_one_admits_exactly_one_racer() {
    loom::model(|| {
        let pool = Arc::new(CreditPool::new(1));
        let p2 = Arc::clone(&pool);
        let t = loom::thread::spawn(move || p2.try_acquire());
        let mine = pool.try_acquire();
        let theirs = t.join().unwrap();
        assert!(
            mine ^ theirs,
            "capacity-1 pool must admit exactly one of two racers (got {mine}/{theirs})"
        );
        assert_eq!(pool.available(), 0);
    });
}

#[test]
fn credit_pool_conserves_credits_under_concurrent_cycles() {
    loom::model(|| {
        let pool = Arc::new(CreditPool::new(2));
        let mut threads = Vec::new();
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            threads.push(loom::thread::spawn(move || {
                if pool.try_acquire() {
                    pool.release(1);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            pool.available(),
            2,
            "acquire/release cycles minted or leaked a credit"
        );
    });
}

#[test]
fn wake_cell_grant_is_never_lost() {
    loom::model(|| {
        // Granter and waiter race: whichever order the schedule picks, the
        // waiter must see the grant. A lost wakeup would leave the waiter
        // blocked forever, which the model reports as a deadlock.
        let cell = simnet::WakeCell::new();
        let c2 = Arc::clone(&cell);
        let waiter = loom::thread::spawn(move || c2.wait_go());
        cell.grant();
        assert_eq!(waiter.join().unwrap(), Ok(()));
    });
}

/// One side of a direct handoff: thread `me` takes two turns with the
/// token, granting the other thread's cell and then waiting on its own.
/// Thread 0 starts with the token; thread 1 ends with it and exits.
fn pass_token(me: usize, cells: [Arc<WakeCell>; 2], turn: Arc<AtomicUsize>) {
    if me == 1 {
        cells[1].wait_go().unwrap();
    }
    for round in 0..2 {
        assert_eq!(
            turn.fetch_add(1, SeqCst),
            2 * round + me,
            "two token holders"
        );
        cells[1 - me].grant();
        if me == 0 || round == 0 {
            cells[me].wait_go().unwrap();
        }
    }
}

#[test]
fn wake_cells_pass_the_token_back_and_forth() {
    loom::model(|| {
        // Each thread grants the other before it waits on its own cell, so
        // the granted thread may run and grant back before the granter has
        // reached its wait (the grant-before-wait race); that grant must
        // still be seen. `turn` is touched only by the token's holder: a
        // thread that ran without the token would read the wrong count.
        let cells = [WakeCell::new(), WakeCell::new()];
        let turn = Arc::new(AtomicUsize::new(0));
        let theirs = [Arc::clone(&cells[0]), Arc::clone(&cells[1])];
        let t2 = Arc::clone(&turn);
        let t = loom::thread::spawn(move || pass_token(1, theirs, t2));
        pass_token(0, cells, Arc::clone(&turn));
        t.join().unwrap();
        assert_eq!(turn.load(SeqCst), 4);
    });
}

#[test]
fn wake_cell_teardown_unblocks_the_waiter() {
    loom::model(|| {
        let cell = simnet::WakeCell::new();
        let c2 = Arc::clone(&cell);
        let waiter = loom::thread::spawn(move || c2.wait_go());
        cell.tear_down();
        assert_eq!(waiter.join().unwrap(), Err(()));
    });
}
