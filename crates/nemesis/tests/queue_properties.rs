//! Property-based tests of the lock-free cell queue against a reference
//! model, plus a heavier multi-producer stress test.

use std::sync::Arc;

use nemesis::{CellPool, NemQueue};
use proptest::prelude::*;

/// A scripted single-threaded interleaving of enqueues and dequeues must
/// behave exactly like a VecDeque.
#[derive(Clone, Debug)]
enum Op {
    Enqueue(u8),
    Dequeue,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![(0u8..=255).prop_map(Op::Enqueue), Just(Op::Dequeue),]
}

proptest! {
    #[test]
    fn queue_matches_vecdeque_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let (pool, mut handles) = CellPool::new(1, 256);
        let mut free: Vec<_> = handles.remove(0);
        let q = NemQueue::new();
        let mut model: std::collections::VecDeque<u8> = Default::default();
        for op in ops {
            match op {
                Op::Enqueue(v) => {
                    if let Some(mut h) = free.pop() {
                        h.fill(&[v]);
                        q.enqueue(h);
                        model.push_back(v);
                    }
                }
                Op::Dequeue => {
                    let got = q.dequeue(&pool);
                    let want = model.pop_front();
                    match (got, want) {
                        (Some(h), Some(v)) => {
                            prop_assert_eq!(h.payload(), &[v]);
                            free.push(h);
                        }
                        (None, None) => {}
                        (g, w) => prop_assert!(
                            false,
                            "divergence: queue {:?}, model {:?}",
                            g.map(|h| h.payload().to_vec()),
                            w
                        ),
                    }
                }
            }
        }
        // Drain both to the end.
        while let Some(h) = q.dequeue(&pool) {
            let v = model.pop_front().expect("model shorter than queue");
            prop_assert_eq!(h.payload(), &[v]);
            free.push(h);
        }
        prop_assert!(model.is_empty(), "queue shorter than model");
    }
}

#[test]
fn four_producers_heavy_stress() {
    const PER_PRODUCER: usize = 30_000;
    const PRODUCERS: usize = 4;
    let (pool, handles) = CellPool::new(PRODUCERS, 128);
    let q = Arc::new(NemQueue::new());
    let free: Arc<Vec<crossbeam::queue::SegQueue<nemesis::CellHandle>>> = Arc::new(
        (0..PRODUCERS)
            .map(|_| crossbeam::queue::SegQueue::new())
            .collect(),
    );
    for (r, hs) in handles.into_iter().enumerate() {
        for h in hs {
            free[r].push(h);
        }
    }
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
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
                    std::thread::yield_now();
                }
            }
        }));
    }
    let mut next = [0u64; PRODUCERS];
    let mut received = 0usize;
    while received < PRODUCERS * PER_PRODUCER {
        if let Some(h) = q.dequeue(&pool) {
            let p = h.header.src_rank;
            assert_eq!(h.header.seq, next[p], "per-producer FIFO violated");
            next[p] += 1;
            received += 1;
            free[h.origin].push(h);
        } else {
            std::hint::spin_loop();
        }
    }
    for t in producers {
        t.join().unwrap();
    }
    assert!(next.iter().all(|&n| n == PER_PRODUCER as u64));
    assert!(q.dequeue(&pool).is_none());
}
