//! Workspace-level integration tests: full MPI jobs spanning every crate,
//! checking data integrity, ordering, and cross-stack agreement.

use std::sync::Arc;

use mpich2_nmad_repro::baselines;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi, run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::simnet::{Cluster, NodeId, Placement, SimDuration};
use parking_lot::Mutex;

/// Every stack variant under test.
fn all_stacks() -> Vec<StackConfig> {
    vec![
        StackConfig::mpich2_nmad(false),
        StackConfig::mpich2_nmad(true),
        StackConfig::mpich2_nmad_netmod(0),
        baselines::mvapich2(0),
        baselines::openmpi_btl(0),
        baselines::openmpi_pml(0),
    ]
}

/// Deterministic pseudo-random byte for (seed, index).
fn byte(seed: u64, i: usize) -> u8 {
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15);
    (x >> 33) as u8
}

#[test]
fn mixed_size_soak_every_stack() {
    // 6 ranks over 2 nodes (3+3): each rank sends a ladder of messages to
    // every other rank; payloads verified byte-for-byte. Sizes straddle
    // the eager/rendezvous boundary and the shm cell size.
    let cluster = Cluster::xeon_pair();
    let placement = Placement::explicit(vec![
        NodeId(0),
        NodeId(0),
        NodeId(0),
        NodeId(1),
        NodeId(1),
        NodeId(1),
    ]);
    let sizes = [1usize, 100, 4 * 1024, 17 * 1024, 80 * 1024];
    for stack in all_stacks() {
        let name = stack.name.clone();
        let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 6, move |mpi| {
            let me = mpi.rank();
            let n = mpi.size();
            // Post all receives first, then send (avoids unexpected-queue
            // pressure being load-bearing).
            let mut recvs = Vec::new();
            for src in 0..n {
                if src == me {
                    continue;
                }
                for (k, _) in sizes.iter().enumerate() {
                    recvs.push((src, k, mpi.irecv(Src::Rank(src), k as u32)));
                }
            }
            let mut sends = Vec::new();
            for dst in 0..n {
                if dst == me {
                    continue;
                }
                for (k, &sz) in sizes.iter().enumerate() {
                    let seed = (me * 100 + dst * 10 + k) as u64;
                    let data: Vec<u8> = (0..sz).map(|i| byte(seed, i)).collect();
                    sends.push(mpi.isend(dst, k as u32, &data));
                }
            }
            for (src, k, r) in recvs {
                let (data, status) = mpi.wait_data(r);
                let data = data.expect("payload");
                let seed = (src * 100 + me * 10 + k) as u64;
                assert_eq!(data.len(), sizes[k]);
                assert_eq!(status.unwrap().source, src);
                for (i, &b) in data.iter().enumerate() {
                    assert_eq!(b, byte(seed, i), "corrupt byte {i} from {src}");
                }
            }
            mpi.waitall(&sends);
            true
        });
        assert!(oks.into_iter().all(|b| b), "soak failed on {name}");
    }
}

#[test]
fn per_sender_ordering_every_stack() {
    // MPI guarantees matching order per (source, tag): 40 same-tag
    // messages from one sender must complete in send order.
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    for stack in all_stacks() {
        let name = stack.name.clone();
        let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 2, move |mpi| {
            const N: usize = 40;
            if mpi.rank() == 0 {
                for i in 0..N {
                    // Alternate sizes so eager and rendezvous interleave.
                    let sz = if i % 3 == 2 { 40 * 1024 } else { 64 };
                    let data = vec![i as u8; sz];
                    mpi.send(1, 9, &data);
                }
                true
            } else {
                for i in 0..N {
                    let (data, _) = mpi.recv(Src::Rank(0), 9);
                    assert_eq!(data[0] as usize, i, "order violated");
                }
                true
            }
        });
        assert!(oks.into_iter().all(|b| b), "ordering failed on {name}");
    }
}

#[test]
fn any_source_fairness_under_load() {
    // Five senders flood a single ANY_SOURCE receiver; every message must
    // arrive exactly once, with per-sender order preserved.
    let cluster = Cluster::grid5000_opteron();
    let placement = Placement::explicit(vec![
        NodeId(0),
        NodeId(0), // shm sender
        NodeId(1),
        NodeId(2),
        NodeId(3),
        NodeId(4),
    ]);
    let stack = StackConfig::mpich2_nmad(false);
    const PER_SENDER: usize = 10;
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 6, move |mpi| {
        if mpi.rank() == 0 {
            let mut next = [0usize; 6];
            for _ in 0..5 * PER_SENDER {
                let (data, st) = mpi.recv(Src::Any, 1);
                let idx = data[0] as usize;
                assert_eq!(idx, next[st.source], "per-sender order from {}", st.source);
                next[st.source] += 1;
            }
            next[1..].iter().all(|&n| n == PER_SENDER)
        } else {
            for i in 0..PER_SENDER {
                mpi.compute(SimDuration::micros((mpi.rank() * 3) as u64));
                mpi.send(0, 1, &[i as u8]);
            }
            true
        }
    });
    assert!(oks.into_iter().all(|b| b));
}

#[test]
fn collectives_agree_across_stacks() {
    // The same collective program must produce identical values on every
    // stack (timing differs; results must not).
    let cluster = Cluster::xeon_pair();
    let placement = Placement::block(8, &cluster);
    let mut reference: Option<Vec<f64>> = None;
    for stack in all_stacks() {
        let name = stack.name.clone();
        let (_, results) = run_mpi_collect(&cluster, &placement, &stack, 8, |mpi| {
            let r = mpi.rank() as f64;
            mpi.barrier();
            let s1 = mpi.allreduce_sum(&[r, r * r]);
            let blocks: Vec<bytes::Bytes> = (0..mpi.size())
                .map(|j| bytes::Bytes::from(vec![(mpi.rank() * 16 + j) as u8]))
                .collect();
            let got = mpi.alltoall(blocks);
            let checksum: f64 = got.iter().map(|b| b[0] as f64).sum();
            // allgather: rank i contributes [i; i+1]; verify shape+content.
            let gathered =
                mpi.allgather(bytes::Bytes::from(vec![mpi.rank() as u8; mpi.rank() + 1]));
            let mut gsum = 0.0;
            for (i, b) in gathered.iter().enumerate() {
                assert_eq!(b.len(), i + 1);
                assert!(b.iter().all(|&x| x as usize == i));
                gsum += b.len() as f64;
            }
            // alltoallv with ragged sizes: block to rank j has j+1 bytes.
            let ragged: Vec<bytes::Bytes> = (0..mpi.size())
                .map(|j| bytes::Bytes::from(vec![mpi.rank() as u8; j + 1]))
                .collect();
            let rgot = mpi.alltoallv(ragged);
            for (i, b) in rgot.iter().enumerate() {
                assert_eq!(b.len(), mpi.rank() + 1, "ragged size from {i}");
                assert!(b.iter().all(|&x| x as usize == i));
            }
            mpi.barrier();
            s1[0] + s1[1] * 1000.0 + checksum + gsum
        });
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(r, &results, "stack {name} disagrees"),
        }
    }
}

#[test]
fn pioman_and_polling_deliver_identical_payloads() {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let collect = |pioman: bool| -> Vec<u8> {
        let stack = StackConfig::mpich2_nmad(pioman);
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&out);
        run_mpi(
            &cluster,
            &placement,
            &stack,
            2,
            Arc::new(move |mpi: MpiHandle| {
                if mpi.rank() == 0 {
                    let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
                    mpi.send(1, 1, &data);
                } else {
                    let (d, _) = mpi.recv(Src::Rank(0), 1);
                    *o2.lock() = d.to_vec();
                }
            }),
        );
        let v = out.lock().clone();
        v
    };
    assert_eq!(collect(false), collect(true));
}

#[test]
fn sixtyfour_rank_job_completes() {
    // Scale check: a 64-rank allreduce + neighbour exchange over 10 nodes.
    let cluster = Cluster::grid5000_opteron();
    let placement = Placement::round_robin(64, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, sums) = run_mpi_collect(&cluster, &placement, &stack, 64, |mpi| {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        let r = mpi.irecv(Src::Rank(left), 1);
        let s = mpi.isend(right, 1, &[mpi.rank() as u8]);
        let (d, _) = mpi.wait_data(r);
        mpi.wait(s);
        assert_eq!(d.unwrap()[0] as usize, left);
        mpi.allreduce_sum(&[1.0])[0]
    });
    assert!(sums.into_iter().all(|s| s == 64.0));
}

/// The host-cost guard for app-polling waits: a wait's poll ticks are
/// answered on the dispatching thread (`RankCtx::poll_until`), so the event
/// count — pinned at the value from before that change, every tick is still
/// an event — stays, while token handoffs stop scaling with simulated
/// spinning time (they were ~71 per message).
#[test]
fn app_polling_pingpong_hands_off_per_message_not_per_tick() {
    const ROUND_TRIPS: u64 = 200;
    let cluster = Cluster::xeon_pair();
    let out = run_mpi(
        &cluster,
        &Placement::one_per_node(2, &cluster),
        &StackConfig::mpich2_nmad(false),
        2,
        Arc::new(|mpi: MpiHandle| {
            let peer = 1 - mpi.rank();
            for _ in 0..ROUND_TRIPS {
                if mpi.rank() == 0 {
                    mpi.send(peer, 7, b"ping");
                }
                assert_eq!(&mpi.recv(Src::Rank(peer), 7).0[..], b"ping");
                if mpi.rank() == 1 {
                    mpi.send(peer, 7, b"ping");
                }
            }
        }),
    );
    let messages = 2 * ROUND_TRIPS;
    assert_eq!(out.sim.events, 29_170);
    assert!(
        out.sim.wakes <= 6 * messages,
        "{} handoffs for {messages} messages",
        out.sim.wakes
    );
}
