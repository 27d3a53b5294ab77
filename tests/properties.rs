//! Property-based tests (proptest) over core invariants:
//!
//! * arbitrary message schedules are delivered intact and in per-sender
//!   order on both the bypass and a baseline stack;
//! * the sampling split is always an exact partition with near-equal
//!   finish times;
//! * the ANY_SOURCE list machinery never loses or duplicates a message
//!   under random source/parking interleavings.

use bytes::Bytes;
use proptest::prelude::*;

use mpich2_nmad_repro::baselines;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::Src;
use mpich2_nmad_repro::nmad::sampling::{split_sizes, LinkProfile};
use mpich2_nmad_repro::simnet::{Cluster, NodeId, Placement, SimDuration};

/// One message in a random schedule.
#[derive(Clone, Debug)]
struct Msg {
    from: usize, // 1..=3 (rank 0 receives)
    size: usize,
    delay_ns: u64,
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    (1usize..=3, 1usize..40_000, 0u64..5_000).prop_map(|(from, size, delay_ns)| Msg {
        from,
        size,
        delay_ns,
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full MPI job; keep the count modest
        .. ProptestConfig::default()
    })]

    /// Any schedule of messages from 3 senders (one intra-node, two
    /// remote) to a single ANY_SOURCE receiver arrives exactly once, with
    /// per-sender FIFO order, on the bypass stack.
    #[test]
    fn any_source_never_loses_or_reorders(msgs in proptest::collection::vec(msg_strategy(), 1..12)) {
        let cluster = Cluster::grid5000_opteron();
        let placement = Placement::explicit(vec![
            NodeId(0), NodeId(0), NodeId(1), NodeId(2),
        ]);
        let stack = StackConfig::mpich2_nmad(false);
        let per_sender: Vec<Vec<Msg>> = (1..=3)
            .map(|s| msgs.iter().filter(|m| m.from == s).cloned().collect())
            .collect();
        let total = msgs.len();
        let ps = per_sender.clone();
        let (_, ok) = run_mpi_collect(&cluster, &placement, &stack, 4, move |mpi| {
            if mpi.rank() == 0 {
                let mut seen: Vec<Vec<(usize, u8)>> = vec![Vec::new(); 4];
                for _ in 0..total {
                    let (data, st) = mpi.recv(Src::Any, 5);
                    seen[st.source].push((data.len(), data[0]));
                }
                // Per-sender order must match the send order.
                for s in 1..=3usize {
                    let expect: Vec<(usize, u8)> = ps[s - 1]
                        .iter()
                        .enumerate()
                        .map(|(i, m)| (m.size, i as u8))
                        .collect();
                    if seen[s] != expect {
                        return false;
                    }
                }
                true
            } else {
                for (i, m) in ps[mpi.rank() - 1].iter().enumerate() {
                    mpi.compute(SimDuration::nanos(m.delay_ns));
                    let mut payload = vec![0u8; m.size];
                    payload[0] = i as u8;
                    mpi.send(0, 5, &payload);
                }
                true
            }
        });
        prop_assert!(ok.into_iter().all(|b| b));
    }

    /// The equal-finish split always partitions exactly and balances
    /// completion times across rails.
    #[test]
    fn split_partitions_exactly(
        size in 1usize..(64 << 20),
        lat_a in 100u64..10_000,
        lat_b in 100u64..10_000,
        bw_a in 100.0f64..4000.0,
        bw_b in 100.0f64..4000.0,
    ) {
        let profiles = [
            LinkProfile { latency: SimDuration::nanos(lat_a), bandwidth_bps: bw_a * 1e6 },
            LinkProfile { latency: SimDuration::nanos(lat_b), bandwidth_bps: bw_b * 1e6 },
        ];
        let chunks = split_sizes(size, &profiles);
        prop_assert_eq!(chunks.iter().sum::<usize>(), size);
        // If both rails got a share, their finish times are close.
        if chunks.iter().all(|&c| c > 0) {
            let t0 = profiles[0].predict(chunks[0]).as_nanos() as f64;
            let t1 = profiles[1].predict(chunks[1]).as_nanos() as f64;
            let rel = (t0 - t1).abs() / t0.max(t1);
            prop_assert!(rel < 0.05, "finish skew {rel}: {t0} vs {t1}");
        }
    }

    /// Random payloads survive a round trip bit-for-bit on a baseline
    /// (CH3 rendezvous with ACK pipeline) stack.
    #[test]
    fn payload_integrity_openmpi_stack(seed in 0u64..u64::MAX, size in 1usize..300_000) {
        let cluster = Cluster::xeon_pair();
        let placement = Placement::one_per_node(2, &cluster);
        let stack = baselines::openmpi(0);
        let data: Vec<u8> = (0..size)
            .map(|i| {
                let x = seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15);
                (x >> 56) as u8
            })
            .collect();
        let expect = Bytes::from(data.clone());
        let (_, ok) = run_mpi_collect(&cluster, &placement, &stack, 2, move |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, &data);
                true
            } else {
                let (got, _) = mpi.recv(Src::Rank(0), 1);
                got == expect
            }
        });
        prop_assert!(ok.into_iter().all(|b| b));
    }
}

// ---------------------------------------------------------------------
// CH3 queue-pair invariant: posted ∩ unexpected = ∅
// ---------------------------------------------------------------------

use std::sync::atomic::Ordering;

use mpich2_nmad_repro::mpi_ch3::queues::{Ch3Queues, UnexMsg};
use mpich2_nmad_repro::mpi_ch3::request::{ReqKind, ReqPath, RequestTable};
use mpich2_nmad_repro::simnet::NmBuf;

/// One step of a random post/arrive/stall interleaving against the CH3
/// queue pair.
#[derive(Clone, Debug)]
enum QOp {
    /// Post a receive (src `None` = MPI_ANY_SOURCE).
    Post { src: Option<usize>, key: u64 },
    /// An eager envelope arrives from the wire.
    Arrive { src: usize, key: u64, len: usize },
    /// The any-source list machinery deactivates a posted entry (the
    /// "stall" transition: the request moved to NewMadeleine and its CH3
    /// entry must be lazily skipped, never matched).
    Deactivate { pick: usize },
}

fn qop_strategy() -> impl Strategy<Value = QOp> {
    prop_oneof![
        // src 0 stands for MPI_ANY_SOURCE (the stub proptest has no
        // `option::of` combinator).
        (0usize..=3, 0u64..4).prop_map(|(src, key)| QOp::Post {
            src: (src > 0).then_some(src),
            key,
        }),
        (1usize..=3, 0u64..4, 1usize..2048).prop_map(|(src, key, len)| QOp::Arrive {
            src,
            key,
            len
        }),
        (0usize..8).prop_map(|pick| QOp::Deactivate { pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192, // pure queue ops, no simulation: cheap to run wide
        .. ProptestConfig::default()
    })]

    /// For ANY interleaving of posts, arrivals and any-source stalls, a
    /// (src, key) envelope is never simultaneously claimable from both
    /// queues: each transition either matches-and-removes or enqueues on
    /// exactly one side. Verified against a shadow model that the real
    /// queue must agree with step by step — return values, lengths, byte
    /// accounting and probe results included.
    #[test]
    fn posted_and_unexpected_stay_disjoint(ops in proptest::collection::vec(qop_strategy(), 1..60)) {
        let mut table = RequestTable::new();
        let q = Ch3Queues::new();
        // Shadow model: live posted entries (with their shared active
        // flags) and unexpected messages, both in queue order.
        let mut posted: Vec<(Option<usize>, u64, std::sync::Arc<std::sync::atomic::AtomicBool>)> = Vec::new();
        let mut unex: Vec<(usize, u64, usize)> = Vec::new();
        let mut hwm = 0usize;
        for op in ops {
            match op {
                QOp::Post { src, key } => {
                    let hit = unex.iter().position(|&(s, k, _)| {
                        k == key && src.is_none_or(|want| want == s)
                    });
                    let req = table.create(ReqKind::Recv, ReqPath::Shm);
                    match (q.post(req, src, key), hit) {
                        (Err(m), Some(i)) => {
                            let (s, k, len) = unex.remove(i);
                            prop_assert_eq!(m.src(), s, "consumed the wrong sender");
                            prop_assert_eq!(m.key(), k);
                            match m {
                                UnexMsg::Eager { data, .. } => prop_assert_eq!(data.len(), len),
                                UnexMsg::Rts { .. } => prop_assert!(false, "model only feeds eagers"),
                            }
                        }
                        (Ok(flag), None) => posted.push((src, key, flag)),
                        (Err(_), None) => prop_assert!(false, "queue invented an unexpected hit"),
                        (Ok(_), Some(_)) => prop_assert!(false, "queue missed a waiting unexpected"),
                    }
                }
                QOp::Arrive { src, key, len } => {
                    let hit = posted.iter().position(|(ps, pk, _)| {
                        *pk == key && ps.is_none_or(|p| p == src)
                    });
                    match (q.match_arrival(src, key), hit) {
                        (Some(e), Some(i)) => {
                            let (ps, pk, _) = posted.remove(i);
                            prop_assert_eq!(e.src, ps, "matched out of posted order");
                            prop_assert_eq!(e.key, Some(pk));
                        }
                        (None, None) => {
                            q.store_unexpected(UnexMsg::Eager {
                                src,
                                key,
                                data: NmBuf::from(Bytes::from(vec![0u8; len])),
                            });
                            unex.push((src, key, len));
                        }
                        (Some(_), None) => prop_assert!(false, "matched a receive the model never posted"),
                        (None, Some(_)) => prop_assert!(false, "queue missed a posted receive"),
                    }
                }
                QOp::Deactivate { pick } => {
                    if !posted.is_empty() {
                        let (_, _, flag) = posted.remove(pick % posted.len());
                        flag.store(false, Ordering::Release);
                    }
                }
            }
            // THE invariant: nothing in the unexpected queue has a live
            // posted receive that would claim it.
            for &(s, k, _) in &unex {
                prop_assert!(
                    !posted.iter().any(|(ps, pk, _)| *pk == k && ps.is_none_or(|p| p == s)),
                    "(src {s}, key {k}) sits unexpected while a matching receive is posted"
                );
            }
            // The real queue must agree with the model on every observable.
            let bytes: usize = unex.iter().map(|&(_, _, len)| len).sum();
            hwm = hwm.max(bytes);
            prop_assert_eq!(q.posted_len(), posted.len());
            prop_assert_eq!(q.unexpected_len(), unex.len());
            prop_assert_eq!(q.unexpected_bytes(), bytes);
            prop_assert_eq!(q.unexpected_hwm(), hwm);
            for key in 0..4u64 {
                for src in [None, Some(1), Some(2), Some(3)] {
                    let want = unex
                        .iter()
                        .find(|&&(s, k, _)| k == key && src.is_none_or(|w| w == s))
                        .map(|&(s, _, len)| (s, len));
                    prop_assert_eq!(q.probe(src, key), want, "probe disagrees with model");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CH3 matching engine under *wildcard keys*: ANY_SOURCE × ANY_TAG ×
// arbitrary post/arrival interleavings. Extends the disjointness test
// above (concrete keys only) with `post_any_key` entries and pins the
// FIFO laws via per-arrival ids.
// ---------------------------------------------------------------------

/// One step of a random wildcard-matching schedule.
#[derive(Clone, Debug)]
enum WOp {
    /// Post a receive: src `None` = MPI_ANY_SOURCE, key `None` = wildcard.
    Post {
        src: Option<usize>,
        key: Option<u64>,
    },
    /// An envelope arrives from `src` under `key`.
    Arrive { src: usize, key: u64 },
    /// Deactivate the `pick`-th live posted entry (any-source stall).
    Deactivate { pick: usize },
}

fn wop_strategy() -> impl Strategy<Value = WOp> {
    prop_oneof![
        // src 0 = MPI_ANY_SOURCE, key 3 = wildcard (the stub proptest
        // has no `option::of` combinator).
        3 => (0usize..=3, 0u64..=3).prop_map(|(src, key)| WOp::Post {
            src: (src > 0).then_some(src),
            key: (key < 3).then_some(key),
        }),
        4 => (1usize..=3, 0u64..3).prop_map(|(src, key)| WOp::Arrive { src, key }),
        1 => (0usize..8).prop_map(|pick| WOp::Deactivate { pick }),
    ]
}

/// Mirror of one posted receive.
#[derive(Clone, Debug)]
struct WPost {
    req: mpich2_nmad_repro::mpi_ch3::Req,
    src: Option<usize>,
    key: Option<u64>,
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
    active: bool,
}

fn wpost_matches(p: &WPost, src: usize, key: u64) -> bool {
    p.active && p.src.is_none_or(|s| s == src) && p.key.is_none_or(|k| k == key)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, // pure queue ops, no simulation: cheap to run wide
        .. ProptestConfig::default()
    })]

    /// Under any interleaving of posts (including ANY_SOURCE and
    /// wildcard-key), arrivals, and deactivations:
    ///
    /// * posted ∩ unexpected = ∅ — no queued unexpected message is
    ///   satisfiable by a live posted entry;
    /// * every match consumes exactly the entry MPI's ordering rules
    ///   name: the oldest satisfiable posted entry (post order, verified
    ///   by request identity) or the oldest satisfiable unexpected
    ///   message (arrival order, verified by an id stamped into the
    ///   payload) — which implies FIFO per (src, key).
    #[test]
    fn wildcard_matching_is_fifo_and_disjoint(
        ops in proptest::collection::vec(wop_strategy(), 1..60),
    ) {
        let mut table = RequestTable::new();
        let q = Ch3Queues::new();
        let mut posts: Vec<WPost> = Vec::new();           // mirror, post order
        let mut unexq: Vec<(usize, usize, u64)> = Vec::new(); // (id, src, key), arrival order
        let mut next_id = 0usize;
        for op in &ops {
            match *op {
                WOp::Post { src, key } => {
                    let req = table.create(ReqKind::Recv, ReqPath::Shm);
                    let outcome = match key {
                        Some(k) => q.post(req, src, k),
                        None => q.post_any_key(req, src),
                    };
                    // The oldest satisfiable unexpected message, per the model.
                    let expect = unexq.iter().position(|&(_, s, k)| {
                        src.is_none_or(|w| w == s) && key.is_none_or(|w| w == k)
                    });
                    match (outcome, expect) {
                        (Err(m), Some(pos)) => {
                            let UnexMsg::Eager { data, .. } = m else {
                                prop_assert!(false, "model only feeds eagers");
                                unreachable!();
                            };
                            let got = usize::from_le_bytes(data[..8].try_into().unwrap());
                            prop_assert_eq!(got, unexq[pos].0,
                                "post consumed a different message than the oldest satisfiable (FIFO break)");
                            unexq.remove(pos);
                        }
                        (Ok(flag), None) => posts.push(WPost { req, src, key, flag, active: true }),
                        (Err(_), None) => prop_assert!(false, "queue invented an unexpected hit"),
                        (Ok(_), Some(_)) => prop_assert!(false, "queue missed a waiting unexpected"),
                    }
                }
                WOp::Arrive { src, key } => {
                    let id = next_id;
                    next_id += 1;
                    let hit = q.match_arrival(src, key);
                    let expect = posts.iter().position(|p| wpost_matches(p, src, key));
                    match (hit, expect) {
                        (Some(entry), Some(pos)) => {
                            prop_assert_eq!(entry.req, posts[pos].req,
                                "matched a different receive than the oldest satisfiable post");
                            posts.remove(pos);
                        }
                        (None, None) => {
                            q.store_unexpected(UnexMsg::Eager {
                                src,
                                key,
                                data: NmBuf::from(Bytes::from(id.to_le_bytes().to_vec())),
                            });
                            unexq.push((id, src, key));
                        }
                        (Some(_), None) => prop_assert!(false, "matched a receive the model never posted"),
                        (None, Some(_)) => prop_assert!(false, "queue missed a posted receive"),
                    }
                }
                WOp::Deactivate { pick } => {
                    let live: Vec<usize> = posts
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.active)
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let i = live[pick % live.len()];
                        posts[i].active = false;
                        posts[i].flag.store(false, Ordering::Release);
                    }
                }
            }
            // THE invariant: posted ∩ unexpected = ∅.
            for &(_, s, k) in &unexq {
                prop_assert!(
                    !posts.iter().any(|p| wpost_matches(p, s, k)),
                    "(src {s}, key {k}) sits unexpected while a matching receive is posted"
                );
            }
        }
        // Mirrors and real queue agree on the survivors.
        prop_assert_eq!(q.unexpected_len(), unexq.len());
        prop_assert_eq!(q.posted_len(), posts.iter().filter(|p| p.active).count());
    }
}
