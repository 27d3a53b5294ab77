//! End-to-end tests of complete MPI jobs on the simulated cluster, pinning
//! down the paper's mechanisms: bypass latency calibration, ANY_SOURCE
//! semantics across shared memory and the network, PIOMan's overlap, and
//! the nested-handshake penalty of the legacy netmod path.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Cluster, Placement, SimDuration, SimTime};

use mpi_ch3::stack::{run_mpi, run_mpi_collect, StackConfig};
use mpi_ch3::{MpiHandle, Src};

fn pair() -> (Cluster, Placement) {
    let c = Cluster::xeon_pair();
    let p = Placement::one_per_node(2, &c);
    (c, p)
}

/// One-way small-message latency via a long ping-pong.
fn pingpong_one_way_us(cfg: &StackConfig, bytes: usize, iters: usize) -> f64 {
    let (c, p) = pair();
    let elapsed = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&elapsed);
    run_mpi(
        &c,
        &p,
        cfg,
        2,
        Arc::new(move |mpi: MpiHandle| {
            let payload = vec![7u8; bytes];
            if mpi.rank() == 0 {
                // Warmup round.
                mpi.send(1, 1, &payload);
                mpi.recv(Src::Rank(1), 1);
                let t0 = mpi.now();
                for _ in 0..iters {
                    mpi.send(1, 1, &payload);
                    mpi.recv(Src::Rank(1), 1);
                }
                let dt = mpi.now() - t0;
                *e2.lock() = Some(dt.as_micros_f64() / (2.0 * iters as f64));
            } else {
                mpi.recv(Src::Rank(0), 1);
                mpi.send(0, 1, &payload);
                for _ in 0..iters {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 1, &payload);
                }
            }
        }),
    );
    let v = elapsed.lock().take().expect("rank 0 measured");
    v
}

#[test]
fn nmad_ib_latency_matches_paper() {
    // §4.1.1: MPICH2-NewMadeleine over IB = 2.1 µs one-way.
    let cfg = StackConfig::mpich2_nmad_rail(0, false);
    let lat = pingpong_one_way_us(&cfg, 4, 50);
    assert!(
        (lat - 2.1).abs() < 0.15,
        "IB one-way latency {lat:.3}us, want ~2.1us"
    );
}

#[test]
fn large_messages_use_rendezvous_and_arrive_intact() {
    let (c, p) = pair();
    let cfg = StackConfig::mpich2_nmad_rail(0, false);
    let payload: Vec<u8> = (0..(1 << 20)).map(|i| (i % 249) as u8).collect();
    let expect = payload.clone();
    let out = run_mpi(
        &c,
        &p,
        &cfg,
        2,
        Arc::new(move |mpi: MpiHandle| {
            if mpi.rank() == 0 {
                mpi.send(1, 9, &payload);
            } else {
                let (data, st) = mpi.recv(Src::Rank(0), 9);
                assert_eq!(st.source, 0);
                assert_eq!(st.len, expect.len());
                assert_eq!(&data[..], &expect[..]);
            }
        }),
    );
    assert_eq!(out.nm_stats[0].rdv_sends, 1, "1MB must go rendezvous");
    assert_eq!(out.nm_stats[0].eager_sends, 0);
}

#[test]
fn multirail_beats_single_rail_bandwidth() {
    let (c, p) = pair();
    let size = 16 << 20;
    let time_for = |cfg: &StackConfig| -> SimTime {
        let done = Arc::new(Mutex::new(SimTime::ZERO));
        let d2 = Arc::clone(&done);
        let payload = vec![3u8; size];
        run_mpi(
            &c,
            &p,
            cfg,
            2,
            Arc::new(move |mpi: MpiHandle| {
                if mpi.rank() == 0 {
                    mpi.send(1, 1, &payload);
                } else {
                    mpi.recv(Src::Rank(0), 1);
                    *d2.lock() = mpi.now();
                }
            }),
        );
        let t = *done.lock();
        t
    };
    let single = time_for(&StackConfig::mpich2_nmad_rail(0, false));
    let multi = time_for(&StackConfig::mpich2_nmad(false));
    let speedup = single.as_nanos() as f64 / multi.as_nanos() as f64;
    assert!(
        speedup > 1.5,
        "multirail speedup {speedup:.2} (single {single}, multi {multi})"
    );
}

#[test]
fn any_source_matches_network_and_shm_sources() {
    // 3 ranks: 0+1 share node 0, rank 2 on node 1. Rank 0 posts two
    // ANY_SOURCE receives and must get both messages regardless of path.
    let c = Cluster::xeon_pair();
    let p = Placement::explicit(vec![
        simnet::NodeId(0),
        simnet::NodeId(0),
        simnet::NodeId(1),
    ]);
    let cfg = StackConfig::mpich2_nmad(false);
    let (_, results) = run_mpi_collect(&c, &p, &cfg, 3, |mpi| match mpi.rank() {
        0 => {
            let (d1, s1) = mpi.recv(Src::Any, 5);
            let (d2, s2) = mpi.recv(Src::Any, 5);
            let mut got = [(s1.source, d1), (s2.source, d2)];
            got.sort_by_key(|(s, _)| *s);
            assert_eq!(got[0].0, 1);
            assert_eq!(&got[0].1[..], b"from shm");
            assert_eq!(got[1].0, 2);
            assert_eq!(&got[1].1[..], b"from net");
            true
        }
        1 => {
            mpi.send(0, 5, b"from shm");
            true
        }
        2 => {
            mpi.send(0, 5, b"from net");
            true
        }
        _ => unreachable!(),
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn any_source_costs_a_constant_300ns() {
    // §4.1.1: the ANY_SOURCE latency gap is ~300 ns, constant in size.
    let cfg = StackConfig::mpich2_nmad_rail(0, false);
    let (c, p) = pair();
    let one_way = |any: bool, bytes: usize| -> f64 {
        let elapsed = Arc::new(Mutex::new(0.0));
        let e2 = Arc::clone(&elapsed);
        run_mpi(
            &c,
            &p,
            &cfg,
            2,
            Arc::new(move |mpi: MpiHandle| {
                let src = if any { Src::Any } else { Src::Rank(1) };
                let payload = vec![1u8; bytes];
                if mpi.rank() == 0 {
                    mpi.send(1, 1, &payload);
                    mpi.recv(src, 1);
                    let t0 = mpi.now();
                    for _ in 0..20 {
                        mpi.send(1, 1, &payload);
                        mpi.recv(src, 1);
                    }
                    *e2.lock() = (mpi.now() - t0).as_micros_f64() / 40.0;
                } else {
                    let back = vec![2u8; bytes];
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 1, &back);
                    for _ in 0..20 {
                        mpi.recv(Src::Rank(0), 1);
                        mpi.send(0, 1, &back);
                    }
                }
            }),
        );
        let v = *elapsed.lock();
        v
    };
    for &bytes in &[4usize, 512] {
        let known = one_way(false, bytes);
        let any = one_way(true, bytes);
        let gap_ns = (any - known) * 1000.0;
        // Half the 300 ns shows per one-way (only rank 0 uses ANY_SOURCE,
        // gap measured on round trips averaged over both directions).
        assert!(
            gap_ns > 80.0 && gap_ns < 260.0,
            "ANY_SOURCE gap at {bytes}B = {gap_ns:.0}ns/one-way (want ~150)"
        );
    }
}

#[test]
fn any_source_ordering_with_interposed_specific_recv() {
    // An ANY_SOURCE recv posted before a specific same-tag recv must match
    // the first message (§3.2.2's parked-request rule).
    let (c, p) = pair();
    let cfg = StackConfig::mpich2_nmad_rail(0, false);
    let (_, results) = run_mpi_collect(&c, &p, &cfg, 2, |mpi| {
        if mpi.rank() == 0 {
            let r_any = mpi.irecv(Src::Any, 7);
            let r_spec = mpi.irecv(Src::Rank(1), 7);
            let (d_any, s_any) = mpi.wait_data(r_any);
            let (d_spec, _) = mpi.wait_data(r_spec);
            assert_eq!(&d_any.unwrap()[..], b"first");
            assert_eq!(s_any.unwrap().source, 1);
            assert_eq!(&d_spec.unwrap()[..], b"second");
            true
        } else {
            mpi.send(0, 7, b"first");
            mpi.send(0, 7, b"second");
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn pioman_adds_2us_network_latency() {
    // Fig. 6(b): PIOMan costs ~2 µs of network latency, constant in size.
    let base = pingpong_one_way_us(&StackConfig::mpich2_nmad_rail(0, false), 4, 30);
    let piom = pingpong_one_way_us(&StackConfig::mpich2_nmad_rail(0, true), 4, 30);
    let gap = piom - base;
    assert!(
        gap > 1.6 && gap < 2.8,
        "PIOMan network latency overhead {gap:.2}us (want ~2.0-2.4)"
    );
}

#[test]
fn pioman_overlaps_eager_send_with_computation() {
    // Fig. 7(a): isend + compute(20us) + wait. Without PIOMan the time is
    // sum(comm, compute); with PIOMan it is ~max(comm, compute).
    let (c, p) = pair();
    let compute = SimDuration::micros(20);
    let bytes = 16 * 1024; // eager boundary
    let sending_time = |pioman: bool| -> f64 {
        let cfg = StackConfig::mpich2_nmad_rail(0, pioman);
        let elapsed = Arc::new(Mutex::new(0.0));
        let e2 = Arc::clone(&elapsed);
        run_mpi(
            &c,
            &p,
            &cfg,
            2,
            Arc::new(move |mpi: MpiHandle| {
                let payload = vec![1u8; bytes];
                if mpi.rank() == 0 {
                    // Warmup.
                    mpi.send(1, 1, &payload);
                    mpi.recv(Src::Rank(1), 2);
                    let t0 = mpi.now();
                    let r = mpi.isend(1, 1, &payload);
                    mpi.compute(compute);
                    mpi.wait(r);
                    // Wait for the ack so both sides stay in step.
                    mpi.recv(Src::Rank(1), 2);
                    *e2.lock() = (mpi.now() - t0).as_micros_f64();
                } else {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 2, b"ack");
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 2, b"ack");
                }
            }),
        );
        let v = *elapsed.lock();
        v
    };
    let no_piom = sending_time(false);
    let piom = sending_time(true);
    // 16KB over IB ~ 13.5us757 trx + stack: comm ~ 15us; compute = 20us.
    // sum ~ 35us+, max ~ 20us+overheads.
    assert!(
        no_piom > 30.0,
        "without PIOMan the send must serialize after compute: {no_piom:.1}us"
    );
    assert!(
        piom < no_piom - 8.0,
        "PIOMan must overlap: {piom:.1}us vs {no_piom:.1}us"
    );
}

#[test]
fn pioman_progresses_rendezvous_during_computation() {
    // Fig. 7(b): the sender computes 400us after isend of a large message;
    // only with PIOMan does the CTS get answered during the computation.
    let (c, p) = pair();
    let compute = SimDuration::micros(400);
    let bytes = 1 << 20;
    let sending_time = |pioman: bool| -> f64 {
        let cfg = StackConfig::mpich2_nmad_rail(0, pioman);
        let elapsed = Arc::new(Mutex::new(0.0));
        let e2 = Arc::clone(&elapsed);
        run_mpi(
            &c,
            &p,
            &cfg,
            2,
            Arc::new(move |mpi: MpiHandle| {
                let payload = vec![1u8; bytes];
                if mpi.rank() == 0 {
                    mpi.send(1, 1, b"warm");
                    mpi.recv(Src::Rank(1), 2);
                    let t0 = mpi.now();
                    let r = mpi.isend(1, 1, &payload);
                    mpi.compute(compute);
                    mpi.wait(r);
                    mpi.recv(Src::Rank(1), 2);
                    *e2.lock() = (mpi.now() - t0).as_micros_f64();
                } else {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 2, b"ack");
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 2, b"ack");
                }
            }),
        );
        let v = *elapsed.lock();
        v
    };
    let no_piom = sending_time(false);
    let piom = sending_time(true);
    // 1MB at 1250MB/s ~ 800us of wire time; without progression the
    // rendezvous doesn't even start until the 400us compute ends.
    assert!(
        no_piom > 1150.0,
        "no overlap without PIOMan: {no_piom:.0}us"
    );
    assert!(
        piom < no_piom - 300.0,
        "PIOMan must overlap the rendezvous: {piom:.0}us vs {no_piom:.0}us"
    );
}

#[test]
fn netmod_path_pays_nested_handshake() {
    // Fig. 2: the legacy netmod path runs a CH3 rendezvous around
    // NewMadeleine's internal one. For a large message the bypass saves a
    // full handshake round trip (and the netmod's extra copies).
    let (c, p) = pair();
    let size = 256 * 1024;
    let one_transfer = |cfg: &StackConfig| -> f64 {
        let elapsed = Arc::new(Mutex::new(0.0));
        let e2 = Arc::clone(&elapsed);
        let payload = vec![9u8; size];
        run_mpi(
            &c,
            &p,
            cfg,
            2,
            Arc::new(move |mpi: MpiHandle| {
                if mpi.rank() == 0 {
                    mpi.send(1, 1, b"warm");
                    mpi.recv(Src::Rank(1), 2);
                    let t0 = mpi.now();
                    mpi.send(1, 1, &payload);
                    mpi.recv(Src::Rank(1), 2);
                    *e2.lock() = (mpi.now() - t0).as_micros_f64();
                } else {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 2, b"a");
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 2, b"a");
                }
            }),
        );
        let v = *elapsed.lock();
        v
    };
    let direct = one_transfer(&StackConfig::mpich2_nmad_rail(0, false));
    let netmod = one_transfer(&StackConfig::mpich2_nmad_netmod(0));
    assert!(
        netmod > direct + 2.0,
        "nested handshake must cost measurably more: netmod {netmod:.1}us vs direct {direct:.1}us"
    );
}

#[test]
fn collectives_work_on_mixed_intra_inter_cluster() {
    // 8 ranks over 2 nodes (4+4): barrier, bcast, allreduce, alltoall all
    // cross both the shm and network paths.
    let c = Cluster::xeon_pair();
    let p = Placement::block(8, &c);
    let cfg = StackConfig::mpich2_nmad(false);
    let (_, results) = run_mpi_collect(&c, &p, &cfg, 8, |mpi| {
        let me = mpi.rank() as f64;
        let n = mpi.size();
        mpi.barrier();
        // bcast from 3.
        let data = if mpi.rank() == 3 {
            Some(bytes::Bytes::from_static(b"broadcast-payload"))
        } else {
            None
        };
        let got = mpi.bcast(3, data);
        assert_eq!(&got[..], b"broadcast-payload");
        // allreduce: sum of ranks = n(n-1)/2.
        let total = mpi.allreduce_sum(&[me, 2.0 * me]);
        assert_eq!(total[0], (n * (n - 1) / 2) as f64);
        assert_eq!(total[1], (n * (n - 1)) as f64);
        // alltoall: block (i -> j) = [i, j].
        let blocks: Vec<bytes::Bytes> = (0..n)
            .map(|j| bytes::Bytes::from(vec![mpi.rank() as u8, j as u8]))
            .collect();
        let got = mpi.alltoall(blocks);
        for (i, b) in got.iter().enumerate() {
            assert_eq!(&b[..], &[i as u8, mpi.rank() as u8]);
        }
        mpi.barrier();
        true
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn collectives_work_with_pioman() {
    let c = Cluster::xeon_pair();
    let p = Placement::block(4, &c); // all on node 0: pure shm
    let cfg = StackConfig::mpich2_nmad(true);
    let (_, sums) = run_mpi_collect(&c, &p, &cfg, 4, |mpi| {
        mpi.barrier();
        let s = mpi.allreduce_sum(&[1.0])[0];
        mpi.barrier();
        s
    });
    assert!(sums.into_iter().all(|s| s == 4.0));
}

#[test]
fn self_send_and_waitall() {
    let c = Cluster::xeon_pair();
    let p = Placement::one_per_node(1, &c);
    let cfg = StackConfig::mpich2_nmad(false);
    let (_, results) = run_mpi_collect(&c, &p, &cfg, 1, |mpi| {
        let r1 = mpi.isend(0, 1, b"self");
        let r2 = mpi.irecv(Src::Rank(0), 1);
        mpi.waitall(&[r1, r2]);
        let (d, st) = mpi.wait_data(r2);
        // waitall already claimed it; status must survive.
        assert!(d.is_none());
        assert_eq!(st.unwrap().len, 4);
        true
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn probe_and_iprobe_report_envelopes_without_receiving() {
    // Probe must see both shm and nmad unexpected messages, report the
    // right envelope, and leave the message receivable.
    let c = Cluster::xeon_pair();
    let p = Placement::explicit(vec![
        simnet::NodeId(0),
        simnet::NodeId(0), // rank 1: shm neighbour of 0
        simnet::NodeId(1), // rank 2: remote
    ]);
    let cfg = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&c, &p, &cfg, 3, |mpi| {
        match mpi.rank() {
            0 => {
                // Nothing has been sent yet with tag 9.
                assert!(mpi.iprobe(Src::Any, 99).is_none());
                // Blocking probe for the remote sender.
                let st = mpi.probe(Src::Rank(2), 7);
                assert_eq!(st.source, 2);
                assert_eq!(st.len, 64 * 1024);
                // Probing does not consume: a second probe still sees it.
                assert!(mpi.iprobe(Src::Rank(2), 7).is_some());
                let (d, _) = mpi.recv(Src::Rank(2), 7);
                assert_eq!(d.len(), 64 * 1024);
                // And the shm message, via ANY_SOURCE probe.
                let st = mpi.probe(Src::Any, 8);
                assert_eq!(st.source, 1);
                assert_eq!(st.len, 5);
                let (d, _) = mpi.recv(Src::Rank(1), 8);
                assert_eq!(&d[..], b"hello");
                true
            }
            1 => {
                mpi.send(0, 8, b"hello");
                true
            }
            2 => {
                // Rendezvous-sized: the probe must see the RTS length.
                mpi.send(0, 7, &vec![1u8; 64 * 1024]);
                true
            }
            _ => unreachable!(),
        }
    });
    assert!(oks.into_iter().all(|b| b));
}

#[test]
fn sendrecv_exchanges_rendezvous_payloads_without_deadlock() {
    let (c, p) = pair();
    let cfg = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&c, &p, &cfg, 2, |mpi| {
        let me = mpi.rank();
        let other = 1 - me;
        let mine = vec![me as u8; 300 * 1024]; // rendezvous both ways
        let (theirs, st) = mpi.sendrecv(other, 3, &mine, Src::Rank(other), 3);
        st.source == other && theirs.len() == 300 * 1024 && theirs.iter().all(|&b| b == other as u8)
    });
    assert!(oks.into_iter().all(|b| b));
}

#[test]
fn shm_latency_matches_nemesis_calibration() {
    // Fig. 6(a): Nemesis shm latency ~0.2-0.35us for small messages.
    let c = Cluster::xeon_pair();
    let p = Placement::block(2, &c); // both on node 0
    let cfg = StackConfig::mpich2_nmad(false);
    let elapsed = Arc::new(Mutex::new(0.0));
    let e2 = Arc::clone(&elapsed);
    run_mpi(
        &c,
        &p,
        &cfg,
        2,
        Arc::new(move |mpi: MpiHandle| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, b"x");
                mpi.recv(Src::Rank(1), 1);
                let t0 = mpi.now();
                for _ in 0..50 {
                    mpi.send(1, 1, b"x");
                    mpi.recv(Src::Rank(1), 1);
                }
                *e2.lock() = (mpi.now() - t0).as_micros_f64() / 100.0;
            } else {
                mpi.recv(Src::Rank(0), 1);
                mpi.send(0, 1, b"x");
                for _ in 0..50 {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 1, b"x");
                }
            }
        }),
    );
    let lat = *elapsed.lock();
    assert!(
        lat > 0.12 && lat < 0.45,
        "shm one-way latency {lat:.3}us (want ~0.2-0.35)"
    );
}

#[test]
fn pioman_shm_overhead_is_sub_microsecond() {
    // Fig. 6(a): PIOMan adds ~450ns on the shm path.
    let c = Cluster::xeon_pair();
    let p = Placement::block(2, &c);
    let one_way = |pioman: bool| -> f64 {
        let cfg = StackConfig::mpich2_nmad(pioman);
        let elapsed = Arc::new(Mutex::new(0.0));
        let e2 = Arc::clone(&elapsed);
        run_mpi(
            &c,
            &p,
            &cfg,
            2,
            Arc::new(move |mpi: MpiHandle| {
                if mpi.rank() == 0 {
                    mpi.send(1, 1, b"x");
                    mpi.recv(Src::Rank(1), 1);
                    let t0 = mpi.now();
                    for _ in 0..30 {
                        mpi.send(1, 1, b"x");
                        mpi.recv(Src::Rank(1), 1);
                    }
                    *e2.lock() = (mpi.now() - t0).as_micros_f64() / 60.0;
                } else {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 1, b"x");
                    for _ in 0..30 {
                        mpi.recv(Src::Rank(0), 1);
                        mpi.send(0, 1, b"x");
                    }
                }
            }),
        );
        let v = *elapsed.lock();
        v
    };
    let base = one_way(false);
    let piom = one_way(true);
    let gap_us = piom - base;
    assert!(
        gap_us > 0.3 && gap_us < 0.8,
        "PIOMan shm overhead {gap_us:.3}us (want ~0.45)"
    );
}

#[test]
fn a_receive_nobody_sends_is_a_deadlock() {
    // An app-polling rank that waits on a receive no rank sends: once its
    // peer has returned, nothing can change again, so the job must fail as
    // a deadlock naming it instead of ticking forever. The job runs on a
    // thread of its own so that a regression fails here instead of
    // hanging the suite.
    let (c, p) = pair();
    let cfg = StackConfig::mpich2_nmad_rail(0, false);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::AssertUnwindSafe(|| {
            run_mpi_collect(&c, &p, &cfg, 2, |mpi| {
                if mpi.rank() == 0 {
                    mpi.recv(Src::Rank(1), 9);
                }
                None::<()>
            })
        });
        let message = match std::panic::catch_unwind(run) {
            Ok(_) => "the job completed".to_string(),
            Err(payload) => (payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into()),
        };
        tx.send(message).unwrap();
    });
    let message = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a wait on a receive nobody sends never ended");
    assert!(
        message.ends_with("simulation deadlock; parked ranks: rank0"),
        "{message}"
    );
}

#[test]
fn zero_poll_granularity_wait_terminates() {
    // `StackConfig.costs.poll_gran` is public: a 0 ns cadence must still
    // back off, or a wait on a message that lands later re-ticks one
    // instant forever. The job runs on a thread of its own so that a
    // regression fails here instead of hanging the suite.
    let (c, p) = pair();
    let mut cfg = StackConfig::mpich2_nmad_rail(0, false);
    cfg.costs.poll_gran = SimDuration::ZERO;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (_, got) = run_mpi_collect(&c, &p, &cfg, 2, |mpi| {
            if mpi.rank() == 0 {
                let (data, _) = mpi.recv(Src::Rank(1), 3);
                Some((data.to_vec(), mpi.now()))
            } else {
                mpi.compute(SimDuration::micros(20));
                mpi.send(0, 3, b"late");
                None
            }
        });
        tx.send(got).unwrap();
    });
    let got = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a wait at a 0 ns poll granularity never ended");
    let (data, at) = got[0].clone().expect("rank 0 received");
    assert_eq!(data, b"late");
    assert!(
        at > SimTime(20_000),
        "received at {at:?}, before it was sent"
    );
}
