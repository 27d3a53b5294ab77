//! Integration tests for elastic membership: node-death detection,
//! the drain protocol, and per-peer state reclamation.
//!
//! Every scenario drives two real cores over the simulated fabric. A
//! "crash" is `halt()` on the victim — its core empties and stops
//! accepting frames, so the silence its peers observe is real, exactly
//! like a node whose process died. Detection must then happen
//! organically (retransmission timeouts + silence probes), or the test
//! uses `declare_peer_dead` to pin the drain at one precise protocol
//! state (RTS sent, CTS sent, mid-DATA...).
//!
//! The invariants under test, from the membership design (§12):
//! - a dead peer's `peer_entry_count` ends at exactly 0 after drain;
//! - every request completes exactly once — success or a counted
//!   `SendFailed`/`RecvFailed`, never both, never neither;
//! - a merely slow peer (intact inbound within `min_silence`) is never
//!   declared dead no matter how many timeouts it causes;
//! - frames from a drained peer are counted stray, not state-reviving;
//! - the same seed replays to bit-identical stats, membership counters
//!   included.

use std::sync::Arc;

use bytes::Bytes;
use simnet::{Fabric, NicModel, NodeId, RailId, RankCtx, Sim, SimBuilder, SimDuration};

use nmad::sr::CompletionKind;
use nmad::{
    FlowConfig, GateId, MembershipConfig, NmCompletion, NmConfig, NmCore, NmNet, NmWire,
    PeerLiveness, RetryConfig, StrategyKind, WirePayload,
};
use simnet::NmBuf;

/// Retry + membership tuned for fast tests: a dead verdict needs 4
/// attributed failures and 50µs of inbound silence.
fn fast_cfg() -> NmConfig {
    let mut cfg = NmConfig::with_strategy(StrategyKind::Default);
    cfg.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    cfg.membership = Some(MembershipConfig {
        suspect_after: 2,
        dead_after: 4,
        min_silence: SimDuration::micros(50),
        probe_interval: SimDuration::micros(25),
    });
    cfg
}

/// `n` cores on `n` single-rank nodes over one rail.
fn cores(n: usize, cfg: NmConfig) -> (Sim, Vec<Arc<NmCore>>) {
    let sim = SimBuilder::new().build();
    let fabric: Arc<Fabric<NmWire>> = Fabric::new(n, vec![NicModel::connectx_ib()]);
    let rank_to_node = Arc::new((0..n).map(NodeId).collect::<Vec<_>>());
    let rail_ids: Vec<RailId> = (0..fabric.num_rails()).map(RailId).collect();
    let cores: Vec<Arc<NmCore>> = (0..n)
        .map(|r| {
            NmCore::new(
                cfg,
                r,
                NmNet {
                    fabric: Arc::clone(&fabric),
                    node: NodeId(r),
                    rails: rail_ids.clone(),
                    rank_to_node: Arc::clone(&rank_to_node),
                },
            )
        })
        .collect();
    for (r, c) in cores.iter().enumerate() {
        let core = Arc::clone(c);
        fabric.set_sink(NodeId(r), Box::new(move |s, d| core.accept(s, d.msg)));
    }
    (sim, cores)
}

fn pair(cfg: NmConfig) -> (Sim, Arc<NmCore>, Arc<NmCore>) {
    let (sim, cores) = cores(2, cfg);
    let mut it = cores.into_iter();
    (sim, it.next().unwrap(), it.next().unwrap())
}

/// Drive both cores for `dur` of simulated time, collecting completions.
fn run_for(
    ctx: &RankCtx,
    cores: &[&Arc<NmCore>],
    sink: &mut Vec<(usize, NmCompletion)>,
    dur: SimDuration,
) {
    let sched = ctx.scheduler();
    let deadline = sched.now() + dur;
    while sched.now() < deadline {
        for (i, c) in cores.iter().enumerate() {
            c.schedule(&sched);
            for comp in c.drain_completions() {
                sink.push((i, comp));
            }
        }
        ctx.advance(SimDuration::nanos(200));
    }
}

/// Drive until `pred` holds (or panic after `max` of simulated time).
fn run_until(
    ctx: &RankCtx,
    cores: &[&Arc<NmCore>],
    sink: &mut Vec<(usize, NmCompletion)>,
    max: SimDuration,
    what: &str,
    mut pred: impl FnMut() -> bool,
) {
    let sched = ctx.scheduler();
    let deadline = sched.now() + max;
    while !pred() {
        assert!(sched.now() < deadline, "timed out waiting for {what}");
        for (i, c) in cores.iter().enumerate() {
            c.schedule(&sched);
            for comp in c.drain_completions() {
                sink.push((i, comp));
            }
        }
        ctx.advance(SimDuration::nanos(200));
    }
}

/// A crashed peer that stops acking eager envelopes is detected through
/// retransmission-timeout attribution alone, and its state drains to 0.
#[test]
fn organic_death_of_halted_peer() {
    let (mut sim, c0, c1) = pair(fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        // One eager message; c1 dies before it can ack.
        c1.halt();
        c0.isend(&sched, 1, 7, Bytes::from_static(b"into the void"), 100);
        run_until(
            &ctx,
            &[&c0],
            &mut comps,
            SimDuration::millis(10),
            "organic dead verdict",
            || c0.is_peer_dead(1),
        );
        let st = c0.stats();
        assert_eq!(st.membership_dead_peers, 1);
        assert!(st.membership_transitions >= 2, "Up→Suspect→Dead at least");
        assert_eq!(c0.peer_state(1), PeerLiveness::Dead);
        assert_eq!(c0.peer_entry_count(1), 0, "drain must reclaim every entry");
        assert_eq!(c0.take_dead_peers(), vec![1]);
        assert!(
            c0.take_dead_peers().is_empty(),
            "event consumed exactly once"
        );
        assert_eq!(c0.death_log().len(), 1);
        // The eager send completed locally at the NIC before the death —
        // exactly one successful completion, no failure on top of it.
        assert_eq!(comps.len(), 1);
        assert!(matches!(comps[0].1.kind, CompletionKind::Send));
    });
    sim.run().unwrap();
}

/// A posted receive is an inbound *expectation*: no outbound retries
/// exist to attribute failures from, so the silence prober must carry
/// the verdict, and the posted receive must fail cleanly.
#[test]
fn silence_prober_detects_dead_sender() {
    let (mut sim, c0, c1) = pair(fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        c0.halt();
        c1.irecv(&sched, 0, 3, 70);
        run_until(
            &ctx,
            &[&c1],
            &mut comps,
            SimDuration::millis(10),
            "prober-driven dead verdict",
            || c1.is_peer_dead(0),
        );
        // The drain failed the receive that can now never match.
        let sched = ctx.scheduler();
        c1.schedule(&sched);
        for c in c1.drain_completions() {
            comps.push((0, c));
        }
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].1.cookie, 70);
        assert!(
            matches!(comps[0].1.kind, CompletionKind::RecvFailed { tag: 3, .. }),
            "posted receive must complete with an error, got {:?}",
            comps[0].1.kind
        );
        assert_eq!(c1.stats().membership_aborted_recvs, 1);
        assert_eq!(c1.peer_entry_count(0), 0);
    });
    sim.run().unwrap();
}

/// The inbound-credited hysteresis: a peer that times out over and over
/// (unmatched rendezvous — no CTS ever comes) but keeps *sending* within
/// `min_silence` must stay alive, and the flow must finish once the
/// receiver gets around to posting.
#[test]
fn slow_peer_is_never_declared_dead() {
    let (mut sim, c0, c1) = pair(fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        let payload = vec![0x5Au8; 64 * 1024]; // rendezvous
        c0.isend(&sched, 1, 5, Bytes::from(payload.clone()), 500);
        // c1 never posts the matching receive for a long time, so c0
        // accumulates RTS retransmission timeouts against it — but c1
        // keeps chattering on another tag, crediting c0's inbound.
        for i in 0..40u64 {
            c1.isend(&ctx.scheduler(), 0, 9, Bytes::from_static(b"hb"), 900 + i);
            run_for(&ctx, &[&c0, &c1], &mut comps, SimDuration::micros(25));
            assert!(
                !c0.is_peer_dead(1),
                "slow-but-alive peer declared dead after {i} heartbeats"
            );
        }
        // 1ms of timeouts later: suspect at most, never dead.
        assert_ne!(c0.peer_state(1), PeerLiveness::Dead);
        // The receiver finally posts; the rendezvous completes byte-exact.
        c1.irecv(&ctx.scheduler(), 0, 5, 501);
        let mut spins = 0u32;
        while !comps
            .iter()
            .any(|(_, c)| matches!(&c.kind, CompletionKind::Recv { .. } if c.cookie == 501))
        {
            run_for(&ctx, &[&c0, &c1], &mut comps, SimDuration::micros(10));
            spins += 1;
            assert!(spins < 1_000, "late-posted rendezvous never completed");
        }
        let (_, recv) = comps
            .iter()
            .find(|(_, c)| c.cookie == 501)
            .expect("recv completion");
        let CompletionKind::Recv { data, .. } = &recv.kind else {
            panic!("expected successful receive");
        };
        assert_eq!(
            &data[..],
            &payload[..],
            "payload must survive the suspicion"
        );
        assert_eq!(c0.stats().membership_dead_peers, 0);
        assert_eq!(c0.stats().membership_aborted_sends, 0);
    });
    sim.run().unwrap();
}

/// Drain with the sender parked in `SWaitCts` (RTS sent, CTS never
/// came): the `dead/swaitcts` row aborts the send.
#[test]
fn drain_at_rts_sent_aborts_send() {
    let (mut sim, c0, c1) = pair(fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        c1.halt();
        c0.isend(&sched, 1, 2, Bytes::from(vec![1u8; 256 * 1024]), 11);
        // Let the RTS (and a retransmission or two) hit the void.
        run_for(&ctx, &[&c0], &mut comps, SimDuration::micros(60));
        assert!(comps.is_empty(), "nothing may complete before the verdict");
        assert!(c0.declare_peer_dead(&ctx.scheduler(), 1), "fresh verdict");
        assert!(
            !c0.declare_peer_dead(&ctx.scheduler(), 1),
            "Dead is sticky — second declaration is a no-op"
        );
        for c in c0.drain_completions() {
            comps.push((0, c));
        }
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].1.cookie, 11);
        assert!(matches!(
            comps[0].1.kind,
            CompletionKind::SendFailed { peer: 1 }
        ));
        let st = c0.stats();
        assert_eq!(st.membership_aborted_sends, 1);
        assert_eq!(st.membership_dead_peers, 1);
        assert!(
            st.membership_drained_entries >= 2,
            "gate + rendezvous at least"
        );
        assert_eq!(c0.peer_entry_count(1), 0);
        // Post-mortem traffic fails fast, one error completion each.
        c0.isend(&ctx.scheduler(), 1, 2, Bytes::from_static(b"late"), 12);
        c0.irecv(&ctx.scheduler(), 1, 4, 13);
        let post: Vec<NmCompletion> = c0.drain_completions();
        assert_eq!(post.len(), 2);
        assert!(matches!(
            post[0].kind,
            CompletionKind::SendFailed { peer: 1 }
        ));
        assert!(matches!(post[1].kind, CompletionKind::RecvFailed { .. }));
        assert_eq!(
            c0.peer_entry_count(1),
            0,
            "fail-fast leaves no state behind"
        );
    });
    sim.run().unwrap();
}

/// Drain with the receiver parked in `RWaitData` (CTS sent, sender died
/// before streaming): the `dead/rwaitdata` row aborts the receive.
#[test]
fn drain_at_cts_sent_aborts_recv() {
    let (mut sim, c0, c1) = pair(fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        c1.irecv(&sched, 0, 2, 21);
        c0.isend(&sched, 1, 2, Bytes::from(vec![2u8; 256 * 1024]), 20);
        // Stop c0 the instant its RTS is on the wire: the frame is
        // already in flight (fabric delivery is scheduled), but the CTS
        // answer will land on a halted core, freezing c1 in RWaitData.
        run_until(
            &ctx,
            &[&c0],
            &mut comps,
            SimDuration::millis(1),
            "RTS on the wire",
            || c0.stats().packets_sent >= 1,
        );
        c0.halt();
        // c1 receives the RTS, matches, answers CTS into the void.
        run_for(&ctx, &[&c1], &mut comps, SimDuration::micros(30));
        assert!(comps.is_empty());
        assert!(c1.declare_peer_dead(&ctx.scheduler(), 0));
        for c in c1.drain_completions() {
            comps.push((1, c));
        }
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].1.cookie, 21);
        assert!(matches!(
            comps[0].1.kind,
            CompletionKind::RecvFailed { tag: 2, .. }
        ));
        assert_eq!(c1.stats().membership_aborted_recvs, 1);
        assert_eq!(c1.peer_entry_count(0), 0);
        assert_eq!(c1.take_dead_peers(), vec![0]);
    });
    sim.run().unwrap();
}

/// Cut a live 512KB rendezvous at many different instants — parked
/// before RTS, mid-DATA, FIN pending, already finished — by having both
/// sides declare each other dead. At every cut point: no panic, both
/// requests complete exactly once (success or counted abort), both
/// peers' entry counts drain to 0, and late in-flight frames from the
/// "dead" peer are counted stray.
#[test]
fn drain_mid_stream_at_any_cut_point() {
    for cut_us in [2u64, 10, 25, 60, 150, 400] {
        let (mut sim, c0, c1) = pair(fast_cfg());
        sim.spawn_rank("driver", move |ctx| {
            let sched = ctx.scheduler();
            let mut comps = Vec::new();
            c1.irecv(&sched, 0, 6, 31);
            c0.isend(&sched, 1, 6, Bytes::from(vec![3u8; 512 * 1024]), 30);
            run_for(&ctx, &[&c0, &c1], &mut comps, SimDuration::micros(cut_us));
            c0.declare_peer_dead(&ctx.scheduler(), 1);
            c1.declare_peer_dead(&ctx.scheduler(), 0);
            // Let in-flight frames land on the post-verdict cores.
            run_for(&ctx, &[&c0, &c1], &mut comps, SimDuration::micros(100));
            let sends: Vec<_> = comps
                .iter()
                .filter(|(i, c)| *i == 0 && c.cookie == 30)
                .collect();
            let recvs: Vec<_> = comps
                .iter()
                .filter(|(i, c)| *i == 1 && c.cookie == 31)
                .collect();
            assert_eq!(
                sends.len(),
                1,
                "cut@{cut_us}µs: send must complete exactly once, got {sends:?}"
            );
            assert_eq!(
                recvs.len(),
                1,
                "cut@{cut_us}µs: recv must complete exactly once, got {recvs:?}"
            );
            if let CompletionKind::Recv { data, .. } = &recvs[0].1.kind {
                assert_eq!(data.len(), 512 * 1024, "cut@{cut_us}µs: short delivery");
            }
            assert_eq!(c0.peer_entry_count(1), 0, "cut@{cut_us}µs: sender leaked");
            assert_eq!(c1.peer_entry_count(0), 0, "cut@{cut_us}µs: receiver leaked");
            // Counters conserved: every abort surfaced exactly one
            // failed completion on the side that owns the request.
            let st0 = c0.stats();
            let st1 = c1.stats();
            let failed_sends = sends
                .iter()
                .filter(|(_, c)| matches!(c.kind, CompletionKind::SendFailed { .. }))
                .count() as u64;
            let failed_recvs = recvs
                .iter()
                .filter(|(_, c)| matches!(c.kind, CompletionKind::RecvFailed { .. }))
                .count() as u64;
            assert_eq!(st0.membership_aborted_sends, failed_sends, "cut@{cut_us}µs");
            assert_eq!(st1.membership_aborted_recvs, failed_recvs, "cut@{cut_us}µs");
        });
        sim.run().unwrap();
    }
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i * 13) as u8))
        .collect()
}

/// The cut sweep again, with a victim whose gate is fully populated at
/// the verdict. Rank 0 holds, for victim rank 1: parked out-of-order
/// envelopes, unacked eagers, withheld credits, a tombstone, and one
/// rendezvous stuck in each direction — while rank 2 keeps a flow of its
/// own running through the same core. Whenever the verdict lands, every
/// request completes exactly once, the corpse's record is gone, and rank
/// 2's bytes are untouched.
#[test]
fn drain_of_a_fully_populated_gate() {
    for cut_us in [0u64, 30, 120] {
        let mut cfg = fast_cfg();
        // Water marks low enough that four 1 KiB unexpected eagers
        // throttle the receiver, so its next credit return is withheld.
        cfg.flow = Some(FlowConfig {
            eager_credits: 8,
            unex_bytes_cap: 16 * 1024,
            high_water: 2 * 1024,
            low_water: 1024,
        });
        let (mut sim, cores) = cores(3, cfg);
        sim.spawn_rank("driver", move |ctx| {
            let (c0, c1, c2) = (&cores[0], &cores[1], &cores[2]);
            let sched = ctx.scheduler();
            let mut comps = Vec::new();
            let all = [c0, c1, c2];
            // Cookies of every request posted on a surviving core.
            let mut posted: Vec<(usize, u64)> = Vec::new();
            let mut post = |core: usize, cookie: u64| {
                posted.push((core, cookie));
                cookie
            };

            // Rank 2's flow: a rendezvous and an eager, received late so
            // they are in flight across the whole sweep.
            let big = pattern(2, 200 * 1024);
            c2.isend(&sched, 0, 30, Bytes::from(big.clone()), post(2, 300));
            c2.isend(
                &sched,
                0,
                31,
                Bytes::from_static(b"third rank"),
                post(2, 301),
            );

            // Tombstone: a finished inbound rendezvous from the victim.
            c0.irecv(&sched, 1, 23, post(0, 123));
            c1.isend(&sched, 0, 23, Bytes::from(pattern(3, 64 * 1024)), 223);
            // Withheld credits: four unexpected 1 KiB eagers throttle
            // rank 0; consuming one then owes a credit it may not return.
            for i in 0..4 {
                c1.isend(&sched, 0, 22, Bytes::from(pattern(i, 1024)), 230 + i as u64);
            }
            // Inbound rendezvous: the RTS arrives, the victim dies before
            // the CTS can reach it.
            c1.isend(&sched, 0, 25, Bytes::from(pattern(5, 256 * 1024)), 225);
            run_until(
                &ctx,
                &all,
                &mut comps,
                SimDuration::millis(2),
                "victim traffic",
                || {
                    c0.stats().recv_completions == 1
                        && c0.unexpected_eager_bytes() >= 4 * 1024
                        && c0.probe(GateId(1), 25)
                },
            );
            c0.irecv(&sched, 1, 22, post(0, 122));
            run_for(&ctx, &all, &mut comps, SimDuration::micros(5));
            assert!(c0.stats().fc_credits_withheld >= 1, "no credit withheld");

            c1.halt();
            c0.irecv(&sched, 1, 25, post(0, 125));
            // Outbound rendezvous and eagers into the void: an RTS nobody
            // answers, envelopes nobody acks.
            c0.isend(
                &sched,
                1,
                24,
                Bytes::from(pattern(4, 256 * 1024)),
                post(0, 124),
            );
            c0.isend(
                &sched,
                1,
                21,
                Bytes::from_static(b"unacked one"),
                post(0, 121),
            );
            c0.isend(
                &sched,
                1,
                21,
                Bytes::from_static(b"unacked two"),
                post(0, 126),
            );
            c0.irecv(&sched, 1, 26, post(0, 127));
            // Parked: envelopes 2 and 3 of a flow whose 0 and 1 never came.
            for seq in [2, 3] {
                let data = NmBuf::from(Bytes::from_static(b"early"));
                c0.accept(
                    &sched,
                    NmWire::new(1, 0, WirePayload::Eager { tag: 20, seq, data }),
                );
            }
            // The eagers leave the node (and complete locally); nothing
            // will ever ack them.
            run_until(
                &ctx,
                &all,
                &mut comps,
                SimDuration::millis(1),
                "eagers on the wire",
                || c0.stats().send_completions == 2,
            );
            run_for(&ctx, &all, &mut comps, SimDuration::micros(cut_us));

            let held = c0.peer_entry_count(1);
            let organic = c0.is_peer_dead(1);
            let queues = || {
                (
                    c0.posted_recvs(),
                    c0.unexpected_msgs(),
                    c0.unexpected_eager_bytes(),
                )
            };
            if !organic {
                // Gate + 7 flows (tags 20–26) + one rendezvous each way +
                // the tombstone.
                assert_eq!(held, 11, "cut@{cut_us}µs: gate not fully populated");
                let before = queues();
                assert!(c0.declare_peer_dead(&sched, 1));
                let after = queues();
                // The victim's share of the match queues, exactly: the
                // receive waiting on tag 26, and the three 1 KiB eagers
                // of tag 22 nobody consumed.
                assert_eq!(
                    (before.0 - after.0, before.1 - after.1, before.2 - after.2),
                    (1, 3, 3 * 1024),
                    "cut@{cut_us}µs"
                );
            }
            // However the verdict came, what is left is rank 2's: its RTS
            // and its eager, nothing posted.
            assert_eq!(queues(), (0, 2, b"third rank".len()), "cut@{cut_us}µs");
            // A question about the corpse finds nothing and records nothing.
            assert!(
                !c0.probe(GateId(1), 22),
                "cut@{cut_us}µs: drained message still probed"
            );
            let st = c0.stats();
            assert_eq!(
                c0.peer_entry_count(1),
                0,
                "cut@{cut_us}µs: corpse kept a record"
            );
            assert_eq!(
                st.peer_entries,
                c0.peer_entry_count(2) as u64,
                "cut@{cut_us}µs: only rank 2's record may remain"
            );
            assert_eq!(st.membership_drained_entries, 11, "cut@{cut_us}µs");
            // In flight (the two unacked eagers) + owed (none: the one
            // credit earned was withheld) + withheld.
            let (in_flight, owed, withheld) = (2, 0, st.fc_credits_withheld);
            assert_eq!(withheld, 1, "cut@{cut_us}µs");
            assert_eq!(
                st.membership_credits_released,
                in_flight + owed + withheld,
                "cut@{cut_us}µs"
            );
            assert_eq!(c0.take_dead_peers(), vec![1]);

            // Rank 2's flow finishes byte-exact through the drained core.
            c0.irecv(&sched, 2, 30, post(0, 130));
            c0.irecv(&sched, 2, 31, post(0, 131));
            run_until(
                &ctx,
                &all,
                &mut comps,
                SimDuration::millis(5),
                "rank 2's flow",
                || c0.stats().recv_completions == 4 && c2.stats().send_completions == 2,
            );
            run_for(&ctx, &all, &mut comps, SimDuration::micros(100));
            for c in c0.drain_completions() {
                comps.push((0, c));
            }
            for (core, cookie) in posted {
                let hits: Vec<_> = comps
                    .iter()
                    .filter(|(i, c)| *i == core && c.cookie == cookie)
                    .collect();
                assert_eq!(hits.len(), 1, "cut@{cut_us}µs: cookie {cookie}: {hits:?}");
                match (cookie, &hits[0].1.kind) {
                    (130, CompletionKind::Recv { data, .. }) => assert_eq!(data[..], big[..]),
                    (131, CompletionKind::Recv { data, .. }) => {
                        assert_eq!(&data[..], b"third rank")
                    }
                    (122 | 123, CompletionKind::Recv { .. }) => {}
                    (121 | 126 | 300 | 301, CompletionKind::Send) => {}
                    (124, CompletionKind::SendFailed { peer: 1 }) => {}
                    (125 | 127, CompletionKind::RecvFailed { .. }) => {}
                    (_, other) => panic!("cut@{cut_us}µs: cookie {cookie} ended as {other:?}"),
                }
            }
            assert_eq!(c0.peer_entry_count(1), 0, "late frames revived the corpse");
        });
        sim.run().unwrap();
    }
}

/// ANY_SOURCE arbitration is by arrival, and the arrival order of what
/// survives must survive the two walks that empty queues: same-tag
/// messages arrive from gates 3, 1, 2; gate 3 is drained, then an epoch
/// is quiesced that the tag is not part of — the probe names gate 1,
/// then gate 2.
#[test]
fn arrival_order_survives_a_drain_and_a_quiesce() {
    let (mut sim, cores) = cores(4, fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let c0 = &cores[0];
        let sched = ctx.scheduler();
        let eager = |src: usize, tag: u64| {
            let data = NmBuf::from(Bytes::from(vec![src as u8; 8]));
            c0.accept(
                &sched,
                NmWire::new(src, 0, WirePayload::Eager { tag, seq: 0, data }),
            );
        };
        let doomed = nmad::keys::coll_key(1, nmad::keys::OP_BARRIER, 0, 0);
        for src in [3, 1, 2] {
            eager(src, 9);
        }
        eager(1, doomed);
        assert_eq!(
            (c0.unexpected_msgs(), c0.probe_tag(9)),
            (4, Some(GateId(3)))
        );

        assert!(c0.declare_peer_dead(&sched, 3));
        assert!(c0.revoke_epoch(&sched, 1));
        assert_eq!(
            c0.unexpected_msgs(),
            2,
            "gate 3's message and epoch 1's are gone"
        );
        assert!(!c0.probe(GateId(1), doomed));
        for gate in [1, 2] {
            assert_eq!(c0.probe_tag_info(9), Some((GateId(gate), 8)));
            c0.irecv(&sched, gate, 9, gate as u64);
        }
        assert_eq!(c0.probe_tag(9), None);
        let done: Vec<u64> = c0.drain_completions().iter().map(|c| c.cookie).collect();
        assert_eq!(done, [1, 2]);
    });
    sim.run().unwrap();
}

/// Satellite: frames from a dead, drained peer are counted
/// (`membership_stray_frames`) and must not revive any per-peer state.
#[test]
fn stray_frames_from_dead_peer_do_not_revive_state() {
    let (mut sim, c0, c1) = pair(fast_cfg());
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        c1.halt();
        c0.isend(&sched, 1, 7, Bytes::from_static(b"x"), 100);
        run_until(
            &ctx,
            &[&c0],
            &mut comps,
            SimDuration::millis(10),
            "dead verdict",
            || c0.is_peer_dead(1),
        );
        assert_eq!(c0.peer_entry_count(1), 0);
        let strays_before = c0.stats().membership_stray_frames;
        // The corpse "speaks": an eager envelope, a data chunk, a credit
        // return. Each must be counted and dropped on the floor.
        let sched = ctx.scheduler();
        for payload in [
            WirePayload::Cts { rdv_id: 9 },
            WirePayload::Ack {
                tag: 7,
                next: 1,
                credits: 0,
            },
            WirePayload::Probe { rail: 0, seq: 1 },
        ] {
            c0.accept(&sched, NmWire::new(1, 0, payload));
            c0.schedule(&sched);
        }
        let st = c0.stats();
        assert_eq!(
            st.membership_stray_frames,
            strays_before + 3,
            "every post-mortem frame counted"
        );
        assert_eq!(c0.peer_entry_count(1), 0, "stray frames revived state");
        assert_eq!(c0.peer_state(1), PeerLiveness::Dead, "Dead is sticky");
        assert!(c0.drain_completions().is_empty());
    });
    sim.run().unwrap();
}

/// The whole death-and-drain sequence is part of the deterministic
/// replay surface: two identical runs produce bit-identical stats,
/// membership counters included.
#[test]
fn death_and_drain_replay_bit_identically() {
    let run = || {
        let (mut sim, c0, c1) = pair(fast_cfg());
        let stats = Arc::new(parking_lot::Mutex::new(None));
        let out = Arc::clone(&stats);
        sim.spawn_rank("driver", move |ctx| {
            let sched = ctx.scheduler();
            let mut comps = Vec::new();
            c1.irecv(&sched, 0, 6, 41);
            c0.isend(&sched, 1, 6, Bytes::from(vec![4u8; 128 * 1024]), 40);
            run_for(&ctx, &[&c0, &c1], &mut comps, SimDuration::micros(15));
            c1.halt();
            run_until(
                &ctx,
                &[&c0],
                &mut comps,
                SimDuration::millis(20),
                "dead verdict",
                || c0.is_peer_dead(1),
            );
            run_for(&ctx, &[&c0], &mut comps, SimDuration::micros(200));
            *out.lock() = Some((c0.stats(), comps.len()));
        });
        sim.run().unwrap();
        Arc::try_unwrap(stats).unwrap().into_inner().unwrap()
    };
    let (a, n_a) = run();
    let (b, n_b) = run();
    assert_eq!(a, b, "stats (membership counters included) must replay");
    assert_eq!(n_a, n_b);
    assert!(a.membership_dead_peers >= 1);
}
