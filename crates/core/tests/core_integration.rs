//! End-to-end tests of the NewMadeleine core over the simulated fabric:
//! two (or more) cores exchanging real bytes through eager and rendezvous
//! protocols, with single- and multirail configurations.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simnet::{Fabric, NicModel, NodeId, RailId, RankCtx, Sim, SimBuilder, SimDuration};

use nmad::{GateId, NmConfig, NmCore, NmNet, NmWire, StrategyKind};

/// Build `n` cores on `n` single-rank nodes over the given rails.
fn fixture(n: usize, rails: Vec<NicModel>, cfg: NmConfig) -> (Sim, Vec<Arc<NmCore>>) {
    let sim = SimBuilder::new().build();
    let fabric: Arc<Fabric<NmWire>> = Fabric::new(n, rails);
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

/// Drive progress until the completion with `cookie` appears; returns any
/// receive payload. Polls like an MPI wait loop.
fn wait_cookie(ctx: &RankCtx, core: &Arc<NmCore>, cookie: u64) -> Option<Bytes> {
    let sched = ctx.scheduler();
    let mut spins = 0u32;
    loop {
        core.schedule(&sched);
        if let Some(c) = core.drain_completions().into_iter().next() {
            // Other completions in a single-purpose test are unexpected.
            assert_eq!(c.cookie, cookie, "unexpected completion cookie");
            return match c.kind {
                nmad::sr::CompletionKind::Recv { data, .. } => Some(data),
                nmad::sr::CompletionKind::Send => None,
                other => panic!("unexpected failed completion: {other:?}"),
            };
        }
        ctx.advance(SimDuration::nanos(100));
        spins += 1;
        assert!(spins < 10_000_000, "wait_cookie never completed");
    }
}

/// Like `wait_cookie` but collects every completion until `want` cookies
/// have been seen; returns (cookie, recv payload if any) pairs in order.
fn wait_n(ctx: &RankCtx, core: &Arc<NmCore>, want: usize) -> Vec<(u64, Option<Bytes>)> {
    let sched = ctx.scheduler();
    let mut got = Vec::new();
    let mut spins = 0u32;
    while got.len() < want {
        core.schedule(&sched);
        for c in core.drain_completions() {
            let payload = match c.kind {
                nmad::sr::CompletionKind::Recv { data, .. } => Some(data),
                nmad::sr::CompletionKind::Send => None,
                other => panic!("unexpected failed completion: {other:?}"),
            };
            got.push((c.cookie, payload));
        }
        ctx.advance(SimDuration::nanos(100));
        spins += 1;
        assert!(spins < 10_000_000, "wait_n starved");
    }
    got
}

#[test]
fn eager_roundtrip_delivers_bytes() {
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 7, Bytes::from_static(b"hello nmad"), 100);
        assert!(wait_cookie(&ctx, &c0, 100).is_none());
        let stats = c0.stats();
        assert_eq!(stats.eager_sends, 1);
        assert_eq!(stats.send_completions, 1);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 7, 200);
        let data = wait_cookie(&ctx, &c1, 200).expect("recv payload");
        assert_eq!(&data[..], b"hello nmad");
        assert!(c1.quiescent());
    });
    sim.run().unwrap();
}

#[test]
fn unexpected_eager_completes_on_late_post() {
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 3, Bytes::from_static(b"early bird"), 1);
        wait_cookie(&ctx, &c0, 1);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        // Let the message arrive unexpectedly first.
        while c1.unexpected_msgs() == 0 {
            c1.schedule(&sched);
            ctx.advance(SimDuration::nanos(200));
        }
        assert!(c1.probe(GateId(0), 3));
        assert_eq!(c1.probe_tag(3), Some(GateId(0)));
        c1.irecv(&sched, 0, 3, 2);
        let data = wait_cookie(&ctx, &c1, 2).expect("recv payload");
        assert_eq!(&data[..], b"early bird");
        assert_eq!(c1.unexpected_msgs(), 0);
    });
    sim.run().unwrap();
}

#[test]
fn rendezvous_moves_megabyte_intact() {
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let payload: Vec<u8> = (0..(1 << 20)).map(|i| (i * 31 % 251) as u8).collect();
    let expect = payload.clone();
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 11, Bytes::from(payload), 1);
        wait_cookie(&ctx, &c0, 1);
        let stats = c0.stats();
        assert_eq!(stats.rdv_sends, 1);
        assert_eq!(stats.eager_sends, 0);
        assert!(stats.data_chunks_sent >= 1);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 11, 2);
        let data = wait_cookie(&ctx, &c1, 2).expect("recv payload");
        assert_eq!(data.len(), expect.len());
        assert_eq!(&data[..], &expect[..]);
    });
    sim.run().unwrap();
}

#[test]
fn rendezvous_rts_before_recv_is_probeable_then_completes() {
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let payload = vec![0xAB; 256 * 1024];
    let len = payload.len();
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 4, Bytes::from(payload), 1);
        wait_cookie(&ctx, &c0, 1);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        // RTS lands as unexpected; probe sees it although no payload moved.
        while c1.probe_tag(4).is_none() {
            c1.schedule(&sched);
            ctx.advance(SimDuration::nanos(200));
        }
        assert_eq!(c1.probe_tag(4), Some(GateId(0)));
        c1.irecv(&sched, 0, 4, 2);
        let data = wait_cookie(&ctx, &c1, 2).expect("recv payload");
        assert_eq!(data.len(), len);
        assert!(data.iter().all(|&b| b == 0xAB));
    });
    sim.run().unwrap();
}

#[test]
fn multirail_splits_large_transfer_across_both_nics() {
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib(), NicModel::myri10g_mx()],
        NmConfig::with_strategy(StrategyKind::SplitBalanced),
    );
    let size = 8 << 20;
    let payload: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
    let expect = payload.clone();
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    let done_at = Arc::new(Mutex::new(None));
    let done_at2 = Arc::clone(&done_at);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 1, Bytes::from(payload), 1);
        wait_cookie(&ctx, &c0, 1);
        assert!(
            c0.stats().data_chunks_sent >= 2,
            "large transfer should split into >=2 chunks: {:?}",
            c0.stats()
        );
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 1, 2);
        let data = wait_cookie(&ctx, &c1, 2).expect("payload");
        assert_eq!(&data[..], &expect[..]);
        *done_at2.lock() = Some(ctx.now());
    });
    sim.run().unwrap();
    // Aggregated bandwidth check: both rails together must beat the best
    // single rail. IB alone would need >= size/1250MBps ~ 6.55ms for the
    // data; the split should finish in ~64% of that (sum of 1250+1100).
    let t = done_at.lock().unwrap();
    let single_rail_floor_us = (size as f64) / (1250.0 * 1024.0 * 1024.0) * 1e6;
    assert!(
        (t.as_micros_f64()) < single_rail_floor_us,
        "multirail transfer ({}us) should beat the single-rail floor ({}us)",
        t.as_micros_f64(),
        single_rail_floor_us
    );
}

#[test]
fn aggregation_coalesces_bursts() {
    // Burst of 10 small sends: the first goes out alone; while the NIC is
    // busy the rest accumulate and coalesce.
    let run = |kind: StrategyKind| -> (u64, u64) {
        let (mut sim, cores) = fixture(
            2,
            vec![NicModel::connectx_ib()],
            NmConfig::with_strategy(kind),
        );
        let c0 = Arc::clone(&cores[0]);
        let c1 = Arc::clone(&cores[1]);
        sim.spawn_rank("sender", move |ctx| {
            let sched = ctx.scheduler();
            for i in 0..10u64 {
                c0.isend(&sched, 1, 1, Bytes::from(vec![i as u8; 64]), i);
            }
            let done = wait_n(&ctx, &c0, 10);
            assert_eq!(done.len(), 10);
        });
        let c1b = Arc::clone(&c1);
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            for i in 0..10u64 {
                c1b.irecv(&sched, 0, 1, 100 + i);
            }
            let got = wait_n(&ctx, &c1b, 10);
            // Messages complete in posted order (FIFO matching).
            let cookies: Vec<u64> = got.iter().map(|(c, _)| *c).collect();
            assert_eq!(cookies, (100..110).collect::<Vec<_>>());
            for (k, (_, data)) in got.iter().enumerate() {
                let d = data.as_ref().expect("recv data");
                assert!(d.iter().all(|&b| b == k as u8));
            }
        });
        sim.run().unwrap();
        let s = cores[0].stats();
        (s.packets_sent, s.aggregates_sent)
    };
    let (packets_default, agg_default) = run(StrategyKind::Default);
    let (packets_aggreg, agg_aggreg) = run(StrategyKind::Aggreg);
    assert_eq!(agg_default, 0);
    assert_eq!(packets_default, 10);
    assert!(agg_aggreg >= 1, "aggregation must kick in on a burst");
    assert!(
        packets_aggreg < packets_default,
        "aggregation must reduce packet count ({packets_aggreg} vs {packets_default})"
    );
}

#[test]
fn cross_rail_arrivals_are_reordered_for_matching() {
    // split_balanced sends message A (big eager) on rail 0, then message B
    // (small) on rail 1 while rail 0 is still serializing. B arrives first
    // on the wire; matching must still complete A before B.
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib(), NicModel::myri10g_mx()],
        NmConfig::with_strategy(StrategyKind::SplitBalanced),
    );
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        // 16KB on IB: ~13us serialization. Small message right behind it
        // will prefer the *idle* MX rail.
        c0.isend(&sched, 1, 5, Bytes::from(vec![1u8; 16 * 1024]), 1);
        c0.schedule(&sched); // commit A now so rail 0 is busy
        c0.isend(&sched, 1, 5, Bytes::from(vec![2u8; 16]), 2);
        c0.schedule(&sched); // commits B on rail 1
        wait_n(&ctx, &c0, 2);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 5, 10);
        c1.irecv(&sched, 0, 5, 11);
        let got = wait_n(&ctx, &c1, 2);
        assert_eq!(got[0].0, 10, "first posted recv matches first send");
        assert_eq!(got[0].1.as_ref().unwrap().len(), 16 * 1024);
        assert_eq!(got[1].0, 11);
        assert_eq!(got[1].1.as_ref().unwrap().len(), 16);
    });
    sim.run().unwrap();
}

#[test]
fn probe_tag_sees_earliest_gate_across_sources() {
    let (mut sim, cores) = fixture(
        3,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    let c2 = Arc::clone(&cores[2]);
    // Rank 1 sends first, rank 2 a bit later; rank 0 probes by tag only.
    sim.spawn_rank("s1", move |ctx| {
        let sched = ctx.scheduler();
        c1.isend(&sched, 0, 9, Bytes::from_static(b"from1"), 1);
        wait_cookie(&ctx, &c1, 1);
    });
    sim.spawn_rank("s2", move |ctx| {
        ctx.advance(SimDuration::micros(50));
        let sched = ctx.scheduler();
        c2.isend(&sched, 0, 9, Bytes::from_static(b"from2"), 1);
        wait_cookie(&ctx, &c2, 1);
    });
    sim.spawn_rank("r0", move |ctx| {
        let sched = ctx.scheduler();
        while c0.unexpected_msgs() < 2 {
            c0.schedule(&sched);
            ctx.advance(SimDuration::nanos(500));
        }
        // Earliest arrival is rank 1's message.
        assert_eq!(c0.probe_tag(9), Some(GateId(1)));
        c0.irecv(&sched, 1, 9, 10);
        let d1 = wait_cookie(&ctx, &c0, 10).unwrap();
        assert_eq!(&d1[..], b"from1");
        assert_eq!(c0.probe_tag(9), Some(GateId(2)));
        c0.irecv(&sched, 2, 9, 11);
        let d2 = wait_cookie(&ctx, &c0, 11).unwrap();
        assert_eq!(&d2[..], b"from2");
        assert_eq!(c0.probe_tag(9), None);
    });
    sim.run().unwrap();
}

#[test]
fn event_hook_fires_on_acceptance() {
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let hits = Arc::new(Mutex::new(0u32));
    let h2 = Arc::clone(&hits);
    cores[1].set_event_hook(Arc::new(move |_s| {
        *h2.lock() += 1;
    }));
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 1, Bytes::from_static(b"x"), 1);
        wait_cookie(&ctx, &c0, 1);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 1, 2);
        wait_cookie(&ctx, &c1, 2);
    });
    sim.run().unwrap();
    assert!(*hits.lock() >= 1, "hook must fire when a packet arrives");
}

#[test]
fn posted_requests_have_no_cancellation_path() {
    // §2.2.1: a posted request must eventually complete; there is no cancel
    // API. This test pins down that a posted-but-unmatched receive remains
    // pending (and is the reason the §3.2 ANY_SOURCE lists exist).
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 1, 2);
        assert_eq!(c1.posted_recvs(), 1);
        ctx.advance(SimDuration::micros(100));
        c1.schedule(&sched);
        // Still posted: nothing can remove it.
        assert_eq!(c1.posted_recvs(), 1);
    });
    sim.run().unwrap();
}

#[test]
fn window_holds_until_schedule_runs() {
    // The Fig. 7 mechanism: isend alone must not touch the NIC.
    let (mut sim, cores) = fixture(
        2,
        vec![NicModel::connectx_ib()],
        NmConfig::with_strategy(StrategyKind::Default),
    );
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 1, Bytes::from_static(b"deferred"), 1);
        // Compute for a while WITHOUT calling schedule: nothing is sent.
        ctx.advance(SimDuration::micros(50));
        assert_eq!(c0.stats().packets_sent, 0, "window must hold");
        // First schedule commits.
        c0.schedule(&sched);
        assert_eq!(c0.stats().packets_sent, 1);
        wait_cookie(&ctx, &c0, 1);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 1, 2);
        let d = wait_cookie(&ctx, &c1, 2).unwrap();
        assert_eq!(&d[..], b"deferred");
    });
    sim.run().unwrap();
}

// ---------------------------------------------------------------------
// Credit-based eager flow control
// ---------------------------------------------------------------------

fn flow_cfg(credits: u32) -> NmConfig {
    NmConfig {
        strategy: StrategyKind::Default,
        flow: Some(nmad::FlowConfig::bounded(credits, 64 * 1024)),
        ..Default::default()
    }
}

#[test]
fn credit_exhaustion_degrades_to_rendezvous() {
    // 2 credits, 6 eager-sized sends before the receiver posts anything:
    // the first two consume the pool, the remaining four must degrade to
    // the rendezvous path (never block, never drop). A trailing
    // zero-length message bypasses credits entirely.
    let (mut sim, cores) = fixture(2, vec![NicModel::connectx_ib()], flow_cfg(2));
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        for i in 0..6u64 {
            c0.isend(&sched, 1, 7, Bytes::from(vec![i as u8; 1024]), 100 + i);
        }
        c0.isend(&sched, 1, 7, Bytes::new(), 106);
        wait_n(&ctx, &c0, 7);
        let st = c0.stats();
        assert_eq!(st.fc_eager_admitted, 2, "pool of 2 admits 2");
        assert_eq!(st.fc_credit_stalls, 4);
        assert_eq!(st.fc_fallback_sends, 4);
        assert_eq!(st.rdv_sends, 4, "stalled sends took the rendezvous path");
        assert_eq!(st.eager_sends, 3, "2 credited + 1 zero-length bypass");
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        // Let everything arrive, then pump once *before* posting any
        // receive: `accept` only queues inbound wires, so without this
        // schedule the arrivals would be processed after the posts below
        // and match directly instead of sitting unexpected.
        ctx.advance(SimDuration::micros(200));
        c1.schedule(&sched);
        for i in 0..7u64 {
            c1.irecv(&sched, 0, 7, 200 + i);
        }
        let mut got = wait_n(&ctx, &c1, 7);
        // Matching is posted-order == send-order (seq-ordered delivery):
        // receive i must carry message i's bytes, whichever protocol it
        // took. (Completion order may interleave — rendezvous finishes
        // after the zero-length eager behind it.)
        got.sort_by_key(|(cookie, _)| *cookie);
        for (i, (cookie, data)) in got.iter().enumerate() {
            assert_eq!(*cookie, 200 + i as u64, "a receive never completed");
            let data = data.as_ref().expect("recv payload");
            if i < 6 {
                assert_eq!(data.len(), 1024);
                assert!(data.iter().all(|&b| b == i as u8), "payload {i} corrupt");
            } else {
                assert!(data.is_empty());
            }
        }
        let st = c1.stats();
        assert!(
            st.fc_peak_unex_bytes >= 2 * 1024,
            "both credited eagers sat unexpected (peak {}B)",
            st.fc_peak_unex_bytes
        );
        assert_eq!(
            st.fc_credits_returned, 2,
            "consuming the unexpected eagers returns their credits"
        );
    });
    sim.run().unwrap();
}

#[test]
fn paced_sends_recycle_credits_without_stalls() {
    // Pre-posted receiver + paced sender: every credit comes back before
    // the pool empties, so a 2-credit pool carries 8 messages with zero
    // stalls — the armed happy path stays all-eager.
    let (mut sim, cores) = fixture(2, vec![NicModel::connectx_ib()], flow_cfg(2));
    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        for i in 0..8u64 {
            c0.isend(&sched, 1, 7, Bytes::from(vec![i as u8; 512]), 100 + i);
            wait_cookie(&ctx, &c0, 100 + i);
            // Pace: leave time for the standalone Credit frame to return.
            ctx.advance(SimDuration::micros(20));
        }
        let st = c0.stats();
        assert_eq!(st.fc_eager_admitted, 8);
        assert_eq!(st.fc_credit_stalls, 0, "paced flow must never stall");
        assert_eq!(st.rdv_sends, 0);
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        for i in 0..8u64 {
            c1.irecv(&sched, 0, 7, 200 + i);
        }
        wait_n(&ctx, &c1, 8);
        // Credits flow back as messages are consumed (the last return may
        // still sit in ctrl_out when the job ends).
        let st = c1.stats();
        assert!(
            st.fc_credits_returned >= 7,
            "credits must recycle (returned {})",
            st.fc_credits_returned
        );
        assert_eq!(st.fc_credits_withheld, 0, "512B << high water: no throttle");
    });
    sim.run().unwrap();
}
