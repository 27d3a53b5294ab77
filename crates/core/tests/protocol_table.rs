//! Regression tests for the counted protocol-error paths, and the table's
//! own soundness.
//!
//! Every arm that used to be a `panic!`/`unreachable!` in the envelope and
//! rendezvous handlers is now a table miss (`Verdict::Error`) counted in
//! `NmStats::protocol_errors`. Each test here injects one crafted stray
//! frame straight into a core's `accept` path — the fabric never produces
//! these without faults, which is exactly why they must not be panics —
//! and asserts the error is counted once while the engine keeps serving
//! real traffic afterwards.
//!
//! The stray-frame tests run without a retry layer: the declared ignores
//! are all guarded on `Retry` (retransmission is the only legal source of
//! stray frames), so without it every injection must land on
//! `Verdict::Error`.
//!
//! The forged-frame tests name a *live* rendezvous from the wrong peer —
//! rendezvous ids come from one small per-core counter, so they are easy
//! to guess. A frame is looked up in its sender's gate only, so it finds
//! `Gone` there and the table decides: counted error without retry,
//! declared ignore with it. Either way the real rendezvous is untouched.

use std::sync::Arc;

use bytes::Bytes;
use simnet::{Fabric, NicModel, NmBuf, NodeId, RailId, RankCtx, Sim, SimBuilder, SimDuration};

use nmad::{GateId, NmConfig, NmCore, NmNet, NmWire, RetryConfig, StrategyKind, WirePayload};

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

/// No (state, event, ctx) point of the guard cube matches two rows, or a
/// row and an ignore, and every row and ignore matches at least one.
#[test]
fn table_is_deterministic_and_satisfiable() {
    assert_eq!(nmad::protocol::validate_table(), Vec::<String>::new());
}

/// Two cores, no retry layer.
fn pair() -> (Sim, Arc<NmCore>, Arc<NmCore>) {
    let (sim, cores) = cores(2, NmConfig::with_strategy(StrategyKind::Default));
    let mut it = cores.into_iter();
    (sim, it.next().unwrap(), it.next().unwrap())
}

/// Poll until the completion with `cookie` shows up; returns recv payload.
fn wait_cookie(ctx: &RankCtx, core: &Arc<NmCore>, cookie: u64) -> Option<Bytes> {
    let sched = ctx.scheduler();
    let mut spins = 0u32;
    loop {
        core.schedule(&sched);
        if let Some(c) = core.drain_completions().into_iter().next() {
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

/// Inject a crafted frame from rank 0 into `core` (rank 1) and let the
/// deferred accept queue drain.
fn inject(ctx: &RankCtx, core: &Arc<NmCore>, payload: WirePayload) {
    let sched = ctx.scheduler();
    core.accept(&sched, NmWire::new(0, 1, payload));
    core.schedule(&sched);
}

/// After the stray frame, prove the engine still moves real bytes.
/// Both cores need progress calls: the sender only puts its packet on
/// the wire from its own `schedule`.
fn eager_still_works(ctx: &RankCtx, c0: &Arc<NmCore>, c1: &Arc<NmCore>) {
    let sched = ctx.scheduler();
    c1.irecv(&sched, 0, 7, 200);
    c0.isend(&sched, 1, 7, Bytes::from_static(b"still alive"), 100);
    let mut spins = 0u32;
    loop {
        c0.schedule(&sched);
        c1.schedule(&sched);
        if let Some(c) = c1.drain_completions().into_iter().next() {
            assert_eq!(c.cookie, 200);
            let nmad::sr::CompletionKind::Recv { data, .. } = c.kind else {
                panic!("expected a receive completion");
            };
            assert_eq!(&data[..], b"still alive");
            return;
        }
        ctx.advance(SimDuration::nanos(100));
        spins += 1;
        assert!(spins < 1_000_000, "eager after stray frame never completed");
    }
}

/// One stray-frame scenario: inject, count, verify liveness.
fn stray_frame_case(payload: WirePayload) {
    let (mut sim, c0, c1) = pair();
    sim.spawn_rank("driver", move |ctx| {
        assert_eq!(c1.stats().protocol_errors, 0);
        inject(&ctx, &c1, payload);
        assert_eq!(
            c1.stats().protocol_errors,
            1,
            "stray frame must be counted exactly once"
        );
        eager_still_works(&ctx, &c0, &c1);
        assert_eq!(c1.stats().protocol_errors, 1, "real traffic adds no errors");
    });
    sim.run().unwrap();
}

#[test]
fn stray_cts_is_counted_not_fatal() {
    // `Gone × CtsRx` without retry: the `ignore/straggler-cts` row is
    // retry-guarded, so this must fall through to the counted error.
    stray_frame_case(WirePayload::Cts { rdv_id: 99 });
}

#[test]
fn stray_data_is_counted_not_fatal() {
    // `Gone × DataRx` without retry: `ignore/data-before-reentry` is a
    // retry-guarded defensive row; without retry the chunk is an error.
    stray_frame_case(WirePayload::Data {
        rdv_id: 99,
        offset: 0,
        data: NmBuf::from(vec![0xAAu8; 32]),
    });
}

#[test]
fn stray_fin_is_counted_not_fatal() {
    // `Gone × FinRx` without retry (FIN is a retry-mode frame; a core
    // that never armed retry should never see one).
    stray_frame_case(WirePayload::RdvFin { rdv_id: 99 });
}

#[test]
fn duplicate_eager_envelope_is_counted_not_fatal() {
    // Same (src, tag, seq) eager frame twice: the second arrives below
    // the expected sequence number. With a retry layer that is routine
    // bookkeeping; without one nothing retransmits, so it is an error.
    let (mut sim, c0, c1) = pair();
    sim.spawn_rank("driver", move |ctx| {
        let frame = || WirePayload::Eager {
            tag: 7,
            seq: 0,
            data: NmBuf::from(Bytes::from_static(b"twice")),
        };
        inject(&ctx, &c1, frame());
        assert_eq!(c1.stats().protocol_errors, 0, "first copy is legitimate");
        inject(&ctx, &c1, frame());
        assert_eq!(c1.stats().protocol_errors, 1, "wire duplicate is counted");
        // The first copy sits unexpected and still completes a late post.
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 7, 200);
        assert_eq!(
            wait_cookie(&ctx, &c1, 200).as_deref(),
            Some(b"twice".as_slice())
        );
        assert_eq!(c1.stats().protocol_errors, 1);
        drop(c0);
    });
    sim.run().unwrap();
}

#[test]
fn duplicate_rts_without_retry_is_counted_not_fatal() {
    // A duplicate RTS is a protocol event (the table replays the CTS
    // under retry), but `replay/cts-on-rts` is retry-guarded: without a
    // retry layer the duplicate must be counted, not replayed.
    let (mut sim, c0, c1) = pair();
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 7, 200);
        let rts = || WirePayload::Rts {
            tag: 7,
            seq: 0,
            rdv_id: 5,
            len: 64,
        };
        inject(&ctx, &c1, rts());
        assert_eq!(
            c1.stats().protocol_errors,
            0,
            "first RTS opens the rendezvous"
        );
        inject(&ctx, &c1, rts());
        assert_eq!(c1.stats().protocol_errors, 1, "duplicate RTS is counted");
        // The live rendezvous is untouched: the full payload completes it.
        inject(
            &ctx,
            &c1,
            WirePayload::Data {
                rdv_id: 5,
                offset: 0,
                data: NmBuf::from(vec![0x5Au8; 64]),
            },
        );
        let data = wait_cookie(&ctx, &c1, 200).expect("recv payload");
        assert_eq!(&data[..], &[0x5Au8; 64][..]);
        assert_eq!(c1.stats().protocol_errors, 1);
        drop(c0);
    });
    sim.run().unwrap();
}

#[test]
fn out_of_range_chunk_is_counted_and_flow_survives() {
    // A chunk overrunning the announced payload used to be a wild slice
    // waiting to happen; the `InRange` guard turns it into a counted
    // error on `RWaitData × DataRx` while the rendezvous stays live.
    let (mut sim, c0, c1) = pair();
    sim.spawn_rank("driver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 7, 200);
        inject(
            &ctx,
            &c1,
            WirePayload::Rts {
                tag: 7,
                seq: 0,
                rdv_id: 5,
                len: 64,
            },
        );
        // offset 60 + 16 bytes = 76 > the announced 64: out of range.
        inject(
            &ctx,
            &c1,
            WirePayload::Data {
                rdv_id: 5,
                offset: 60,
                data: NmBuf::from(vec![0xEEu8; 16]),
            },
        );
        assert_eq!(c1.stats().protocol_errors, 1, "overrun chunk is counted");
        // An offset that wraps `usize` must not panic on overflow either.
        inject(
            &ctx,
            &c1,
            WirePayload::Data {
                rdv_id: 5,
                offset: usize::MAX - 4,
                data: NmBuf::from(vec![0xEEu8; 16]),
            },
        );
        assert_eq!(c1.stats().protocol_errors, 2, "wrapping chunk is counted");
        // The rendezvous still completes once the real payload lands.
        inject(
            &ctx,
            &c1,
            WirePayload::Data {
                rdv_id: 5,
                offset: 0,
                data: NmBuf::from(vec![0x5Au8; 64]),
            },
        );
        let data = wait_cookie(&ctx, &c1, 200).expect("recv payload");
        assert_eq!(&data[..], &[0x5Au8; 64][..]);
        assert_eq!(c1.stats().protocol_errors, 2);
        // The injected RTS made rank 1 send a CTS for a rendezvous rank 0
        // never opened — rank 0 counts it as its own stray-CTS error.
        let mut spins = 0;
        while c0.stats().protocol_errors == 0 && spins < 10_000 {
            c0.schedule(&sched);
            ctx.advance(SimDuration::nanos(100));
            spins += 1;
        }
        assert_eq!(c0.stats().protocol_errors, 1, "peer counts the stray CTS");
    });
    sim.run().unwrap();
}

/// Schedule both cores until `done` holds.
fn drive(ctx: &RankCtx, c0: &Arc<NmCore>, c1: &Arc<NmCore>, what: &str, done: impl Fn() -> bool) {
    let sched = ctx.scheduler();
    let mut spins = 0u32;
    while !done() {
        c0.schedule(&sched);
        c1.schedule(&sched);
        ctx.advance(SimDuration::nanos(100));
        spins += 1;
        assert!(spins < 10_000_000, "timed out waiting for {what}");
    }
}

/// Rank 0 has a rendezvous open toward rank 1 (RTS delivered, not yet
/// matched) when a frame from rank 2 names it. The forgery must change
/// nothing: no payload streams to a rank that sent no CTS, the send does
/// not complete, and once rank 1 really posts the receive the rendezvous
/// finishes byte-exact and fresh traffic flows.
fn forged_frame_case(retry: bool, forgery: fn(u64) -> WirePayload) {
    let mut cfg = NmConfig::with_strategy(StrategyKind::Default);
    cfg.retry = retry.then(RetryConfig::default);
    let (mut sim, cores) = cores(3, cfg);
    sim.spawn_rank("driver", move |ctx| {
        let (c0, c1) = (&cores[0], &cores[1]);
        let sched = ctx.scheduler();
        let payload: Vec<u8> = (0..64 * 1024).map(|i| (i * 31) as u8).collect();
        c0.isend(&sched, 1, 7, Bytes::from(payload.clone()), 100);
        drive(&ctx, c0, c1, "RTS at rank 1", || c1.probe(GateId(0), 7));

        // First rendezvous of this core: id 0.
        c0.accept(&sched, NmWire::new(2, 0, forgery(0)));
        let settle = sched.now() + SimDuration::micros(20);
        drive(&ctx, c0, c1, "forgery to settle", || sched.now() >= settle);
        let st = c0.stats();
        assert_eq!(
            st.protocol_errors,
            u64::from(!retry),
            "counted without retry, a declared ignore with it"
        );
        assert_eq!(
            st.data_chunks_sent, 0,
            "payload streamed to a rank that sent no CTS"
        );
        assert!(
            c0.drain_completions().is_empty(),
            "forgery completed the send"
        );
        assert_eq!(
            c1.stats().protocol_errors,
            0,
            "rank 1 saw unsolicited frames"
        );

        c1.irecv(&sched, 0, 7, 200);
        drive(&ctx, c0, c1, "the real rendezvous", || {
            c1.stats().recv_completions == 1 && c0.stats().send_completions == 1
        });
        let recv = c1.drain_completions().pop().expect("recv completion");
        let nmad::sr::CompletionKind::Recv { data, .. } = recv.kind else {
            panic!("receive failed: {:?}", recv.kind);
        };
        assert_eq!(&data[..], &payload[..]);
        let send = c0.drain_completions().pop().expect("send completion");
        assert!(
            matches!(send.kind, nmad::sr::CompletionKind::Send),
            "{:?}",
            send.kind
        );
        eager_still_works(&ctx, c0, c1);
        assert_eq!(c0.stats().protocol_errors, u64::from(!retry));
    });
    sim.run().unwrap();
}

#[test]
fn cts_from_the_wrong_peer_is_not_honoured() {
    for retry in [false, true] {
        forged_frame_case(retry, |rdv_id| WirePayload::Cts { rdv_id });
    }
}

#[test]
fn fin_from_the_wrong_peer_is_not_honoured() {
    for retry in [false, true] {
        forged_frame_case(retry, |rdv_id| WirePayload::RdvFin { rdv_id });
    }
}

/// A frame whose header does not belong at rank 0 of an `n`-rank job. It
/// must be counted once and leave no trace — no gate record, no liveness
/// or rail credit, no reply addressed to a rank the job may not have — and
/// a receive posted for the same `(source, tag)` must not complete.
fn bad_header_case(retry: bool, n: usize, src: usize, dst: usize) {
    let mut cfg = NmConfig::with_strategy(StrategyKind::Default);
    cfg.retry = retry.then(RetryConfig::default);
    let (mut sim, cores) = cores(n, cfg);
    sim.spawn_rank("driver", move |ctx| {
        let (c0, c1) = (&cores[0], &cores[1]);
        let sched = ctx.scheduler();
        if src < n {
            c0.irecv(&sched, src, 9, 300);
        }
        let records = c0.peer_entry_count(src);
        let payload = WirePayload::Eager {
            tag: 9,
            seq: 0,
            data: NmBuf::from(vec![0xABu8; 32]),
        };
        c0.accept(&sched, NmWire::new(src, dst, payload));
        let settle = sched.now() + SimDuration::micros(20);
        drive(&ctx, c0, c1, "bad header to settle", || {
            sched.now() >= settle
        });
        assert_eq!(c0.stats().protocol_errors, 1, "counted exactly once");
        assert_eq!(
            c0.peer_entry_count(src),
            records,
            "the frame opened a record"
        );
        assert!(
            c0.drain_completions().is_empty(),
            "a misrouted frame was delivered"
        );
        assert_eq!(c0.stats().acks_sent, 0, "nothing is acknowledged");
        eager_still_works(&ctx, c0, c1);
        assert_eq!(c0.stats().protocol_errors, 1);
    });
    sim.run().unwrap();
}

#[test]
fn frame_from_a_rank_outside_the_job_is_rejected() {
    for retry in [false, true] {
        bad_header_case(retry, 2, 9, 0);
    }
}

#[test]
fn frame_addressed_to_another_rank_is_rejected() {
    for retry in [false, true] {
        bad_header_case(retry, 3, 2, 1);
    }
}
