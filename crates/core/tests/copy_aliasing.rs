//! Allocation-aliasing proofs for the eager and the rendezvous path: the
//! payload `Bytes` delivered by a receive completion must be a refcounted
//! view of the *sender's* allocation — same backing storage, a strong
//! count above 1 while the source handle lives — never a copy, and the
//! receiver's copy meter must show neither an allocation nor a memcpy.
//! This pins the zero-copy claim at the pointer level, below what the
//! CopyMeter counters can show.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{
    CopySnapshot, Fabric, NicModel, NmBuf, NodeId, RailId, RankCtx, Sim, SimBuilder, SimDuration,
};

use nmad::engine::loopback::{Loopback, World};
use nmad::sr::CompletionKind;
use nmad::{NmConfig, NmCore, NmNet, NmStats, NmWire, StrategyKind, WirePayload};

/// Two cores on two single-rank nodes over `rails` (the core_integration
/// fixture, trimmed to the pair this test needs).
fn fixture(cfg: NmConfig, rails: Vec<NicModel>) -> (Sim, Vec<Arc<NmCore>>) {
    let sim = SimBuilder::new().build();
    let fabric: Arc<Fabric<NmWire>> = Fabric::new(2, rails);
    let rank_to_node = Arc::new(vec![NodeId(0), NodeId(1)]);
    let rail_ids: Vec<RailId> = (0..fabric.num_rails()).map(RailId).collect();
    let cores: Vec<Arc<NmCore>> = (0..2)
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

/// Drive progress until one completion appears; returns its payload.
fn wait_one(ctx: &RankCtx, core: &Arc<NmCore>, cookie: u64) -> Option<Bytes> {
    let sched = ctx.scheduler();
    let mut spins = 0u32;
    loop {
        core.schedule(&sched);
        if let Some(c) = core.drain_completions().into_iter().next() {
            assert_eq!(c.cookie, cookie, "unexpected completion cookie");
            return match c.kind {
                CompletionKind::Recv { data, .. } => Some(data),
                CompletionKind::Send => None,
                other => panic!("unexpected failed completion: {other:?}"),
            };
        }
        ctx.advance(SimDuration::nanos(100));
        spins += 1;
        assert!(spins < 10_000_000, "wait_one never completed");
    }
}

/// Send `len` bytes of `fill` from core 0 to core 1 and check that the
/// delivered `Bytes` aliases the source allocation: equal `storage_ptr`,
/// and a backing refcount that still sees the anchor handle held outside
/// the stack. Returns both cores' counters.
fn delivery_aliases_source(
    strategy: StrategyKind,
    rails: Vec<NicModel>,
    len: usize,
    fill: u8,
) -> [NmStats; 2] {
    let (mut sim, cores) = fixture(NmConfig::with_strategy(strategy), rails);

    let source = Bytes::from(vec![fill; len]);
    // Anchor handle: keeps the allocation's refcount observable from
    // the receiver even after the sender's stack dropped its views.
    let anchor = source.clone();
    let src_ptr = source.storage_ptr() as usize;

    let delivered: Arc<Mutex<Option<Bytes>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&delivered);

    let c0 = Arc::clone(&cores[0]);
    let c1 = Arc::clone(&cores[1]);
    sim.spawn_rank("sender", move |ctx| {
        let sched = ctx.scheduler();
        c0.isend(&sched, 1, 9, source, 100);
        assert!(wait_one(&ctx, &c0, 100).is_none());
    });
    sim.spawn_rank("receiver", move |ctx| {
        let sched = ctx.scheduler();
        c1.irecv(&sched, 0, 9, 200);
        let data = wait_one(&ctx, &c1, 200).expect("recv payload");
        *out.lock() = Some(data);
    });
    sim.run().unwrap();

    let data = delivered.lock().take().expect("receiver stored payload");
    assert_eq!(data.len(), len);
    assert!(data.iter().all(|&b| b == fill));
    assert_eq!(
        data.storage_ptr() as usize,
        src_ptr,
        "delivered bytes live in a different allocation: the receive \
         path copied instead of sharing"
    );
    let rc = data.ref_count().expect("heap-backed payload is refcounted");
    assert!(
        rc >= 2,
        "refcount {} < 2: the anchor handle and the delivered view \
         must share one allocation",
        rc
    );
    drop(anchor);
    let rc_after = data.ref_count().unwrap();
    assert!(
        rc_after < rc,
        "dropping the anchor must release a reference"
    );
    // Each core has a meter of its own: the receiver's saw no payload
    // allocated or copied.
    let stats = [cores[0].stats(), cores[1].stats()];
    let recv = stats[1].copy;
    assert_eq!((recv.allocations, recv.memcpy_calls), (0, 0), "{}", recv);
    stats
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any eager-sized payload, on either scheduling strategy.
    #[test]
    fn eager_delivery_aliases_source_allocation(
        len in 1usize..4096,
        fill in any::<u8>(),
        aggregate in any::<bool>(),
    ) {
        let strategy = if aggregate {
            StrategyKind::Aggreg
        } else {
            StrategyKind::Default
        };
        delivery_aliases_source(strategy, vec![NicModel::connectx_ib()], len, fill);
    }

    /// Any rendezvous-sized payload from the 32 KiB multirail threshold
    /// up: in one DATA chunk on the default strategy, or in two split
    /// across two rails, which the receiver rejoins into one view of the
    /// sender's payload.
    #[test]
    fn rendezvous_delivery_aliases_source_allocation(
        len in (32 * 1024)..(512 * 1024usize),
        fill in any::<u8>(),
        split in any::<bool>(),
    ) {
        let (strategy, rails, chunks) = if split {
            let rails = vec![NicModel::connectx_ib(), NicModel::myri10g_mx()];
            (StrategyKind::SplitBalanced, rails, 2)
        } else {
            (StrategyKind::Default, vec![NicModel::connectx_ib()], 1)
        };
        let [sender, _] = delivery_aliases_source(strategy, rails, len, fill);
        prop_assert_eq!((sender.rdv_sends, sender.data_chunks_sent), (1, chunks));
    }
}

/// Chunks that are *not* views of one allocation — hand-built wires, never
/// a real run — take the gather fallback: one metered allocation and one
/// copy per part, byte-exact.
#[test]
fn chunks_from_two_allocations_are_gathered_once() {
    const HALF: usize = 32 * 1024;
    let head = Bytes::from(vec![1u8; HALF]);
    let tail = Bytes::from(vec![2u8; HALF]);
    // Rank 0 only stands in for the RTS; rank 1's CTS is lost.
    let mut w = Loopback::with_wire(NmConfig::default(), |wire: &NmWire| wire.dst_rank() == 0);
    w.irecv(1, 4, 4);
    let rdv_id = 7;
    let rts = WirePayload::Rts {
        tag: 4,
        seq: 0,
        rdv_id,
        len: 2 * HALF,
    };
    let chunk = |offset: usize, part: &Bytes| WirePayload::Data {
        rdv_id,
        offset,
        data: NmBuf::from(part.clone()),
    };
    let before = w.stats(1).copy;
    for payload in [rts, chunk(0, &head), chunk(HALF, &tail)] {
        let now = w.now;
        w.engines[1].accept(now, NmWire::new(0, 1, payload), 0, false, &|_| true);
        w.engines[1].schedule(now, &|_| true);
        w.pump(1);
    }
    let done = w.completions(1);
    let [c] = &done[..] else {
        panic!("not one completion: {done:?}");
    };
    let CompletionKind::Recv { data, .. } = &c.kind else {
        panic!("receive failed: {:?}", c.kind);
    };
    assert_eq!(data[..HALF], head[..]);
    assert_eq!(data[HALF..], tail[..]);
    assert_eq!(
        w.stats(1).copy.since(&before),
        CopySnapshot {
            bytes_copied: 2 * HALF as u64,
            memcpy_calls: 2,
            allocations: 1,
            slice_refs: 0,
        }
    );
}
