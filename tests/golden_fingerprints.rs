//! Replay fingerprints refereed *across* commits.
//!
//! Every other "bit-identical" check in this workspace runs one binary
//! twice, so a refactor that shifts the fault RNG stream, reorders a
//! drain walk or drops a span still passes it. The hashes pinned here
//! were captured once and must not move: a change that claims to keep
//! behaviour has to reproduce them unchanged, and a change that means to
//! alter behaviour has to say so by editing this table.
//!
//! Pinned: `sim_harness::Fingerprint` for the three harness workloads ×
//! clean/faulty × 4 seeds (24 runs), the append-order span stream of one
//! traced faulty run per workload, one membership-armed core run that
//! executes the death drain, and one core run that executes the epoch
//! quiesce. The two *layout* gauges — `NmStats::peer_entries` and
//! `membership_drained_entries`, which count container records rather
//! than protocol events — are zeroed before hashing; nothing else is.

use std::sync::Arc;

use bytes::Bytes;
use mpich2_nmad_repro::nmad::sr::CompletionKind;
use mpich2_nmad_repro::nmad::{
    keys, FlowConfig, MembershipConfig, NmCompletion, NmConfig, NmCore, NmNet, NmStats, NmWire,
    RetryConfig, StrategyKind,
};
use mpich2_nmad_repro::sim_harness::{Fingerprint, Scenario, Workload};
use mpich2_nmad_repro::simnet::{
    Fabric, FaultSpec, NicModel, NodeId, RailId, RankCtx, Sim, SimBuilder, SimDuration,
};

const GOLDEN: &[(&str, u64)] = &[
    ("sendrecv/clean/0", 0x125389c32f9af68b),
    ("sendrecv/faulty/0", 0x55d4e85ad5937612),
    ("sendrecv/clean/1", 0x40f98417b6ca2d77),
    ("sendrecv/faulty/1", 0x0725e424c3af33cf),
    ("sendrecv/clean/2", 0xed8996eb2af5c8ad),
    ("sendrecv/faulty/2", 0xc5a55faae7e609ca),
    ("sendrecv/clean/3", 0xd240edca83dfb5f0),
    ("sendrecv/faulty/3", 0x81c149ccd14ddece),
    ("sendrecv/traced", 0xf35c96bf23a7f46f),
    ("anysource/clean/0", 0xab205945e71ef810),
    ("anysource/faulty/0", 0x7f6829ee27c7f787),
    ("anysource/clean/1", 0x31fee111edd432e5),
    ("anysource/faulty/1", 0xc7e18852a53e8aab),
    ("anysource/clean/2", 0xee9335d060f5f511),
    ("anysource/faulty/2", 0xf9622f82b65c032e),
    ("anysource/clean/3", 0xe2f6763ba4010c0c),
    ("anysource/faulty/3", 0x3dc75174c5ff9994),
    ("anysource/traced", 0x56968e4383920ec3),
    ("multirail/clean/0", 0x7424a4dfc2978855),
    ("multirail/faulty/0", 0xd44c1c1ee6c6fa89),
    ("multirail/clean/1", 0xee256b200fd09933),
    ("multirail/faulty/1", 0x3e5b81c69afd0210),
    ("multirail/clean/2", 0x2b9c16b63bd3eebd),
    ("multirail/faulty/2", 0x0bc07a8f4fbb5af0),
    ("multirail/clean/3", 0xb4b0eace8153ff44),
    ("multirail/faulty/3", 0x57756c7b9f9bfbe4),
    ("multirail/traced", 0x4b2bd16c68bc9d2b),
    ("core/drain", 0x5ada1bebcdd55c0d),
    ("core/revoke", 0xc83f08ffd6d2e853),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, s.as_bytes());
    h
}

fn zero_layout_gauges(s: &mut NmStats) {
    s.peer_entries = 0;
    s.membership_drained_entries = 0;
}

fn hash_fingerprint(mut fp: Fingerprint) -> u64 {
    fp.nm_stats.iter_mut().for_each(zero_layout_gauges);
    hash_str(&format!("{fp:?}"))
}

/// Stats of every core plus the completion stream in surfacing order
/// (which core, cookie, outcome, payload bytes).
fn hash_core_run(stats: Vec<NmStats>, comps: &[(usize, NmCompletion)]) -> u64 {
    let mut h = FNV_OFFSET;
    for mut s in stats {
        zero_layout_gauges(&mut s);
        fnv(&mut h, format!("{s:?}").as_bytes());
    }
    for (core, c) in comps {
        let kind = match &c.kind {
            CompletionKind::Recv { data, gate, tag } => {
                fnv(&mut h, data);
                format!("Recv {gate:?} {tag} {}", data.len())
            }
            other => format!("{other:?}"),
        };
        fnv(&mut h, format!("{core} {} {kind};", c.cookie).as_bytes());
    }
    h
}

const WORKLOADS: [(Workload, &str); 3] = [
    (Workload::SendRecv, "sendrecv"),
    (Workload::AnySource, "anysource"),
    (Workload::Multirail, "multirail"),
];

/// Retry tuned for fast core-level runs, with bounded eager credits so
/// the credit paths run too.
fn core_cfg() -> NmConfig {
    let mut cfg = NmConfig::with_strategy(StrategyKind::Default);
    cfg.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    cfg.flow = Some(FlowConfig::bounded(4, 64 * 1024));
    cfg
}

/// Two cores on two single-rank nodes over one rail.
fn pair(cfg: NmConfig) -> (Sim, Arc<NmCore>, Arc<NmCore>) {
    let sim = SimBuilder::new().build();
    let fabric: Arc<Fabric<NmWire>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
    let rank_to_node = Arc::new((0..2).map(NodeId).collect::<Vec<_>>());
    let rails: Vec<RailId> = (0..fabric.num_rails()).map(RailId).collect();
    let cores: Vec<Arc<NmCore>> = (0..2)
        .map(|r| {
            NmCore::new(
                cfg,
                r,
                NmNet {
                    fabric: Arc::clone(&fabric),
                    node: NodeId(r),
                    rails: rails.clone(),
                    rank_to_node: Arc::clone(&rank_to_node),
                },
            )
        })
        .collect();
    for (r, c) in cores.iter().enumerate() {
        let core = Arc::clone(c);
        fabric.set_sink(NodeId(r), Box::new(move |s, d| core.accept(s, d.msg)));
    }
    let mut it = cores.into_iter();
    (sim, it.next().unwrap(), it.next().unwrap())
}

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
            sink.extend(c.drain_completions().into_iter().map(|comp| (i, comp)));
        }
        ctx.advance(SimDuration::nanos(200));
    }
}

fn pattern(seed: u8, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| seed.wrapping_add((i * 7) as u8))
            .collect::<Vec<u8>>(),
    )
}

/// Run `body` as the single driver rank of a two-core simulation and
/// hash what it returns.
fn core_run(
    cfg: NmConfig,
    body: impl FnOnce(&RankCtx, &Arc<NmCore>, &Arc<NmCore>) -> u64 + Send + 'static,
) -> u64 {
    let (mut sim, c0, c1) = pair(cfg);
    let out = Arc::new(parking_lot::Mutex::new(0u64));
    let slot = Arc::clone(&out);
    sim.spawn_rank("driver", move |ctx| *slot.lock() = body(&ctx, &c0, &c1));
    sim.run().unwrap();
    let h = *out.lock();
    h
}

/// The setup of `death_and_drain_replay_bit_identically` (a rendezvous
/// cut by the receiver's crash, detected organically), with a gate's
/// worth of extra state in flight at the verdict: a posted receive, an
/// inbound rendezvous, an unexpected RTS and unacked eagers.
fn drain_run() -> u64 {
    let mut cfg = core_cfg();
    cfg.membership = Some(MembershipConfig {
        suspect_after: 2,
        dead_after: 4,
        min_silence: SimDuration::micros(50),
        probe_interval: SimDuration::micros(25),
    });
    core_run(cfg, |ctx, c0, c1| {
        let sched = ctx.scheduler();
        let mut comps = Vec::new();
        c1.irecv(&sched, 0, 6, 41);
        c0.isend(&sched, 1, 6, pattern(4, 128 * 1024), 40);
        c0.irecv(&sched, 1, 8, 42);
        c0.irecv(&sched, 1, 10, 45);
        c1.isend(&sched, 0, 10, pattern(5, 256 * 1024), 46);
        c1.isend(&sched, 0, 9, pattern(6, 64 * 1024), 44);
        c0.isend(&sched, 1, 7, pattern(7, 300), 43);
        c0.isend(&sched, 1, 7, pattern(8, 900), 47);
        run_for(ctx, &[c0, c1], &mut comps, SimDuration::micros(15));
        c1.halt();
        let mut waited = 0;
        while !c0.is_peer_dead(1) {
            run_for(ctx, &[c0], &mut comps, SimDuration::micros(5));
            waited += 1;
            assert!(waited < 4_000, "no dead verdict");
        }
        run_for(ctx, &[c0], &mut comps, SimDuration::micros(200));
        let st = c0.stats();
        assert_eq!(st.membership_dead_peers, 1);
        assert!(st.membership_aborted_sends >= 1 && st.membership_aborted_recvs >= 2);
        assert_eq!(c0.peer_entry_count(1), 0);
        hash_core_run(vec![st], &comps)
    })
}

/// Revoke epoch 0 with every kind of epoch-keyed state pending on both
/// sides — streaming and unanswered rendezvous, a posted receive, an
/// unexpected RTS, unexpected and unacked eagers, a queued wrapper —
/// while a user-context rendezvous shares the gate and must survive.
fn revoke_run() -> u64 {
    core_run(core_cfg(), |ctx, c0, c1| {
        let sched = ctx.scheduler();
        let k = |round: u16, seq: u32| keys::coll_key(0, keys::OP_BARRIER, round, seq);
        let mut comps = Vec::new();
        c1.irecv(&sched, 0, k(0, 1), 1);
        c1.irecv(&sched, 0, k(1, 1), 2);
        c1.irecv(&sched, 0, 5, 4);
        c0.isend(&sched, 1, k(0, 1), pattern(1, 200), 10);
        c0.isend(&sched, 1, k(1, 1), pattern(2, 256 * 1024), 11);
        c0.isend(&sched, 1, k(2, 1), pattern(3, 64 * 1024), 12);
        c0.isend(&sched, 1, k(3, 1), pattern(4, 700), 13);
        c0.irecv(&sched, 1, k(4, 1), 14);
        c0.isend(&sched, 1, 5, pattern(9, 40 * 1024), 15);
        c1.isend(&sched, 0, k(5, 1), pattern(5, 64 * 1024), 3);
        run_for(ctx, &[c0, c1], &mut comps, SimDuration::micros(12));
        c0.isend(&sched, 1, k(6, 1), pattern(6, 100), 16);
        assert!(c0.revoke_epoch(&sched, 0));
        c0.send_revoke(&sched, 1, 0);
        run_for(ctx, &[c0, c1], &mut comps, SimDuration::micros(500));
        let (s0, s1) = (c0.stats(), c1.stats());
        assert!(s0.revoked_ops >= 4 && s1.revoked_ops >= 2, "{s0:?} {s1:?}");
        assert_eq!(s1.revoked_epochs, 1, "the poison frame reached rank 1");
        let user = comps
            .iter()
            .find(|(_, c)| c.cookie == 4)
            .expect("user-context receive completes across the revoke");
        let CompletionKind::Recv { data, .. } = &user.1.kind else {
            panic!("user-context receive failed: {:?}", user.1.kind);
        };
        assert_eq!(data[..], pattern(9, 40 * 1024)[..]);
        assert!(c0.quiescent() && c1.quiescent());
        hash_core_run(vec![s0, s1], &comps)
    })
}

#[test]
fn fingerprints_match_the_pinned_values() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (workload, name) in WORKLOADS {
        for seed in 0..4u64 {
            let sc = Scenario::new(7000 + seed, FaultSpec::mixed(), workload, seed % 2 == 1);
            got.push((
                format!("{name}/clean/{seed}"),
                hash_fingerprint(sc.run_clean()),
            ));
            got.push((format!("{name}/faulty/{seed}"), hash_fingerprint(sc.run())));
        }
        let sc = Scenario::new(7100, FaultSpec::drop_heavy(), workload, false);
        let (fp, report) = sc.run_traced();
        let spans = hash_str(&report.to_jsonl());
        got.push((format!("{name}/traced"), hash_fingerprint(fp) ^ spans));
    }
    got.push(("core/drain".into(), drain_run()));
    got.push(("core/revoke".into(), revoke_run()));

    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert!(
        got == want,
        "fingerprints moved; this build computes:\n{table}"
    );
}
