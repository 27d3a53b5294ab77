//! Elastic-membership churn acceptance: a 64-rank job loses two nodes
//! (one mid-collective), survives a hang, and gains a late joiner — all
//! under live traffic, with conformance checking armed.
//!
//! The scenario (one rank per node, so node death == rank death; all
//! times simulated microseconds):
//!
//! * **Phase A** (t≈0): verified ring exchange over the 63 initial ranks.
//! * **t=400, crash #1**: node 9 dies. Survivors each push a rendezvous
//!   transfer at the corpse and must get a clean `Err(PeerDead)`; an
//!   ANY_SOURCE head with a parked specific receive from 9 must deliver
//!   the live match and fail the parked one.
//! * **t∈[800,836), hang**: node 5 freezes for less than `min_silence`
//!   while a verified ring runs across the window — a merely slow node
//!   that must NOT be declared dead (the inbound-credited hysteresis).
//! * **t=1510, crash #2 (mid-collective)**: node 23 dies inside a
//!   fault-tolerant barrier it never enters. The barrier must fail fast
//!   (poison propagation) on at least the ranks paired with the corpse,
//!   and must never deadlock.
//! * Survivor-group collectives (barrier + allreduce over the 61
//!   survivors) then complete with exact results.
//! * **t=2000, join**: node 63 comes up; first contact happens after the
//!   join (lazy VC + per-peer state creation) and round-trips verified
//!   payloads through the joiner's ANY_SOURCE receives.
//!
//! Every rank ends with `peer_entries == 0` for both corpses, and the
//! whole run — detection latencies, membership counters, rail counters —
//! replays bit-identically under the same seed.

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::{Death, MembershipConfig, RetryConfig};
use mpich2_nmad_repro::obs::ObsConfig;
use mpich2_nmad_repro::simnet::{
    Cluster, FaultPlan, FaultSpec, NicModel, NodeWindow, Placement, SimDuration, SimTime,
};

const RANKS: usize = 64;
/// The late joiner.
const JOINER: usize = 63;
/// First corpse (dies between phases).
const DEAD1: usize = 9;
/// Second corpse (dies mid-collective).
const DEAD2: usize = 23;
/// The merely-slow node.
const SLOW: usize = 5;

const T_CRASH1: u64 = 400; // µs
const T_HANG_FROM: u64 = 800;
const T_HANG_UNTIL: u64 = 836; // 36µs < min_silence: must never go Dead
const MIN_SILENCE: SimDuration = SimDuration::micros(50);
const T_PHASE_C: u64 = 1_500;
const T_CRASH2: u64 = 1_510;
const T_JOIN: u64 = 2_000;
/// Survivors first contact the joiner here (mpiexec-style join notice:
/// nobody may probe a rank before it exists, or the sticky Dead verdict
/// would poison the name forever).
const T_JOIN_SAFE: u64 = 2_050;

const TAG_RING: u32 = 11;
const TAG_PARKED: u32 = 12;
const TAG_CORPSE: u32 = 13;
const TAG_JOIN: u32 = 14;
/// Above the 16 KiB eager threshold: sends to a corpse must travel the
/// rendezvous path so the drain has an in-flight handshake to abort.
const RDV_LEN: usize = 64 * 1024;

fn seed_base() -> u64 {
    std::env::var("SIM_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn micros(t: u64) -> SimTime {
    SimTime::ZERO + SimDuration::micros(t)
}

/// Deterministic payload keyed by (src, round).
fn fill(src: usize, round: usize, len: usize) -> Vec<u8> {
    let mut x = 0xC4C4_u64 ^ ((src as u64 + 1) << 32) ^ ((round as u64 + 1) * 0x9E37_79B9);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// Busy-wait (simulated compute) until the rank's clock reaches `t` µs.
/// Chunked so a rank never disappears from the progress loop for long —
/// a live rank that stops acking would look exactly like a corpse.
fn wait_until(mpi: &MpiHandle, t: u64) {
    loop {
        let now = mpi.now().as_nanos();
        let target = t * 1_000;
        if now >= target {
            return;
        }
        let step = (target - now).min(5_000);
        mpi.compute(SimDuration::nanos(step));
        // Keep acking/progressing while we "compute" across a phase gap.
        let _ = mpi.iprobe(Src::Any, u32::MAX);
    }
}

/// Verified ring round `round` over `group` (blocking sendrecv with both
/// neighbours). Returns the number of payload bytes verified.
fn ring_round(mpi: &MpiHandle, group: &[usize], round: usize, len: usize) -> u64 {
    let pos = group.iter().position(|&r| r == mpi.rank()).unwrap();
    let n = group.len();
    let right = group[(pos + 1) % n];
    let left = group[(pos + n - 1) % n];
    let (data, st) = mpi.sendrecv(
        right,
        TAG_RING,
        &fill(mpi.rank(), round, len),
        Src::Rank(left),
        TAG_RING,
    );
    assert_eq!(st.source, left);
    assert_eq!(
        &data[..],
        &fill(left, round, len)[..],
        "ring payload corrupt"
    );
    data.len() as u64
}

/// What each rank reports back; the full vector is part of the replay
/// fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankReport {
    /// (peer, verdict ns, fail streak) from this rank's supervisor.
    death_log: Vec<Death>,
    /// Outcome of the mid-collective barrier (survivors only).
    barrier_err: Option<usize>,
    coll_aborts: u64,
    /// Verified payload bytes received over surviving pairs.
    bytes_ok: u64,
}

/// The rank program for the whole churn scenario.
fn churn_rank(mpi: &MpiHandle) -> RankReport {
    let me = mpi.rank();
    let initial: Vec<usize> = (0..RANKS - 1).collect(); // 0..=62
    let s2: Vec<usize> = initial.iter().copied().filter(|&r| r != DEAD1).collect();
    let s3: Vec<usize> = s2.iter().copied().filter(|&r| r != DEAD2).collect();
    let mut bytes_ok = 0u64;

    if me == JOINER {
        // Not born yet: the node window eats everything before T_JOIN, and
        // the program mirrors that by doing nothing at all.
        wait_until(mpi, T_JOIN);
        // First life: answer two verified echo requests through ANY_SOURCE
        // (per-peer state on both sides is created lazily, right now).
        for _ in 0..2 {
            let (data, st) = mpi.recv(Src::Any, TAG_JOIN);
            assert_eq!(
                &data[..],
                &fill(st.source, 0, 1024)[..],
                "joiner payload corrupt"
            );
            bytes_ok += data.len() as u64;
            mpi.send(st.source, TAG_JOIN, &fill(JOINER, st.source, 512));
        }
        return RankReport {
            death_log: mpi.death_log(),
            barrier_err: None,
            coll_aborts: mpi.coll_aborts(),
            bytes_ok,
        };
    }

    // --- Phase A: healthy ring over the initial 63 ranks ---------------
    for round in 0..3 {
        bytes_ok += ring_round(mpi, &initial, round, 256);
    }

    if me == DEAD1 {
        wait_until(mpi, T_CRASH1);
        mpi.crash();
        return RankReport {
            death_log: vec![],
            barrier_err: None,
            coll_aborts: 0,
            bytes_ok,
        };
    }

    // --- Phase B: rendezvous at the corpse must fail cleanly -----------
    wait_until(mpi, T_CRASH1 + 10);
    if me == 0 {
        // ANY_SOURCE head with a specific receive from the corpse parked
        // behind it (§3.2.2 ordering): the head must still match live
        // traffic, the parked specific must fail on the death verdict.
        let r_any = mpi.irecv(Src::Any, TAG_PARKED);
        let r_spec = mpi.irecv(Src::Rank(DEAD1), TAG_PARKED);
        let s = mpi.isend(DEAD1, TAG_CORPSE, &fill(me, 0, RDV_LEN));
        let err = mpi
            .wait_result(s)
            .expect_err("rendezvous at a corpse must fail");
        assert_eq!(err.peer, DEAD1);
        let (data, st) = mpi.wait_data(r_any);
        let (data, st) = (data.expect("any head matches live sender"), st.unwrap());
        assert_eq!(st.source, 1);
        assert_eq!(&data[..], &fill(1, 9, 400)[..]);
        bytes_ok += data.len() as u64;
        let err = mpi
            .wait_result(r_spec)
            .expect_err("parked specific from the corpse must fail");
        assert_eq!(err.peer, DEAD1);
    } else {
        if me == 1 {
            mpi.send(0, TAG_PARKED, &fill(1, 9, 400));
        }
        let s = mpi.isend(DEAD1, TAG_CORPSE, &fill(me, 0, RDV_LEN));
        let err = mpi
            .wait_result(s)
            .expect_err("rendezvous at a corpse must fail");
        assert_eq!(err.peer, DEAD1);
    }
    assert!(!mpi.is_alive(DEAD1), "rank {me}: no verdict for corpse 9");

    // --- Phase B2: verified ring across the hang window -----------------
    // Node 5 freezes for 36µs inside this loop; its neighbours stall and
    // resume, and nobody may promote the stall to a death verdict.
    wait_until(mpi, T_HANG_FROM - 20);
    for round in 0..40 {
        bytes_ok += ring_round(mpi, &s2, 100 + round, 256);
    }
    assert!(
        mpi.is_alive(SLOW),
        "rank {me}: slow node falsely declared dead"
    );

    if me == DEAD2 {
        // Dies mid-collective: everyone else enters the barrier at
        // T_PHASE_C; this rank never does.
        wait_until(mpi, T_CRASH2);
        mpi.crash();
        return RankReport {
            death_log: mpi.death_log(),
            barrier_err: None,
            coll_aborts: 0,
            bytes_ok,
        };
    }

    // --- Phase C: fault-tolerant barrier, corpse #2 mid-protocol --------
    wait_until(mpi, T_PHASE_C);
    let barrier_err = mpi.try_barrier(&s2).err().map(|e| e.peer);

    // --- Phase D: rendezvous at corpse #2, then survivor collectives ----
    let s = mpi.isend(DEAD2, TAG_CORPSE, &fill(me, 1, RDV_LEN));
    let err = mpi
        .wait_result(s)
        .expect_err("rendezvous at corpse 23 must fail");
    assert_eq!(err.peer, DEAD2);
    assert!(!mpi.is_alive(DEAD2), "rank {me}: no verdict for corpse 23");

    mpi.barrier_group(&s3);
    let sum = mpi.allreduce_sum_group(&s3, &[me as f64]);
    let expect: f64 = s3.iter().map(|&r| r as f64).sum();
    assert_eq!(sum, vec![expect], "survivor allreduce wrong on rank {me}");

    // --- Phase E: the late joiner ---------------------------------------
    if me <= 1 {
        wait_until(mpi, T_JOIN_SAFE);
        mpi.send(JOINER, TAG_JOIN, &fill(me, 0, 1024));
        let (data, st) = mpi.recv(Src::Rank(JOINER), TAG_JOIN);
        assert_eq!(st.source, JOINER);
        assert_eq!(
            &data[..],
            &fill(JOINER, me, 512)[..],
            "joiner reply corrupt"
        );
        bytes_ok += data.len() as u64;
    }

    // --- Final state: corpses drained, the slow node alive --------------
    assert_eq!(
        mpi.peer_entries(DEAD1),
        0,
        "rank {me}: corpse 9 leaked entries"
    );
    assert_eq!(
        mpi.peer_entries(DEAD2),
        0,
        "rank {me}: corpse 23 leaked entries"
    );
    assert!(mpi.is_alive(SLOW));
    RankReport {
        death_log: mpi.death_log(),
        barrier_err,
        coll_aborts: mpi.coll_aborts(),
        bytes_ok,
    }
}

/// Aggressive timing so the scenario fits in ~2ms of simulated time: a
/// dead verdict needs 4 attributed failures and 50µs of inbound silence
/// (the same constants the core membership tests use).
fn churn_stack(seed: u64) -> StackConfig {
    let mut stack = StackConfig::mpich2_nmad(false).with_obs(ObsConfig::full());
    stack.nm.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    let mut nodes: Vec<Vec<NodeWindow>> = vec![Vec::new(); RANKS];
    nodes[DEAD1] = vec![NodeWindow::crash(micros(T_CRASH1))];
    nodes[DEAD2] = vec![NodeWindow::crash(micros(T_CRASH2))];
    nodes[SLOW] = vec![NodeWindow::hang(micros(T_HANG_FROM), micros(T_HANG_UNTIL))];
    nodes[JOINER] = vec![NodeWindow::join(micros(T_JOIN))];
    stack
        .with_membership(MembershipConfig {
            suspect_after: 2,
            dead_after: 4,
            min_silence: MIN_SILENCE,
            probe_interval: SimDuration::micros(25),
        })
        .with_faults(FaultPlan::with_nodes(
            seed,
            vec![FaultSpec::default()],
            Vec::new(),
            nodes,
        ))
}

fn run_churn(seed: u64) -> (RunOutcome, Vec<RankReport>) {
    let cluster = Cluster::new(RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(RANKS, &cluster);
    let stack = churn_stack(seed);
    run_mpi_collect(&cluster, &placement, &stack, RANKS, churn_rank)
}

/// Detection latencies (ns) for `peer` across all reports, with the
/// no-premature-verdict check built in.
fn latencies(reports: &[RankReport], peer: usize, crash_us: u64) -> Vec<u64> {
    let crash_ns = crash_us * 1_000;
    let mut out = Vec::new();
    for (rank, rep) in reports.iter().enumerate() {
        for d in rep.death_log.iter().filter(|d| d.peer == peer) {
            let t = d.at.as_nanos();
            assert!(
                t > crash_ns,
                "rank {rank} declared {peer} dead at {t}ns, before the crash at {crash_ns}ns"
            );
            assert!(
                d.silence_ns >= MIN_SILENCE.as_nanos(),
                "verdict after {}ns of silence < min_silence",
                d.silence_ns
            );
            out.push(t - crash_ns);
        }
    }
    out
}

#[test]
fn churn_crash_hang_join_under_live_traffic() {
    let seed = 0xC4C4_0000 ^ seed_base();
    let (outcome, reports) = run_churn(seed);

    // Every survivor (everyone but the two corpses) detected both deaths.
    let survivors: Vec<usize> = (0..RANKS)
        .filter(|&r| r != DEAD1 && r != DEAD2 && r != JOINER)
        .collect();
    let lat1 = latencies(&reports, DEAD1, T_CRASH1);
    let lat2 = latencies(&reports, DEAD2, T_CRASH2);
    assert_eq!(
        lat1.len(),
        survivors.len() + 1,
        "corpse 9: 61 survivors + rank 23"
    );
    assert_eq!(lat2.len(), survivors.len(), "corpse 23: every survivor");
    // Detection is prompt but never hair-triggered: the first verdict
    // lands within the retry/probe horizon, and the histogram never
    // undercuts the hysteresis floor.
    let min1 = *lat1.iter().min().unwrap();
    let max2 = *lat2.iter().max().unwrap();
    println!(
        "detection latency: corpse 9 min {}µs, corpse 23 max {}µs",
        min1 / 1_000,
        max2 / 1_000
    );
    assert!(
        min1 >= 25_000,
        "verdict faster than any hysteresis: {min1}ns"
    );
    assert!(
        min1 <= 600_000,
        "first detection of corpse 9 too slow: {min1}ns"
    );
    assert!(
        max2 <= 1_500_000,
        "slowest detection of corpse 23: {max2}ns"
    );
    // Nobody ever declared the merely-hung node dead.
    for rep in &reports {
        assert!(rep
            .death_log
            .iter()
            .all(|d| d.peer == DEAD1 || d.peer == DEAD2));
    }

    // The mid-collective death aborted the barrier on at least the six
    // ranks directly paired with the corpse, and the poison named it.
    let aborted: Vec<usize> = survivors
        .iter()
        .copied()
        .filter(|&r| reports[r].barrier_err.is_some())
        .collect();
    assert!(
        aborted.len() >= 6,
        "only {} barrier aborts: {:?}",
        aborted.len(),
        aborted
    );
    for &r in &aborted {
        assert_eq!(reports[r].barrier_err, Some(DEAD2));
    }
    let coll_aborts: u64 = reports.iter().map(|r| r.coll_aborts).sum();
    assert!(
        coll_aborts >= 6,
        "coll_aborts counter lagging: {coll_aborts}"
    );

    // Job-wide membership accounting moved in every dimension the drain
    // touches.
    let m = outcome.nm_total();
    println!("nmad totals: {m:?}");
    assert!(
        m.membership_dead_peers as usize >= 2 * survivors.len(),
        "{m:?}"
    );
    assert!(
        m.membership_transitions > 0 && m.membership_aborted_sends > 0,
        "{m:?}"
    );
    assert!(
        m.membership_drained_entries > 0,
        "death verdicts drained nothing: {m:?}"
    );
    let drops = outcome.fault_counters.expect("fault plan armed").node_drops;
    assert!(drops > 0, "node windows never ate a frame");

    // Surviving-pair traffic was delivered byte-exact (the asserts inside
    // the program) and in nonzero volume everywhere.
    for &r in &survivors {
        assert!(reports[r].bytes_ok > 0, "rank {r} verified no bytes");
    }
    assert!(reports[JOINER].bytes_ok > 0, "joiner verified no bytes");
}

#[test]
fn churn_replays_bit_identically() {
    let seed = 0xC4C4_0000 ^ seed_base();
    let (a, ra) = run_churn(seed);
    let (b, rb) = run_churn(seed);
    assert_eq!(ra, rb, "per-rank reports diverged between replays");
    assert_eq!(a.sim.final_time, b.sim.final_time);
    assert_eq!(a.sim.events, b.sim.events);
    // nm_stats carries every membership_* counter per rank.
    assert_eq!(a.nm_stats, b.nm_stats, "per-rank core stats diverged");
    assert_eq!(a.rail_counters, b.rail_counters);
    assert_eq!(a.fault_counters, b.fault_counters);
    assert_eq!(a.nm_total(), b.nm_total());
}
