//! Communicator-recovery acceptance: revoke, fault-tolerant agreement,
//! shrink/rebuild and joiner re-admission under churn (DESIGN.md §13).
//!
//! The chaos scenario (64 ranks, one per node, times in simulated µs):
//!
//! * **Phase A** (t≈0): healthy epoch-0 collectives over the 63 initial
//!   ranks (barrier + byte-exact allreduce).
//! * **t=400, crash #1**: node 9 dies. Rank 0 detects it through a failed
//!   rendezvous and **revokes** epoch 0 while every other survivor is
//!   stuck inside an epoch-0 barrier; the poison gossip must quiesce
//!   those barriers with counted revoked completions — no hangs, no
//!   silent drops.
//! * **Shrink #1**: survivors agree on the survivor set, advance to
//!   epoch 1, re-rank densely, and run a byte-exact allreduce.
//! * **t=1510, crash #2 (mid-agreement)**: node 23 dies *inside* the
//!   second shrink's agreement, which it never enters. All survivors must
//!   still terminate with the identical survivor set and rebuild epoch 2.
//! * **t=2000, join**: node 63 comes up, is admitted via the join-merge
//!   path into epoch 3, and participates in a byte-exact allreduce over
//!   the merged group.
//! * Every rank ends with `peer_entries == 0` for both corpses, stale
//!   cross-epoch frames were counted (never resurrected), and the whole
//!   run replays bit-identically under the same seed.
//!
//! Satellites riding along: the agreement-layered `try_barrier` returns
//! the *same* verdict on every survivor (4-seed sweep), a peer stalling
//! past `suspect_after` recovers to Up instead of being probed to death
//! (polling *and* PIOMan background progress), and an ANY_SOURCE wildcard
//! posted across a revoke/shrink completes with live data while its
//! parked specific-from-the-corpse fails with a counted error.

use mpich2_nmad_repro::mpi_ch3::comm::Comm;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::{Death, MembershipConfig, RetryConfig};
use mpich2_nmad_repro::obs::ObsConfig;
use mpich2_nmad_repro::simnet::{
    Cluster, FaultPlan, FaultSpec, NicModel, NodeWindow, Placement, SimDuration, SimTime,
};

const RANKS: usize = 64;
const JOINER: usize = 63;
const DEAD1: usize = 9;
const DEAD2: usize = 23;

const T_CRASH1: u64 = 400; // µs
const T_REVOKE: u64 = 450;
const T_PHASE_C: u64 = 1_500;
const T_CRASH2: u64 = 1_510;
const T_JOIN: u64 = 2_000;
const T_JOIN_SAFE: u64 = 2_050;

/// Out-of-band rendezvous sequence for the join handshake (any value both
/// sides agree on; OP_JOIN keys share no instance with other ops).
const JOIN_SEQ: u32 = 777;

const TAG_CORPSE: u32 = 31;
/// Above the 16 KiB eager threshold: the detection send must travel the
/// rendezvous path so the corpse leaves an in-flight handshake to abort.
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
    let mut x = 0xFEC0_u64 ^ ((src as u64 + 1) << 32) ^ ((round as u64 + 1) * 0x9E37_79B9);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// Busy-wait (simulated compute) until the rank's clock reaches `t` µs,
/// chunked so the rank keeps acking while it "computes".
fn wait_until(mpi: &MpiHandle, t: u64) {
    loop {
        let now = mpi.now().as_nanos();
        let target = t * 1_000;
        if now >= target {
            return;
        }
        let step = (target - now).min(5_000);
        mpi.compute(SimDuration::nanos(step));
        let _ = mpi.iprobe(Src::Any, u32::MAX);
    }
}

/// What each rank reports; the full vector is part of the replay
/// fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Report {
    /// Epochs traversed: [initial, after shrink #1, after shrink #2,
    /// after the join-merge].
    epochs: Vec<u8>,
    /// Member lists after each recovery step.
    shrink1: Vec<usize>,
    shrink2: Vec<usize>,
    merged: Vec<usize>,
    /// f64 bit patterns of the four allreduce results (byte-exactness is
    /// asserted by comparing these across ranks).
    sums: Vec<u64>,
    /// Did this rank's `comm_revoke` commit a fresh revocation?
    revoked_fresh: bool,
    death_log: Vec<Death>,
}

fn recovery_rank(mpi: &MpiHandle) -> Report {
    let me = mpi.rank();
    let initial: Vec<usize> = (0..RANKS - 1).collect(); // 0..=62
    let s1: Vec<usize> = initial.iter().copied().filter(|&r| r != DEAD1).collect();
    let s2: Vec<usize> = s1.iter().copied().filter(|&r| r != DEAD2).collect();

    if me == JOINER {
        // Not born until T_JOIN; then admitted via the join-merge path and
        // immediately a full participant in a collective.
        wait_until(mpi, T_JOIN);
        let merged = mpi.comm_join(0, JOIN_SEQ);
        let sum3 = mpi.comm_allreduce_sum(&merged, &[me as f64]);
        return Report {
            epochs: vec![merged.epoch()],
            merged: merged.members().to_vec(),
            sums: vec![sum3[0].to_bits()],
            death_log: mpi.death_log(),
            ..Report::default()
        };
    }

    // --- Phase A: healthy epoch-0 collectives ---------------------------
    let c0 = Comm::from_members(mpi, 0, initial.clone());
    mpi.comm_barrier(&c0);
    let sum0 = mpi.comm_allreduce_sum(&c0, &[1.0])[0];
    assert_eq!(
        sum0,
        initial.len() as f64,
        "healthy allreduce wrong on {me}"
    );

    if me == DEAD1 {
        wait_until(mpi, T_CRASH1);
        mpi.crash();
        return Report::default();
    }

    // --- Phase B: revoke under a stuck collective -----------------------
    // Everyone but rank 0 dives into an epoch-0 barrier that can never
    // complete (a member is dead). Rank 0 detects the death the hard way
    // (failed rendezvous), revokes the epoch, and the poison must release
    // every stuck survivor with counted revoked completions.
    wait_until(mpi, T_REVOKE);
    let mut revoked_fresh = false;
    if me == 0 {
        let s = mpi.isend(DEAD1, TAG_CORPSE, &fill(me, 0, RDV_LEN));
        let err = mpi
            .wait_result(s)
            .expect_err("rendezvous at a corpse must fail");
        assert_eq!(err.peer, DEAD1);
        revoked_fresh = mpi.comm_revoke(&c0);
        assert!(revoked_fresh, "first revocation of epoch 0 must be fresh");
    }
    mpi.comm_barrier(&c0); // revoked: falls through, never hangs

    // --- Shrink #1: agree, re-rank, seal, byte-exact allreduce ----------
    let c1 = mpi.comm_shrink(&c0);
    assert_eq!(c1.members(), &s1[..], "shrink #1 roster wrong on {me}");
    let sum1 = mpi.comm_allreduce_sum(&c1, &[(me + 1) as f64])[0];

    if me == DEAD2 {
        // Dies mid-agreement: everyone else enters shrink #2 at T_PHASE_C;
        // this rank never does.
        wait_until(mpi, T_CRASH2);
        mpi.crash();
        return Report {
            epochs: vec![c0.epoch(), c1.epoch()],
            shrink1: c1.members().to_vec(),
            sums: vec![sum0.to_bits(), sum1.to_bits()],
            death_log: mpi.death_log(),
            ..Report::default()
        };
    }

    // --- Shrink #2: a member dies inside the agreement ------------------
    wait_until(mpi, T_PHASE_C);
    let c2 = mpi.comm_shrink(&c1);
    assert_eq!(c2.members(), &s2[..], "shrink #2 roster wrong on {me}");
    let sum2 = mpi.comm_allreduce_sum(&c2, &[(me * me) as f64])[0];

    // --- Phase D: joiner re-admission into epoch 3 ----------------------
    wait_until(mpi, T_JOIN_SAFE);
    let c3 = mpi.comm_accept(&c2, JOINER, JOIN_SEQ);
    let sum3 = mpi.comm_allreduce_sum(&c3, &[me as f64])[0];

    // --- Final hygiene: corpses fully drained ---------------------------
    assert_eq!(mpi.peer_entries(DEAD1), 0, "rank {me}: corpse 9 leaked");
    assert_eq!(mpi.peer_entries(DEAD2), 0, "rank {me}: corpse 23 leaked");
    Report {
        epochs: vec![c0.epoch(), c1.epoch(), c2.epoch(), c3.epoch()],
        shrink1: c1.members().to_vec(),
        shrink2: c2.members().to_vec(),
        merged: c3.members().to_vec(),
        sums: vec![
            sum0.to_bits(),
            sum1.to_bits(),
            sum2.to_bits(),
            sum3.to_bits(),
        ],
        revoked_fresh,
        death_log: mpi.death_log(),
    }
}

/// Aggressive timing so the scenario fits in a few ms of simulated time
/// (same constants as the churn acceptance).
fn recovery_stack(seed: u64) -> StackConfig {
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
    nodes[JOINER] = vec![NodeWindow::join(micros(T_JOIN))];
    stack
        .with_membership(MembershipConfig {
            suspect_after: 2,
            dead_after: 4,
            min_silence: SimDuration::micros(50),
            probe_interval: SimDuration::micros(25),
        })
        .with_faults(FaultPlan::with_nodes(
            seed,
            vec![FaultSpec::default()],
            Vec::new(),
            nodes,
        ))
}

fn run_recovery(seed: u64) -> (RunOutcome, Vec<Report>) {
    let cluster = Cluster::new(RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(RANKS, &cluster);
    let stack = recovery_stack(seed);
    run_mpi_collect(&cluster, &placement, &stack, RANKS, recovery_rank)
}

#[test]
fn revoke_agree_shrink_join_under_churn() {
    let seed = 0x9E10_0000 ^ seed_base();
    let (outcome, reports) = run_recovery(seed);

    let initial: Vec<usize> = (0..RANKS - 1).collect();
    let s1: Vec<usize> = initial.iter().copied().filter(|&r| r != DEAD1).collect();
    let s2: Vec<usize> = s1.iter().copied().filter(|&r| r != DEAD2).collect();
    let mut merged = s2.clone();
    merged.push(JOINER);

    let survivors: Vec<usize> = s2.clone();
    let expect_sums = [
        (initial.len() as f64).to_bits(),
        s1.iter().map(|&r| (r + 1) as f64).sum::<f64>().to_bits(),
        s2.iter().map(|&r| (r * r) as f64).sum::<f64>().to_bits(),
        merged.iter().map(|&r| r as f64).sum::<f64>().to_bits(),
    ];

    // Every survivor walked the same epoch path, agreed on the same
    // rosters, and produced bit-identical collective results.
    for &r in &survivors {
        let rep = &reports[r];
        assert_eq!(rep.epochs, vec![0, 1, 2, 3], "rank {r} epoch path");
        assert_eq!(rep.shrink1, s1, "rank {r} shrink #1 roster");
        assert_eq!(rep.shrink2, s2, "rank {r} shrink #2 roster");
        assert_eq!(rep.merged, merged, "rank {r} merged roster");
        assert_eq!(rep.sums, expect_sums, "rank {r} allreduce bits");
        assert_eq!(rep.revoked_fresh, r == 0, "rank {r} revocation freshness");
    }
    // The joiner saw the merged epoch and the same final allreduce.
    assert_eq!(reports[JOINER].epochs, vec![3]);
    assert_eq!(reports[JOINER].merged, merged);
    assert_eq!(reports[JOINER].sums, vec![expect_sums[3]]);
    // The mid-agreement corpse still completed shrink #1 before dying.
    assert_eq!(reports[DEAD2].shrink1, s1);
    assert_eq!(reports[DEAD2].sums[..2], expect_sums[..2]);

    // Detection latency (E21 raw material): prompt, never premature.
    for (corpse, crash_us) in [(DEAD1, T_CRASH1), (DEAD2, T_CRASH2)] {
        let crash_ns = crash_us * 1_000;
        let lats: Vec<u64> = reports
            .iter()
            .flat_map(|rep| rep.death_log.iter())
            .filter(|d| d.peer == corpse)
            .map(|d| {
                let t = d.at.as_nanos();
                assert!(t > crash_ns, "verdict for {corpse} predates its crash");
                t - crash_ns
            })
            .collect();
        assert!(!lats.is_empty());
        println!(
            "corpse {corpse}: detection min {}µs max {}µs across {} observers",
            lats.iter().min().unwrap() / 1_000,
            lats.iter().max().unwrap() / 1_000,
            lats.len()
        );
    }

    // Epoch hygiene moved in every dimension the tentpole touches: the
    // revocation flooded the job, in-flight epoch-0 ops were quiesced with
    // counted errors, and stale cross-epoch frames were counted — never
    // resurrected into per-peer state (the peer_entries asserts above).
    let m = outcome.nm_total();
    println!("nmad totals: {m:?}");
    assert!(
        m.revoked_epochs >= s1.len() as u64,
        "revocation never flooded: {m:?}"
    );
    assert!(m.revoked_ops > 0, "revoke quiesced nothing: {m:?}");
    assert!(
        m.membership_stale_epoch > 0,
        "no stale cross-epoch frame was counted: {m:?}"
    );
    assert!(
        m.membership_dead_peers > 0 && m.membership_drained_entries > 0,
        "{m:?}"
    );
    let drops = outcome.fault_counters.expect("fault plan armed").node_drops;
    assert!(drops > 0, "node windows never ate a frame");
}

/// `RunOutcome::nm_total` against the values the four hand folds it
/// replaced returned for this run at the commit that deleted them
/// (`membership_totals` field by field, then `flow_totals`,
/// `failover_totals`, `probe_totals`). A fixed seed: `SIM_SEED_BASE` does
/// not shift it.
#[test]
fn nm_total_equals_the_deleted_folds_on_a_pinned_recovery() {
    let (outcome, _) = run_recovery(0x9E10_0000);
    let t = outcome.nm_total();
    assert_eq!(
        (
            t.membership_transitions,
            t.membership_dead_peers,
            t.membership_aborted_sends,
            t.membership_aborted_recvs,
            t.membership_drained_entries,
        ),
        (148, 123, 16, 42, 274)
    );
    assert_eq!(
        (
            t.membership_stray_frames,
            t.membership_credits_released,
            t.membership_stale_epoch,
            t.revoked_epochs,
            t.revoked_ops
        ),
        (0, 0, 11_218, 62, 178)
    );
    assert_eq!(
        (
            t.fc_eager_admitted,
            t.fc_credits_returned,
            t.fc_peak_unex_bytes
        ),
        (0, 0, 488),
        "flow_totals"
    );
    assert_eq!(
        (t.rail_transitions, t.rerouted_bytes, t.degraded_nanos),
        (2, 0, 45),
        "failover_totals"
    );
    assert_eq!((t.probes_sent, t.probe_acks), (0, 0), "probe_totals");
}

#[test]
fn recovery_replays_bit_identically() {
    let seed = 0x9E10_0000 ^ seed_base();
    let (a, ra) = run_recovery(seed);
    let (b, rb) = run_recovery(seed);
    assert_eq!(ra, rb, "per-rank reports diverged between replays");
    assert_eq!(a.sim.final_time, b.sim.final_time);
    assert_eq!(a.sim.events, b.sim.events);
    assert_eq!(a.nm_stats, b.nm_stats, "per-rank core stats diverged");
    assert_eq!(a.rail_counters, b.rail_counters);
    assert_eq!(a.fault_counters, b.fault_counters);
    assert_eq!(a.nm_total(), b.nm_total());
}

// ---------------------------------------------------------------------
// Satellite: try_barrier verdicts agree on every survivor (4-seed sweep)
// ---------------------------------------------------------------------

const TB_RANKS: usize = 16;
const TB_DEAD: usize = 5;
const TB_ENTER: u64 = 300; // µs
const TB_CRASH: u64 = 310;

fn try_barrier_rank(mpi: &MpiHandle) -> Option<Option<usize>> {
    let me = mpi.rank();
    let group: Vec<usize> = (0..TB_RANKS).collect();
    if me == TB_DEAD {
        // Dies just after the others enter the barrier, never entering it
        // himself — the classic split-observation scenario.
        wait_until(mpi, TB_CRASH);
        mpi.crash();
        return None;
    }
    wait_until(mpi, TB_ENTER);
    let verdict = mpi.try_barrier(&group).err().map(|e| e.peer);
    Some(verdict)
}

fn tb_stack(seed: u64) -> StackConfig {
    let mut stack = StackConfig::mpich2_nmad(false);
    stack.nm.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    let mut nodes: Vec<Vec<NodeWindow>> = vec![Vec::new(); TB_RANKS];
    nodes[TB_DEAD] = vec![NodeWindow::crash(micros(TB_CRASH))];
    stack
        .with_membership(MembershipConfig {
            suspect_after: 2,
            dead_after: 4,
            min_silence: SimDuration::micros(50),
            probe_interval: SimDuration::micros(25),
        })
        .with_faults(FaultPlan::with_nodes(
            seed,
            vec![FaultSpec::default()],
            Vec::new(),
            nodes,
        ))
}

#[test]
fn try_barrier_verdict_is_uniform_across_survivors() {
    // The pre-agreement try_barrier had ULFM's documented inconsistency:
    // members that heard the poison returned Err, members whose exchanges
    // predated the verdict returned Ok. The layered agreement must produce
    // the SAME verdict on every survivor — under four different fault
    // timings.
    for offset in 0..4u64 {
        let seed = 0x7B47_0000 ^ seed_base() ^ offset;
        let cluster = Cluster::new(TB_RANKS, 1, vec![NicModel::connectx_ib()]);
        let placement = Placement::one_per_node(TB_RANKS, &cluster);
        let (_, verdicts) = run_mpi_collect(
            &cluster,
            &placement,
            &tb_stack(seed),
            TB_RANKS,
            try_barrier_rank,
        );
        let survivor_verdicts: Vec<Option<usize>> = verdicts
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != TB_DEAD)
            .map(|(_, v)| v.expect("survivor returned a verdict"))
            .collect();
        assert!(
            survivor_verdicts.iter().all(|&v| v == Some(TB_DEAD)),
            "seed offset {offset}: split verdicts {survivor_verdicts:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Satellite: Suspect → Up recovery (never probed to death)
// ---------------------------------------------------------------------

const SU_RANKS: usize = 4;
const SU_SLOW: usize = 1;
const SU_HANG_FROM: u64 = 300;
/// 70µs of silence: enough attributed timeouts to go Suspect
/// (suspect_after = 2 at a 20µs retry timeout plus 25µs probe intervals),
/// but far under the 200µs min_silence floor this stack configures — Dead
/// must be unreachable no matter how many probes pile up, on every side:
/// the staller's own inbound goes silent too (its NIC is blocked), so the
/// floor must cover the window plus the pre-hang gap since its last
/// inbound frame.
const SU_HANG_UNTIL: u64 = 370;
const TAG_SU: u32 = 41;

fn su_ring(mpi: &MpiHandle, round: usize) {
    let me = mpi.rank();
    let right = (me + 1) % SU_RANKS;
    let left = (me + SU_RANKS - 1) % SU_RANKS;
    let (data, st) = mpi.sendrecv(
        right,
        TAG_SU,
        &fill(me, round, 256),
        Src::Rank(left),
        TAG_SU,
    );
    assert_eq!(st.source, left);
    assert_eq!(&data[..], &fill(left, round, 256)[..]);
}

fn suspect_rank(mpi: &MpiHandle) -> Vec<Death> {
    let me = mpi.rank();
    // Warmup, then verified ring traffic pinned across the hang window:
    // the stall must surface as Suspect and then be re-credited Up by the
    // first inbound frame — never promoted to a death verdict.
    for round in 0..10 {
        su_ring(mpi, round);
    }
    wait_until(mpi, SU_HANG_FROM - 20);
    for round in 10..50 {
        su_ring(mpi, round);
    }
    // Post-recovery traffic so the re-credit has inbound frames to act on.
    wait_until(mpi, SU_HANG_UNTIL + 100);
    for round in 50..55 {
        su_ring(mpi, round);
    }
    for r in 0..SU_RANKS {
        assert!(mpi.is_alive(r), "rank {me}: {r} falsely declared dead");
    }
    mpi.death_log()
}

fn suspect_stack(seed: u64, pioman: bool) -> StackConfig {
    let mut stack = StackConfig::mpich2_nmad(pioman);
    stack.nm.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    let mut nodes: Vec<Vec<NodeWindow>> = vec![Vec::new(); SU_RANKS];
    nodes[SU_SLOW] = vec![NodeWindow::hang(
        micros(SU_HANG_FROM),
        micros(SU_HANG_UNTIL),
    )];
    stack
        .with_membership(MembershipConfig {
            suspect_after: 2,
            dead_after: 4,
            min_silence: SimDuration::micros(200),
            probe_interval: SimDuration::micros(25),
        })
        .with_faults(FaultPlan::with_nodes(
            seed,
            vec![FaultSpec::default()],
            Vec::new(),
            nodes,
        ))
}

fn assert_suspect_recovery(outcome: &RunOutcome, logs: &[Vec<Death>]) {
    for (r, log) in logs.iter().enumerate() {
        assert!(log.is_empty(), "rank {r} issued a death verdict: {log:?}");
    }
    let m = outcome.nm_total();
    assert_eq!(m.membership_dead_peers, 0, "stall promoted to death: {m:?}");
    // The stall was *seen*: at least one Up→Suspect and the matching
    // Suspect→Up re-credit.
    assert!(
        m.membership_transitions >= 2,
        "the stall never registered as Suspect: {m:?}"
    );
}

#[test]
fn suspect_peer_recovers_to_up() {
    let seed = 0x5A5A_0000 ^ seed_base();
    let cluster = Cluster::new(SU_RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(SU_RANKS, &cluster);
    let (outcome, logs) = run_mpi_collect(
        &cluster,
        &placement,
        &suspect_stack(seed, false),
        SU_RANKS,
        suspect_rank,
    );
    assert_suspect_recovery(&outcome, &logs);
}

#[test]
fn suspect_peer_recovers_to_up_under_background_progress() {
    // Same contract on the PIOMan path: background-progress acks must be
    // credited with arm-time awareness, so a recovered staller is never
    // charged for timeouts armed before its frames landed.
    let seed = 0x5A5A_1111 ^ seed_base();
    let cluster = Cluster::new(SU_RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(SU_RANKS, &cluster);
    let (outcome, logs) = run_mpi_collect(
        &cluster,
        &placement,
        &suspect_stack(seed, true),
        SU_RANKS,
        suspect_rank,
    );
    assert_suspect_recovery(&outcome, &logs);
}

// ---------------------------------------------------------------------
// Satellite: ANY_SOURCE wildcard across a revoke/shrink
// ---------------------------------------------------------------------

const AS_RANKS: usize = 8;
const AS_DEAD: usize = 3;
const AS_CRASH: u64 = 200;
const AS_AFTER: u64 = 210;
const TAG_WILD: u32 = 51;

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct WildReport {
    wild_src: Option<usize>,
    wild_bytes: u64,
    parked_failed_on: Option<usize>,
    leaked: usize,
}

fn wildcard_rank(mpi: &MpiHandle) -> WildReport {
    let me = mpi.rank();
    let initial: Vec<usize> = (0..AS_RANKS).collect();
    let survivors: Vec<usize> = initial.iter().copied().filter(|&r| r != AS_DEAD).collect();
    let c0 = Comm::from_members(mpi, 0, initial);
    mpi.comm_barrier(&c0);

    // The wildcard and its parked specific are posted BEFORE the crash and
    // survive revoke + shrink: user-context receives are not epoch-keyed,
    // so teardown of epoch 0 must not touch them.
    let mut posted = None;
    if me == 0 {
        let r_any = mpi.irecv(Src::Any, TAG_WILD);
        let r_spec = mpi.irecv(Src::Rank(AS_DEAD), TAG_WILD);
        posted = Some((r_any, r_spec));
    }

    if me == AS_DEAD {
        wait_until(mpi, AS_CRASH);
        mpi.crash();
        return WildReport::default();
    }

    wait_until(mpi, AS_AFTER);
    if me == 0 {
        let s = mpi.isend(AS_DEAD, TAG_CORPSE, &fill(me, 0, RDV_LEN));
        let err = mpi
            .wait_result(s)
            .expect_err("rendezvous at a corpse must fail");
        assert_eq!(err.peer, AS_DEAD);
        mpi.comm_revoke(&c0);
    }
    let c1 = mpi.comm_shrink(&c0);
    assert_eq!(c1.members(), &survivors[..]);

    // After the rebuild, a live sender completes the wildcard; the parked
    // specific from the corpse must already be (or soon be) failed with a
    // counted error — and neither may have matched any of the stale
    // epoch-0 collective frames that flew during the teardown.
    let mut rep = WildReport::default();
    if me == 1 {
        mpi.send(0, TAG_WILD, &fill(1, 7, 2048));
    }
    if me == 0 {
        let (r_any, r_spec) = posted.unwrap();
        let (data, st) = mpi.wait_data(r_any);
        let (data, st) = (data.expect("wildcard must match live data"), st.unwrap());
        assert_eq!(st.source, 1, "wildcard matched a non-live source");
        assert_eq!(&data[..], &fill(1, 7, 2048)[..], "wildcard payload corrupt");
        rep.wild_src = Some(st.source);
        rep.wild_bytes = data.len() as u64;
        let err = mpi
            .wait_result(r_spec)
            .expect_err("parked specific from the corpse must fail");
        rep.parked_failed_on = Some(err.peer);
    }
    mpi.comm_barrier(&c1);
    rep.leaked = mpi.peer_entries(AS_DEAD);
    rep
}

#[test]
fn any_source_survives_revoke_and_shrink() {
    let seed = 0xA57A_0000 ^ seed_base();
    let mut stack = StackConfig::mpich2_nmad(false);
    stack.nm.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    let mut nodes: Vec<Vec<NodeWindow>> = vec![Vec::new(); AS_RANKS];
    nodes[AS_DEAD] = vec![NodeWindow::crash(micros(AS_CRASH))];
    let stack = stack
        .with_membership(MembershipConfig {
            suspect_after: 2,
            dead_after: 4,
            min_silence: SimDuration::micros(50),
            probe_interval: SimDuration::micros(25),
        })
        .with_faults(FaultPlan::with_nodes(
            seed,
            vec![FaultSpec::default()],
            Vec::new(),
            nodes,
        ));
    let cluster = Cluster::new(AS_RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(AS_RANKS, &cluster);
    let (outcome, reports) = run_mpi_collect(&cluster, &placement, &stack, AS_RANKS, wildcard_rank);

    assert_eq!(reports[0].wild_src, Some(1));
    assert_eq!(reports[0].wild_bytes, 2048);
    assert_eq!(reports[0].parked_failed_on, Some(AS_DEAD));
    for (r, rep) in reports.iter().enumerate() {
        if r != AS_DEAD {
            assert_eq!(rep.leaked, 0, "rank {r} leaked corpse entries");
        }
    }
    let m = outcome.nm_total();
    assert!(
        m.membership_aborted_recvs > 0,
        "parked specific not counted: {m:?}"
    );
    assert!(m.revoked_epochs > 0, "{m:?}");
}
