//! E21: communicator-recovery latency — how long revoke, fault-tolerant
//! agreement, shrink/rebuild and the join-merge take on a 64-rank job
//! losing two nodes (one mid-agreement), in simulated time.
//!
//! Runs the `tests/recovery.rs` chaos scenario with per-phase simulated
//! timestamps on every rank and reports, per recovery step, the span from
//! the first rank entering to the last rank leaving (a collective is only
//! done when its slowest member is). Results are written to
//! `BENCH_9.json` (pass an output path as the first argument to
//! override).
//!
//! Run with `cargo run --release --example recovery_latency`.

use std::fmt::Write as _;
use std::time::Instant;

use mpich2_nmad_repro::mpi_ch3::comm::Comm;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::{Death, MembershipConfig, RetryConfig};
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
const JOIN_SEQ: u32 = 777;
const TAG_CORPSE: u32 = 31;
const RDV_LEN: usize = 64 * 1024;

fn micros(t: u64) -> SimTime {
    SimTime::ZERO + SimDuration::micros(t)
}

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

/// Per-rank simulated timestamps (ns) around each recovery step, plus
/// the death log for detection latencies.
#[derive(Default, Clone)]
struct Marks {
    revoke_at: u64,
    shrink1: Option<(u64, u64)>,
    shrink2: Option<(u64, u64)>,
    join: Option<(u64, u64)>,
    death_log: Vec<Death>,
}

fn rank_program(mpi: &MpiHandle) -> Marks {
    let me = mpi.rank();
    let initial: Vec<usize> = (0..RANKS - 1).collect();
    let mut marks = Marks::default();

    if me == JOINER {
        wait_until(mpi, T_JOIN);
        let t0 = mpi.now().as_nanos();
        let merged = mpi.comm_join(0, JOIN_SEQ);
        marks.join = Some((t0, mpi.now().as_nanos()));
        let _ = mpi.comm_allreduce_sum(&merged, &[me as f64]);
        marks.death_log = mpi.death_log();
        return marks;
    }

    let c0 = Comm::from_members(mpi, 0, initial);
    mpi.comm_barrier(&c0);
    let _ = mpi.comm_allreduce_sum(&c0, &[1.0]);

    if me == DEAD1 {
        wait_until(mpi, T_CRASH1);
        mpi.crash();
        return marks;
    }

    wait_until(mpi, T_REVOKE);
    if me == 0 {
        let s = mpi.isend(DEAD1, TAG_CORPSE, &vec![0xA5u8; RDV_LEN]);
        let _ = mpi.wait_result(s);
        mpi.comm_revoke(&c0);
        marks.revoke_at = mpi.now().as_nanos();
    }
    mpi.comm_barrier(&c0); // revoked: quiesces, never hangs

    let t0 = mpi.now().as_nanos();
    let c1 = mpi.comm_shrink(&c0);
    marks.shrink1 = Some((t0, mpi.now().as_nanos()));
    let _ = mpi.comm_allreduce_sum(&c1, &[(me + 1) as f64]);

    if me == DEAD2 {
        wait_until(mpi, T_CRASH2);
        mpi.crash();
        return marks;
    }

    wait_until(mpi, T_PHASE_C);
    let t0 = mpi.now().as_nanos();
    let c2 = mpi.comm_shrink(&c1);
    marks.shrink2 = Some((t0, mpi.now().as_nanos()));
    let _ = mpi.comm_allreduce_sum(&c2, &[(me * me) as f64]);

    wait_until(mpi, T_JOIN_SAFE);
    let t0 = mpi.now().as_nanos();
    let c3 = mpi.comm_accept(&c2, JOINER, JOIN_SEQ);
    marks.join = Some((t0, mpi.now().as_nanos()));
    let _ = mpi.comm_allreduce_sum(&c3, &[me as f64]);
    marks.death_log = mpi.death_log();
    marks
}

fn stack(seed: u64) -> StackConfig {
    let mut stack = StackConfig::mpich2_nmad(false);
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

/// First-entry → last-exit span (µs) of a step across ranks.
fn span_us(marks: &[Marks], f: impl Fn(&Marks) -> Option<(u64, u64)>) -> (f64, f64) {
    let mut start = u64::MAX;
    let mut end = 0u64;
    for m in marks {
        if let Some((s, e)) = f(m) {
            start = start.min(s);
            end = end.max(e);
        }
    }
    (start as f64 / 1_000.0, (end - start) as f64 / 1_000.0)
}

fn detection_us(marks: &[Marks], corpse: usize, crash_us: u64) -> (f64, f64, usize) {
    let lats: Vec<u64> = marks
        .iter()
        .flat_map(|m| m.death_log.iter())
        .filter(|d| d.peer == corpse)
        .map(|d| d.at.as_nanos() - crash_us * 1_000)
        .collect();
    (
        *lats.iter().min().unwrap() as f64 / 1_000.0,
        *lats.iter().max().unwrap() as f64 / 1_000.0,
        lats.len(),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_9.json".to_string());
    let seed = 0x9E10_0000u64;
    let cluster = Cluster::new(RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(RANKS, &cluster);
    let t0 = Instant::now();
    let (outcome, marks) = run_mpi_collect(&cluster, &placement, &stack(seed), RANKS, rank_program);
    let wall = t0.elapsed().as_secs_f64();

    let (d1_min, d1_max, d1_n) = detection_us(&marks, DEAD1, T_CRASH1);
    let (d2_min, d2_max, d2_n) = detection_us(&marks, DEAD2, T_CRASH2);
    let revoke_at = marks[0].revoke_at as f64 / 1_000.0;
    let (s1_at, s1_span) = span_us(&marks, |m| m.shrink1);
    let (s2_at, s2_span) = span_us(&marks, |m| m.shrink2);
    let (j_at, j_span) = span_us(&marks, |m| m.join);
    let m = outcome.nm_total();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"E21-recovery-latency\",");
    let _ = writeln!(json, "  \"ranks\": {RANKS},");
    let _ = writeln!(json, "  \"wall_clock_s\": {wall:.3},");
    let _ = writeln!(
        json,
        "  \"detection_us\": {{\n    \"corpse_{DEAD1}\": {{\"min\": {d1_min:.1}, \"max\": {d1_max:.1}, \"observers\": {d1_n}}},\n    \"corpse_{DEAD2}\": {{\"min\": {d2_min:.1}, \"max\": {d2_max:.1}, \"observers\": {d2_n}}}\n  }},"
    );
    let _ = writeln!(
        json,
        "  \"revoke\": {{\"crash_us\": {T_CRASH1}, \"committed_at_us\": {revoke_at:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"shrink1\": {{\"first_entry_us\": {s1_at:.1}, \"agree_rebuild_seal_span_us\": {s1_span:.1}, \"survivors\": 62}},"
    );
    let _ = writeln!(
        json,
        "  \"shrink2_mid_agreement_death\": {{\"first_entry_us\": {s2_at:.1}, \"agree_rebuild_seal_span_us\": {s2_span:.1}, \"survivors\": 61}},"
    );
    let _ = writeln!(
        json,
        "  \"join_merge\": {{\"first_entry_us\": {j_at:.1}, \"span_us\": {j_span:.1}, \"members\": 62}},"
    );
    let _ = writeln!(
        json,
        "  \"epoch_hygiene\": {{\"revoked_epochs\": {}, \"revoked_ops\": {}, \"stale_epoch_frames\": {}, \"dead_peer_verdicts\": {}, \"drained_entries\": {}}}",
        m.revoked_epochs,
        m.revoked_ops,
        m.membership_stale_epoch,
        m.membership_dead_peers,
        m.membership_drained_entries
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("{json}");
    println!("wrote {out_path}");
}
