//! Deterministic multirail failover and recovery acceptance tests.
//!
//! A two-rank job on the paper's two-rail Xeon pair (ConnectX IB +
//! Myri-10G) exchanges large rendezvous rounds while a scheduled
//! [`LinkWindow`] kills one rail mid-run. The rail-health state machine
//! must demote the dead rail, reroute its in-flight chunks via the retry
//! layer, and keep the job flowing over the survivor at a sustained rate
//! comparable to a single-rail healthy run. When the window closes, the
//! probing machinery must re-admit the revived rail and the split
//! strategy must start using it again. All of it replays bit-for-bit
//! from the master seed.

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::core::NmStats;
use mpich2_nmad_repro::simnet::{
    Cluster, FaultCounters, FaultPlan, FaultSpec, LinkWindow, Placement, SimDuration, SimTime,
};

/// One round moves this many bytes in each direction (rendezvous path,
/// split across both rails while both are healthy).
const LEN: usize = 256 * 1024;
const TAG: u32 = 7;
const SEED: u64 = 0xFA11_0E55;

/// Deterministic payload: a cheap LCG keyed by (rank, round).
fn fill(rank: usize, round: usize) -> Vec<u8> {
    let mut x =
        SEED ^ ((rank as u64 + 1) << 32) ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..LEN)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// Bidirectional large-message rounds; returns the simulated completion
/// time of each round (nanoseconds). Payloads are verified byte-exact, so
/// a run that returns has already proven every message survived the kill.
fn rounds_rank(mpi: &MpiHandle, rounds: usize) -> Vec<u64> {
    let me = mpi.rank();
    let peer = 1 - me;
    let mut marks = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let r = mpi.irecv(Src::Rank(peer), TAG);
        let s = mpi.isend(peer, TAG, &fill(me, round));
        let (data, _) = mpi.wait_data(r);
        let data = data.expect("receive carries data");
        assert_eq!(
            &data[..],
            &fill(peer, round)[..],
            "round {round} payload corrupt after failover"
        );
        mpi.wait(s);
        marks.push(mpi.now().as_nanos());
    }
    marks
}

/// Run the two-rank round exchange under `stack`; returns the outcome and
/// rank 0's per-round completion times (both ranks progress in lockstep).
fn run_rounds(stack: &StackConfig, rounds: usize) -> (RunOutcome, Vec<u64>) {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let (outcome, mut marks) = run_mpi_collect(&cluster, &placement, stack, 2, move |mpi| {
        rounds_rank(mpi, rounds)
    });
    (outcome, marks.swap_remove(0))
}

/// Everything a replay must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct Observables {
    final_time: SimTime,
    events: u64,
    nm_stats: Vec<NmStats>,
    rail_counters: Vec<(u64, u64)>,
    fault_counters: Option<FaultCounters>,
    marks: Vec<u64>,
}

fn observe(outcome: &RunOutcome, marks: &[u64]) -> Observables {
    Observables {
        final_time: outcome.sim.final_time,
        events: outcome.sim.events,
        nm_stats: outcome.nm_stats.clone(),
        rail_counters: outcome.rail_counters.clone(),
        fault_counters: outcome.fault_counters,
        marks: marks.to_vec(),
    }
}

/// Scheduled kill of rail 1 at `at` for `duration`; no probabilistic
/// faults, so every observed retry/transition is attributable to the
/// scheduled window alone.
fn kill_rail1(at: SimDuration, duration: SimDuration) -> StackConfig {
    StackConfig::mpich2_nmad(false).with_faults(FaultPlan::with_links(
        SEED,
        vec![FaultSpec::default(), FaultSpec::default()],
        vec![vec![], vec![LinkWindow::down(SimTime::ZERO + at, duration)]],
    ))
}

/// Mean bytes-per-nanosecond over the rounds completing in `window` of
/// the marks (both directions count: 2·LEN per round).
fn bandwidth(marks: &[u64], from_round: usize, to_round: usize) -> f64 {
    let elapsed = (marks[to_round - 1] - marks[from_round - 1]) as f64;
    ((to_round - from_round) * 2 * LEN) as f64 / elapsed
}

const ROUNDS: usize = 20;
/// Rail 1 dies while round 3-ish is in flight (calibrated against the
/// healthy per-round time printed by the tests under `--nocapture`).
const KILL_AT: SimDuration = SimDuration::micros(700);

#[test]
fn rail_death_mid_run_reroutes_and_sustains_bandwidth() {
    // Healthy single-rail baseline: the survivor (rail 0) alone.
    let single = StackConfig::mpich2_nmad_rail(0, false).with_fabric_seed(SEED);
    let (_, base_marks) = run_rounds(&single, ROUNDS);
    let base_bw = bandwidth(&base_marks, ROUNDS - 4, ROUNDS);

    // Kill rail 1 mid-run and never bring it back.
    let (outcome, marks) = run_rounds(&kill_rail1(KILL_AT, SimDuration::secs(3600)), ROUNDS);
    println!("healthy single-rail marks (ns): {base_marks:?}");
    println!("failover marks (ns):            {marks:?}");

    // The kill actually landed mid-run: some rounds completed before it.
    assert!(
        marks[1] < KILL_AT.as_nanos() && *marks.last().unwrap() > KILL_AT.as_nanos(),
        "kill at {KILL_AT:?} did not land mid-run: {marks:?}"
    );

    // The health machine demoted the rail and rerouted its chunks.
    let nm = outcome.nm_total();
    let transitions = nm.rail_transitions;
    assert!(transitions >= 2, "no rail demotion recorded: {transitions}");
    assert!(nm.rerouted_bytes > 0, "no bytes rerouted off the dead rail");
    assert!(nm.degraded_nanos > 0, "no degraded time accumulated");
    assert!(
        nm.total_retries() > 0,
        "failover without a single retransmission"
    );

    // Sustained post-failure bandwidth on the survivor: ≥ 80% of the
    // healthy single-rail run (the last rounds are pure survivor traffic).
    let post_bw = bandwidth(&marks, ROUNDS - 4, ROUNDS);
    println!(
        "single-rail healthy {:.3} B/ns, post-failure {:.3} B/ns",
        base_bw, post_bw
    );
    assert!(
        post_bw >= 0.8 * base_bw,
        "degraded-mode bandwidth collapsed: {post_bw:.3} B/ns vs healthy single-rail {base_bw:.3} B/ns"
    );

    // Replay identity: every counter and timestamp, bit for bit. The
    // fault plan's injection counters live in the plan, so the replay
    // builds a fresh one from the same seed.
    let (outcome2, marks2) = run_rounds(&kill_rail1(KILL_AT, SimDuration::secs(3600)), ROUNDS);
    assert_eq!(
        observe(&outcome, &marks),
        observe(&outcome2, &marks2),
        "failover run did not replay bit-identically"
    );
}

#[test]
fn revived_rail_is_readmitted_and_split_returns() {
    const LONG: usize = 24;
    // Down long enough for the hysteresis to demote the rail all the way
    // to `Down` (four blamed timeouts at ~400 µs per stalled round), then
    // the recovery probes must re-admit it.
    let down_for = SimDuration::millis(2);
    let (outcome, marks) = run_rounds(&kill_rail1(KILL_AT, down_for), LONG);
    println!("recovery marks (ns): {marks:?}");

    // Traffic continued well past the window's close.
    let reopen = (KILL_AT + down_for).as_nanos();
    assert!(
        *marks.last().unwrap() > reopen + 500_000,
        "job too short to observe recovery"
    );

    // Full cycle: Up → Suspect → Down → Probing → Up is four transitions.
    let nm = outcome.nm_total();
    let (transitions, probes, acks) = (nm.rail_transitions, nm.probes_sent, nm.probe_acks);
    assert!(
        transitions >= 4,
        "revived rail never walked the full state cycle: {transitions} transitions"
    );
    assert!(probes > 0, "no probes sent while the rail was down");
    assert!(
        acks >= 2,
        "re-admission requires probe acks (got {acks} of {probes} probes)"
    );
    assert!(nm.degraded_nanos > 0, "no degraded time accumulated");

    // The revived rail carries real payload again: its byte total must
    // clearly exceed what a never-recovered run leaves on it.
    let (kill_outcome, _) = run_rounds(&kill_rail1(KILL_AT, SimDuration::secs(3600)), LONG);
    let revived_bytes = outcome.rail_counters[1].1;
    let dead_bytes = kill_outcome.rail_counters[1].1;
    println!("rail 1 bytes: revived {revived_bytes}, never-revived {dead_bytes}");
    assert!(
        revived_bytes > dead_bytes + (LEN as u64),
        "revived rail carries no new payload: {revived_bytes} vs {dead_bytes}"
    );

    // Healthy-ratio check: after recovery the split strategy hands rail 1
    // a healthy share again — at least a quarter of what an always-healthy
    // run gives it over the same workload.
    let healthy = StackConfig::mpich2_nmad(false).with_fabric_seed(SEED);
    let (healthy_outcome, _) = run_rounds(&healthy, LONG);
    let healthy_bytes = healthy_outcome.rail_counters[1].1;
    println!("rail 1 bytes healthy run: {healthy_bytes}");
    assert!(
        revived_bytes * 4 > healthy_bytes,
        "post-recovery split never returned to rail 1: {revived_bytes} vs healthy {healthy_bytes}"
    );

    // Recovery replays bit-identically too (fresh plan, same seed).
    let (outcome2, marks2) = run_rounds(&kill_rail1(KILL_AT, down_for), LONG);
    assert_eq!(
        observe(&outcome, &marks),
        observe(&outcome2, &marks2),
        "recovery run did not replay bit-identically"
    );
}
