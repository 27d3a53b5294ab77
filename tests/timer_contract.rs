//! The timer contract, end to end: a rank blocked in a PIOMan wait under
//! the retry transport keeps exactly one wake armed, at
//! `NmCore::next_deadline()`, and nothing else ticks on its behalf.
//!
//! Three properties follow and are pinned here. The event population of a
//! lossy run is *flat* in the job's length (the fixed-cadence self-wake
//! this replaced left one never-cancelled closure per loop turn, so events
//! per message grew with the number of rounds). A rank whose whole event
//! chain died with the packets still recovers, within one retransmission
//! timeout of the wire healing. And a run without the retry transport arms
//! no wake at all.

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::RetryConfig;
use mpich2_nmad_repro::sim_harness::byte;
use mpich2_nmad_repro::simnet::{
    Cluster, FaultPlan, FaultSpec, LinkWindow, Placement, SimDuration, SimTime,
};

const SEED: u64 = 2109;

fn payload(round: usize, from: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| byte(SEED ^ ((round * 2 + from) as u64), i))
        .collect()
}

/// `rounds` ping-pongs of alternating 600 B eager and 24 KiB rendezvous
/// messages, every byte checked. Returns when each rank saw its last one.
fn pingpong(mpi: &MpiHandle, rounds: usize) -> SimTime {
    let (me, peer) = (mpi.rank(), 1 - mpi.rank());
    for round in 0..rounds {
        let len = if round % 2 == 0 { 600 } else { 24 * 1024 };
        if me == 0 {
            mpi.send(peer, 1, &payload(round, me, len));
        }
        let (data, _) = mpi.recv(Src::Rank(peer), 1);
        assert_eq!(data[..], payload(round, peer, len)[..], "round {round}");
        if me == 1 {
            mpi.send(peer, 1, &payload(round, me, len));
        }
    }
    mpi.now()
}

fn run_pair(stack: &StackConfig, rounds: usize) -> (RunOutcome, Vec<SimTime>) {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    run_mpi_collect(&cluster, &placement, stack, 2, move |mpi| {
        pingpong(mpi, rounds)
    })
}

/// Closure dispatches of a run: what is left of `events` after the token
/// handoffs and the inline poll ticks.
fn calls(out: &RunOutcome) -> u64 {
    out.sim.events - out.sim.wakes - out.sim.polls
}

#[test]
fn event_population_of_a_lossy_piom_run_is_flat_in_its_length() {
    const ROUNDS: usize = 150;
    let lossy = FaultSpec {
        drop_pct: 0.01,
        ..FaultSpec::default()
    };
    let per_message = |rounds: usize| {
        let stack = StackConfig::mpich2_nmad(true).with_faults(FaultPlan::uniform(SEED, lossy));
        let (out, _) = run_pair(&stack, rounds);
        let retries: u64 = out.nm_stats.iter().map(|s| s.total_retries()).sum();
        assert!(
            retries > 0,
            "a 1 % drop rate over {rounds} rounds costs a replay"
        );
        let messages = 2.0 * rounds as f64;
        (
            out.sim.events as f64 / messages,
            calls(&out) as f64 / messages,
        )
    };
    let (events_short, calls_short) = per_message(ROUNDS);
    let (events_long, calls_long) = per_message(4 * ROUNDS);
    println!("events/message {events_short:.1} -> {events_long:.1}, calls/message {calls_short:.1} -> {calls_long:.1}");
    let ratio = events_long / events_short;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "events per message moved with the job's length: {events_short:.1} at {ROUNDS} rounds, \
         {events_long:.1} at {}",
        4 * ROUNDS
    );
    assert!(calls_short <= 80.0 && calls_long <= 80.0);
}

#[test]
fn a_dead_event_chain_recovers_within_one_timeout_of_the_heal() {
    // The only rail is hard down from 300 us for 2 ms: every packet in
    // that window is eaten, so no arrival and no NIC event kicks anybody.
    // Both ranks sit in `wait` with their armed wake (and, behind it,
    // PIOMan's stall watchdog on its own 80 us cadence). What tells the
    // two apart is *when* the exchange resumes: the replay that gets
    // through leaves at the engine's deadline, not at anyone's next tick.
    let rc = RetryConfig::default();
    let down_at = SimTime::ZERO + SimDuration::micros(300);
    let outage = SimDuration::millis(2);
    let heal = down_at + outage;
    let plan = FaultPlan::with_links(
        SEED,
        vec![FaultSpec::default()],
        vec![vec![LinkWindow::down(down_at, outage)]],
    );
    let stack = StackConfig::mpich2_nmad_rail(0, true).with_faults(plan);
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let (out, resumed) = run_mpi_collect(&cluster, &placement, &stack, 2, move |mpi| {
        let (me, peer) = (mpi.rank(), 1 - mpi.rank());
        // Traffic up to the outage, then one exchange posted inside it.
        let before = pingpong(mpi, 8);
        assert!(
            before < down_at,
            "warm-up ran into the outage at {before:?}"
        );
        mpi.compute(down_at + SimDuration::micros(20) - mpi.now());
        let recv = mpi.irecv(Src::Rank(peer), 2);
        let send = mpi.isend(peer, 2, &payload(99, me, 3000));
        let posted = mpi.now();
        let (data, _) = mpi.wait_data(recv);
        assert_eq!(data.unwrap()[..], payload(99, peer, 3000)[..]);
        mpi.wait(send);
        (posted, mpi.now())
    });
    let lost = out.fault_counters.expect("the plan counts").link_drops;
    assert!(
        lost >= 2,
        "both sends went into the dead link ({lost} eaten)"
    );
    for (rank, &(posted, at)) in resumed.iter().enumerate() {
        assert!(
            at >= heal,
            "rank {rank} finished at {at:?}, inside the outage"
        );
        let gap = at - heal;
        assert!(
            gap <= rc.max_timeout,
            "rank {rank} resumed {gap:?} after the heal (max_timeout {:?})",
            rc.max_timeout
        );
        // The back-off ladder from the first transmission to the first
        // replay past the heal: 80, 160, 320, 640, 1000 us.
        let mut timeout = rc.timeout;
        let mut replay = posted + timeout;
        while replay < heal {
            let doubled = timeout.as_nanos() * rc.backoff as u64;
            timeout = SimDuration::nanos(doubled.min(rc.max_timeout.as_nanos()));
            replay += timeout;
        }
        println!("rank {rank}: posted {posted:?}, replay due {replay:?}, resumed {at:?}");
        assert!(
            at <= replay + SimDuration::micros(10),
            "rank {rank} resumed at {at:?}, not at the {replay:?} deadline"
        );
    }
}

#[test]
fn without_the_retry_transport_a_piom_wait_arms_no_wake() {
    const ROUNDS: usize = 100;
    let stack = StackConfig::mpich2_nmad(true).with_fabric_seed(SEED);
    assert!(stack.nm.retry.is_none());
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let (out, armed) = run_mpi_collect(&cluster, &placement, &stack, 2, |mpi| {
        let (me, peer) = (mpi.rank(), 1 - mpi.rank());
        let mut armed = 0;
        for round in 0..ROUNDS {
            let recv = mpi.irecv(Src::Rank(peer), 1);
            let send = mpi.isend(peer, 1, &payload(round, me, 24 * 1024));
            armed += mpi.net_deadline().is_some() as u32;
            mpi.wait(recv);
            armed += mpi.net_deadline().is_some() as u32;
            mpi.wait(send);
        }
        armed
    });
    assert_eq!(armed, [0, 0], "next_deadline() was Some with retry off");
    // The commit before this contract existed counts the same: the clean
    // path never armed a wake and still does not.
    assert_eq!(
        (out.sim.events, calls(&out), out.sim.wakes),
        PARENT_CLEAN_RUN,
        "(events, calls, wakes)"
    );
}

/// `(events, calls, wakes)` of the run above at the parent commit.
const PARENT_CLEAN_RUN: (u64, u64, u64) = (3_000, 2_398, 602);
