//! The timer contract, end to end: under the retry transport PIOMan keeps
//! exactly one ltask pass armed, at `NmCore::next_deadline()`, and nothing
//! else ticks on anybody's behalf — not the blocked rank, not a
//! fixed-cadence supervisor.
//!
//! The properties that follow are pinned here. The event population of a
//! lossy run is *flat* in the job's length (the fixed-cadence self-wake
//! this replaced left one never-cancelled closure per loop turn, so events
//! per message grew with the number of rounds). A rank whose whole event
//! chain died with the packets still recovers, within one retransmission
//! timeout of the wire healing — and sleeps through the outage: a longer
//! one costs replays, not ticks or wakes. A rank that has *returned* keeps
//! retransmitting at the engine's deadlines. The netmod tunnel's core has
//! the same deadline as the bypass's. And a run without the retry
//! transport arms nothing at all.

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::RetryConfig;
use mpich2_nmad_repro::piom::PiomConfig;
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

/// When the only rail goes hard down in the outage scenarios below.
const DOWN_AT: SimTime = SimTime(300_000);

/// The PIOMan bypass stack on one rail that is hard down from [`DOWN_AT`]
/// for `outage`: every packet in that window is eaten.
fn stack_with_outage(outage: SimDuration) -> StackConfig {
    let plan = FaultPlan::with_links(
        SEED,
        vec![FaultSpec::default()],
        vec![vec![LinkWindow::down(DOWN_AT, outage)]],
    );
    StackConfig::mpich2_nmad_rail(0, true).with_faults(plan)
}

/// The instant of the first replay at or past `heal` of a packet first
/// transmitted at `posted`: the back-off ladder 80, 160, 320, 640, 1000 us.
fn first_replay_past(posted: SimTime, heal: SimTime) -> SimTime {
    let rc = RetryConfig::default();
    let mut timeout = rc.timeout;
    let mut replay = posted + timeout;
    while replay < heal {
        let doubled = timeout.as_nanos() * rc.backoff as u64;
        timeout = SimDuration::nanos(doubled.min(rc.max_timeout.as_nanos()));
        replay += timeout;
    }
    replay
}

/// Warm-up traffic, then one 3000 B exchange posted 20 us into an outage
/// of the given length. Per rank: when it posted and when it had both
/// completions.
fn exchange_into_an_outage(outage: SimDuration) -> (RunOutcome, Vec<(SimTime, SimTime)>) {
    let stack = stack_with_outage(outage);
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    run_mpi_collect(&cluster, &placement, &stack, 2, move |mpi| {
        let (me, peer) = (mpi.rank(), 1 - mpi.rank());
        // Traffic up to the outage, then one exchange posted inside it.
        let before = pingpong(mpi, 8);
        assert!(
            before < DOWN_AT,
            "warm-up ran into the outage at {before:?}"
        );
        mpi.compute(DOWN_AT + SimDuration::micros(20) - mpi.now());
        let recv = mpi.irecv(Src::Rank(peer), 2);
        let send = mpi.isend(peer, 2, &payload(99, me, 3000));
        let posted = mpi.now();
        let (data, _) = mpi.wait_data(recv);
        assert_eq!(data.unwrap()[..], payload(99, peer, 3000)[..]);
        mpi.wait(send);
        (posted, mpi.now())
    })
}

#[test]
fn a_dead_event_chain_recovers_within_one_timeout_of_the_heal() {
    // The only rail is hard down from 300 us for 2 ms: every packet in
    // that window is eaten, so no arrival and no NIC event kicks anybody.
    // Both ranks sit in `wait` and only PIOMan's one timed pass runs. What
    // tells that apart from a supervisor on a cadence is *when* the
    // exchange resumes: the replay that gets through leaves at the
    // engine's deadline, not at anyone's next tick.
    let rc = RetryConfig::default();
    let outage = SimDuration::millis(2);
    let heal = DOWN_AT + outage;
    let (out, resumed) = exchange_into_an_outage(outage);
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
        let replay = first_replay_past(posted, heal);
        println!("rank {rank}: posted {posted:?}, replay due {replay:?}, resumed {at:?}");
        assert!(
            at <= replay + SimDuration::micros(10),
            "rank {rank} resumed at {at:?}, not at the {replay:?} deadline"
        );
    }
}

#[test]
fn an_outage_costs_replays_not_ticks() {
    // Both ranks are parked for the whole outage. What a longer one adds
    // is the ladder's extra rungs — a timed pass and the replay it puts
    // on the wire, per rank per millisecond once the back-off saturates —
    // and not one rank wake: a pass that completes nothing signals nobody.
    let population = |millis: u64| {
        let (out, _) = exchange_into_an_outage(SimDuration::millis(millis));
        println!(
            "{millis} ms outage: {} events, {} wakes, {} re-kicks",
            out.sim.events, out.sim.wakes, out.piom_rekicks
        );
        (out.sim.events, out.sim.wakes)
    };
    let (events_2, wakes_2) = population(2);
    let (events_4, wakes_4) = population(4);
    let (events_8, wakes_8) = population(8);
    // Two ranks, <= 12 events each per extra 2 ms.
    assert!(
        events_4 <= events_2 + 2 * 12 && events_8 <= events_4 + 2 * 2 * 12,
        "events grew faster than the replay ladder: {events_2} / {events_4} / {events_8}"
    );
    assert_eq!(
        (wakes_4, wakes_8),
        (wakes_2, wakes_2),
        "a rank was woken inside the outage"
    );
}

#[test]
fn a_rank_that_returned_still_retransmits_at_the_engines_deadline() {
    // Rank 0 sends one eager message 20 us into a 200 us outage and
    // returns: its program has no `wait` left to arm anything from. The
    // bytes still arrive, with the first replay past the heal — PIOMan's
    // pass re-arms itself from the engine's deadline, rank or no rank.
    let outage = SimDuration::micros(200);
    let heal = DOWN_AT + outage;
    let stack = stack_with_outage(outage);
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let (out, at) = run_mpi_collect(&cluster, &placement, &stack, 2, move |mpi| {
        if mpi.rank() == 0 {
            mpi.compute(DOWN_AT + SimDuration::micros(20) - mpi.now());
            mpi.send(1, 3, &payload(7, 0, 600));
        } else {
            let (data, _) = mpi.recv(Src::Rank(0), 3);
            assert_eq!(data[..], payload(7, 0, 600)[..]);
        }
        mpi.now()
    });
    let (posted, received) = (at[0], at[1]);
    assert!(posted < heal, "the send missed the outage: {posted:?}");
    let lost = out.fault_counters.expect("the plan counts").link_drops;
    assert!(lost >= 1, "the send went into the dead link ({lost} eaten)");
    let replay = first_replay_past(posted, heal);
    println!("posted {posted:?}, replay due {replay:?}, received {received:?}");
    assert!(
        received >= heal && received <= replay + SimDuration::micros(10),
        "received at {received:?}, not at the {replay:?} deadline"
    );
}

#[test]
fn the_netmod_tunnel_under_piom_survives_loss() {
    // The tunnel's NewMadeleine core keeps retry timers like the bypass's
    // and PIOMan must hear its deadline too: with `net_deadline()`
    // answering `None` for the CH3 path, a drop that kills the kick chain
    // parks both ranks forever.
    let lossy = FaultSpec {
        drop_pct: 0.02,
        ..FaultSpec::default()
    };
    let mut stack = StackConfig::mpich2_nmad_netmod(0).with_faults(FaultPlan::uniform(SEED, lossy));
    stack.pioman = Some(PiomConfig::default());
    let (out, _) = run_pair(&stack, 200);
    let retries: u64 = out.nm_stats.iter().map(|s| s.total_retries()).sum();
    assert!(
        retries > 0,
        "a 2 % drop rate over 200 rounds costs a replay"
    );
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
