//! E15: degraded-mode multirail failover bandwidth.
//!
//! Runs the two-rank large-message round exchange on the two-rail Xeon
//! pair under four conditions — both rails healthy, survivor rail alone,
//! rail 1 killed mid-run forever, rail 1 killed then revived — and prints
//! a per-phase bandwidth table plus the rail-health counters.
//!
//! ```text
//! cargo run --release --example rail_failover
//! ```

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::simnet::{
    Cluster, FaultPlan, FaultSpec, LinkWindow, Placement, SimDuration, SimTime,
};

const LEN: usize = 256 * 1024;
const ROUNDS: usize = 24;
const TAG: u32 = 7;
const SEED: u64 = 0xFA11_0E55;
const KILL_AT: SimDuration = SimDuration::micros(700);

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

fn rounds_rank(mpi: &MpiHandle) -> Vec<u64> {
    let me = mpi.rank();
    let peer = 1 - me;
    let mut marks = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let r = mpi.irecv(Src::Rank(peer), TAG);
        let s = mpi.isend(peer, TAG, &fill(me, round));
        let (data, _) = mpi.wait_data(r);
        assert_eq!(&data.unwrap()[..], &fill(peer, round)[..]);
        mpi.wait(s);
        marks.push(mpi.now().as_nanos());
    }
    marks
}

fn run(stack: &StackConfig) -> (RunOutcome, Vec<u64>) {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let (outcome, mut marks) = run_mpi_collect(&cluster, &placement, stack, 2, rounds_rank);
    (outcome, marks.swap_remove(0))
}

fn kill_rail1(duration: SimDuration) -> StackConfig {
    StackConfig::mpich2_nmad(false).with_faults(FaultPlan::with_links(
        SEED,
        vec![FaultSpec::default(), FaultSpec::default()],
        vec![
            vec![],
            vec![LinkWindow::down(SimTime::ZERO + KILL_AT, duration)],
        ],
    ))
}

/// MB/s over rounds [from, to) of the marks; 2·LEN bytes per round.
fn bw(marks: &[u64], from: usize, to: usize) -> f64 {
    let t0 = if from == 0 { 0 } else { marks[from - 1] };
    let dt = (marks[to - 1] - t0) as f64 / 1e9;
    ((to - from) * 2 * LEN) as f64 / 1e6 / dt
}

fn report(name: &str, outcome: &RunOutcome, marks: &[u64]) {
    let nm = outcome.nm_total();
    println!("== {name}");
    println!(
        "   rounds 0-4 {:7.1} MB/s | mid {:7.1} MB/s | last 4 {:7.1} MB/s",
        bw(marks, 0, 4),
        bw(marks, ROUNDS / 2 - 2, ROUNDS / 2 + 2),
        bw(marks, ROUNDS - 4, ROUNDS),
    );
    println!(
        "   transitions {} rerouted {} B degraded {} ns probes sent {} acked {} retries {}",
        nm.rail_transitions,
        nm.rerouted_bytes,
        nm.degraded_nanos,
        nm.probes_sent,
        nm.probe_acks,
        nm.total_retries()
    );
    println!(
        "   retry breakdown: eager {} rts {} cts {} data {} fin-replays {}",
        nm.eager_retries, nm.rts_retries, nm.cts_retries, nm.data_retries, nm.dup_data,
    );
    println!(
        "   rail bytes: {:?}  marks: {:?}",
        outcome.rail_counters, marks
    );
}

fn main() {
    let (o, m) = run(&StackConfig::mpich2_nmad(false).with_fabric_seed(SEED));
    report("healthy two-rail", &o, &m);

    let (o, m) = run(&StackConfig::mpich2_nmad_rail(0, false).with_fabric_seed(SEED));
    report("healthy single-rail (survivor alone)", &o, &m);

    let (o, m) = run(&kill_rail1(SimDuration::secs(3600)));
    report("rail 1 killed at 700us, never revived", &o, &m);

    let (o, m) = run(&kill_rail1(SimDuration::millis(2)));
    report("rail 1 killed at 700us, revived at 2.7ms", &o, &m);
}
