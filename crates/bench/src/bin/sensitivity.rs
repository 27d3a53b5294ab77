//! Sensitivity analysis: do the reproduced figure *shapes* survive timing
//! noise? The deterministic NIC models get ±5 % per-transfer jitter
//! (seeded, still reproducible) and the headline comparisons are re-run.
//!
//! The claims under test are ordinal — who is faster, does multirail beat
//! the best single rail, does PIOMan overlap — so they should be robust to
//! noise far larger than real NIC variance.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Cluster, JitterModel, Placement, SimDuration, SimTime};

use bench_harness::RAIL_IB;
use mpi_ch3::stack::{run_mpi, StackConfig};
use mpi_ch3::{MpiHandle, Src};

/// The pt2pt testbed with ±`pct` jitter on both NICs.
fn jittery_cluster(pct: f64, seed: u64) -> Cluster {
    let mut c = Cluster::xeon_pair();
    for rail in &mut c.rails {
        rail.jitter = Some(JitterModel { pct, seed });
    }
    c
}

fn one_way_us(cluster: &Cluster, cfg: &StackConfig, bytes: usize, iters: usize) -> f64 {
    let placement = Placement::one_per_node(2, cluster);
    let out = Arc::new(Mutex::new(0.0));
    let o2 = Arc::clone(&out);
    run_mpi(
        cluster,
        &placement,
        cfg,
        2,
        Arc::new(move |mpi: MpiHandle| {
            let payload = vec![0u8; bytes];
            if mpi.rank() == 0 {
                mpi.send(1, 1, &payload);
                mpi.recv(Src::Rank(1), 1);
                let t0 = mpi.now();
                for _ in 0..iters {
                    mpi.send(1, 1, &payload);
                    mpi.recv(Src::Rank(1), 1);
                }
                *o2.lock() = (mpi.now() - t0).as_micros_f64() / (2 * iters) as f64;
            } else {
                mpi.recv(Src::Rank(0), 1);
                mpi.send(0, 1, &payload);
                for _ in 0..iters {
                    mpi.recv(Src::Rank(0), 1);
                    mpi.send(0, 1, &payload);
                }
            }
        }),
    );
    let v = *out.lock();
    v
}

fn multirail_bw_time(cluster: &Cluster, multirail: bool) -> f64 {
    let cfg = if multirail {
        StackConfig::mpich2_nmad(false)
    } else {
        StackConfig::mpich2_nmad_rail(RAIL_IB, false)
    };
    let placement = Placement::one_per_node(2, cluster);
    let done = Arc::new(Mutex::new(SimTime::ZERO));
    let d2 = Arc::clone(&done);
    run_mpi(
        cluster,
        &placement,
        &cfg,
        2,
        Arc::new(move |mpi: MpiHandle| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, &vec![0u8; 16 << 20]);
            } else {
                mpi.recv(Src::Rank(0), 1);
                *d2.lock() = mpi.now();
            }
        }),
    );
    let t = done.lock().as_micros_f64();
    t
}

fn main() {
    println!("## Sensitivity: headline claims under +/-5% NIC timing jitter");
    for seed in [1u64, 2, 3] {
        let c = jittery_cluster(0.05, seed);
        let mva = one_way_us(&c, &baselines::mvapich2(RAIL_IB), 4, 30);
        let omp = one_way_us(&c, &baselines::openmpi(RAIL_IB), 4, 30);
        let nmad = one_way_us(&c, &StackConfig::mpich2_nmad_rail(RAIL_IB, false), 4, 30);
        let single = multirail_bw_time(&c, false);
        let multi = multirail_bw_time(&c, true);
        let piom_gap = {
            let base = one_way_us(&c, &StackConfig::mpich2_nmad_rail(RAIL_IB, false), 4, 20);
            let piom = one_way_us(&c, &StackConfig::mpich2_nmad_rail(RAIL_IB, true), 4, 20);
            piom - base
        };
        println!("seed {seed}:");
        println!(
            "  latency: MVAPICH2 {mva:.2}us < OpenMPI {omp:.2}us < NMad {nmad:.2}us  [{}]",
            if mva < omp && omp < nmad {
                "ordering holds"
            } else {
                "ORDERING BROKE"
            }
        );
        println!(
            "  16MB: single-rail {single:.0}us vs multirail {multi:.0}us (speedup {:.2}x)  [{}]",
            single / multi,
            if multi < single {
                "multirail wins"
            } else {
                "MULTIRAIL LOST"
            }
        );
        println!(
            "  PIOMan latency overhead {piom_gap:.2}us  [{}]",
            if (1.4..3.0).contains(&piom_gap) {
                "~2us holds"
            } else {
                "DRIFTED"
            }
        );
    }
    let _ = SimDuration::ZERO;
}
