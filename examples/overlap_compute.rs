//! Communication/computation overlap (the Fig. 7 experiment), plus a
//! real-OS-threads demonstration of the same idea with
//! `piom::BackgroundProgress`.
//!
//! ```sh
//! cargo run --release --example overlap_compute
//! ```

use std::sync::Arc;

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::piom::BackgroundProgress;
use mpich2_nmad_repro::simnet::{Cluster, Placement, SimDuration};
use parking_lot::Mutex;

/// isend + compute + wait, as in §4.1.2.
fn sending_time(stack: &StackConfig, bytes: usize, compute_us: u64) -> f64 {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let out = Arc::new(Mutex::new(0.0));
    let o2 = Arc::clone(&out);
    run_mpi(
        &cluster,
        &placement,
        stack,
        2,
        Arc::new(move |mpi: MpiHandle| {
            let payload = vec![1u8; bytes];
            if mpi.rank() == 0 {
                mpi.send(1, 1, &payload);
                mpi.recv(Src::Rank(1), 2);
                let t0 = mpi.now();
                let r = mpi.isend(1, 1, &payload);
                mpi.compute(SimDuration::micros(compute_us));
                mpi.wait(r);
                mpi.recv(Src::Rank(1), 2);
                *o2.lock() = (mpi.now() - t0).as_micros_f64();
            } else {
                mpi.recv(Src::Rank(0), 1);
                mpi.send(0, 2, b"ack");
                mpi.recv(Src::Rank(0), 1);
                mpi.send(0, 2, b"ack");
            }
        }),
    );
    let v = *out.lock();
    v
}

fn main() {
    println!("== simulated (Fig. 7b): 1 MB rendezvous over IB, 400 us compute ==");
    let no_comp = sending_time(&StackConfig::mpich2_nmad_rail(0, false), 1 << 20, 0);
    let plain = sending_time(&StackConfig::mpich2_nmad_rail(0, false), 1 << 20, 400);
    let piom = sending_time(&StackConfig::mpich2_nmad_rail(0, true), 1 << 20, 400);
    println!("  reference (no computation): {no_comp:7.0} us");
    println!("  without PIOMan:             {plain:7.0} us  (~= compute + comm)");
    println!("  with PIOMan:                {piom:7.0} us  (~= max(compute, comm))");

    println!("\n== real threads: a background progress core drains work while");
    println!("   the main thread 'computes' (piom::BackgroundProgress) ==");
    let queue: Arc<crossbeam::queue::SegQueue<u64>> = Arc::new(crossbeam::queue::SegQueue::new());
    let q2 = Arc::clone(&queue);
    let drained = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let d2 = Arc::clone(&drained);
    let mut bg = BackgroundProgress::spawn(std::time::Duration::ZERO, move || {
        while q2.pop().is_some() {
            d2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });
    let t0 = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..500_000u64 {
        queue.push(i);
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i); // "compute"
    }
    while drained.load(std::sync::atomic::Ordering::Relaxed) < 500_000 {
        std::thread::yield_now();
    }
    let dt = t0.elapsed();
    bg.stop();
    println!(
        "   500000 items drained concurrently in {dt:?} \
         (progress iterations: {}) [checksum {acc}]",
        bg.iterations()
    );
}
