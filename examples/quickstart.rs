//! Quickstart: run a two-process MPI job on the simulated cluster and
//! measure a ping-pong with the MPICH2-NewMadeleine stack.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::simnet::{Cluster, Placement};
use parking_lot::Mutex;

fn main() {
    // The paper's point-to-point testbed: two nodes, one ConnectX IB NIC
    // and one Myri-10G NIC each.
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);

    // The paper's stack: CH3 bypassing Nemesis into NewMadeleine.
    let stack = StackConfig::mpich2_nmad(false);

    let report = Arc::new(Mutex::new(String::new()));
    let r2 = Arc::clone(&report);

    run_mpi(
        &cluster,
        &placement,
        &stack,
        2,
        Arc::new(move |mpi: MpiHandle| {
            const ITERS: usize = 100;
            if mpi.rank() == 0 {
                // Warmup.
                mpi.send(1, 7, b"hello");
                mpi.recv(Src::Rank(1), 7);
                let t0 = mpi.now();
                for _ in 0..ITERS {
                    mpi.send(1, 7, b"hello");
                    let (echo, status) = mpi.recv(Src::Rank(1), 7);
                    assert_eq!(&echo[..], b"hello");
                    assert_eq!(status.source, 1);
                }
                let one_way = (mpi.now() - t0).as_micros_f64() / (2.0 * ITERS as f64);
                *r2.lock() = format!(
                    "ping-pong over simulated InfiniBand: {one_way:.2} us one-way \
                     (paper, Fig. 4a: 2.1 us)"
                );
            } else {
                mpi.recv(Src::Rank(0), 7);
                mpi.send(0, 7, b"hello");
                for _ in 0..ITERS {
                    mpi.recv(Src::Rank(0), 7);
                    mpi.send(0, 7, b"hello");
                }
            }
        }),
    );
    println!("{}", report.lock());
}
