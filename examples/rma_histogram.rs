//! One-sided communication demo (the paper's future-work item): all ranks
//! accumulate partial histograms into rank 0's RMA window with
//! MPI_Accumulate semantics, then read the result back with MPI_Get —
//! no receiver-side receive calls anywhere.
//!
//! ```sh
//! cargo run --release --example rma_histogram
//! ```

use std::sync::Arc;

use mpich2_nmad_repro::mpi_ch3::collectives::bytes_to_f64s;
use mpich2_nmad_repro::mpi_ch3::rma::Window;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi, StackConfig};
use mpich2_nmad_repro::mpi_ch3::MpiHandle;
use mpich2_nmad_repro::simnet::{Cluster, Placement};
use parking_lot::Mutex;

const BINS: usize = 8;
const RANKS: usize = 6;

fn main() {
    let cluster = Cluster::grid5000_opteron();
    let placement = Placement::round_robin(RANKS, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let printed = Arc::new(Mutex::new(String::new()));
    let p2 = Arc::clone(&printed);

    run_mpi(
        &cluster,
        &placement,
        &stack,
        RANKS,
        Arc::new(move |mpi: MpiHandle| {
            let mut win = Window::create(&mpi, BINS * 8, &[]);
            // Each rank bins a deterministic pseudo-sample locally…
            let mut local = [0.0f64; BINS];
            for i in 0..1000 {
                let x = (mpi.rank() * 7919 + i * 104729) % BINS;
                local[x] += 1.0;
            }
            // …and accumulates it into rank 0's window, one-sidedly.
            win.accumulate_sum(0, 0, &local);
            win.fence(&mpi);
            // Everyone fetches the global histogram from rank 0.
            let h = win.get(0, 0, BINS * 8);
            win.fence(&mpi);
            let global = bytes_to_f64s(&win.get_result(&h));
            let total: f64 = global.iter().sum();
            assert_eq!(total as usize, 1000 * RANKS, "histogram mass conserved");
            if mpi.rank() == 0 {
                let mut s = String::from("global histogram (one-sided):\n");
                for (b, v) in global.iter().enumerate() {
                    s.push_str(&format!(
                        "  bin {b}: {v:5.0}  {}\n",
                        "#".repeat((*v / 40.0) as usize)
                    ));
                }
                *p2.lock() = s;
            }
        }),
    );
    println!("{}", printed.lock());
    println!(
        "All traffic was MPI_Put/Get/Accumulate between fences — the RMA\n\
         extension the paper leaves as future work, running over the same\n\
         NewMadeleine bypass (large puts take the rendezvous/multirail\n\
         path like any large message)."
    );
}
