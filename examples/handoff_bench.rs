//! Pure engine token-handoff throughput: K ranks round-robin through
//! `advance`, so every event is a wake. Reports wakes/sec per rank count —
//! the floor on what any simulated workload can hit — and the thread
//! switches those wakes cost (at K = 1 the rank's own wakes cost none).
//!
//! `cargo run --release --example handoff_bench [rank-counts]`

use std::time::Instant;

use mpich2_nmad_repro::simnet::{SimBuilder, SimDuration};

fn main() {
    let counts: Vec<usize> = std::env::args()
        .nth(1)
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![1, 2, 64, 256, 1024]);
    const TOTAL: usize = 200_000;
    for k in counts {
        let mut sim = SimBuilder::new().build();
        let per = TOTAL / k;
        for r in 0..k {
            sim.spawn_rank(format!("r{r}"), move |ctx| {
                for _ in 0..per {
                    ctx.advance(SimDuration::nanos(100));
                }
            });
        }
        let t0 = Instant::now();
        let out = sim.run().unwrap();
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "ranks {k:>5}: {:>8} wakes, {:>8} switches in {dt:.2}s = {:>8.0} wakes/s ({:.2} us/wake)",
            out.wakes,
            out.switches,
            out.wakes as f64 / dt,
            dt * 1e6 / out.wakes as f64
        );
    }
}
