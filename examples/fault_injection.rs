//! Seeded fault injection demo: run a full MPI job over a lossy simulated
//! network, watch the retry layer save it, and replay the exact same
//! execution from the seed.
//!
//! ```sh
//! cargo run --release --example fault_injection            # seed 42
//! cargo run --release --example fault_injection -- 1234    # pick a seed
//! ```

use mpich2_nmad_repro::sim_harness::{Scenario, Workload};
use mpich2_nmad_repro::simnet::FaultSpec;

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("seed must be a u64, got {s:?}")),
        None => 42,
    };

    let sc = Scenario::new(seed, FaultSpec::drop_heavy(), Workload::SendRecv, false);
    println!("workload: bidirectional mixed-size send/recv (eager + rendezvous)");
    println!("schedule: drop-heavy (15% drop, 5% duplication), seed {seed}\n");

    let faulty = sc.run();
    let fc = faulty.fault_counters.expect("fault plan installed");
    println!("-- run under faults ------------------------------------------");
    println!(
        "   wire transfers {:5}   dropped {:3}   duplicated {:3}",
        fc.transfers_seen, fc.dropped, fc.duplicated
    );
    println!(
        "   retransmissions {}   (eager {}, RTS {}, CTS {}, data {})",
        faulty.total_retries(),
        faulty.nm_stats.iter().map(|s| s.eager_retries).sum::<u64>(),
        faulty.nm_stats.iter().map(|s| s.rts_retries).sum::<u64>(),
        faulty.nm_stats.iter().map(|s| s.cts_retries).sum::<u64>(),
        faulty.nm_stats.iter().map(|s| s.data_retries).sum::<u64>(),
    );
    println!("   every payload byte-exact, exactly once, in order (asserted in-run)");
    println!(
        "   simulated time {:.1} µs, {} events",
        faulty.final_time_nanos as f64 / 1e3,
        faulty.events
    );

    let replay = sc.run();
    println!("\n-- replay from the same seed ---------------------------------");
    assert_eq!(faulty, replay, "replay must be bit-identical");
    println!("   bit-identical: end time, event count, all per-rank stats,");
    println!("   per-rail fabric counters, fault counters, payload hash");

    let clean = sc.run_clean();
    println!("\n-- control run, no fault plan --------------------------------");
    assert_eq!(clean.total_retries(), 0);
    assert_eq!(clean.fault_counters, None);
    println!(
        "   retransmissions 0, retry layer inert; simulated time {:.1} µs",
        clean.final_time_nanos as f64 / 1e3
    );
    println!(
        "\nfault recovery cost: {:.1} µs vs {:.1} µs clean ({:+.0}%)",
        faulty.final_time_nanos as f64 / 1e3,
        clean.final_time_nanos as f64 / 1e3,
        100.0 * (faulty.final_time_nanos as f64 / clean.final_time_nanos as f64 - 1.0)
    );
}
