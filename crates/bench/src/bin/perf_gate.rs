//! CI perf gate over the E22 threaded-injection sweep: the *shape* of the
//! trajectory, re-measured on whatever host runs it.
//!
//! ```sh
//! cargo run --release -p bench-harness --bin perf_gate
//! ```
//!
//! Re-measures every point of the checked-in BENCH_10.json on the current
//! build and FAILS (exit 1) if the widest point's throughput falls below
//! [`MIN_WIDE_THROUGHPUT`] of the single-producer point's, or its p99
//! exceeds [`MAX_WIDE_P99`] times the single-producer p99 (the latency
//! acceptance bound at constant offered load). Both are ratios of two
//! measurements taken minutes apart on the same machine, so a slower or
//! shared runner moves neither.
//!
//! The recorded msgs/s are printed next to the fresh ones for the log and
//! compared with nothing: they are another host's numbers. A gate on them
//! was red on every host but the recording one, at every commit alike.

use bench_harness::threaded_injection::{json_numbers, measure_point};

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf gate: cannot read {path}: {e} (baseline missing?)"))
}

/// Contention resilience: sixteen producers on one consumer must keep at
/// least this share of the single-producer rate (BENCH_10 recorded 0.68).
const MIN_WIDE_THROUGHPUT: f64 = 0.5;

/// The widest point's p99 over the single-producer p99 (recorded: 2.5).
const MAX_WIDE_P99: f64 = 5.0;

fn main() {
    let mut failures: Vec<String> = Vec::new();

    let baseline = read("BENCH_10.json");
    let producers = json_numbers(&baseline, "producers");
    let msgs_per_sec = json_numbers(&baseline, "msgs_per_sec");
    let total_msgs = json_numbers(&baseline, "total_msgs");
    assert!(
        !producers.is_empty() && producers.len() == msgs_per_sec.len(),
        "BENCH_10.json trajectory is malformed"
    );
    println!("perf gate: E22 threaded injection, trajectory shape on this host");
    let mut fresh_points = Vec::new();
    for (i, (&p, &recorded)) in producers.iter().zip(&msgs_per_sec).enumerate() {
        let total = total_msgs.get(i).copied().unwrap_or(48_000.0) as u64;
        let fresh = measure_point(p as usize, total, 3);
        println!(
            "  {:>2} producers: {:>9.0} msgs/s  p99 {} ns  (BENCH_10's host: {:.0} msgs/s)",
            p, fresh.msgs_per_sec, fresh.p99_ns, recorded,
        );
        fresh_points.push(fresh);
    }
    if let (Some(base), Some(wide)) = (fresh_points.first(), fresh_points.last()) {
        let rate_ratio = wide.msgs_per_sec / base.msgs_per_sec;
        let p99_ratio = wide.p99_ns as f64 / base.p99_ns.max(1) as f64;
        println!(
            "  {}p/{}p: throughput {rate_ratio:.2}x (bound >= {MIN_WIDE_THROUGHPUT}x), \
             p99 {p99_ratio:.2}x (bound <= {MAX_WIDE_P99}x)",
            wide.producers, base.producers
        );
        if rate_ratio < MIN_WIDE_THROUGHPUT {
            failures.push(format!(
                "throughput collapsed under contention: {:.0} msgs/s at {} producers vs {:.0} at {}",
                wide.msgs_per_sec, wide.producers, base.msgs_per_sec, base.producers
            ));
        }
        if p99_ratio > MAX_WIDE_P99 {
            failures.push(format!(
                "p99 blew the {MAX_WIDE_P99}x bound: {} ns at {} producers vs {} ns at {}",
                wide.p99_ns, wide.producers, base.p99_ns, base.producers
            ));
        }
    }

    if failures.is_empty() {
        println!("perf gate: PASS");
    } else {
        for f in &failures {
            eprintln!("perf gate: FAIL — {f}");
        }
        std::process::exit(1);
    }
}
