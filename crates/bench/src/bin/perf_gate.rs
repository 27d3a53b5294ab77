//! CI perf-regression gate over the checked-in BENCH_10.json trajectory
//! (E22, threaded injection).
//!
//! ```sh
//! cargo run --release -p bench-harness --bin perf_gate
//! ```
//!
//! Re-measures every recorded point on the current build and FAILS
//! (exit 1) if any point's throughput regressed by more than
//! [`TOLERANCE`] against the checked-in trajectory, or if the widest
//! point's p99 exceeds 5× the single-producer p99 (the latency acceptance
//! bound at constant offered load).
//!
//! The recorded baseline was taken on the CI container class; for a known
//! hardware change, re-record it with the `threaded_injection` binary.

use bench_harness::threaded_injection::{json_numbers, measure_point};

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf gate: cannot read {path}: {e} (baseline missing?)"))
}

/// Allowed throughput loss against the baseline. Shared CI runners are
/// noisier than the recording host; the gate still trips on real
/// regressions an order beyond this.
const TOLERANCE: f64 = 0.15;

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
    println!("perf gate: E22 threaded injection (tolerance {:.0}%)", TOLERANCE * 100.0);
    let mut fresh_points = Vec::new();
    for (i, (&p, &base_rate)) in producers.iter().zip(&msgs_per_sec).enumerate() {
        let total = total_msgs.get(i).copied().unwrap_or(48_000.0) as u64;
        let fresh = measure_point(p as usize, total, 3);
        let ratio = fresh.msgs_per_sec / base_rate;
        let verdict = if ratio >= 1.0 - TOLERANCE { "ok" } else { "REGRESSED" };
        println!(
            "  {:>2} producers: {:>9.0} msgs/s vs baseline {:>9.0} ({:+.1}%) [{verdict}]  p99 {} ns",
            p,
            fresh.msgs_per_sec,
            base_rate,
            (ratio - 1.0) * 100.0,
            fresh.p99_ns,
        );
        if ratio < 1.0 - TOLERANCE {
            failures.push(format!(
                "{} producers: throughput {:.0} msgs/s is {:.1}% below the recorded {:.0}",
                p,
                fresh.msgs_per_sec,
                (1.0 - ratio) * 100.0,
                base_rate
            ));
        }
        fresh_points.push(fresh);
    }
    // Latency acceptance at constant offered load: the widest point's p99
    // must stay within 5x of the single-producer p99.
    if let (Some(base), Some(wide)) = (fresh_points.first(), fresh_points.last()) {
        let p99_ratio = wide.p99_ns as f64 / base.p99_ns.max(1) as f64;
        println!(
            "  p99 {}p/{}p = {:.2}x (bound 5x)",
            wide.producers, base.producers, p99_ratio
        );
        if p99_ratio > 5.0 {
            failures.push(format!(
                "p99 blew the 5x bound: {} ns at {} producers vs {} ns at {}",
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
