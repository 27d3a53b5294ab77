//! E22: record the multi-producer injection trajectory (`BENCH_10.json`).
//!
//! ```sh
//! cargo run --release -p bench-harness --bin threaded_injection            # print
//! cargo run --release -p bench-harness --bin threaded_injection -- BENCH_10.json
//! ```
//!
//! With a path argument the JSON is also written there (the checked-in
//! record, EXPERIMENTS.md E22).

use bench_harness::threaded_injection::{injection_sweep, render_bench10_json};

fn main() {
    let total_msgs: u64 = std::env::var("INJECTION_MSGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48_000);
    let reps: usize = std::env::var("INJECTION_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    eprintln!("measuring injection trajectory ({total_msgs} msgs/point, best of {reps})...");
    let points = injection_sweep(total_msgs, reps);
    for p in &points {
        eprintln!(
            "  {:>2} producers: {:>9.0} msgs/s  p50 {:>7} ns  p99 {:>8} ns",
            p.producers, p.msgs_per_sec, p.p50_ns, p.p99_ns
        );
    }
    let doc = render_bench10_json(&points);
    print!("{doc}");
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &doc).expect("failed to write trajectory");
        eprintln!("wrote {path}");
    }
}
