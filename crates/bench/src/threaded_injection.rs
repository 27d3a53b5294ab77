//! E22: multi-producer injection-rate measurement for the real-thread
//! hot path (`mpi_ch3::threaded`).
//!
//! One *point* = a fixed total message count pushed through the stack by
//! N producer threads (N ∈ {1, 4, 16} in the recorded trajectory), all
//! other knobs held constant. Throughput is end-to-end injection rate;
//! latency percentiles are exact (one enqueue-to-delivery sample per
//! message, nearest-rank percentile over the sorted set).
//!
//! The recorded numbers live in `BENCH_10.json` (trajectory format, see
//! [`render_bench10_json`]).

use mpi_ch3::{run_threaded, ThreadedConfig};

/// One measured point of the injection trajectory.
#[derive(Clone, Copy, Debug)]
pub struct InjectionPoint {
    pub producers: usize,
    pub vcs: usize,
    pub total_msgs: u64,
    pub msgs_per_sec: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The producer counts every trajectory records.
pub const PRODUCER_SWEEP: [usize; 3] = [1, 4, 16];

/// Total in-flight cell budget, split evenly across producers. Holding
/// the *offered load* constant (rather than per-producer windows) keeps
/// the latency comparison meaningful: otherwise 16 producers simply queue
/// 16× more messages and Little's law inflates p99 by exactly that.
pub const TOTAL_WINDOW: usize = 64;

/// Stack shape held constant across the sweep (so the only moving part
/// is producer parallelism).
pub fn sweep_config(producers: usize, total_msgs: u64) -> ThreadedConfig {
    ThreadedConfig {
        producers,
        vcs: 4,
        window: (TOTAL_WINDOW / producers).max(2),
        msgs_per_producer: total_msgs / producers as u64,
        payload_bytes: 256,
        rdv_every: 8,
        eager_credits: 32,
    }
}

/// Measure one point: warm up once, then keep the best of `reps`
/// measured runs (the usual throughput-benchmark discipline — the best
/// run is the one least perturbed by unrelated scheduling noise).
pub fn measure_point(producers: usize, total_msgs: u64, reps: usize) -> InjectionPoint {
    let cfg = sweep_config(producers, total_msgs);
    // Warmup: first run pays lazy init (thread spawn paths, allocator).
    let _ = run_threaded(sweep_config(producers, total_msgs / 4));
    let mut best: Option<InjectionPoint> = None;
    for _ in 0..reps.max(1) {
        let r = run_threaded(cfg);
        assert_eq!(r.fifo_violations, 0, "perf run violated FIFO");
        assert!(r.credit_intact, "perf run leaked credits");
        let point = InjectionPoint {
            producers,
            vcs: cfg.vcs,
            total_msgs: r.total_msgs,
            msgs_per_sec: r.throughput_msgs_per_sec,
            p50_ns: r.p50_ns(),
            p99_ns: r.p99_ns(),
        };
        if best.is_none_or(|b| point.msgs_per_sec > b.msgs_per_sec) {
            best = Some(point);
        }
    }
    best.unwrap()
}

/// The full recorded sweep.
pub fn injection_sweep(total_msgs: u64, reps: usize) -> Vec<InjectionPoint> {
    PRODUCER_SWEEP
        .iter()
        .map(|&p| measure_point(p, total_msgs, reps))
        .collect()
}

/// Render the E22 trajectory JSON (the `BENCH_10.json` schema): an
/// `experiment` id plus a `trajectory` array of points.
pub fn render_bench10_json(points: &[InjectionPoint]) -> String {
    let base = points
        .iter()
        .find(|p| p.producers == 1)
        .copied()
        .unwrap_or(points[0]);
    let wide = points.iter().copied().max_by_key(|p| p.producers).unwrap();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"E22-threaded-injection\",\n");
    s.push_str("  \"build\": \"release\",\n");
    // Host parallelism is part of the record: with one core, the
    // widest-point ratio measures contention *resilience* (threads cost
    // little), not parallel speedup (impossible without parallel
    // hardware). See EXPERIMENTS.md E22.
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"stack\": {{\"vcs\": 4, \"total_window\": {TOTAL_WINDOW}, \"payload_bytes\": 256, \"rdv_every\": 8, \"eager_credits\": 32}},\n"
    ));
    s.push_str("  \"trajectory\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"producers\": {}, \"vcs\": {}, \"total_msgs\": {}, \"msgs_per_sec\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            p.producers,
            p.vcs,
            p.total_msgs,
            p.msgs_per_sec,
            p.p50_ns,
            p.p99_ns,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"scaling\": {{\"wide_producers\": {}, \"wide_over_1p_throughput\": {:.3}, \"wide_over_1p_p99\": {:.3}}}\n",
        wide.producers,
        wide.msgs_per_sec / base.msgs_per_sec,
        wide.p99_ns as f64 / base.p99_ns.max(1) as f64
    ));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_extract_round_trip() {
        let points = vec![
            InjectionPoint {
                producers: 1,
                vcs: 4,
                total_msgs: 1000,
                msgs_per_sec: 123456.0,
                p50_ns: 800,
                p99_ns: 9000,
            },
            InjectionPoint {
                producers: 16,
                vcs: 4,
                total_msgs: 1000,
                msgs_per_sec: 654321.0,
                p50_ns: 2000,
                p99_ns: 30000,
            },
        ];
        let doc = render_bench10_json(&points);
        for point in [
            r#"{"producers": 1, "vcs": 4, "total_msgs": 1000, "msgs_per_sec": 123456, "p50_ns": 800, "p99_ns": 9000},"#,
            r#"{"producers": 16, "vcs": 4, "total_msgs": 1000, "msgs_per_sec": 654321, "p50_ns": 2000, "p99_ns": 30000}"#,
            r#""scaling": {"wide_producers": 16, "wide_over_1p_throughput": 5.300, "wide_over_1p_p99": 3.333}"#,
        ] {
            assert!(doc.contains(point), "{point} missing from {doc}");
        }
    }

    #[test]
    fn tiny_sweep_produces_sane_points() {
        let p = measure_point(2, 2_000, 1);
        assert_eq!(p.total_msgs, 2_000);
        assert!(p.msgs_per_sec > 0.0);
        assert!(p.p99_ns >= p.p50_ns);
    }
}
