//! Isolated probes: each times calls into one layer's public functions, away
//! from any workload, so a count from a workload can be priced (`count per op
//! × probe cost`). A micro-probe takes five samples of about 60 ms of calls
//! and reports the median ns per call; a simulation probe runs a small job
//! three times. Every probe runs inside a `probe.<metric>` span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, CellRing, Ch3Q, Credits, EvQueue, Matcher, ProbeBuf, SplitSolver, Stack, StrategyBench,
    Topology,
};
use crate::spans::{host_ns, Tracer};
use crate::stats::median;

const SAMPLES: usize = 5;
/// (Tests only check that every probe runs, so they sample briefly.)
const SAMPLE_TIME: Duration = Duration::from_millis(if cfg!(test) { 2 } else { 60 });
/// Calls between two readings of the clock.
const BATCH: u64 = 64;

/// Median ns per call of `cycle`.
fn time_ns(mut cycle: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < SAMPLE_TIME {
                for _ in 0..BATCH {
                    cycle();
                }
                calls += BATCH;
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Run `$body` inside the span `probe.<metric>` and record its value.
macro_rules! probe {
    ($out:ident, $tracer:ident, $metric:literal, $body:expr) => {
        let value: f64 = $tracer.scope(concat!("probe.", $metric), || 0, || $body);
        $out.push(($metric, value));
    };
}

/// Run every probe; `(metric, value)` pairs under the per-layer metrics' names.
pub fn run_all(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // --- simnet ----------------------------------------------------------
    probe!(out, tracer, "simnet.handoff_ns_r2", handoff_ns(2, 10_000));
    probe!(
        out,
        tracer,
        "simnet.handoff_ns_r1024",
        handoff_ns(1_024, 20)
    );
    probe!(out, tracer, "simnet.evq_ns_pop64", evq_ns(64));
    probe!(out, tracer, "simnet.evq_ns_pop4096", evq_ns(4_096));

    // --- nemesis ---------------------------------------------------------
    let ring = CellRing::new(64);
    let cell_payload = [0xA5u8; 256];
    probe!(
        out,
        tracer,
        "nemesis.queue_cycle_ns",
        time_ns(|| ring.queue_cycle())
    );
    probe!(
        out,
        tracer,
        "nemesis.cellpool_cycle_ns",
        time_ns(|| {
            black_box(ring.cell_cycle(black_box(&cell_payload)));
        })
    );

    // --- nmad ------------------------------------------------------------
    let small = ProbeBuf::new(256);
    probe!(out, tracer, "nmad.match_posted_hit_ns", {
        let mut m = Matcher::new();
        time_ns(|| assert!(m.posted_hit(3, 7, &small)))
    });
    probe!(out, tracer, "nmad.match_unexpected_hit_ns", {
        let mut m = Matcher::new();
        time_ns(|| assert!(m.unexpected_hit(3, 7, &small)))
    });
    probe!(out, tracer, "nmad.match_any_probe_ns_g100", {
        // One unexpected message of the tag waiting on each of 100 gates:
        // the wildcard probe must find the earliest across all of them.
        let mut m = Matcher::new();
        for gate in 0..100 {
            m.park_unexpected(gate, 7, &small);
        }
        time_ns(|| assert_eq!(black_box(m.probe_any(black_box(7))), Some(0)))
    });
    probe!(out, tracer, "nmad.strategy_aggreg16_ns", {
        let mut s = StrategyBench::aggregating();
        strategy_ns(&mut s, || StrategyBench::eager_window(16, &small), 1)
    });
    let large = ProbeBuf::new(4 << 20);
    probe!(out, tracer, "nmad.strategy_split4m_ns", {
        let mut s = StrategyBench::split_balanced();
        strategy_ns(&mut s, || StrategyBench::data_window(&large), 2)
    });
    probe!(out, tracer, "nmad.split_solve_ns", {
        let solver = SplitSolver::new();
        time_ns(|| {
            black_box(solver.solve(black_box(4 << 20)));
        })
    });
    let kib64 = ProbeBuf::new(64 << 10);
    // Sealing and verifying each checksum the 64 KiB once.
    probe!(
        out,
        tracer,
        "nmad.wire_crc_ns_per_kib",
        time_ns(|| assert!(adapter::wire_seal_verify(&kib64))) / 2.0 / 64.0
    );
    probe!(
        out,
        tracer,
        "nmad.wire_seal_256b_ns",
        time_ns(|| assert!(adapter::wire_seal_verify(&small)))
    );
    probe!(out, tracer, "nmad.credit_cycle_ns", {
        let credits = Credits::new(32);
        time_ns(|| assert!(credits.cycle(3)))
    });
    let mut core_sim_us = 0.0;
    probe!(out, tracer, "nmad.core_pingpong_host_us", {
        const ROUND_TRIPS: usize = 1_000;
        let runs: Vec<(f64, u64)> = (0..3)
            .map(|_| adapter::core_pingpong(ROUND_TRIPS))
            .collect();
        core_sim_us = runs[0].1 as f64 / 1e3 / (2 * ROUND_TRIPS) as f64;
        median(
            &runs
                .iter()
                .map(|r| r.0 * 1e6 / (2 * ROUND_TRIPS) as f64)
                .collect::<Vec<_>>(),
        )
    });
    out.push(("nmad.core_pingpong_sim_us", core_sim_us));

    // --- mpi-ch3 ---------------------------------------------------------
    probe!(out, tracer, "mpi-ch3.ch3q_post_match_ns", {
        let q = Ch3Q::new();
        time_ns(|| assert!(q.post_match(3, 7)))
    });

    // --- 4-byte ping-pongs through the whole stack, one thing varied -------
    let pair = Topology::xeon_pair;
    let node = Topology::xeon_same_node;
    let ping =
        |span: &'static str, topo: Topology, stack: Stack, any_source: bool, round_trips: u64| {
            tracer.scope(
                span,
                || 0,
                || pingpong(topo, stack, any_source, round_trips),
            )
        };
    let base = ping(
        "probe.pingpong.net_poll",
        pair(),
        Stack::ib_only(false),
        false,
        250,
    );
    let net_piom = ping(
        "probe.pingpong.net_piom",
        pair(),
        Stack::ib_only(true),
        false,
        1_000,
    );
    let net_any = ping(
        "probe.pingpong.net_poll_anysrc",
        pair(),
        Stack::ib_only(false),
        true,
        250,
    );
    let shm_poll = ping(
        "probe.pingpong.shm_poll",
        node(),
        Stack::all_rails(false),
        false,
        1_000,
    );
    let shm_piom = ping(
        "probe.pingpong.shm_piom",
        node(),
        Stack::all_rails(true),
        false,
        1_000,
    );
    out.extend([
        ("nemesis.shm_host_us_per_msg", shm_poll.host_us_per_msg),
        ("nemesis.shm_sim_us_per_msg", shm_poll.sim_us_per_msg),
        (
            "piom.sim_overhead_ns_net",
            (net_piom.sim_us_per_msg - base.sim_us_per_msg) * 1e3,
        ),
        (
            "piom.sim_overhead_ns_shm",
            (shm_piom.sim_us_per_msg - shm_poll.sim_us_per_msg) * 1e3,
        ),
        ("piom.pingpong_host_us_per_msg", net_piom.host_us_per_msg),
        (
            "mpi-ch3.anysrc_sim_overhead_ns",
            (net_any.sim_us_per_msg - base.sim_us_per_msg) * 1e3,
        ),
    ]);
    out
}

/// Host ns per token handoff with `ranks` bare rank threads.
fn handoff_ns(ranks: usize, per_rank: usize) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (wakes, secs) = adapter::handoff_run(ranks, per_rank);
            secs * 1e9 / wakes as f64
        })
        .collect();
    median(&samples)
}

/// Host ns per pop + push on the event queue at a standing population:
/// mostly near-future inserts with an occasional far one, the shape poll
/// back-offs and retry timers produce.
fn evq_ns(population: u64) -> f64 {
    let mut q = EvQueue::new();
    for i in 0..population {
        q.push(i * 37 % 5_000);
    }
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    time_ns(|| {
        let now = q.pop().expect("population is standing");
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let dt = if lcg >> 61 == 0 { 3_000_000 } else { lcg >> 50 };
        q.push(now + dt + 1);
    })
}

/// Host ns per `try_and_commit` over freshly built windows (building them is
/// not timed); each commit must emit `want` wire packets.
fn strategy_ns(
    s: &mut StrategyBench,
    mut window: impl FnMut() -> adapter::Window,
    want: usize,
) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (mut busy, mut calls) = (Duration::ZERO, 0u64);
            while busy < SAMPLE_TIME {
                let mut windows: Vec<_> = (0..BATCH).map(|_| window()).collect();
                let t0 = Instant::now();
                for w in &mut windows {
                    assert_eq!(s.commit(w), want);
                }
                busy += t0.elapsed();
                calls += BATCH;
            }
            busy.as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

struct PingPong {
    host_us_per_msg: f64,
    sim_us_per_msg: f64,
}

/// A 4-byte ping-pong of `round_trips` on `topo` over `stack`, three times:
/// median host µs and (deterministic) simulated µs per one-way message, both
/// over rank 0's region after the opening barrier.
fn pingpong(topo: Topology, stack: Stack, any_source: bool, round_trips: u64) -> PingPong {
    let msgs = 2.0 * round_trips as f64;
    let runs: Vec<(f64, f64)> = (0..3)
        .map(|_| {
            let job = adapter::run_job(&topo, &stack, false, move |r| {
                let peer = 1 - r.rank();
                let src = (!any_source).then_some(peer);
                r.barrier();
                let (host0, sim0) = (host_ns(), r.sim_ns());
                for _ in 0..round_trips {
                    if r.rank() == 0 {
                        r.wait_send(r.isend(peer, 7, b"ping"));
                    }
                    let got = r.wait_recv(r.irecv(src, 7));
                    assert!(got.is_some_and(|m| m.data.len() == 4));
                    if r.rank() == 1 {
                        r.wait_send(r.isend(peer, 7, b"pong"));
                    }
                }
                (
                    (host_ns() - host0) as f64 / 1e3 / msgs,
                    (r.sim_ns() - sim0) as f64 / 1e3 / msgs,
                )
            });
            job.ranks[0]
        })
        .collect();
    PingPong {
        host_us_per_msg: median(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
        sim_us_per_msg: runs[0].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_names_are_unique_and_values_positive() {
        let tracer = Tracer::new(true, crate::spans::PROBE_RANK);
        let values = run_all(&tracer);
        let mut names: Vec<_> = values.iter().map(|v| v.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), values.len(), "a probe reported twice");
        for (name, v) in &values {
            assert!(v.is_finite(), "{name} = {v}");
            // PIOMan and ANY_SOURCE cost simulated time; everything else
            // is a duration.
            assert!(*v > 0.0, "{name} = {v}");
        }
        let spans = tracer.into_spans();
        assert!(spans.iter().all(|s| s.name.starts_with("probe.")));
        assert!(spans.len() >= 20);
    }
}
