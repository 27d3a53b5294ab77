//! The ledger proper: which metrics exist, how one workload is measured
//! (set-up, timed reps with tracing off, then one traced pass and the probes),
//! and how the measurements become named values.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::{obj, Value};
use crate::probes;
use crate::spans::{self, totals_by_name, NameTotals, Tracer, PROBE_RANK};
use crate::stats::{median, quartiles};
use crate::sys::{self, HeapCounts, Usage};
use crate::workloads::{Rep, SimRep, Workload, WARMUP};

/// How long one run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`): five reps of about 2 s.
pub const DEFAULT_SECONDS: u64 = 10;
/// Timed reps are never fewer than this, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-ups (job launch + warm-up rep) per run; their median is `setup_s`.
const SETUPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a median may get before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Share(f64),
    /// Absolute percentage points (for metrics that are themselves shares).
    Points(f64),
}

#[derive(Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Defined, non-zero and run-to-run variable on every workload, so an
    /// outside harness can gate it per workload (`end_to_end` of
    /// `BENCHMARK.json`). The others exist on some workloads only, repeat
    /// exactly, or are zero when all is well; they are gated by `compare`
    /// and listed for outside harnesses among the per-layer metrics.
    pub everywhere: bool,
}

use Better::{Higher, Lower};

// The host-side bounds are what the 2-core reference VM supports: run-to-run
// medians of one commit spread (quartile distance ÷ median over ten runs) by
// 2-6 % in a quiet stretch and up to 15 % in a noisy one for host and CPU
// time, up to 7.5 % for peak RSS and 25 % for the p99, whatever the rep
// count, because the noise comes in stretches longer than a run. A tighter
// bound would call that noise a regression. Simulated values repeat exactly
// and get 1 %.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "host_us_per_op", unit: "us", better: Lower, bound: Bound::Share(0.25), everywhere: true },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Lower, bound: Bound::Share(0.25), everywhere: true },
    EndToEnd { name: "host_p99_us", unit: "us", better: Lower, bound: Bound::Share(0.25), everywhere: false },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: Bound::Share(0.25), everywhere: true },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: Bound::Share(0.25), everywhere: true },
    EndToEnd { name: "sim_us_per_op", unit: "us", better: Lower, bound: Bound::Share(0.01), everywhere: false },
    EndToEnd { name: "sim_mb_per_s", unit: "MB/s", better: Higher, bound: Bound::Share(0.01), everywhere: false },
    EndToEnd { name: "paper_err_pct", unit: "%", better: Lower, bound: Bound::Points(0.5), everywhere: false },
    EndToEnd { name: "ops_failed_pct", unit: "%", better: Lower, bound: Bound::Points(0.0), everywhere: false },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics: `(name, unit, better)`. A metric that does not apply
/// to a workload reads 0 there. Sources are in README.md.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // simnet
    ("simnet.events_per_op", "1/op", Lower),
    ("simnet.wakes_per_op", "1/op", Lower),
    ("simnet.host_ns_per_event", "ns", Lower),
    ("simnet.handoff_ns_r2", "ns", Lower),
    ("simnet.handoff_ns_r1024", "ns", Lower),
    ("simnet.evq_ns_pop64", "ns", Lower),
    ("simnet.evq_ns_pop4096", "ns", Lower),
    ("simnet.fabric_msgs_per_op", "1/op", Lower),
    ("simnet.wire_bytes_per_payload_byte", "B/B", Lower),
    ("simnet.memcpy_per_op", "1/op", Lower),
    ("simnet.bytes_copied_per_payload_byte", "B/B", Lower),
    ("simnet.payload_allocs_per_op", "1/op", Lower),
    ("simnet.slice_refs_per_op", "1/op", Lower),
    ("simnet.fault_dropped_per_op", "1/op", Lower),
    ("simnet.fault_duplicated_per_op", "1/op", Lower),
    ("simnet.nic_tx_per_op", "1/op", Lower),
    ("simnet.dispatch_call_per_op", "1/op", Lower),
    // nemesis
    ("nemesis.queue_cycle_ns", "ns", Lower),
    ("nemesis.cellpool_cycle_ns", "ns", Lower),
    ("nemesis.shm_host_us_per_msg", "us", Lower),
    ("nemesis.shm_sim_us_per_msg", "us", Lower),
    ("nemesis.shm_frag_copies_per_op", "1/op", Lower),
    ("nemesis.shm_delivers_per_op", "1/op", Lower),
    // nmad
    ("nmad.eager_sends_per_op", "1/op", Lower),
    ("nmad.rdv_sends_per_op", "1/op", Lower),
    ("nmad.packets_per_op", "1/op", Lower),
    ("nmad.frags_per_aggregate", "count", Higher),
    ("nmad.data_chunks_per_rdv", "count", Lower),
    ("nmad.acks_per_op", "1/op", Lower),
    ("nmad.retx_per_op", "1/op", Lower),
    ("nmad.dup_drops_per_op", "1/op", Lower),
    ("nmad.crc_drops_per_op", "1/op", Lower),
    ("nmad.fc_fallback_pct", "%", Lower),
    ("nmad.fc_credit_stalls_per_op", "1/op", Lower),
    ("nmad.fc_peak_unex_kb", "KiB", Lower),
    ("nmad.protocol_errors", "count", Lower),
    ("nmad.peer_entries_end", "count", Lower),
    ("nmad.match_posted_hit_ns", "ns", Lower),
    ("nmad.match_unexpected_hit_ns", "ns", Lower),
    ("nmad.match_any_probe_ns_g100", "ns", Lower),
    ("nmad.strategy_aggreg16_ns", "ns", Lower),
    ("nmad.strategy_split4m_ns", "ns", Lower),
    ("nmad.split_solve_ns", "ns", Lower),
    ("nmad.wire_crc_ns_per_kib", "ns", Lower),
    ("nmad.wire_seal_256b_ns", "ns", Lower),
    ("nmad.credit_cycle_ns", "ns", Lower),
    ("nmad.core_pingpong_host_us", "us", Lower),
    ("nmad.core_pingpong_sim_us", "us", Lower),
    // piom
    ("piom.kicks_per_op", "1/op", Lower),
    ("piom.ltask_passes_per_op", "1/op", Lower),
    ("piom.rekicks", "count", Lower),
    ("piom.sim_overhead_ns_net", "ns", Lower),
    ("piom.sim_overhead_ns_shm", "ns", Lower),
    ("piom.pingpong_host_us_per_msg", "us", Lower),
    // mpi-ch3
    ("mpi-ch3.launch_ms", "ms", Lower),
    ("mpi-ch3.isend_call_host_ns", "ns", Lower),
    ("mpi-ch3.irecv_call_host_ns", "ns", Lower),
    ("mpi-ch3.wait_call_host_us", "us", Lower),
    ("mpi-ch3.isend_call_sim_ns", "ns", Lower),
    ("mpi-ch3.wait_call_sim_ns", "ns", Lower),
    ("mpi-ch3.allreduce_host_ms", "ms", Lower),
    ("mpi-ch3.alltoall_host_ms", "ms", Lower),
    ("mpi-ch3.barrier_host_ms", "ms", Lower),
    ("mpi-ch3.allreduce_sim_us", "us", Lower),
    ("mpi-ch3.alltoall_sim_us", "us", Lower),
    ("mpi-ch3.barrier_sim_us", "us", Lower),
    ("mpi-ch3.anysrc_sim_overhead_ns", "ns", Lower),
    ("mpi-ch3.ch3q_post_match_ns", "ns", Lower),
    // obs
    ("obs.trace_overhead_pct", "%", Lower),
    ("obs.events_per_op", "1/op", Lower),
    ("obs.phase_ns.send_posted", "ns", Lower),
    ("obs.phase_ns.eager_tx", "ns", Lower),
    ("obs.phase_ns.eager_rx", "ns", Lower),
    ("obs.phase_ns.matched", "ns", Lower),
    ("obs.phase_ns.completed_send", "ns", Lower),
    ("obs.phase_ns.completed_recv", "ns", Lower),
    ("obs.phase_ns.rts_tx", "ns", Lower),
    ("obs.phase_ns.rts_rx", "ns", Lower),
    ("obs.phase_ns.cts_tx", "ns", Lower),
    ("obs.phase_ns.cts_rx", "ns", Lower),
    ("obs.phase_ns.chunk_tx", "ns", Lower),
    ("obs.phase_ns.chunk_rx", "ns", Lower),
    ("obs.phase_ns.fin_tx", "ns", Lower),
    ("obs.phase_ns.fin_rx", "ns", Lower),
    ("obs.phase_ns.retry", "ns", Lower),
    ("obs.phase_coverage_pct", "%", Higher),
    // whole process, harness, ledger
    ("proc.allocs_per_op", "1/op", Lower),
    ("proc.alloc_kib_per_op", "KiB", Lower),
    ("proc.peak_live_heap_mb", "MB", Lower),
    ("proc.vol_ctx_switches_per_op", "1/op", Lower),
    ("proc.invol_ctx_switches_per_op", "1/op", Lower),
    ("proc.threads", "count", Lower),
    ("bench.harness_ns_per_op", "ns", Lower),
    ("ledger.attributed_pct", "%", Higher),
    ("loc.simnet", "lines", Lower),
    ("loc.nemesis", "lines", Lower),
    ("loc.nmad", "lines", Lower),
    ("loc.piom", "lines", Lower),
    ("loc.mpi-ch3", "lines", Lower),
    ("loc.obs", "lines", Lower),
    // End-to-end metrics that are not `everywhere` (see `EndToEnd`).
    ("host_p99_us", "us", Lower),
    ("sim_us_per_op", "us", Lower),
    ("sim_mb_per_s", "MB/s", Higher),
    ("paper_err_pct", "%", Lower),
    ("ops_failed_pct", "%", Lower),
];

/// One end-to-end metric of one workload: the reported value (the median of
/// its samples) with quartiles, and the samples themselves.
#[derive(Clone, Debug)]
pub struct Summary {
    pub name: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    fn of(name: &'static str, samples: Vec<f64>) -> Summary {
        let (q1, value, q3) = quartiles(&samples);
        Summary {
            name,
            value,
            q1,
            q3,
            samples,
        }
    }
}

/// Everything one run measured on one workload.
pub struct Measurement {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub pinned_cpu: Option<usize>,
    pub ops_per_rep: u64,
    pub reps: usize,
    /// Operations checked over the whole run (set-ups, timed reps, traced
    /// pass) and how many of them were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics that exist on this workload, in table order
    /// (`measure` pushes them in that order).
    pub end_to_end: Vec<Summary>,
    /// Median enqueue-to-delivery latency on the real-thread path. Printed
    /// but not gated: it flips between two levels with which of the two
    /// threads happens to run ahead in the closed window.
    pub host_p50_us: Option<Summary>,
    /// Per-layer values by name, after a traced run.
    pub per_layer: Option<BTreeMap<String, f64>>,
    pub trace_file: Option<String>,
}

struct TimedRep {
    rep: Rep,
    cpu_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    voluntary_switches: u64,
    involuntary_switches: u64,
}

/// Measure `workload`: `SETUPS` set-ups, then timed reps of fixed work with
/// tracing off until `seconds` have passed, then — if `trace` — one traced
/// rep and the probes. `process_start` is when this process began, so the
/// first set-up includes start-up. `size` is [`FULL`] outside tests.
pub fn measure(
    workload: Workload,
    size: u32,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
    process_start: Instant,
) -> Measurement {
    // Before any thread is spawned, so that all of them inherit the mask.
    let pinned_cpu = workload.simulated().then(sys::pin_to_highest_cpu).flatten();
    let (mut attempted, mut failed) = (0, 0);
    let mut account = |rep: &Rep| {
        if rep.crashed {
            eprintln!(
                "perf-ledger: a {} job panicked; its {} operations count as failed",
                workload.name(),
                rep.ops
            );
        }
        attempted += rep.ops;
        failed += rep.failed;
    };

    let mut setup_s = Vec::new();
    for i in 0..SETUPS {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        account(&workload.run(seed, size * WARMUP, false));
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut timed: Vec<TimedRep> = Vec::new();
    let (mut peak_rss_mb, mut peak_live_heap_mb) = (0.0, 0.0);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while timed.len() < MIN_REPS || Instant::now() < deadline {
        let (u0, h0) = (Usage::now(), HeapCounts::now());
        let mut rep = workload.run(seed, size, false);
        let (u1, h1) = (Usage::now(), HeapCounts::now());
        // The simulation is deterministic: a rep whose simulated side
        // differs from the first rep's has computed something else.
        if timed.first().is_some_and(|first| first.rep.sim != rep.sim) {
            rep.failed = rep.ops;
        }
        account(&rep);
        timed.push(TimedRep {
            rep,
            cpu_s: u1.cpu_s - u0.cpu_s,
            allocs: h1.allocs - h0.allocs,
            alloc_bytes: h1.bytes - h0.bytes,
            voluntary_switches: u1.voluntary_switches - u0.voluntary_switches,
            involuntary_switches: u1.involuntary_switches - u0.involuntary_switches,
        });
        // Memory peaks are read after the first full rep, when the process
        // has done a fixed amount of work: freed memory is not all returned
        // between jobs, so a peak read at exit would grow with the number of
        // reps that happened to fit into `seconds`.
        if timed.len() == 1 {
            peak_rss_mb = sys::peak_rss_mb();
            peak_live_heap_mb = sys::peak_live_heap_mb();
        }
    }

    let ops = timed[0].rep.ops;
    let per_rep = |f: &dyn Fn(&TimedRep) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let host_us = per_rep(&|t| t.rep.wall_s * 1e6 / ops as f64);
    let sim = timed[0].rep.sim.clone();

    let mut end_to_end = vec![
        Summary::of("host_us_per_op", host_us.clone()),
        Summary::of("cpu_us_per_op", per_rep(&|t| t.cpu_s * 1e6 / ops as f64)),
    ];
    let mut host_p50_us = None;
    if timed[0].rep.threaded.is_some() {
        let p99 = |t: &TimedRep| t.rep.threaded.as_ref().map_or(0.0, |th| th.p99_us);
        end_to_end.push(Summary::of("host_p99_us", per_rep(&p99)));
        let p50 = |t: &TimedRep| t.rep.threaded.as_ref().map_or(0.0, |th| th.p50_us);
        host_p50_us = Some(Summary::of("host_p50_us", per_rep(&p50)));
    }
    end_to_end.push(Summary::of("peak_rss_mb", vec![peak_rss_mb]));
    end_to_end.push(Summary::of("setup_s", setup_s));
    if let Some(sim) = &sim {
        end_to_end.push(Summary::of("sim_us_per_op", vec![sim.sim_us_per_op]));
        if matches!(workload, Workload::StreamLarge | Workload::LossyLadder) {
            end_to_end.push(Summary::of("sim_mb_per_s", vec![sim_mb_per_s(sim)]));
        }
        if let Some((measured, paper)) = sim.paper_point {
            let err = (measured - paper).abs() / paper * 100.0;
            end_to_end.push(Summary::of("paper_err_pct", vec![err]));
        }
    }

    let mut per_layer = None;
    let mut trace_file = None;
    if trace {
        let mut traced = workload.run(seed, size, true);
        // Recording is a side channel: the traced job must simulate exactly
        // what the untraced ones did.
        if traced.sim != sim {
            traced.failed = traced.ops;
        }
        account(&traced);

        // The probes that run simulations always run pinned, also after an
        // unpinned workload, so that their values compare across workloads.
        if pinned_cpu.is_none() {
            sys::pin_to_highest_cpu();
        }
        let probe_tracer = Tracer::new(true, PROBE_RANK);
        let probe_values = probes::run_all(&probe_tracer);

        let host_us_per_op = median(&host_us);
        let mut values = per_layer_values(&timed, &traced, host_us_per_op, peak_live_heap_mb);
        values.extend(probe_values.iter().map(|&(k, v)| (k.to_string(), v)));
        // The working directory is the root of the checkout.
        for (layer, lines) in loc_by_layer(Path::new(".")) {
            values.insert(format!("loc.{layer}"), lines as f64);
        }
        let wire_kib_per_op = sim
            .as_ref()
            .map_or(0.0, |s| s.counters.wire_bytes as f64 / 1024.0 / ops as f64);
        let attributed = attributed_pct(&values, wire_kib_per_op, host_us_per_op, traced.threads);
        values.insert("ledger.attributed_pct".into(), attributed);
        per_layer = Some(values);

        let mut threads = traced.spans;
        threads.push(probe_tracer.into_spans());
        let path = out_dir.join(format!("trace-{}.json", workload.name()));
        match std::fs::create_dir_all(out_dir)
            .and_then(|()| spans::write_chrome_trace(&path, &threads))
        {
            Ok(()) => trace_file = Some(path.display().to_string()),
            Err(e) => eprintln!("perf-ledger: cannot write {}: {e}", path.display()),
        }
    }

    // Last (as in the table), so that it counts the traced pass too.
    let failed_pct = failed as f64 / attempted as f64 * 100.0;
    end_to_end.push(Summary::of("ops_failed_pct", vec![failed_pct]));
    if let Some(values) = &mut per_layer {
        for s in end_to_end.iter().filter(|s| !end_to_end_def(s).everywhere) {
            values.insert(s.name.to_string(), s.value);
        }
    }

    Measurement {
        workload,
        seed,
        seconds,
        pinned_cpu,
        ops_per_rep: ops,
        reps: timed.len(),
        attempted,
        failed,
        end_to_end,
        host_p50_us,
        per_layer,
        trace_file,
    }
}

fn end_to_end_def(s: &Summary) -> &'static EndToEnd {
    end_to_end(s.name).expect("summaries are built from the table's names")
}

const MIB: f64 = (1u64 << 20) as f64;

/// Verified payload MB (2^20 B, as the paper counts) per simulated second.
fn sim_mb_per_s(sim: &SimRep) -> f64 {
    sim.payload_bytes as f64 / MIB / (sim.region_ns as f64 / 1e9)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer values that come from exact counters (first timed rep; all
/// reps are identical), from the traced rep, and from the process.
fn per_layer_values(
    timed: &[TimedRep],
    traced: &Rep,
    host_us_per_op: f64,
    peak_live_heap_mb: f64,
) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let first = &timed[0].rep;
    let ops = first.ops as f64;
    let per_op = |count: u64| count as f64 / ops;
    let med = |f: &dyn Fn(&TimedRep) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());

    if let Some(sim) = &first.sim {
        let c = &sim.counters;
        let payload = sim.payload_bytes as f64;
        set("simnet.events_per_op", per_op(c.events));
        set("simnet.wakes_per_op", per_op(c.wakes));
        set(
            "simnet.host_ns_per_event",
            ratio(host_us_per_op * 1e3 * ops, c.events as f64),
        );
        set("simnet.fabric_msgs_per_op", per_op(c.fabric_msgs));
        set(
            "simnet.wire_bytes_per_payload_byte",
            ratio(c.wire_bytes as f64, payload),
        );
        set("simnet.memcpy_per_op", per_op(c.memcpy_calls));
        set(
            "simnet.bytes_copied_per_payload_byte",
            ratio(c.bytes_copied as f64, payload),
        );
        set("simnet.payload_allocs_per_op", per_op(c.payload_allocs));
        set("simnet.slice_refs_per_op", per_op(c.slice_refs));
        set("simnet.fault_dropped_per_op", per_op(c.fault_dropped));
        set("simnet.fault_duplicated_per_op", per_op(c.fault_duplicated));
        set("nmad.eager_sends_per_op", per_op(c.eager_sends));
        set("nmad.rdv_sends_per_op", per_op(c.rdv_sends));
        set("nmad.packets_per_op", per_op(c.packets_sent));
        set(
            "nmad.frags_per_aggregate",
            ratio(c.frags_aggregated as f64, c.aggregates_sent as f64),
        );
        set(
            "nmad.data_chunks_per_rdv",
            ratio(c.data_chunks_sent as f64, c.rdv_sends as f64),
        );
        set("nmad.acks_per_op", per_op(c.acks_sent));
        set("nmad.retx_per_op", per_op(c.retransmissions));
        set("nmad.dup_drops_per_op", per_op(c.dup_drops));
        set("nmad.crc_drops_per_op", per_op(c.crc_drops));
        set(
            "nmad.fc_fallback_pct",
            100.0
                * ratio(
                    c.fc_fallback_sends as f64,
                    (c.eager_sends + c.rdv_sends) as f64,
                ),
        );
        set("nmad.fc_credit_stalls_per_op", per_op(c.fc_credit_stalls));
        set("nmad.fc_peak_unex_kb", c.fc_peak_unex_bytes as f64 / 1024.0);
        set("nmad.protocol_errors", c.protocol_errors as f64);
        set("nmad.peer_entries_end", c.peer_entries_end as f64);
        set("piom.rekicks", c.piom_rekicks as f64);
    }
    if let Some(th) = &first.threaded {
        set("nmad.eager_sends_per_op", per_op(th.eager_sends));
        set("nmad.rdv_sends_per_op", per_op(th.rdv_sends));
        set("nmad.crc_drops_per_op", per_op(th.crc_drops));
        // Stalls depend on how the two threads interleave: a median.
        set(
            "nmad.fc_credit_stalls_per_op",
            med(&|t| {
                t.rep
                    .threaded
                    .as_ref()
                    .map_or(0.0, |th| per_op(th.credit_stalls))
            }),
        );
    }

    if let Some(obs) = &traced.obs {
        set("simnet.nic_tx_per_op", per_op(obs.nic_tx));
        set("simnet.dispatch_call_per_op", per_op(obs.dispatch_call));
        set("nemesis.shm_frag_copies_per_op", per_op(obs.shm_frag_copy));
        set("nemesis.shm_delivers_per_op", per_op(obs.shm_deliver));
        set("piom.kicks_per_op", per_op(obs.piom_kick));
        set("piom.ltask_passes_per_op", per_op(obs.piom_ltask_pass));
        set("obs.events_per_op", per_op(obs.events));
        for &(label, ns) in &obs.phase_ns {
            set(
                &format!("obs.phase_ns.{label}"),
                ratio(ns as f64, obs.messages as f64),
            );
        }
        set("obs.phase_coverage_pct", obs.phase_coverage * 100.0);
    }
    set(
        "obs.trace_overhead_pct",
        (traced.wall_s / med(&|t| t.rep.wall_s) - 1.0) * 100.0,
    );

    // Benchmark-side spans: means per call. Host time of a call includes
    // the time the rank had handed the token back to the engine.
    let all = totals_by_name(&traced.spans);
    let mean = |t: Option<&NameTotals>, ns: fn(&NameTotals) -> u64| {
        t.map_or(0.0, |t| ratio(ns(t) as f64, t.count as f64))
    };
    let host = |t: &NameTotals| t.host_ns;
    let simulated = |t: &NameTotals| t.sim_ns;
    set(
        "mpi-ch3.isend_call_host_ns",
        mean(all.get("app.isend"), host),
    );
    set(
        "mpi-ch3.irecv_call_host_ns",
        mean(all.get("app.irecv"), host),
    );
    set(
        "mpi-ch3.wait_call_host_us",
        mean(all.get("app.wait"), host) / 1e3,
    );
    set(
        "mpi-ch3.isend_call_sim_ns",
        mean(all.get("app.isend"), simulated),
    );
    set(
        "mpi-ch3.wait_call_sim_ns",
        mean(all.get("app.wait"), simulated),
    );
    let rank0 = totals_by_name(traced.spans.get(..1).unwrap_or(&[]));
    for kind in ["allreduce", "alltoall", "barrier"] {
        let t = rank0.get(format!("app.collective.{kind}").as_str());
        set(&format!("mpi-ch3.{kind}_host_ms"), mean(t, host) / 1e6);
        set(&format!("mpi-ch3.{kind}_sim_us"), mean(t, simulated) / 1e3);
    }
    let harness_ns = ["app.gen", "app.verify"]
        .iter()
        .filter_map(|n| all.get(n))
        .map(|t| t.host_ns)
        .sum::<u64>();
    set("bench.harness_ns_per_op", harness_ns as f64 / ops);

    set("mpi-ch3.launch_ms", med(&|t| t.rep.launch_ms));
    set("proc.allocs_per_op", med(&|t| t.allocs as f64 / ops));
    set(
        "proc.alloc_kib_per_op",
        med(&|t| t.alloc_bytes as f64 / 1024.0 / ops),
    );
    set("proc.peak_live_heap_mb", peak_live_heap_mb);
    set(
        "proc.vol_ctx_switches_per_op",
        med(&|t| t.voluntary_switches as f64 / ops),
    );
    set(
        "proc.invol_ctx_switches_per_op",
        med(&|t| t.involuntary_switches as f64 / ops),
    );
    set("proc.threads", first.threads as f64);
    v
}

/// Share of the host time per operation that `count per op × probe cost`
/// explains, over the counts that have a probe: token handoffs, event-queue
/// operations, CRC over the wire bytes (sealed once, verified once), tag
/// matches, strategy commits, and the harness's own work. The rest is what
/// only spans inside the program can explain. 0 without a simulator.
fn attributed_pct(
    v: &BTreeMap<String, f64>,
    wire_kib_per_op: f64,
    host_us_per_op: f64,
    threads: u64,
) -> f64 {
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    if get("simnet.events_per_op") == 0.0 {
        return 0.0;
    }
    // The handoff and the queue get dearer with the number of rank threads;
    // the two probed sizes stand for small and large jobs.
    let large = threads > 512;
    let handoff = get(if large {
        "simnet.handoff_ns_r1024"
    } else {
        "simnet.handoff_ns_r2"
    });
    let evq = get(if large {
        "simnet.evq_ns_pop4096"
    } else {
        "simnet.evq_ns_pop64"
    });
    let ns = get("simnet.wakes_per_op") * handoff
        + get("simnet.events_per_op") * evq
        + 2.0 * wire_kib_per_op * get("nmad.wire_crc_ns_per_kib")
        + (get("nmad.eager_sends_per_op") + get("nmad.rdv_sends_per_op"))
            * get("nmad.match_posted_hit_ns")
        + get("nmad.packets_per_op") * get("nmad.strategy_aggreg16_ns") / 16.0
        + get("bench.harness_ns_per_op");
    100.0 * ns / (host_us_per_op * 1e3)
}

/// Non-blank, non-comment, non-test lines under each layer's `src/` below
/// `root` (0 when the sources are not there). Test modules sit at the end of
/// a file behind `#[cfg(test)]`, so counting stops at the first such line that
/// introduces a module.
fn loc_by_layer(root: &Path) -> Vec<(&'static str, u64)> {
    const LAYERS: [(&str, &str); 6] = [
        ("simnet", "crates/simnet/src"),
        ("nemesis", "crates/nemesis/src"),
        ("nmad", "crates/core/src"),
        ("piom", "crates/piom/src"),
        ("mpi-ch3", "crates/mpi/src"),
        ("obs", "crates/obs/src"),
    ];
    LAYERS
        .iter()
        .map(|&(layer, dir)| (layer, count_dir(&root.join(dir))))
        .collect()
}

fn count_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                count_dir(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |text| count_code_lines(&text))
            } else {
                0
            }
        })
        .sum()
}

fn count_code_lines(text: &str) -> u64 {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let mut count = 0;
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("#[cfg(") && line.contains("test") {
            let next = lines[i + 1..]
                .iter()
                .find(|l| !l.starts_with("#[") && !l.is_empty());
            if next.is_some_and(|l| l.starts_with("mod ") || l.starts_with("pub(crate) mod ")) {
                break;
            }
        }
        if !line.is_empty() && !line.starts_with("//") {
            count += 1;
        }
    }
    count
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

impl Measurement {
    /// `workload metric value unit` lines: the end-to-end metrics with their
    /// quartiles and sample count, then the per-layer metrics if measured.
    pub fn print(&self) {
        let w = self.workload.name();
        for s in &self.end_to_end {
            println!(
                "{w} {} {} {} q1={} q3={} n={}",
                s.name,
                s.value,
                end_to_end_def(s).unit,
                s.q1,
                s.q3,
                s.samples.len()
            );
        }
        if let Some(s) = &self.host_p50_us {
            println!(
                "{w} {} {} us q1={} q3={} n={} (not gated)",
                s.name,
                s.value,
                s.q1,
                s.q3,
                s.samples.len()
            );
        }
        if let Some(values) = &self.per_layer {
            for &(name, unit, _) in PER_LAYER {
                // The end-to-end metrics among them were printed above.
                if end_to_end(name).is_none() {
                    println!(
                        "{w} {name} {} {unit}",
                        values.get(name).copied().unwrap_or(0.0)
                    );
                }
            }
        }
    }

    /// The one-line result an outside harness reads: with tracing off the
    /// end-to-end metrics that exist `everywhere`, with tracing on every
    /// per-layer metric.
    pub fn result_line(&self) -> String {
        let metric = |value: f64, unit: &str| obj([("value", value.into()), ("unit", unit.into())]);
        let metrics: Vec<(String, Value)> = match &self.per_layer {
            None => self
                .end_to_end
                .iter()
                .map(|s| (s, end_to_end_def(s)))
                .filter(|(_, def)| def.everywhere)
                .map(|(s, def)| (s.name.to_string(), metric(s.value, def.unit)))
                .collect(),
            Some(values) => PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    (
                        name.to_string(),
                        metric(values.get(name).copied().unwrap_or(0.0), unit),
                    )
                })
                .collect(),
        };
        obj([
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }

    /// The full record `results.json` keeps for this workload.
    pub fn to_json(&self) -> Value {
        let summaries = self
            .end_to_end
            .iter()
            .map(|s| {
                let fields = obj([
                    ("value", s.value.into()),
                    ("unit", end_to_end_def(s).unit.into()),
                    ("q1", s.q1.into()),
                    ("q3", s.q3.into()),
                    ("n", (s.samples.len() as u64).into()),
                    ("samples", s.samples.as_slice().into()),
                ]);
                (s.name.to_string(), fields)
            })
            .collect();
        let per_layer = self.per_layer.as_ref().map_or(Value::Null, |values| {
            Value::Obj(
                PER_LAYER
                    .iter()
                    .filter(|(name, ..)| end_to_end(name).is_none())
                    .map(|&(name, unit, _)| {
                        let value = values.get(name).copied().unwrap_or(0.0);
                        (
                            name.to_string(),
                            obj([("value", value.into()), ("unit", unit.into())]),
                        )
                    })
                    .collect(),
            )
        });
        obj([
            ("workload", self.workload.name().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Value::Null, |c| (c as u64).into()),
            ),
            ("ops_per_rep", self.ops_per_rep.into()),
            ("reps", (self.reps as u64).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "trace_file",
                self.trace_file.clone().map_or(Value::Null, Value::from),
            ),
            (
                "host_p50_us_samples",
                self.host_p50_us
                    .as_ref()
                    .map_or(Value::Null, |s| s.samples.as_slice().into()),
            ),
            ("end_to_end", Value::Obj(summaries)),
            ("per_layer", per_layer),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::ALL;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().filter(|m| m.everywhere).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for &(name, unit, _) in PER_LAYER {
            assert!(ok_name(name) && ok_unit(unit), "{name} [{unit}]");
        }
        for m in &END_TO_END {
            assert!(
                ok_name(m.name) && ok_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            // Every end-to-end metric that is not gated everywhere is
            // listed among the per-layer metrics instead.
            assert_eq!(
                PER_LAYER.iter().any(|p| p.0 == m.name),
                !m.everywhere,
                "{}",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` as the tables in this crate define it.
    fn manifest() -> Value {
        let bound = |m: &EndToEnd| match m.bound {
            Bound::Share(s) => s,
            Bound::Points(_) => unreachable!("metrics gated everywhere have relative bounds"),
        };
        obj([
            (
                "command",
                Value::Arr(
                    [
                        "cargo",
                        "run",
                        "--release",
                        "--quiet",
                        "--manifest-path",
                        "benchmark/Cargo.toml",
                        "--",
                    ]
                    .map(Value::from)
                    .to_vec(),
                ),
            ),
            ("paths", Value::Arr(vec!["benchmark".into()])),
            ("run_seconds", DEFAULT_SECONDS.into()),
            (
                "workloads",
                Value::Arr(
                    ALL.iter()
                        .map(|w| obj([("name", w.name().into()), ("why", w.why().into())]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Arr(
                    END_TO_END
                        .iter()
                        .filter(|m| m.everywhere)
                        .map(|m| {
                            obj([
                                ("name", m.name.into()),
                                ("unit", m.unit.into()),
                                ("better", m.better.word().into()),
                                ("bound", bound(m).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Arr(
                    PER_LAYER
                        .iter()
                        .map(|&(name, unit, better)| {
                            obj([
                                ("name", name.into()),
                                ("unit", unit.into()),
                                ("better", better.word().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_tables() {
        let want = manifest();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let have = std::fs::read_to_string(&root)
            .ok()
            .and_then(|t| json::parse(&t).ok());
        if have.as_ref() != Some(&want) {
            let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            std::fs::create_dir_all(&out).unwrap();
            std::fs::write(out.join("BENCHMARK.expected.json"), want.to_pretty()).unwrap();
            panic!("BENCHMARK.json differs from the ledger's tables; the expected file is in benchmark/out/BENCHMARK.expected.json");
        }
        assert!(want.to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_the_test_module() {
        let text = "//! doc\n\nuse x;\n// note\nfn a() {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(count_code_lines(text), 4);
        // A cfg(test) item that is not a module is skipped over, not a stop.
        let text = "#[cfg(test)]\nuse y;\nfn b() {}\n#[cfg(all(test, not(loom)))]\nmod tests {}\n";
        assert_eq!(count_code_lines(text), 3);
        // The repository's own layers, from the ledger's directory.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for (layer, lines) in loc_by_layer(&repo) {
            assert!(lines > 200, "{layer}: {lines} lines");
        }
    }

    #[test]
    fn a_measurement_prints_every_metric_by_name_and_round_trips() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-ledger-{}", std::process::id()));
        // The smallest real run: the ping-pong at a hundredth, minimum reps,
        // traced.
        let m = measure(
            Workload::PingpongSmall,
            100,
            3,
            0,
            true,
            &dir,
            Instant::now(),
        );
        assert_eq!(m.failed, 0);
        assert_eq!(m.reps, MIN_REPS);
        let names: Vec<&str> = m.end_to_end.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "host_us_per_op",
                "cpu_us_per_op",
                "peak_rss_mb",
                "setup_s",
                "sim_us_per_op",
                "paper_err_pct",
                "ops_failed_pct"
            ]
        );
        let values = m.per_layer.as_ref().unwrap();
        for name in [
            "simnet.wakes_per_op",
            "nmad.eager_sends_per_op",
            "mpi-ch3.isend_call_host_ns",
            "obs.phase_ns.eager_rx",
            "ledger.attributed_pct",
            "proc.allocs_per_op",
            "bench.harness_ns_per_op",
        ] {
            assert!(values[name] > 0.0, "{name} = {}", values[name]);
        }
        // One eager send per one-way message (and the opening barrier's
        // two), no rendezvous.
        assert_eq!(
            values["nmad.eager_sends_per_op"],
            (m.ops_per_rep + 2) as f64 / m.ops_per_rep as f64
        );
        assert_eq!(values["nmad.rdv_sends_per_op"], 0.0);

        let line = json::parse(&m.result_line()).unwrap();
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

        let record = m.to_json();
        assert_eq!(json::parse(&record.to_pretty()).unwrap(), record);
        let trace = std::fs::read_to_string(m.trace_file.as_ref().unwrap()).unwrap();
        assert!(
            json::parse(&trace)
                .unwrap()
                .get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .len()
                > 100
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
