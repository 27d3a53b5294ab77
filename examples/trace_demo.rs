//! Observability quickstart: run one traced scenario, print the per-phase
//! latency breakdown and a few job-wide NewMadeleine counter totals, and
//! write a Chrome trace-event file.
//!
//! ```text
//! cargo run --release --example trace_demo
//! ```
//!
//! Open `target/trace.json` in Perfetto (https://ui.perfetto.dev) or
//! `about://tracing`: each message gets its own lane whose slices are the
//! lifecycle phases (posted → matched → eager/RTS → CTS → chunks → FIN →
//! completed), with retries and reroutes as instants.

use std::fs;

use mpich2_nmad_repro::nmad::NmStats;
use mpich2_nmad_repro::sim_harness::{Scenario, Workload};
use mpich2_nmad_repro::simnet::FaultSpec;

fn main() {
    // A fault-armed multirail run makes the richest trace: rendezvous
    // handshakes, per-rail chunks, retries and reroutes all show up.
    let scenario = Scenario::new(42, FaultSpec::mixed(), Workload::Multirail, false);
    let (fp, report) = scenario.run_traced();

    println!(
        "ran '{:?}' under mixed faults: {} events, {} sim-ns, {} retries",
        scenario.workload,
        report.events.len(),
        fp.final_time_nanos,
        fp.total_retries(),
    );
    println!();
    println!("{}", report.breakdown());

    // The counts are typed: every rank's `NmStats`, folded job-wide.
    let mut total = NmStats::default();
    fp.nm_stats.iter().for_each(|s| total.absorb(s));
    println!("nmad totals over {} ranks:", fp.nm_stats.len());
    for (name, v) in [
        ("eager sends", total.eager_sends),
        ("rendezvous sends", total.rdv_sends),
        ("packets sent", total.packets_sent),
        ("data chunks sent", total.data_chunks_sent),
        ("retransmissions", total.total_retries()),
        ("rerouted bytes", total.rerouted_bytes),
        ("protocol errors", total.protocol_errors),
    ] {
        println!("  {name:<24} {v}");
    }

    fs::create_dir_all("target").expect("create target dir");
    fs::write("target/trace.json", report.to_chrome_trace()).expect("write trace");
    fs::write("target/trace.jsonl", report.to_jsonl()).expect("write jsonl");
    println!();
    println!("wrote target/trace.json (Chrome trace-event format — open in Perfetto)");
    println!("wrote target/trace.jsonl (one JSON object per recorded event)");
    println!("canonical trace hash: {:#018x}", report.hash());
}
