//! E16 — eager-flood overload sweep: how the credit layer trades eager
//! throughput for a bounded unexpected queue.
//!
//! Eight senders (one per node) flood rank 0 with a seeded, skewed burst
//! schedule while the receiver drains slowly. The sweep runs the same
//! flood with flow control off and with progressively deeper credit
//! pools, printing the receiver's peak unexpected backlog, how much of
//! the flood degraded to rendezvous, and the completion time.
//!
//! ```sh
//! cargo run --release --example eager_flood
//! ```

use std::sync::Arc;

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::FlowConfig;
use mpich2_nmad_repro::simnet::{Cluster, OverloadPlan, Placement, SimDuration};

const SEED: u64 = 16;
const SENDERS: usize = 8;
const MSGS_PER_SENDER: usize = 40;
const LEN_RANGE: (usize, usize) = (4 * 1024, 8 * 1024);
const MEAN_GAP: SimDuration = SimDuration::micros(2);
const TAG: u32 = 7;
/// The sweep holds the cap fixed and varies pool depth. The cap is a hard
/// bound only while `peers × credits × max_len` stays under it (credits
/// ≤ 2 here) — deeper pools let the first burst overshoot before the
/// high-water throttle can bite, which the sweep shows deliberately.
const CAP: usize = 128 * 1024;

fn main() {
    let plan = OverloadPlan::new(SEED, SENDERS, MSGS_PER_SENDER, LEN_RANGE, MEAN_GAP);
    println!(
        "eager flood: {} senders x {} msgs, {}-{} B payloads, {} B total",
        SENDERS,
        MSGS_PER_SENDER,
        LEN_RANGE.0,
        LEN_RANGE.1,
        plan.total_bytes()
    );
    println!(
        "unexpected-byte cap: {} B (high water {} B)\n",
        CAP,
        CAP / 2
    );
    println!(
        "{:>9} | {:>12} | {:>8} | {:>9} | {:>9} | {:>10}",
        "credits", "peak unex", "eager", "fallback", "withheld", "time"
    );
    println!(
        "{:-<9}-+-{:-<12}-+-{:-<8}-+-{:-<9}-+-{:-<9}-+-{:-<10}",
        "", "", "", "", "", ""
    );
    for credits in [0u32, 1, 2, 4, 8, 16] {
        let (label, flow) = if credits == 0 {
            ("off".to_string(), None)
        } else {
            (credits.to_string(), Some(FlowConfig::bounded(credits, CAP)))
        };
        let mut stack = StackConfig::mpich2_nmad(false).with_fabric_seed(SEED);
        if let Some(f) = flow {
            stack = stack.with_flow(f);
        }
        let cluster = Cluster::grid5000_opteron();
        let placement = Placement::one_per_node(1 + SENDERS, &cluster);
        let p = plan.clone();
        let outcome = run_mpi(
            &cluster,
            &placement,
            &stack,
            1 + SENDERS,
            Arc::new(move |mpi: MpiHandle| flood_rank(&mpi, &p)),
        );
        let ft = outcome.nm_total();
        let total = plan.total_msgs() as u64;
        println!(
            "{:>9} | {:>10} B | {:>7}% | {:>8}% | {:>9} | {:>7.2} ms{}",
            label,
            ft.fc_peak_unex_bytes,
            100 * ft.fc_eager_admitted / total,
            100 * ft.fc_fallback_sends / total,
            ft.fc_credits_withheld,
            outcome.sim.final_time.as_nanos() as f64 / 1e6,
            if ft.fc_peak_unex_bytes > CAP as u64 {
                "  <- cap blown"
            } else {
                ""
            }
        );
    }
    println!(
        "\nDeeper pools keep more of the flood eager but buffer more bytes \
         at the receiver;\nthe cap only binds once pools are shallow enough \
         that exhausted senders degrade to\nrendezvous (the payload then \
         waits on the sender until the receiver asks for it)."
    );
}

fn flood_rank(mpi: &MpiHandle, plan: &OverloadPlan) {
    let me = mpi.rank();
    if me == 0 {
        mpi.compute(SimDuration::micros(500));
        for _ in 0..plan.total_msgs() {
            let (data, st) = mpi.recv(Src::Any, TAG);
            assert!(!data.is_empty() && st.source >= 1);
            mpi.compute(SimDuration::micros(5));
        }
    } else {
        for &(gap, len) in plan.schedule(me - 1) {
            mpi.compute(gap);
            mpi.send(0, TAG, &vec![me as u8; len]);
        }
    }
}
