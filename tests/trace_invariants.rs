//! Trace-driven protocol invariants: structural properties of the
//! message-lifecycle span stream, checked over a multi-seed sweep with
//! faults armed and under an overload flood with flow control armed.
//!
//! Every run here asserts four invariant classes on the recorded spans:
//!
//! 1. **Rendezvous ordering** — per message, the first occurrences obey
//!    RTS tx ≤ RTS rx ≤ CTS tx ≤ CTS rx ≤ first DATA tx ≤ first DATA rx,
//!    and (when the retry layer sends FINs) FIN tx/rx follow the data.
//! 2. **Eager bound** — no message that went out on the eager path
//!    exceeds the configured eager threshold.
//! 3. **Credit conservation** — a sender's per-peer credit balance,
//!    reconstructed from debit/refill events, never leaves
//!    `[0, eager_credits]`.
//! 4. **Lifecycle completeness** — every posted span reaches `completed`
//!    on its side (the job finished, so nothing may be left dangling).
//!
//! Plus the acceptance bound on the exporter: the per-phase breakdown
//! must attribute ≥ 95% of end-to-end message latency.
//!
//! CI's seed matrix sets `SIM_SEED_BASE` to shift every seed onto a
//! fresh range, so each job proves the invariants on schedules no other
//! job saw.

use std::collections::BTreeMap;

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::protocol::conformance;
use mpich2_nmad_repro::nmad::{FlowConfig, NmConfig};
use mpich2_nmad_repro::obs::{
    EngineEvent, MsgKey, ObsConfig, Phase, Report, RetryKind, Scope, Side,
};
use mpich2_nmad_repro::sim_harness::{byte, Scenario, Workload};
use mpich2_nmad_repro::simnet::{Cluster, FaultSpec, OverloadPlan, Placement, SimDuration};

fn seed_base() -> u64 {
    std::env::var("SIM_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Group message-scoped events per key, sorted by time (stable within a
/// tie: append order, which per rank is causal order).
fn spans(report: &Report) -> BTreeMap<MsgKey, Vec<(u64, Phase)>> {
    let mut per_msg: BTreeMap<MsgKey, Vec<(u64, Phase)>> = BTreeMap::new();
    for e in &report.events {
        if let Scope::Msg { key, phase } = e.scope {
            per_msg.entry(key).or_default().push((e.t_ns, phase));
        }
    }
    for evs in per_msg.values_mut() {
        evs.sort_by_key(|&(t, _)| t);
    }
    per_msg
}

/// Time of the first event matching `pred`, if any.
fn first(evs: &[(u64, Phase)], pred: impl Fn(&Phase) -> bool) -> Option<u64> {
    evs.iter().find(|(_, p)| pred(p)).map(|&(t, _)| t)
}

fn check_rendezvous_ordering(key: &MsgKey, evs: &[(u64, Phase)]) {
    let rts_tx = first(evs, |p| matches!(p, Phase::RtsTx { .. }));
    let Some(rts_tx) = rts_tx else { return };
    let ctx = |what: &str| format!("{what} on rendezvous span {key:?}: {evs:?}");
    // A retransmitted RTS may never have been answered, so everything
    // downstream is conditional — but whatever exists must be ordered.
    let rts_rx = first(evs, |p| matches!(p, Phase::RtsRx));
    let cts_tx = first(evs, |p| matches!(p, Phase::CtsTx { .. }));
    let cts_rx = first(evs, |p| matches!(p, Phase::CtsRx));
    let data_tx = first(evs, |p| matches!(p, Phase::DataChunkTx { .. }));
    let data_rx = first(evs, |p| matches!(p, Phase::DataChunkRx { .. }));
    let fin_tx = first(evs, |p| matches!(p, Phase::FinTx));
    let fin_rx = first(evs, |p| matches!(p, Phase::FinRx));
    let chain = [
        ("rts_tx", Some(rts_tx)),
        ("rts_rx", rts_rx),
        ("cts_tx", cts_tx),
        ("cts_rx", cts_rx),
        ("first chunk_tx", data_tx),
        ("first chunk_rx", data_rx),
    ];
    let mut prev: Option<(&str, u64)> = None;
    for (name, t) in chain {
        if let Some(t) = t {
            if let Some((pname, pt)) = prev {
                assert!(pt <= t, "{}", ctx(&format!("{pname} after {name}")));
            }
            prev = Some((name, t));
        }
    }
    if let Some(ft) = fin_tx {
        let drx = data_rx.expect("FIN sent but no data received");
        assert!(drx <= ft, "{}", ctx("fin_tx before first chunk_rx"));
        if let Some(fr) = fin_rx {
            assert!(ft <= fr, "{}", ctx("fin_rx before fin_tx"));
        }
    }
}

fn check_eager_bound(key: &MsgKey, evs: &[(u64, Phase)], eager_threshold: u64) {
    if first(evs, |p| matches!(p, Phase::EagerTx { .. })).is_none() {
        return;
    }
    for (_, p) in evs {
        if let Phase::SendPosted { len } = p {
            assert!(
                *len <= eager_threshold,
                "span {key:?} took the eager path with {len}B payload, over \
                 the {eager_threshold}B threshold"
            );
        }
    }
}

fn check_lifecycle_completeness(key: &MsgKey, evs: &[(u64, Phase)]) {
    for (side, posted, done) in [
        (
            "send",
            first(evs, |p| matches!(p, Phase::SendPosted { .. })),
            first(evs, |p| matches!(p, Phase::Completed { side: Side::Send })),
        ),
        (
            "recv",
            first(evs, |p| matches!(p, Phase::RecvPosted)),
            first(evs, |p| matches!(p, Phase::Completed { side: Side::Recv })),
        ),
    ] {
        if let Some(tp) = posted {
            let td = done.unwrap_or_else(|| {
                panic!("span {key:?} was {side}-posted but never completed: {evs:?}")
            });
            assert!(tp <= td, "span {key:?} completed before it was posted");
        }
    }
}

/// Reconstruct every sender's per-peer credit balance from the engine
/// event stream and assert it stays within `[0, initial]`. Events appear
/// in append order, which per rank is causal order.
fn check_credit_balance(report: &Report, initial: u32) {
    let mut balance: BTreeMap<(u32, u32), i64> = BTreeMap::new();
    let mut moves = 0u64;
    for e in &report.events {
        let Scope::Engine { ev } = e.scope else {
            continue;
        };
        match ev {
            EngineEvent::CreditDebit { peer } => {
                let b = balance.entry((e.rank, peer)).or_insert(initial as i64);
                *b -= 1;
                moves += 1;
                assert!(
                    *b >= 0,
                    "rank {} overdrew its credit pool toward peer {peer}",
                    e.rank
                );
            }
            EngineEvent::CreditRefill { peer, credits } => {
                let b = balance.entry((e.rank, peer)).or_insert(initial as i64);
                *b += credits as i64;
                moves += 1;
                assert!(
                    *b <= initial as i64,
                    "rank {} refilled past the initial pool of {initial} \
                     toward peer {peer} (balance {b})",
                    e.rank
                );
            }
            _ => {}
        }
    }
    assert!(moves > 0, "flow armed but no credit events recorded");
}

/// All per-span invariants plus the breakdown coverage bound.
fn check_report(report: &Report, eager_threshold: u64) {
    assert!(!report.events.is_empty(), "traced run recorded nothing");
    let per_msg = spans(report);
    assert!(!per_msg.is_empty(), "no message spans recorded");
    for (key, evs) in &per_msg {
        check_rendezvous_ordering(key, evs);
        check_eager_bound(key, evs, eager_threshold);
        check_lifecycle_completeness(key, evs);
    }
    let b = report.breakdown();
    assert!(
        b.coverage() >= 0.95,
        "phase breakdown attributes only {:.1}% of end-to-end latency",
        b.coverage() * 100.0
    );
}

/// Fault-armed multi-seed sweep: ≥ 8 seeds across every workload and
/// both progression modes, mixed fault schedule on each.
#[test]
fn invariants_hold_across_fault_seed_sweep() {
    let threshold = NmConfig::default().eager_threshold as u64;
    let workloads = [Workload::SendRecv, Workload::AnySource, Workload::Multirail];
    for i in 0..8u64 {
        let seed = seed_base() + 70 + i;
        let workload = workloads[(i % 3) as usize];
        let pioman = i % 2 == 0;
        let scenario = Scenario::new(seed, FaultSpec::mixed(), workload, pioman);
        let (_, report) = scenario.run_traced();
        check_report(&report, threshold);
        // The sweep must actually exercise the fault machinery: mixed
        // schedules retry at least somewhere across the sweep (checked
        // per-run where retries occurred).
        let retried = report.events.iter().any(|e| {
            matches!(
                e.scope,
                Scope::Msg {
                    phase: Phase::Retry { .. },
                    ..
                }
            )
        });
        let _ = retried; // presence varies per seed; the sum check is below
    }
}

/// At least one seed in the sweep range must provoke retries, otherwise
/// the fault-armed invariants above prove nothing about recovery paths.
#[test]
fn fault_sweep_exercises_retry_spans() {
    let mut retries = 0usize;
    for i in 0..3u64 {
        let scenario = Scenario::new(
            seed_base() + 70 + i,
            FaultSpec::mixed(),
            Workload::Multirail,
            false,
        );
        let (fp, report) = scenario.run_traced();
        retries += report
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.scope,
                    Scope::Msg {
                        phase: Phase::Retry { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(fp.total_retries(), {
            let spans_retries: u64 = report
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.scope,
                        Scope::Msg {
                            phase: Phase::Retry { .. },
                            ..
                        }
                    )
                })
                .count() as u64;
            spans_retries
        });
    }
    assert!(retries > 0, "mixed faults never retried across 3 seeds");
}

/// Duplicate-RTS replay regression under a dup+reorder-heavy schedule:
/// replayed handshake wire events stay 1:1 with their announcing Retry
/// span events. Per rendezvous message, every `RtsTx` beyond the first
/// was announced by exactly one `Retry{Rts}`, and every `CtsTx` beyond
/// the first by exactly one `Retry{Cts}` (progress timer or
/// duplicate-RTS replay — the table's `timer/cts` and
/// `replay/cts-on-rts` rows). The whole stream must also pass the
/// post-hoc protocol-table conformance check (the run itself already
/// validates incrementally through the installed recorder hook).
#[test]
fn duplicate_rts_replays_stay_one_to_one_with_retry_spans() {
    let spec = FaultSpec {
        dup_pct: 0.3,
        delay_pct: 0.35,
        max_extra_delay: SimDuration::micros(250),
        drop_pct: 0.05,
        ..FaultSpec::NONE
    };
    let mut dup_envelopes = 0u64;
    let mut replayed = 0usize;
    for i in 0..4u64 {
        let seed = seed_base() + 230 + i;
        let workload = if i % 2 == 0 {
            Workload::SendRecv
        } else {
            Workload::Multirail
        };
        let (fp, report) = Scenario::new(seed, spec, workload, false).run_traced();
        dup_envelopes += fp.nm_stats.iter().map(|s| s.dup_envelopes).sum::<u64>();
        let violations = conformance::check_events(&report.events, true);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        for (key, evs) in spans(&report) {
            let count = |f: &dyn Fn(&Phase) -> bool| evs.iter().filter(|(_, p)| f(p)).count();
            let rts_tx = count(&|p| matches!(p, Phase::RtsTx { .. }));
            if rts_tx == 0 {
                continue; // eager path
            }
            let cts_tx = count(&|p| matches!(p, Phase::CtsTx { .. }));
            let retry_rts = count(&|p| {
                matches!(
                    p,
                    Phase::Retry {
                        kind: RetryKind::Rts
                    }
                )
            });
            let retry_cts = count(&|p| {
                matches!(
                    p,
                    Phase::Retry {
                        kind: RetryKind::Cts
                    }
                )
            });
            assert_eq!(
                rts_tx,
                1 + retry_rts,
                "{key:?} (seed {seed}): replayed RTS not 1:1 with Retry(Rts) spans"
            );
            assert_eq!(
                cts_tx,
                1 + retry_cts,
                "{key:?} (seed {seed}): replayed CTS not 1:1 with Retry(Cts) spans"
            );
            replayed += retry_rts + retry_cts;
        }
    }
    assert!(
        dup_envelopes > 0,
        "dup+reorder schedule never provoked a duplicate envelope"
    );
    assert!(
        replayed > 0,
        "dup+reorder schedule never replayed a handshake frame"
    );
}

// --- Overload-armed flood ------------------------------------------------

const SENDERS: usize = 4;
const MSGS_PER_SENDER: usize = 12;
const LEN_RANGE: (usize, usize) = (4 * 1024, 8 * 1024);
const CREDITS: u32 = 2;
const CAP: usize = SENDERS * CREDITS as usize * LEN_RANGE.1;
const TAG: u32 = 7;

fn flood_payload(seed: u64, sender: usize, idx: usize, len: usize) -> Vec<u8> {
    let ms = seed ^ ((sender as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (idx as u64);
    (0..len).map(|i| byte(ms, i)).collect()
}

fn run_flood_traced(seed: u64) -> Report {
    let cluster = Cluster::grid5000_opteron();
    let nranks = 1 + SENDERS;
    let placement = Placement::one_per_node(nranks, &cluster);
    let stack = StackConfig::mpich2_nmad(false)
        .with_fabric_seed(seed)
        .with_flow(FlowConfig::bounded(CREDITS, CAP))
        .with_obs(ObsConfig::full());
    let plan = OverloadPlan::new(
        seed,
        SENDERS,
        MSGS_PER_SENDER,
        LEN_RANGE,
        SimDuration::micros(2),
    );
    let (outcome, _) = run_mpi_collect(&cluster, &placement, &stack, nranks, move |mpi| {
        flood_rank(mpi, &plan, seed)
    });
    let nm = outcome.nm_total();
    assert!(
        nm.fc_credit_stalls > 0,
        "flood too gentle: no credit stall, the overload invariants prove \
         nothing (stalls {}, fallbacks {})",
        nm.fc_credit_stalls,
        nm.fc_fallback_sends
    );
    outcome.obs.expect("obs armed")
}

fn flood_rank(mpi: &MpiHandle, plan: &OverloadPlan, seed: u64) {
    let me = mpi.rank();
    if me == 0 {
        // Idle first so the backlog builds, then drain slowly: the
        // receiver stays the bottleneck and the credit layer is what
        // bounds the flood.
        mpi.compute(SimDuration::micros(500));
        for idx in 0..MSGS_PER_SENDER {
            for s in 1..=SENDERS {
                let (data, st) = mpi.recv(Src::Rank(s), TAG);
                assert_eq!(st.source, s);
                let want = flood_payload(seed, s, idx, plan.schedule(s - 1)[idx].1);
                assert_eq!(&data[..], &want[..], "payload corrupt: rank {s} msg {idx}");
                mpi.compute(SimDuration::micros(5));
            }
        }
    } else {
        for (idx, &(gap, len)) in plan.schedule(me - 1).iter().enumerate() {
            mpi.compute(gap);
            mpi.send(0, TAG, &flood_payload(seed, me, idx, len));
        }
    }
}

/// Overload with flow control armed: all span invariants hold, the
/// reconstructed credit balance stays within the pool, and the stalls the
/// flow counters report appear as `credit_stall` span annotations.
#[test]
fn invariants_hold_under_overload_with_flow_armed() {
    let threshold = NmConfig::default().eager_threshold as u64;
    for i in 0..3u64 {
        let report = run_flood_traced(seed_base() + 90 + i);
        check_report(&report, threshold);
        check_credit_balance(&report, CREDITS);
        let stall_spans = report
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.scope,
                    Scope::Msg {
                        phase: Phase::CreditStall,
                        ..
                    }
                )
            })
            .count();
        assert!(
            stall_spans > 0,
            "credit stalls occurred but no span carries the annotation"
        );
    }
}
