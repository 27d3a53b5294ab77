//! Seeded fault-injection sweeps over the full MPICH2-NMad stack.
//!
//! Each scenario runs a complete MPI job (CH3 → NewMadeleine → fabric,
//! optionally under PIOMan) with a seeded [`FaultPlan`] on the wire. The
//! rank programs in `sim_harness` assert byte-exact, exactly-once,
//! per-sender-in-order delivery, so every run doubles as a correctness
//! proof of the retry layer under that fault schedule. On top of that the
//! tests here check the retry counters (nonzero under lossy schedules,
//! zero without faults) and the replay identity: the same seed must
//! reproduce the run bit-for-bit, down to every statistic.
//!
//! Sweep budget: 28 distinct seeds across four fault schedules
//! (drop-heavy, delay/reorder, NIC-stall, mixed), each seed driving all
//! three workloads (send/recv ladder, ANY_SOURCE fan-in, multirail).

use mpich2_nmad_repro::sim_harness::{Scenario, Workload};
use mpich2_nmad_repro::simnet::FaultSpec;

const WORKLOADS: [Workload; 3] = [Workload::SendRecv, Workload::AnySource, Workload::Multirail];

/// Base offset added to every sweep seed. CI's fault-seed matrix sets
/// `SIM_SEED_BASE` to shift the whole sweep onto a fresh seed range, so
/// each matrix job proves the invariants on schedules no other job saw.
fn seed_base() -> u64 {
    std::env::var("SIM_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Run `spec` over `seeds` × all workloads, alternating the PIOMan and
/// app-polling progression models, and hand each fingerprint to `check`.
fn sweep(
    spec: FaultSpec,
    seeds: std::ops::Range<u64>,
    mut check: impl FnMut(u64, Workload, &mpich2_nmad_repro::sim_harness::Fingerprint),
) {
    let base = seed_base();
    for seed in seeds {
        let seed = base + seed;
        for (i, &workload) in WORKLOADS.iter().enumerate() {
            let pioman = (seed + i as u64) % 2 == 1;
            let fp = Scenario::new(seed, spec, workload, pioman).run();
            check(seed, workload, &fp);
        }
    }
}

#[test]
fn sweep_drop_heavy() {
    // 15% drop + 5% duplication: nothing completes without the retry
    // layer, so every single run must show retransmissions and drops.
    let mut total_drops = 0;
    sweep(FaultSpec::drop_heavy(), 0..8, |seed, workload, fp| {
        let fc = fp.fault_counters.expect("fault plan installed");
        assert!(
            fc.dropped > 0,
            "seed {seed} {workload:?}: drop-heavy schedule dropped nothing"
        );
        assert!(
            fp.total_retries() > 0,
            "seed {seed} {workload:?}: survived {} drops with zero retransmissions",
            fc.dropped
        );
        total_drops += fc.dropped;
    });
    assert!(total_drops > 100, "sweep barely exercised the fault plan");
}

#[test]
fn sweep_delay_reorder() {
    // 35% of transfers delayed by up to 200µs (past the 80µs retry
    // timeout, so spurious retransmissions and reordering both occur)
    // plus 5% duplication — the dedup/ordering machinery's stress test.
    let (mut delayed, mut dups, mut retries) = (0, 0, 0);
    sweep(FaultSpec::delay_reorder(), 100..108, |_, _, fp| {
        let fc = fp.fault_counters.unwrap();
        delayed += fc.delayed;
        dups += fc.duplicated;
        retries += fp.total_retries();
    });
    assert!(delayed > 100, "delay schedule barely delayed ({delayed})");
    assert!(dups > 0, "duplication never triggered");
    assert!(
        retries > 0,
        "200µs delays never outran the 80µs retry timer"
    );
}

#[test]
fn sweep_nic_stall() {
    // Stalled NIC ports + registration-cache misses: no packet loss, so
    // the stack runs without the retry layer — this schedule checks that
    // timing faults alone never corrupt or reorder anything.
    let (mut stalls, mut misses) = (0, 0);
    sweep(FaultSpec::nic_stall(), 200..208, |seed, workload, fp| {
        let fc = fp.fault_counters.unwrap();
        assert_eq!(
            fp.total_retries(),
            0,
            "seed {seed} {workload:?}: lossless schedule should need no retries"
        );
        stalls += fc.stalls;
        misses += fc.reg_misses;
    });
    assert!(stalls > 20, "stall schedule barely stalled ({stalls})");
    assert!(misses > 20, "reg-cache misses barely triggered ({misses})");
}

#[test]
fn sweep_mixed() {
    // Everything at once: drops, dups, delays, stalls, reg misses.
    sweep(FaultSpec::mixed(), 300..304, |seed, workload, fp| {
        let fc = fp.fault_counters.unwrap();
        assert!(fc.dropped > 0, "seed {seed} {workload:?}: no drops");
        assert!(
            fp.total_retries() > 0,
            "seed {seed} {workload:?}: no retransmissions under mixed faults"
        );
    });
}

#[test]
fn no_faults_means_no_retries() {
    // The control: without a fault plan the retry layer stays off and
    // every retry/ack/dup counter reads zero — the happy path is
    // untouched by the reliability machinery.
    for &workload in &WORKLOADS {
        for pioman in [false, true] {
            let fp = Scenario::new(42, FaultSpec::NONE, workload, pioman).run_clean();
            assert_eq!(fp.fault_counters, None);
            assert_eq!(
                fp.total_retries(),
                0,
                "{workload:?} pioman={pioman}: clean run retransmitted"
            );
            for st in &fp.nm_stats {
                assert_eq!(st.acks_sent, 0, "{workload:?}: acks on the clean path");
                assert_eq!(st.fins_sent, 0, "{workload:?}: fins on the clean path");
                assert_eq!(st.dup_envelopes + st.dup_data, 0);
            }
        }
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    // The tentpole determinism claim: a scenario is a pure function of
    // its seed. Every statistic — end time, event count, per-rank
    // NewMadeleine counters, per-rail fabric totals, fault-injection
    // counters, payload hash — must match across independent executions.
    let scenarios = [
        Scenario::new(7, FaultSpec::drop_heavy(), Workload::SendRecv, false),
        Scenario::new(7, FaultSpec::drop_heavy(), Workload::SendRecv, true),
        Scenario::new(11, FaultSpec::delay_reorder(), Workload::AnySource, false),
        Scenario::new(13, FaultSpec::nic_stall(), Workload::Multirail, true),
        Scenario::new(17, FaultSpec::mixed(), Workload::Multirail, false),
    ];
    for sc in scenarios {
        let a = sc.run();
        let b = sc.run();
        assert_eq!(a, b, "replay diverged for {sc:?}");
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the seed actually reaches the fault plan: two
    // different seeds on a lossy schedule produce different executions.
    let a = Scenario::new(1, FaultSpec::drop_heavy(), Workload::SendRecv, false).run();
    let b = Scenario::new(2, FaultSpec::drop_heavy(), Workload::SendRecv, false).run();
    assert_ne!(a, b, "distinct seeds replayed identically");
}

#[test]
fn clean_runs_replay_too() {
    // Replay identity holds without faults as well (seeded jitter only).
    let sc = Scenario::new(5, FaultSpec::NONE, Workload::SendRecv, true);
    assert_eq!(sc.run_clean(), sc.run_clean());
}

#[test]
fn multirail_workload_uses_both_rails() {
    let fp = Scenario::new(3, FaultSpec::NONE, Workload::Multirail, false).run_clean();
    assert_eq!(fp.rail_counters.len(), 2, "xeon_pair has two rails");
    for (rail, &(msgs, bytes)) in fp.rail_counters.iter().enumerate() {
        assert!(msgs > 0, "rail {rail} carried no messages");
        assert!(bytes > 0, "rail {rail} carried no bytes");
    }
}

#[test]
fn golden_trace_same_seed_bit_identical_span_stream() {
    // Golden-trace replay: with observability armed, the same seed must
    // reproduce the span stream bit-for-bit — every event, in the same
    // append order, with the same canonical hash — including under a
    // fault-injected schedule where the trace is full of retries and
    // reroutes. Any nondeterminism the fingerprint's aggregate counters
    // could average away shows up here as a single diverging event.
    let scenarios = [
        Scenario::new(21, FaultSpec::NONE, Workload::SendRecv, false),
        Scenario::new(23, FaultSpec::mixed(), Workload::Multirail, true),
        Scenario::new(29, FaultSpec::drop_heavy(), Workload::AnySource, false),
    ];
    for sc in scenarios {
        let ((fa, ra), (fb, rb)) = if sc.spec == FaultSpec::NONE {
            (sc.run_clean_traced(), sc.run_clean_traced())
        } else {
            (sc.run_traced(), sc.run_traced())
        };
        assert_eq!(fa, fb, "fingerprint diverged for {sc:?}");
        assert_eq!(ra.events, rb.events, "span stream diverged for {sc:?}");
        assert_eq!(ra.hash(), rb.hash(), "trace hash diverged for {sc:?}");
        assert_eq!(
            ra.to_jsonl(),
            rb.to_jsonl(),
            "JSONL export diverged for {sc:?}"
        );
        assert!(!ra.events.is_empty(), "traced run recorded nothing: {sc:?}");
    }
}

#[test]
fn tracing_is_observation_only() {
    // Arming the recorder must not perturb the simulation: the traced
    // run's fingerprint equals the untraced run's, faults and all.
    let scenarios = [
        Scenario::new(31, FaultSpec::NONE, Workload::SendRecv, true),
        Scenario::new(37, FaultSpec::mixed(), Workload::Multirail, false),
    ];
    for sc in scenarios {
        let (traced, untraced) = if sc.spec == FaultSpec::NONE {
            (sc.run_clean_traced().0, sc.run_clean())
        } else {
            (sc.run_traced().0, sc.run())
        };
        assert_eq!(
            traced, untraced,
            "recording changed the simulation for {sc:?}"
        );
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    // The seed reaches the span stream: two fault seeds diverge in
    // recorded events, not just in aggregate counters.
    let a = Scenario::new(1, FaultSpec::drop_heavy(), Workload::SendRecv, false).run_traced();
    let b = Scenario::new(2, FaultSpec::drop_heavy(), Workload::SendRecv, false).run_traced();
    assert_ne!(a.1.hash(), b.1.hash(), "distinct seeds traced identically");
}
