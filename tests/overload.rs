//! Eager-flood overload tests: credit-based flow control under fire.
//!
//! Eight senders (one per node) flood a single receiver with a seeded,
//! skewed [`OverloadPlan`] burst schedule while the receiver drains
//! slowly. With flow control armed the receiver's unexpected eager bytes
//! must stay under the configured cap — the sender pools degrade the
//! overflow to the rendezvous path — and the whole run must replay
//! bit-identically from its seed, flow counters included. The same flood
//! without flow control must blow past the cap, proving the bound comes
//! from the credit layer and not from the workload being too gentle.
//!
//! CI's overload-seed matrix sets `SIM_SEED_BASE` to shift every seed
//! here onto a fresh range, so each job proves the invariants on burst
//! schedules no other job saw.

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::nmad::FlowConfig;
use mpich2_nmad_repro::sim_harness::byte;
use mpich2_nmad_repro::simnet::{Cluster, OverloadPlan, Placement, SimDuration};

/// Flooding senders (ranks 1..=SENDERS; rank 0 receives).
const SENDERS: usize = 8;
const MSGS_PER_SENDER: usize = 40;
/// Payload range: all-eager (below the 16 KiB threshold), floor high
/// enough that even a minimum-length flood pushes the receiver past the
/// high-water mark (8 senders × 2 credits × 4 KiB > cap/2).
const LEN_RANGE: (usize, usize) = (4 * 1024, 8 * 1024);
const MEAN_GAP: SimDuration = SimDuration::micros(2);
const CREDITS: u32 = 2;
/// The hard ceiling: peers × eager_credits × max payload length.
const CAP: usize = SENDERS * CREDITS as usize * LEN_RANGE.1;
const TAG: u32 = 7;

fn seed_base() -> u64 {
    std::env::var("SIM_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Per-message payload seed — mixes the run seed with sender and index so
/// every payload in the flood is distinct.
fn flood_seed(seed: u64, sender: usize, idx: usize) -> u64 {
    seed ^ ((sender as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        ^ ((idx as u64 + 1).wrapping_mul(6364136223846793005))
}

fn flood_payload(seed: u64, sender: usize, idx: usize, len: usize) -> Vec<u8> {
    let ms = flood_seed(seed, sender, idx);
    let mut p: Vec<u8> = (0..len).map(|i| byte(ms, i)).collect();
    // First 8 bytes carry (sender, idx) so ANY_SOURCE receivers can check
    // per-sender order independently of matching.
    p[..8].copy_from_slice(&(((sender as u64) << 32) | idx as u64).to_le_bytes());
    p
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Run the flood: senders follow the plan's burst schedule, the receiver
/// idles 500µs (letting the backlog build) and then drains slowly. Every
/// payload byte is checked in the receiver; returns the receiver's FNV
/// hash per rank (senders return 0).
fn run_flood(seed: u64, flow: Option<FlowConfig>, any_source: bool) -> (RunOutcome, u64) {
    let cluster = Cluster::grid5000_opteron();
    let nranks = 1 + SENDERS;
    let placement = Placement::one_per_node(nranks, &cluster);
    let mut stack = StackConfig::mpich2_nmad(false).with_fabric_seed(seed);
    if let Some(f) = flow {
        stack = stack.with_flow(f);
    }
    let plan = OverloadPlan::new(seed, SENDERS, MSGS_PER_SENDER, LEN_RANGE, MEAN_GAP);
    let (outcome, hashes) = run_mpi_collect(&cluster, &placement, &stack, nranks, move |mpi| {
        flood_rank(mpi, &plan, seed, any_source)
    });
    (outcome, hashes[0])
}

fn flood_rank(mpi: &MpiHandle, plan: &OverloadPlan, seed: u64, any_source: bool) -> u64 {
    let me = mpi.rank();
    if me == 0 {
        // Let the flood land first: with flow armed the sender pools
        // empty and the tail degrades to rendezvous; without it the
        // whole flood piles up unexpected.
        mpi.compute(SimDuration::micros(500));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        if any_source {
            let mut next = [0usize; SENDERS + 1];
            for _ in 0..plan.total_msgs() {
                let (data, st) = mpi.recv(Src::Any, TAG);
                let s = st.source;
                assert!((1..=SENDERS).contains(&s), "bogus source {s}");
                let hdr = u64::from_le_bytes(data[..8].try_into().unwrap());
                let (hs, hi) = ((hdr >> 32) as usize, (hdr & 0xffff_ffff) as usize);
                assert_eq!(hs, s, "header sender disagrees with matched source");
                assert_eq!(hi, next[s], "per-sender order violated from rank {s}");
                let want = flood_payload(seed, s, hi, plan.schedule(s - 1)[hi].1);
                assert_eq!(&data[..], &want[..], "payload corrupt: rank {s} msg {hi}");
                next[s] += 1;
                fnv(&mut h, &data);
                mpi.compute(SimDuration::micros(5));
            }
            for (s, &n) in next.iter().enumerate().skip(1) {
                assert_eq!(n, MSGS_PER_SENDER, "rank {s} short-delivered");
            }
        } else {
            // Round-robin drain, one blocking receive at a time: the
            // receiver stays the bottleneck, so flow control (not luck)
            // is what bounds the backlog. Per-sender receives match in
            // posted order — receive i must carry message i's bytes.
            for idx in 0..MSGS_PER_SENDER {
                for s in 1..=SENDERS {
                    let (data, st) = mpi.recv(Src::Rank(s), TAG);
                    assert_eq!(st.source, s);
                    let want = flood_payload(seed, s, idx, plan.schedule(s - 1)[idx].1);
                    assert_eq!(
                        data.len(),
                        want.len(),
                        "length mismatch: rank {s} msg {idx}"
                    );
                    assert_eq!(&data[..], &want[..], "payload corrupt: rank {s} msg {idx}");
                    fnv(&mut h, &data);
                    mpi.compute(SimDuration::micros(5));
                }
            }
        }
        h
    } else {
        for (idx, &(gap, len)) in plan.schedule(me - 1).iter().enumerate() {
            mpi.compute(gap);
            mpi.send(0, TAG, &flood_payload(seed, me, idx, len));
        }
        0
    }
}

#[test]
fn flood_respects_cap_and_degrades_to_rendezvous() {
    let seed = seed_base() + 40;
    let (outcome, _) = run_flood(seed, Some(FlowConfig::bounded(CREDITS, CAP)), false);
    let ft = outcome.nm_total();
    assert!(
        ft.fc_peak_unex_bytes <= CAP as u64,
        "flow armed but peak unexpected backlog {}B exceeded the {}B cap",
        ft.fc_peak_unex_bytes,
        CAP
    );
    assert!(ft.fc_eager_admitted > 0, "no eager send consumed a credit");
    assert!(
        ft.fc_credit_stalls > 0 && ft.fc_fallback_sends > 0,
        "a {MSGS_PER_SENDER}-deep flood against {CREDITS} credits must \
         exhaust pools and degrade to rendezvous (stalls {}, fallbacks {})",
        ft.fc_credit_stalls,
        ft.fc_fallback_sends
    );
    assert!(
        ft.fc_credits_withheld > 0,
        "the idle receiver must cross the high-water mark and withhold \
         credit returns"
    );
    assert!(
        ft.fc_credits_returned > 0,
        "draining the backlog must eventually return credits"
    );
}

/// `RunOutcome::nm_total` against the values the four hand folds it
/// replaced (`flow_totals`, `membership_totals`, `failover_totals`,
/// `probe_totals`) returned for this run at the commit that deleted
/// them. A fixed seed: `SIM_SEED_BASE` does not shift it.
#[test]
fn nm_total_equals_the_deleted_folds_on_a_pinned_flood() {
    let (outcome, _) = run_flood(40, Some(FlowConfig::bounded(CREDITS, CAP)), false);
    let t = outcome.nm_total();
    assert_eq!(
        (
            t.fc_eager_admitted,
            t.fc_credit_stalls,
            t.fc_fallback_sends,
            t.fc_credits_returned,
            t.fc_credits_withheld,
            t.fc_peak_unex_bytes
        ),
        (216, 104, 104, 216, 131, 93_042),
        "flow_totals"
    );
    let peaks = outcome.nm_stats.iter().map(|s| s.fc_peak_unex_bytes);
    assert_eq!(
        peaks.max(),
        Some(93_042),
        "a maximum across ranks, not a sum"
    );
    assert_eq!(
        (
            t.membership_transitions,
            t.membership_dead_peers,
            t.revoked_ops
        ),
        (0, 0, 0),
        "membership_totals"
    );
    assert_eq!(
        (t.rail_transitions, t.rerouted_bytes, t.degraded_nanos),
        (0, 0, 0),
        "failover_totals"
    );
    assert_eq!((t.probes_sent, t.probe_acks), (0, 0), "probe_totals");
    assert_eq!(t.copy, Default::default(), "copy is RunOutcome.copy's");
}

#[test]
fn unarmed_flood_blows_past_the_cap() {
    // Control: the identical flood without flow control must exceed the
    // cap — the bound above comes from the credit layer, not from the
    // workload being too gentle to matter.
    let seed = seed_base() + 40;
    let (outcome, _) = run_flood(seed, None, false);
    let ft = outcome.nm_total();
    assert!(
        ft.fc_peak_unex_bytes > CAP as u64,
        "unarmed flood peaked at {}B, under the {}B cap — the armed test \
         is not proving anything",
        ft.fc_peak_unex_bytes,
        CAP
    );
    // Off means off: no credit counter may move.
    assert_eq!(
        (
            ft.fc_eager_admitted,
            ft.fc_credit_stalls,
            ft.fc_fallback_sends,
            ft.fc_credits_returned,
            ft.fc_credits_withheld
        ),
        (0, 0, 0, 0, 0),
        "flow disabled but credit counters moved"
    );
}

#[test]
fn same_seed_replays_bit_identical() {
    for s in 0..2u64 {
        let seed = seed_base() + 60 + s;
        let flow = FlowConfig::bounded(CREDITS, CAP);
        let (a, ha) = run_flood(seed, Some(flow), false);
        let (b, hb) = run_flood(seed, Some(flow), false);
        assert_eq!(ha, hb, "seed {seed}: payload hash diverged");
        assert_eq!(
            a.sim.final_time, b.sim.final_time,
            "seed {seed}: final time diverged"
        );
        assert_eq!(
            a.sim.events, b.sim.events,
            "seed {seed}: event count diverged"
        );
        assert_eq!(a.nm_stats, b.nm_stats, "seed {seed}: NM counters diverged");
        assert_eq!(
            a.rail_counters, b.rail_counters,
            "seed {seed}: rail traffic diverged"
        );
        assert_eq!(a.copy, b.copy, "seed {seed}: copy accounting diverged");
        assert!(
            a.nm_total().fc_fallback_sends > 0,
            "seed {seed}: replay pair never exercised the fallback path"
        );
    }
}

#[test]
fn any_source_survives_the_flood() {
    // MPI_ANY_SOURCE under overload: matching through the any-source list
    // machinery while eager traffic stalls, degrades and recovers must
    // still deliver exactly-once with per-sender FIFO order (asserted
    // in-program via the payload headers).
    let seed = seed_base() + 80;
    let (outcome, _) = run_flood(seed, Some(FlowConfig::bounded(CREDITS, CAP)), true);
    let ft = outcome.nm_total();
    assert!(
        ft.fc_peak_unex_bytes <= CAP as u64,
        "cap held under ANY_SOURCE"
    );
    assert!(
        ft.fc_fallback_sends > 0,
        "flood too gentle: ANY_SOURCE never saw the degraded path"
    );
}

#[test]
fn ample_credits_match_unarmed_baseline() {
    // Happy path: flow armed but pools deep enough that no send ever
    // stalls. A paced, pre-posted exchange must behave like the unarmed
    // baseline — same bytes, no fallbacks, completion time within noise
    // (credit-return frames share the wire, so exact equality is not
    // expected).
    let seed = seed_base() + 90;
    let run = |flow: Option<FlowConfig>| -> (RunOutcome, u64) {
        let cluster = Cluster::grid5000_opteron();
        let nranks = 1 + SENDERS;
        let placement = Placement::one_per_node(nranks, &cluster);
        let mut stack = StackConfig::mpich2_nmad(false).with_fabric_seed(seed);
        if let Some(f) = flow {
            stack = stack.with_flow(f);
        }
        let (outcome, hashes) = run_mpi_collect(&cluster, &placement, &stack, nranks, move |mpi| {
            let me = mpi.rank();
            const PACED_MSGS: usize = 12;
            const PACED_LEN: usize = 2048;
            if me == 0 {
                let mut reqs = Vec::new();
                for idx in 0..PACED_MSGS {
                    for s in 1..=SENDERS {
                        reqs.push((s, idx, mpi.irecv(Src::Rank(s), TAG)));
                    }
                }
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for (s, idx, r) in reqs {
                    let (data, _) = mpi.wait_data(r);
                    let data = data.expect("recv payload");
                    let want = flood_payload(seed, s, idx, PACED_LEN);
                    assert_eq!(&data[..], &want[..], "rank {s} msg {idx} corrupt");
                    fnv(&mut h, &data);
                }
                h
            } else {
                for idx in 0..PACED_MSGS {
                    mpi.send(0, TAG, &flood_payload(seed, me, idx, PACED_LEN));
                    mpi.compute(SimDuration::micros(10));
                }
                0
            }
        });
        (outcome, hashes[0])
    };
    let (armed, ha) = run(Some(FlowConfig::bounded(32, 8 * 1024 * 1024)));
    let (unarmed, hu) = run(None);
    let ft = armed.nm_total();
    assert_eq!(ft.fc_credit_stalls, 0, "deep pools must never stall");
    assert_eq!(ft.fc_fallback_sends, 0, "paced flow must stay all-eager");
    assert!(ft.fc_eager_admitted > 0);
    assert_eq!(
        ft.fc_credits_withheld, 0,
        "pre-posted receiver never throttles"
    );
    assert_eq!(ha, hu, "same workload, same bytes");
    let (ta, tu) = (
        armed.sim.final_time.as_nanos() as f64,
        unarmed.sim.final_time.as_nanos() as f64,
    );
    let ratio = (ta - tu).abs() / tu;
    assert!(
        ratio < 0.05,
        "armed-but-idle flow cost {:.2}% vs the unarmed baseline \
         (armed {ta}ns, unarmed {tu}ns)",
        ratio * 100.0
    );
    let fu = unarmed.nm_total();
    assert_eq!(
        (
            fu.fc_eager_admitted,
            fu.fc_credit_stalls,
            fu.fc_fallback_sends,
            fu.fc_credits_returned,
            fu.fc_credits_withheld,
            fu.fc_peak_unex_bytes
        ),
        (0, 0, 0, 0, 0, 0),
        "unarmed baseline moved a flow counter"
    );
}
