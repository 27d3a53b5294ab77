//! The engine is a plain value: held bare (no `NmCore`, no simulator),
//! cloned mid-run, read through one snapshot and one fingerprint.

use bytes::Bytes;
use nmad::engine::loopback::{Loopback, Lossy, World};
use nmad::engine::{Engine, EngineSnapshot};
use nmad::sr::CompletionKind;
use nmad::{FlowConfig, NmConfig, NmStats, NmWire, RetryConfig, StrategyKind};

fn assert_clone<T: Clone>() {}
const _: fn() = || {
    assert_clone::<Engine>();
    assert_clone::<EngineSnapshot>();
};

const CREDITS: u32 = 4;

/// Aggregating strategy, retry armed, eager sends flow-controlled.
fn cfg() -> NmConfig {
    let mut cfg = NmConfig::with_strategy(StrategyKind::Aggreg);
    cfg.retry = Some(RetryConfig::default());
    cfg.flow = Some(FlowConfig::bounded(CREDITS, 64 * 1024));
    cfg
}

/// A pair whose wire loses the first RTS and the first FIN. The
/// closure owns its `Lossy`, so cloning the pair clones the wire's memory
/// of what it has already lost.
fn lossy_pair() -> Loopback<impl FnMut(&NmWire) -> bool + Clone> {
    let mut wire = Lossy::default();
    Loopback::with_wire(cfg(), move |w: &NmWire| wire.loses(w))
}

fn pattern(seed: u8, len: usize) -> Bytes {
    let byte = |i: usize| seed.wrapping_add((i * 7) as u8);
    Bytes::from((0..len).map(byte).collect::<Vec<u8>>())
}

/// `(tag, payload)` of the messages rank 0 sends rank 1: an eager, three
/// that aggregate, a 64 KiB rendezvous — and, with `extra`, one more.
fn messages(extra: bool) -> Vec<(u64, Bytes)> {
    let mut msgs = vec![
        (1, pattern(1, 200)),
        (2, pattern(2, 64)),
        (2, pattern(3, 96)),
        (2, pattern(4, 128)),
        (3, pattern(5, 64 * 1024)),
    ];
    if extra {
        msgs.push((4, pattern(6, 300)));
    }
    msgs
}

const STEPS: usize = 6;

/// Step `i` of the script. Every odd step is a poll; the even ones leave
/// work queued, so a fork taken after one holds windows, posted receives
/// and (after step 4) a rendezvous that has yet to meet its two losses.
fn step(w: &mut impl World, i: usize, extra: bool) {
    let msgs = messages(extra);
    let send = |w: &mut dyn World, m: usize| {
        w.isend(0, msgs[m].0, msgs[m].1.clone(), m as u64);
    };
    match i {
        0 => {
            for (m, (tag, _)) in msgs.iter().enumerate() {
                w.irecv(1, *tag, 100 + m as u64);
            }
            w.irecv(0, 9, 9);
            send(w, 0);
        }
        2 => (1..4).for_each(|m| send(w, m)),
        4 => {
            (4..msgs.len()).for_each(|m| send(w, m));
            w.isend(1, 9, pattern(9, 100), 90);
        }
        // A lost RTS and a lost FIN each cost one 80 µs timeout.
        _ => w.poll(400),
    }
}

/// Every request completed exactly once with the right bytes.
fn check_completions(w: &mut impl World, extra: bool) {
    let msgs = messages(extra);
    let mut sent: Vec<u64> = w.completions(0).iter().map(|c| c.cookie).collect();
    sent.sort_unstable();
    let mut want: Vec<u64> = (0..msgs.len() as u64).collect();
    want.push(9);
    assert_eq!(sent, want, "rank 0: each send and the receive, once");
    let mut received = w.completions(1);
    received.sort_unstable_by_key(|c| c.cookie);
    assert_eq!(received.len(), msgs.len() + 1);
    assert_eq!(received[0].cookie, 90, "rank 1's own send");
    for (c, (_, want)) in received[1..].iter().zip(&msgs) {
        let CompletionKind::Recv { data, .. } = &c.kind else {
            panic!("receive {} ended as {:?}", c.cookie, c.kind);
        };
        assert_eq!(data, want, "payload of receive {}", c.cookie);
    }
}

fn fingerprints<L>(w: &Loopback<L>) -> [u64; 2] {
    [w.engines[0].fingerprint(), w.engines[1].fingerprint()]
}

fn snapshots<L>(w: &Loopback<L>) -> [EngineSnapshot; 2] {
    [w.engines[0].snapshot(), w.engines[1].snapshot()]
}

/// (i) Fork the pair after each step in turn; run the fork to the end,
/// then the original. Stepping the fork leaves the original where it was,
/// and both end in the same state.
#[test]
fn a_clone_taken_mid_script_runs_on_alone_to_the_same_end() {
    for fork_at in 0..=STEPS {
        let mut original = lossy_pair();
        (0..fork_at).for_each(|i| step(&mut original, i, false));
        let held = (fingerprints(&original), snapshots(&original));
        let mut fork = original.clone();
        assert_eq!((fingerprints(&fork), snapshots(&fork)), held);
        (fork_at..STEPS).for_each(|i| step(&mut fork, i, false));
        assert_eq!(
            (fingerprints(&original), snapshots(&original)),
            held,
            "fork at {fork_at}: stepping the clone moved the original"
        );
        (fork_at..STEPS).for_each(|i| step(&mut original, i, false));
        assert_eq!(snapshots(&original), snapshots(&fork), "fork at {fork_at}");
        assert_eq!(fingerprints(&original), fingerprints(&fork));
        if fork_at < STEPS {
            assert_ne!(fingerprints(&original), held.0, "the script moved nothing");
        }
        check_completions(&mut original, false);
        check_completions(&mut fork, false);
    }
}

fn trace(extra: bool) -> Vec<[u64; 2]> {
    let mut w = lossy_pair();
    let at_each_step = (0..STEPS).map(|i| {
        step(&mut w, i, extra);
        fingerprints(&w)
    });
    at_each_step.collect()
}

/// (ii) The fingerprint is a function of the calls made, not of the
/// process: each gate here holds four flows in a `HashMap`, whose
/// iteration order differs from one map to the next.
#[test]
fn two_runs_fingerprint_alike_at_every_step_and_one_more_message_does_not() {
    let (a, b) = (trace(false), trace(false));
    assert_eq!(a, b);
    for pair in a.windows(2) {
        assert_ne!(pair[0], pair[1], "every step changes both engines");
    }
    // The receiver posts the extra receive in step 0, the sender sends
    // the extra message in step 4.
    let longer = trace(true);
    for i in 0..STEPS {
        assert_eq!(longer[i][0] == a[i][0], i < 4, "sender, step {i}");
        assert_ne!(longer[i][1], a[i][1], "receiver, step {i}");
    }
}

/// (iii) After the script nothing is held per peer but sequence state:
/// every gauge of the snapshot is back where an idle engine has it and no
/// timer is armed.
#[test]
fn the_script_leaves_every_gauge_at_its_baseline() {
    let mut w = lossy_pair();
    (0..STEPS).for_each(|i| step(&mut w, i, false));
    check_completions(&mut w, false);
    assert_eq!(w.next_deadline(), None);
    for (rank, snap) in snapshots(&w).iter().enumerate() {
        assert!(w.engines[rank].quiescent());
        assert_eq!(snap.unex_eager_bytes(), 0);
        let [peer] = snap.peers() else {
            panic!("rank {rank} talked to one peer: {snap}");
        };
        assert_eq!(peer.rank, 1 - rank);
        assert_eq!(
            (peer.posted, peer.unexpected, peer.window),
            (0, 0, 0),
            "{snap}"
        );
        assert_eq!((peer.owed, peer.withheld), (0, 0), "{snap}");
        assert_eq!(peer.send_credits, Some(CREDITS), "pool refilled: {snap}");
        // The gate, its four flows (tags 1, 2, 3 and 9) and, on the
        // receiver, the tombstone of the finished rendezvous.
        assert_eq!(peer.records, 5 + rank, "{snap}");
        assert_eq!(snap.stats().peer_entries, peer.records as u64);
    }
    let line = w.engines[0].snapshot().to_string();
    for part in [
        "outbox=0",
        "failover[rails=[Up]",
        "flow[unex=0B",
        "rank: 1, liveness: Up",
    ] {
        assert!(line.contains(part), "{part:?} missing from: {line}");
    }
}

/// (iv) `absorb` is a sum, but for the high-water mark (a maximum) and the
/// job-wide copy meter (left alone). The job-level check against the four
/// folds it replaced is pinned in `tests/overload.rs` and
/// `tests/recovery.rs`, which have a simulator to run a job on.
#[test]
fn absorb_sums_counters_and_takes_the_larger_peak() {
    let mut w = lossy_pair();
    (0..STEPS).for_each(|i| step(&mut w, i, false));
    let (mut s0, s1) = (w.stats(0), w.stats(1));
    s0.fc_peak_unex_bytes = 700;
    let mut total = NmStats::default();
    total.absorb(&s0);
    total.absorb(&s1);
    assert_eq!(total.packets_sent, s0.packets_sent + s1.packets_sent);
    assert_eq!(total.recv_completions, 6);
    assert_eq!((total.rts_retries, total.data_retries), (1, 1));
    assert_eq!(
        total.fc_credits_returned,
        s0.fc_credits_returned + s1.fc_credits_returned
    );
    assert_eq!(total.peer_entries, 11);
    assert_eq!(total.fc_peak_unex_bytes, 700.max(s1.fc_peak_unex_bytes));
    assert!(s0.copy != Default::default(), "the meter did count");
    assert_eq!(total.copy, Default::default());
}
