//! The engine with nothing around it: two [`Engine`]s joined by a
//! loopback that carries each packet effect straight into the peer's
//! `accept` and answers each committed packet with `sent`. No simulator,
//! no threads, no network — time is a number the harness sets.
//!
//! This is the reference adapter: the whole contract between an engine
//! and whatever drives it (effect order, the rail-idle view, `sent`, the
//! park bound of `next_deadline`) in one page, and the way a test outside
//! this crate holds bare engines. The unit tests below drive the same
//! `script` through it that the fabric-driven twin in `core.rs` runs;
//! their counters must agree one for one.

use bytes::Bytes;
use simnet::{CopyMeter, NicModel, NmBuf, SimDuration, SimTime};

use super::{Effect, Engine};
use crate::config::NmConfig;
use crate::sampling::LinkProfile;
use crate::sr::NmCompletion;
use crate::stats::NmStats;
use crate::wire::{NmWire, WirePayload};

/// What a script needs from a pair of ranks, however they are joined.
pub trait World {
    fn isend(&mut self, from: usize, tag: u64, data: Bytes, cookie: u64);
    fn irecv(&mut self, at: usize, tag: u64, cookie: u64);
    /// Let `micros` of time pass, with the progress passes on both ranks
    /// that the protocol needs in it.
    fn poll(&mut self, micros: u64);
    fn completions(&mut self, at: usize) -> Vec<NmCompletion>;
    fn stats(&self, at: usize) -> NmStats;
}

/// Wire faults for a retry script: the first RTS and the first FIN to
/// cross are lost. (A lost DATA chunk makes the receiver's CTS timer race
/// the sender's FIN timer by the CTS's flight and the chunk's registration,
/// which no loopback models: its outcome depends on the wire.)
#[derive(Clone, Default)]
pub struct Lossy {
    rts_lost: bool,
    fin_lost: bool,
}

impl Lossy {
    pub fn loses(&mut self, wire: &NmWire) -> bool {
        let once = match wire.payload() {
            WirePayload::Rts { .. } => &mut self.rts_lost,
            WirePayload::RdvFin { .. } => &mut self.fin_lost,
            _ => return false,
        };
        !std::mem::replace(once, true)
    }
}

/// Two engines and the wire between them. `Clone` (with a cloneable
/// `loses`) forks the pair: the copy runs on independently.
#[derive(Clone)]
pub struct Loopback<L = Box<dyn FnMut(&NmWire) -> bool>> {
    pub engines: [Engine; 2],
    pub now: SimTime,
    /// Does the wire lose this packet?
    pub loses: L,
    /// Packets pumped so far, lost ones included.
    pumped: u64,
}

/// Every rail of the loopback is always free.
const IDLE: &dyn Fn(usize) -> bool = &|_| true;

/// A bare engine with one rail, probing the next rank round the ring.
pub fn engine(cfg: NmConfig, rank: usize, nranks: usize) -> Engine {
    let profiles = vec![LinkProfile::sample(&NicModel::connectx_ib())];
    let probe_peer = Some((rank + 1) % nranks);
    let rec = obs::RankRec::off();
    Engine::new(
        cfg,
        rank,
        nranks,
        profiles,
        probe_peer,
        CopyMeter::new(),
        rec,
    )
}

impl Loopback {
    /// A lossless pair; assign `loses` to change that.
    pub fn new(cfg: NmConfig) -> Loopback {
        Loopback::with_wire(cfg, Box::new(|_| false))
    }
}

impl<L: FnMut(&NmWire) -> bool> Loopback<L> {
    /// A pair whose wire loses the packets `loses` says it does.
    pub fn with_wire(cfg: NmConfig, loses: L) -> Loopback<L> {
        Loopback {
            engines: [engine(cfg, 0, 2), engine(cfg, 1, 2)],
            now: SimTime::ZERO,
            loses,
            pumped: 0,
        }
    }

    /// One progress pass on each rank at the current time. Returns whether
    /// either put a packet on the wire.
    pub fn pass(&mut self) -> bool {
        let before = self.pumped;
        for rank in 0..2 {
            self.engines[rank].schedule(self.now, IDLE);
            self.pump(rank);
        }
        self.pumped != before
    }

    /// The earlier of the two engines' deadlines.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let deadlines = self.engines.iter().filter_map(Engine::next_deadline);
        deadlines.min()
    }

    /// Execute the effects engine `from` has produced: a packet takes one
    /// microsecond to reach the peer's `accept` (or is lost), a committed
    /// packet is answered with `sent`, and whatever those calls produce is
    /// executed in turn.
    pub fn pump(&mut self, from: usize) {
        let mut effects = Vec::new();
        self.engines[from].swap_effects(&mut effects);
        for effect in effects {
            let Effect::Packet { wire, sent, .. } = effect else {
                continue;
            };
            let to = wire.dst_rank();
            self.pumped += 1;
            if !(self.loses)(&wire) {
                self.now += SimDuration::micros(1);
                self.engines[to].accept(self.now, wire, 0, false, IDLE);
                self.pump(to);
            }
            if let Some(tag) = sent {
                self.engines[from].sent(self.now, tag, IDLE);
                self.pump(from);
            }
        }
    }
}

impl<L: FnMut(&NmWire) -> bool> World for Loopback<L> {
    fn isend(&mut self, from: usize, tag: u64, data: Bytes, cookie: u64) {
        self.engines[from].isend(self.now, 1 - from, tag, NmBuf::from(data), cookie);
        self.pump(from);
    }

    fn irecv(&mut self, at: usize, tag: u64, cookie: u64) {
        self.engines[at].irecv(self.now, 1 - at, tag, cookie);
        self.pump(at);
    }

    /// The timer contract at work. The pump delivers at once, so once a
    /// pass moves no packet nothing is in flight and neither engine has
    /// anything to do before the earlier `next_deadline`: time steps
    /// straight there, or to the end of the interval if that comes first.
    fn poll(&mut self, micros: u64) {
        let end = self.now + SimDuration::micros(micros);
        loop {
            let passed_at = self.now;
            if self.pass() {
                continue;
            }
            let next = self.next_deadline();
            assert!(
                next.is_none_or(|t| t > passed_at),
                "a pass at {passed_at:?} left a timer due at {next:?}"
            );
            match next {
                Some(t) if t < end => self.now = t,
                _ => break,
            }
        }
        self.now = self.now.max(end);
    }

    fn completions(&mut self, at: usize) -> Vec<NmCompletion> {
        self.engines[at].take_completions()
    }

    fn stats(&self, at: usize) -> NmStats {
        self.engines[at].stats()
    }
}

// ---------------------------------------------------------------------
// Test-only from here down: the script and the unit tests.
// ---------------------------------------------------------------------

#[cfg(test)]
use std::collections::BTreeMap;

#[cfg(test)]
use crate::config::{FlowConfig, MembershipConfig, RetryConfig, StrategyKind};
#[cfg(test)]
use crate::sr::CompletionKind;

/// Aggregating strategy (the script wants an aggregate of three); with
/// `retry`, the default retransmission timers.
#[cfg(test)]
pub(crate) fn config(retry: bool) -> NmConfig {
    let mut cfg = NmConfig::with_strategy(StrategyKind::Aggreg);
    cfg.retry = retry.then(RetryConfig::default);
    cfg
}

/// Retry armed, eager sends flow-controlled.
#[cfg(test)]
fn flow_cfg() -> NmConfig {
    let mut cfg = config(true);
    cfg.flow = Some(FlowConfig::bounded(4, 64 * 1024));
    cfg
}

#[cfg(test)]
pub(crate) fn pattern(seed: u8, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| seed.wrapping_add((i * 7) as u8))
            .collect::<Vec<u8>>(),
    )
}

/// An eager, an aggregate of three, a 64 KiB rendezvous, rank 0 → rank 1,
/// receives posted first. Checks every payload byte and that each request
/// completed exactly once; returns both ranks' counters.
#[cfg(test)]
pub(crate) fn script(w: &mut impl World) -> [NmStats; 2] {
    let msgs: [(u64, Bytes); 5] = [
        (1, pattern(1, 200)),
        (2, pattern(2, 64)),
        (2, pattern(3, 96)),
        (2, pattern(4, 128)),
        (3, pattern(5, 64 * 1024)),
    ];
    for (i, (tag, _)) in msgs.iter().enumerate() {
        w.irecv(1, *tag, 100 + i as u64);
    }
    // Alone, then three at once, then the large one; a lost RTS and a
    // lost FIN each cost one default retransmission timeout (80 µs).
    for batch in [0..1, 1..4, 4..5] {
        for i in batch {
            w.isend(0, msgs[i].0, msgs[i].1.clone(), i as u64);
        }
        w.poll(400);
    }
    let mut sent: Vec<u64> = Vec::new();
    for c in w.completions(0) {
        assert!(matches!(c.kind, CompletionKind::Send), "{:?}", c.kind);
        sent.push(c.cookie);
    }
    sent.sort_unstable();
    assert_eq!(sent, [0, 1, 2, 3, 4], "each send completes exactly once");
    let mut received: BTreeMap<u64, Bytes> = BTreeMap::new();
    for c in w.completions(1) {
        let CompletionKind::Recv { data, .. } = c.kind else {
            panic!("receive {} failed: {:?}", c.cookie, c.kind);
        };
        assert!(received.insert(c.cookie, data).is_none(), "completed twice");
    }
    assert_eq!(received.len(), msgs.len(), "each receive completes once");
    for (i, (_, want)) in msgs.iter().enumerate() {
        assert_eq!(&received[&(100 + i as u64)], want, "payload {i}");
    }
    [w.stats(0), w.stats(1)]
}

/// Run [`script`] on the loopback; `lossy` arms retry and the two losses.
#[cfg(test)]
pub(crate) fn run(lossy: bool) -> [NmStats; 2] {
    let mut world = Loopback::new(config(lossy));
    if lossy {
        let mut wire = Lossy::default();
        world.loses = Box::new(move |w| wire.loses(w));
    }
    let stats = script(&mut world);
    assert!(world.engines.iter().all(Engine::quiescent));
    assert_eq!(world.next_deadline(), None, "quiescent, so nothing armed");
    stats
}

#[test]
fn script_runs_on_two_bare_engines() {
    let [s0, s1] = run(false);
    assert_eq!((s0.eager_sends, s0.rdv_sends), (4, 1));
    assert_eq!((s0.aggregates_sent, s0.frags_aggregated), (1, 3));
    assert_eq!(
        (s0.packets_sent, s0.data_chunks_sent),
        (4, 1),
        "eager, aggregate, RTS, DATA"
    );
    assert_eq!((s1.packets_sent, s1.recv_completions), (1, 5), "the CTS");
    assert_eq!(s0.total_retries() + s1.total_retries(), 0);
}

/// Flow-controlled traffic either side of `hostile` frames fed to
/// rank 0 as if from rank 1. Returns what rank 1 received, both ranks'
/// counters, and what is left of rank 0's credit pool toward rank 1.
#[cfg(test)]
fn around_hostile_frames(hostile: &[WirePayload]) -> (Vec<Bytes>, [NmStats; 2], Option<u32>) {
    let mut w = Loopback::new(flow_cfg());
    let traffic = |w: &mut Loopback, tag: u64| {
        w.irecv(1, tag, tag);
        w.isend(0, tag, pattern(tag as u8, 300), tag);
        w.poll(50);
    };
    traffic(&mut w, 7);
    for payload in hostile {
        let wire = NmWire::new(1, 0, payload.share());
        w.engines[0].accept(w.now, wire, 0, false, IDLE);
        w.pump(0);
    }
    traffic(&mut w, 8);
    let received = w.completions(1).into_iter().map(|c| match c.kind {
        CompletionKind::Recv { data, .. } => data,
        other => panic!("receive {} ended as {other:?}", c.cookie),
    });
    let pool = w.engines[0].peers[&1].send_credits;
    (received.collect(), [w.stats(0), w.stats(1)], pool)
}

/// Credit counts are input off the wire: a forged `Credit` that would
/// overflow the pool and a replayed `Ack` returning a credit the pool
/// already has are each one counted error. The pool stops at capacity
/// and the traffic around them neither sees nor counts a difference.
#[test]
fn an_over_returned_credit_is_a_counted_error() {
    let hostile = [
        WirePayload::Credit { credits: u32::MAX },
        WirePayload::Ack {
            tag: 7,
            next: 1,
            credits: 1,
        },
    ];
    let (clean_data, [mut clean0, clean1], clean_pool) = around_hostile_frames(&[]);
    let (data, [s0, s1], pool) = around_hostile_frames(&hostile);
    assert_eq!((clean_pool, pool), (Some(4), Some(4)), "pool at capacity");
    assert_eq!(data, [pattern(7, 300), pattern(8, 300)]);
    assert_eq!(data, clean_data);
    assert_eq!((clean0.protocol_errors, s0.protocol_errors), (0, 2));
    clean0.protocol_errors = 2;
    assert_eq!((s0, s1), (clean0, clean1), "no other counter moved");
}

/// A length is input off the wire too: a forged RTS (valid CRC, in-job
/// source) announcing `u64::MAX` bytes used to reach `vec![0u8; len]` — a
/// capacity-overflow panic. It is one counted error, whether the receive
/// was posted before or after it: no landing buffer, no CTS, and the
/// flows around it complete as if it had never come.
#[test]
fn a_forged_rts_length_is_a_counted_error_not_an_allocation() {
    for posted_first in [true, false] {
        let mut w = Loopback::new(flow_cfg());
        let forged = WirePayload::Rts {
            tag: 66,
            seq: 0,
            rdv_id: 900,
            len: u64::MAX as usize,
        };
        let allocs_before = w.engines[0].meter.snapshot().allocations;
        if posted_first {
            w.irecv(0, 66, 66);
        }
        w.engines[0].accept(w.now, NmWire::new(1, 0, forged), 0, false, IDLE);
        w.pump(0);
        if !posted_first {
            w.irecv(0, 66, 66);
        }
        w.poll(50);
        assert_eq!(w.stats(0).protocol_errors, 1);
        assert!(
            w.engines[0].peers[&1].rdv_in.is_empty(),
            "no landing buffer"
        );
        assert_eq!(w.engines[0].meter.snapshot().allocations, allocs_before);
        // The ack of the envelope may have left; a CTS must not have.
        assert_eq!(
            (w.stats(0).cts_retries, w.stats(1).data_chunks_sent),
            (0, 0)
        );
        assert!(
            w.completions(0).is_empty(),
            "the forged receive stays pending"
        );
        // An eager message and a rendezvous, one each way, still complete.
        w.irecv(1, 7, 7);
        w.irecv(0, 8, 8);
        w.isend(0, 7, pattern(7, 300), 7);
        w.isend(1, 8, pattern(8, 64 * 1024), 8);
        w.poll(400);
        for (at, tag, len) in [(1, 7, 300), (0, 8, 64 * 1024)] {
            let got = w.completions(at).into_iter().find_map(|c| match c.kind {
                CompletionKind::Recv { data, .. } => Some(data),
                _ => None,
            });
            assert_eq!(got, Some(pattern(tag, len)), "flow {tag}");
        }
        assert_eq!(w.stats(0).protocol_errors, 1, "and nothing else counted");
    }
}

/// One DATA chunk cut from the sender's payload: `(start, end, corrupted)`,
/// its bounds in KiB.
#[cfg(test)]
type Chunk = (usize, usize, bool);

/// Rank 1 receives a 64 KiB rendezvous under retry whose DATA chunks the
/// test hands it directly, in arrival order. Rank 0 only stands in for the
/// RTS: all that rank 1 answers is lost. Checks that the receive completed
/// once, byte-exact, as a view of the sender's payload with no
/// receive-side allocation or memcpy; returns rank 1's counters.
#[cfg(test)]
fn reassemble(chunks: &[Chunk]) -> NmStats {
    const K: usize = 1024;
    let source = pattern(3, 64 * K);
    let payload = NmBuf::from(source.clone());
    let mut w = Loopback::with_wire(config(true), |wire: &NmWire| wire.dst_rank() == 0);
    w.irecv(1, 5, 5);
    let deliver = |w: &mut Loopback<_>, payload: WirePayload, corrupted: bool| {
        w.engines[1].accept(w.now, NmWire::new(0, 1, payload), 0, corrupted, IDLE);
        w.pump(1);
    };
    let (tag, seq, rdv_id, len) = (5, 0, 1, source.len());
    deliver(
        &mut w,
        WirePayload::Rts {
            tag,
            seq,
            rdv_id,
            len,
        },
        false,
    );
    for &(start, end, corrupted) in chunks {
        let (offset, data) = (start * K, payload.slice(start * K..end * K));
        deliver(
            &mut w,
            WirePayload::Data {
                rdv_id,
                offset,
                data,
            },
            corrupted,
        );
    }
    let done = w.completions(1);
    let [NmCompletion {
        kind: CompletionKind::Recv { data, .. },
        ..
    }] = &done[..]
    else {
        panic!("not one completed receive: {done:?}");
    };
    assert_eq!(data, &source, "byte-exact");
    assert_eq!(
        data.storage_ptr(),
        source.storage_ptr(),
        "a view, not a copy"
    );
    let stats = w.stats(1);
    assert_eq!((stats.copy.allocations, stats.copy.memcpy_calls), (0, 0));
    stats
}

/// Replays are idempotent with no landing buffer: chunks out of order, a
/// duplicated chunk, a replay overlapping two landed parts and a corrupted
/// chunk each leave one completion. `dup_data` counts each chunk that
/// brought bytes already landed, a straggler after the FIN included.
#[test]
fn rendezvous_chunks_reassemble_in_any_order_as_one_view() {
    let cases: [(&str, &[Chunk], u64, u64); 4] = [
        ("out of order", &[(32, 64, false), (0, 32, false)], 0, 0),
        (
            "duplicated, then a straggler after the FIN",
            &[
                (0, 32, false),
                (0, 32, false),
                (32, 64, false),
                (0, 64, false),
            ],
            2,
            0,
        ),
        (
            "a last chunk overlapping two landed parts",
            &[(0, 16, false), (48, 64, false), (8, 56, false)],
            1,
            0,
        ),
        (
            "corrupted, then replayed",
            &[(0, 32, true), (32, 64, false), (0, 32, false)],
            0,
            1,
        ),
    ];
    for (name, chunks, dup_data, crc_drops) in cases {
        let stats = reassemble(chunks);
        assert_eq!(
            (stats.dup_data, stats.crc_drops),
            (dup_data, crc_drops),
            "{name}"
        );
        assert_eq!(stats.recv_completions, 1, "{name}");
    }
}

/// The sender's FIN timer replays a lost DATA chunk before the receiver's
/// CTS timer, which waits for the chunk's predicted transfer, runs out.
#[test]
fn a_lost_rts_and_a_lost_data_chunk_are_replayed() {
    let mut lost = [false; 2];
    let mut w = Loopback::with_wire(config(true), move |wire: &NmWire| {
        let first = match wire.payload() {
            WirePayload::Rts { .. } => &mut lost[0],
            WirePayload::Data { .. } => &mut lost[1],
            _ => return false,
        };
        !std::mem::replace(first, true)
    });
    let [s0, s1] = script(&mut w);
    assert_eq!(
        (s0.rts_retries, s0.data_retries, s0.eager_retries),
        (1, 1, 0)
    );
    assert_eq!((s1.fins_sent, s1.dup_data, s1.dup_envelopes), (1, 0, 0));
    assert_eq!((s0.send_completions, s1.cts_retries), (5, 0));
}

#[test]
fn a_lost_rts_and_a_lost_fin_are_replayed() {
    let [s0, s1] = run(true);
    assert_eq!(
        (s0.rts_retries, s0.data_retries, s0.eager_retries),
        (1, 1, 0)
    );
    // The replayed payload finds the tombstone, which answers with the FIN.
    assert_eq!((s1.fins_sent, s1.dup_data, s1.cts_retries), (2, 1, 0));
    assert_eq!(s0.send_completions, 5);
}

// ---------------------------------------------------------------------
// `Engine::next_deadline`: the timer third of the adapter contract.
// ---------------------------------------------------------------------

#[cfg(test)]
const ALL: fn(&NmWire) -> bool = |_| true;
#[cfg(test)]
const NONE: fn(&NmWire) -> bool = |_| false;

#[cfg(test)]
fn after(t: SimTime, micros: u64) -> SimTime {
    t + SimDuration::micros(micros)
}

#[test]
fn no_deadline_on_a_fresh_engine_nor_without_retry() {
    let fresh = Loopback::new(flow_cfg());
    assert_eq!(fresh.next_deadline(), None);
    // Retry off: a send whose packet the wire eats arms nothing.
    let mut w = Loopback::new(config(false));
    w.loses = Box::new(ALL);
    w.irecv(1, 7, 7);
    w.isend(0, 7, pattern(7, 300), 7);
    assert!(w.pass(), "the eager packet left");
    assert_eq!(w.next_deadline(), None);
}

#[test]
fn an_eager_send_arms_a_timeout_backs_off_and_the_ack_disarms() {
    let rc = RetryConfig::default();
    let mut w = Loopback::new(flow_cfg());
    w.loses = Box::new(ALL);
    w.irecv(1, 7, 7);
    w.isend(0, 7, pattern(7, 300), 7);
    assert_eq!(w.next_deadline(), None, "queued, not yet on the wire");
    let committed = w.now;
    w.pass();
    assert_eq!(w.engines[0].next_deadline(), Some(committed + rc.timeout));
    assert_eq!(
        w.engines[1].next_deadline(),
        None,
        "a posted receive is no timer"
    );
    // The timeout fires: one replay, and the deadline is the backed-off one.
    w.now = committed + rc.timeout;
    w.pass();
    assert_eq!(w.stats(0).eager_retries, 1);
    let backed_off = SimDuration::nanos(rc.timeout.as_nanos() * rc.backoff as u64);
    let second = w.now + backed_off;
    assert_eq!(w.engines[0].next_deadline(), Some(second));
    // The wire heals; the next replay gets through and its ack disarms.
    w.loses = Box::new(NONE);
    w.now = second;
    w.pass();
    assert_eq!(w.stats(0).eager_retries, 2);
    assert_eq!(w.next_deadline(), None);
    let got = w.completions(1);
    assert!(matches!(&got[..], [c] if matches!(&c.kind,
        CompletionKind::Recv { data, .. } if *data == pattern(7, 300))));
}

#[test]
fn deadline_is_the_minimum_across_gates() {
    let rc = RetryConfig::default();
    let mut e = engine(flow_cfg(), 0, 3);
    let (first, second) = (SimTime::ZERO, after(SimTime::ZERO, 10));
    for (at, dst) in [(first, 1), (second, 2)] {
        e.isend(at, dst, 5, NmBuf::from(pattern(dst as u8, 100)), dst as u64);
        e.schedule(at, IDLE);
    }
    assert_eq!(e.next_deadline(), Some(first + rc.timeout));
    // Rank 1 acknowledges: the earliest timer left is the one toward rank 2.
    let ack = WirePayload::Ack {
        tag: 5,
        next: 1,
        credits: 1,
    };
    e.accept(after(second, 1), NmWire::new(1, 0, ack), 0, false, IDLE);
    assert_eq!(e.next_deadline(), Some(second + rc.timeout));
}

#[test]
fn deadline_is_the_minimum_across_a_cts_timer_and_an_eager_timer() {
    let rc = RetryConfig::default();
    let mut w = Loopback::new(flow_cfg());
    // Rank 1 answers an RTS with a CTS the wire eats: its `rdv_in` timer.
    w.loses = Box::new(|wire| matches!(wire.payload(), WirePayload::Cts { .. }));
    w.irecv(1, 3, 103);
    w.isend(0, 3, pattern(5, 64 * 1024), 3);
    let rts_committed = w.now;
    w.pass();
    // The RTS took 1 us; the CTS timer waits out the 64 KiB it asked for.
    let cts_due = after(rts_committed, 1) + rc.timeout + transfer(64 * 1024);
    assert_eq!(w.engines[1].next_deadline(), Some(cts_due));
    // Later, rank 1 sends an eager message that is lost too: `unacked`.
    w.loses = Box::new(ALL);
    w.now = after(w.now, 7);
    w.isend(1, 9, pattern(9, 100), 9);
    let eager_due = w.now + rc.timeout;
    w.pass();
    assert!(eager_due < cts_due);
    assert_eq!(w.engines[1].next_deadline(), Some(eager_due));
    // Once the eager timer has fired and backed off, the CTS one is next.
    w.now = eager_due;
    w.pass();
    assert_eq!((w.stats(1).cts_retries, w.stats(1).eager_retries), (0, 1));
    assert_eq!(w.engines[1].next_deadline(), Some(cts_due));
}

/// The one-way time of `bytes` on the loopback's one rail.
#[cfg(test)]
fn transfer(bytes: usize) -> SimDuration {
    LinkProfile::sample(&NicModel::connectx_ib()).predict(bytes)
}

/// A CTS timer waits for the bytes it asked for: the announced length plus
/// what the gate's other inbound rendezvous have yet to land. A wait past
/// `max_timeout` is kept when the timer backs off, never cut back to it.
#[test]
fn a_cts_timer_covers_its_own_bytes_and_those_queued_ahead() {
    const MIB: usize = 1024 * 1024;
    let rc = RetryConfig::default();
    // Rank 0 only stands in for the sender: all that rank 1 answers is lost.
    let mut w = Loopback::with_wire(config(true), |wire: &NmWire| wire.dst_rank() == 0);
    let rts = |w: &mut Loopback<_>, tag, len| {
        w.irecv(1, tag, tag);
        let rts = WirePayload::Rts {
            tag,
            seq: 0,
            rdv_id: tag,
            len,
        };
        w.engines[1].accept(w.now, NmWire::new(0, 1, rts), 0, false, IDLE);
        w.pump(1);
    };
    rts(&mut w, 1, 4 * MIB);
    let long = rc.timeout + transfer(4 * MIB);
    assert!(long > rc.max_timeout);
    let long_due = w.now + long;
    assert_eq!(w.engines[1].next_deadline(), Some(long_due));
    // A second rendezvous from the same peer lands behind all of the first.
    w.now = after(w.now, 10);
    rts(&mut w, 2, 64 * 1024);
    let second = rc.timeout + transfer(4 * MIB + 64 * 1024);
    let second_due = w.now + second;
    assert_eq!(w.engines[1].next_deadline(), Some(long_due));
    // Each fires once; neither backs off below the wait it was armed with.
    for (due, next) in [(long_due, second_due), (second_due, long_due + long)] {
        w.now = due;
        w.pass();
        assert_eq!(w.engines[1].next_deadline(), Some(next));
    }
    assert_eq!(w.stats(1).cts_retries, 2);
}

#[test]
fn a_silent_awaited_peer_is_a_membership_deadline() {
    let member = MembershipConfig::default();
    let mut cfg = flow_cfg();
    cfg.membership = Some(member);
    let mut w = Loopback::new(cfg);
    w.loses = Box::new(ALL);
    w.irecv(1, 1, 1);
    assert_eq!(
        w.next_deadline(),
        None,
        "no pass has looked at the peer yet"
    );
    let watched_from = w.now;
    w.pass();
    let due = watched_from + member.probe_interval;
    assert_eq!(w.engines[1].next_deadline(), Some(due));
    assert_eq!(w.engines[0].next_deadline(), None, "rank 0 awaits nothing");
    w.now = due;
    assert!(w.pass(), "the silence probe left");
    assert_eq!(
        w.engines[1].next_deadline(),
        Some(due + member.probe_interval)
    );
}

/// The no-spin property: a pass at `next_deadline()` fires whatever was
/// due, so the deadline it leaves is strictly later. Every packet is lost,
/// which walks every timer the engine has: retransmission back-off, the
/// rail going down and being probed, and (second round) the membership
/// silence checks up to the death verdict and the drain.
#[test]
fn a_pass_at_the_deadline_always_moves_it() {
    for membership in [None, Some(MembershipConfig::default())] {
        let mut cfg = flow_cfg();
        cfg.retry.as_mut().unwrap().max_attempts = u32::MAX;
        cfg.membership = membership;
        let mut w = Loopback::new(cfg);
        w.loses = Box::new(ALL);
        w.irecv(1, 1, 1);
        w.irecv(0, 2, 2);
        w.isend(0, 1, pattern(1, 200), 1);
        w.isend(0, 3, pattern(3, 64 * 1024), 3);
        w.isend(1, 2, pattern(2, 200), 2);
        w.pass();
        let mut probe_deadlines = 0;
        for step in 0..80 {
            let due = w
                .next_deadline()
                .expect("unanswered traffic keeps a timer armed");
            assert!(due > w.now, "step {step}: {due:?} is not after {:?}", w.now);
            let health = w.engines[0].health.as_ref().unwrap();
            probe_deadlines += (health.next_deadline() == Some(due)) as u32;
            w.now = due;
            w.pass();
            let next = w.next_deadline();
            assert!(
                next.is_some_and(|t| t > due),
                "step {step}: {due:?} then {next:?}"
            );
        }
        assert!(probe_deadlines > 0, "a rail-probe instant was the deadline");
        assert!(w.stats(0).total_retries() > 4 && w.stats(0).probes_sent > 0);
        if membership.is_some() {
            let table = w.engines[0].membership.as_ref().unwrap();
            assert!(table.is_dead(1), "the silence ended in a verdict");
            assert!(
                !w.engines[0].peers.contains_key(&1),
                "drained: no gate, no timers"
            );
        }
    }
}
