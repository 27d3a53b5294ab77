//! One record per peer: the *gate*.
//!
//! Everything this core holds about one remote rank lives in one
//! [`Gate`], and the engine keeps exactly one `BTreeMap<rank, Gate>`:
//!
//! ```text
//!   Gate (peer p)
//!   ├─ window           packet wrappers queued toward p, not yet committed
//!   ├─ flows[tag]       send_seq · recv_expected · recv_posted · parked
//!   │                   · posted · unexpected   (the tag's match queues)
//!   ├─ posted_waiting   receives waiting on p, over all its flows
//!   ├─ unacked[tag,seq] eager envelopes on the wire awaiting p's ack
//!   ├─ rdv_out[rdv_id]  rendezvous this rank is sending to p
//!   ├─ rdv_in[rdv_id]   rendezvous p is sending to this rank
//!   ├─ rdv_done         tombstones of finished inbound rendezvous
//!   ├─ last_in_rail     rail p's latest frame arrived on
//!   ├─ send_credits     eager credits left for sends toward p
//!   └─ credit_owed / credit_withheld   eager credits to hand back to p
//! ```
//!
//! Records are created lazily, by the first operation that has something
//! to store, and a question *about a peer* — how much is held for it, is
//! anything in flight toward it, what must fail when it dies — is a read
//! or a `remove` of that peer's record, never a scan of the whole core.
//! Rendezvous ids are looked up inside the gate of the rank that sent the
//! frame, so a frame can only ever touch its own sender's records.
//!
//! Plain data with `&mut self` methods: no lock and no network handle.
//! The protocol decisions stay in [`crate::engine`], which is the adapter
//! between these records and the transition table.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use simnet::{CopyMeter, NmBuf, SimDuration, SimTime};

use crate::config::RetryConfig;
use crate::matching::{self, TagQueue, Unexpected};
use crate::pack::PacketWrapper;
use crate::protocol::State;
use crate::sr::{RecvReqId, SendReqId};
use crate::wire::WirePayload;

/// Retry mode: the retransmission timer of one record (an unacked eager
/// envelope, an outbound or an inbound rendezvous). Unarmed by default and
/// whenever nothing of the record is outstanding on the wire.
#[derive(Clone, Copy, Default, Hash)]
pub(crate) struct RetxTimer {
    deadline: Option<SimTime>,
    timeout: SimDuration,
    attempts: u32,
}

/// `now + timeout`, saturating: a receiver's timeout grows with a length
/// read off the wire, and a forged one must not overflow the clock.
fn after(now: SimTime, timeout: SimDuration) -> SimTime {
    SimTime::from_nanos(now.as_nanos().saturating_add(timeout.as_nanos()))
}

impl RetxTimer {
    /// Start afresh: `timeout` from now, no attempt on record.
    pub fn arm(&mut self, now: SimTime, timeout: SimDuration) {
        *self = RetxTimer {
            deadline: Some(after(now, timeout)),
            timeout,
            attempts: 0,
        };
    }

    pub fn disarm(&mut self) {
        self.deadline = None;
    }

    pub fn due(&self, now: SimTime) -> bool {
        self.deadline.is_some_and(|dl| now >= dl)
    }

    /// The instant this timer becomes [`Self::due`]; `None` while unarmed.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// Progress arrived: push an armed deadline out by the current
    /// (possibly backed-off) timeout. The attempts stay on record.
    pub fn bump(&mut self, now: SimTime) {
        if self.deadline.is_some() {
            self.deadline = Some(after(now, self.timeout));
        }
    }

    /// The timer fired: count the attempt, multiply the timeout by
    /// `rc.backoff` up to `rc.max_timeout` — but never below the timeout it
    /// already has, so a timer armed past `max_timeout` (a receiver waiting
    /// on megabytes) keeps its wait — and re-arm. Returns the instant
    /// the expired window was armed (the membership supervisor charges a
    /// peer only if it stayed silent since then). `max_attempts` replays
    /// without progress declare the link dead — unless `supervised`, where
    /// the membership table owns that verdict.
    pub fn backoff(
        &mut self,
        now: SimTime,
        rc: &RetryConfig,
        supervised: bool,
        what: &str,
    ) -> SimTime {
        let fired = self.deadline.expect("backoff of an unarmed timer");
        let armed_at =
            SimTime::from_nanos(fired.as_nanos().saturating_sub(self.timeout.as_nanos()));
        self.attempts += 1;
        assert!(
            supervised || self.attempts <= rc.max_attempts,
            "{what}: {} retransmissions without progress — link presumed dead",
            rc.max_attempts
        );
        let backed_off = self.timeout.as_nanos().saturating_mul(rc.backoff as u64);
        let capped = backed_off.min(rc.max_timeout.as_nanos());
        self.timeout = SimDuration::nanos(capped.max(self.timeout.as_nanos()));
        self.deadline = Some(after(now, self.timeout));
        armed_at
    }
}

/// An outbound rendezvous (this rank is the sender).
#[derive(Clone)]
pub(crate) struct RdvOut {
    pub send_req: SendReqId,
    pub data: NmBuf,
    /// Bytes not yet handed to a rail.
    pub bytes_remaining: usize,
    /// Chunks handed to a rail whose send-completion hasn't fired.
    pub chunks_in_flight: usize,
    /// Protocol-table state of this outbound rendezvous. Every decision
    /// about an arriving frame or firing timer is a `protocol::step`
    /// lookup against this; the handlers only execute the emitted
    /// actions. (Inbound state is derived, see [`Gate::receiver_state`].)
    pub state: State,
    /// Bitmask of local rail indices the outstanding RTS/DATA packets of
    /// this rendezvous last went out on — the set of rails a timeout is
    /// attributed to, and the set a reroute moves away from.
    pub last_rails: u64,
    /// Matching envelope identity, kept for RTS retransmission.
    pub tag: u64,
    pub seq: u64,
    /// Retry mode: RTS→CTS, then last-chunk→FIN. Unarmed while nothing is
    /// outstanding on the wire (RTS not yet committed, or DATA chunks in
    /// flight on the local NIC).
    pub timer: RetxTimer,
}

/// An inbound rendezvous (this rank is the receiver).
#[derive(Clone)]
pub(crate) struct RdvIn {
    pub recv_req: RecvReqId,
    pub tag: u64,
    /// Envelope sequence of the matched RTS (lifecycle-span identity).
    pub seq: u64,
    /// Payload length the RTS announced.
    len: usize,
    /// Bytes landed so far: the total length of `parts`.
    received: usize,
    /// The landed DATA chunks as views of the wire, keyed by payload
    /// offset and disjoint: a replayed or overlapping chunk lands only
    /// the bytes no part covers yet, so replays are idempotent.
    parts: BTreeMap<usize, NmBuf>,
    /// Retry mode: CTS retransmission timer, armed for the predicted
    /// transfer of every byte this gate still awaits, bumped on DATA
    /// progress.
    pub timer: RetxTimer,
}

impl RdvIn {
    pub fn new(recv_req: RecvReqId, tag: u64, seq: u64, len: usize, timer: RetxTimer) -> RdvIn {
        RdvIn {
            recv_req,
            tag,
            seq,
            len,
            received: 0,
            parts: BTreeMap::new(),
            timer,
        }
    }

    /// The sub-ranges of `[start, end)` no landed part covers, in order.
    fn gaps(&self, start: usize, end: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let before = self.parts.range(..start).next_back();
        let landed = before.into_iter().chain(self.parts.range(start..end));
        let mut at = start;
        landed
            .map(|(&s, part)| (s, s + part.len()))
            // An empty part at `end` closes the last gap.
            .chain([(end, end)])
            .filter_map(move |(s, e)| {
                let gap = at..s.min(end);
                at = at.max(e);
                (!gap.is_empty()).then_some(gap)
            })
    }

    /// How many bytes a chunk over `[start, end)` would add.
    fn fresh(&self, start: usize, end: usize) -> usize {
        self.gaps(start, end).map(|gap| gap.len()).sum()
    }

    /// Payload bytes announced but not landed yet.
    pub fn outstanding(&self) -> usize {
        self.len - self.received
    }

    /// The protocol table's guards for a chunk of `n` bytes at `offset`,
    /// answered before anything lands: does it lie inside the announced
    /// payload (`InRange`), and would it complete the payload (`Last`,
    /// counting only bytes no landed part covers)?
    pub fn guards(&self, offset: usize, n: usize) -> (bool, bool) {
        match offset.checked_add(n) {
            Some(end) if end <= self.len => {
                (true, self.received + self.fresh(offset, end) == self.len)
            }
            _ => (false, false),
        }
    }

    /// Land the chunk `data` at `offset`, which [`Self::guards`] found in
    /// range: keep it whole if none of it is here yet, else only zero-copy
    /// slices of its uncovered bytes. Returns how many bytes were fresh.
    pub fn land(&mut self, offset: usize, data: NmBuf) -> usize {
        let end = offset + data.len();
        let fresh = self.fresh(offset, end);
        if fresh > 0 && fresh == data.len() {
            self.parts.insert(offset, data);
        } else {
            let gaps: Vec<_> = self.gaps(offset, end).collect();
            for gap in gaps {
                let part = data.slice(gap.start - offset..gap.end - offset);
                self.parts.insert(gap.start, part);
            }
        }
        self.received += fresh;
        fresh
    }

    /// The whole payload, once every byte has landed: the parts rejoined
    /// as one view of the sender's storage (see [`NmBuf::concat`]).
    pub fn into_payload(self, meter: &Arc<CopyMeter>) -> NmBuf {
        debug_assert_eq!(self.received, self.len);
        NmBuf::concat(self.parts.into_values().collect(), self.len, meter)
    }
}

/// Retry mode: one unacked eager envelope awaiting a cumulative ack.
#[derive(Clone)]
pub(crate) struct EnvRetx {
    pub payload: WirePayload,
    /// Armed from the moment the envelope leaves the node.
    pub timer: RetxTimer,
    /// Local rail index the envelope last went out on (health attribution
    /// and reroute target).
    pub rail: usize,
}

/// Sequencing state of one `(peer, tag)` message stream.
#[derive(Clone, Default)]
pub(crate) struct Flow {
    /// Sender side: sequence the next envelope toward the peer carries.
    send_seq: u64,
    /// Receiver side: next envelope sequence due for delivery.
    pub recv_expected: u64,
    /// Receiver side: sequence a newly posted receive will match under
    /// in-order delivery (keys its `recv_posted` span event).
    recv_posted: u64,
    /// Early (out-of-order) envelope arrivals, parked until their turn.
    pub parked: BTreeMap<u64, Unexpected>,
    /// Posted receives and in-order unexpected arrivals: reached through
    /// the gate, which counts the former.
    queue: TagQueue,
}

fn post_inc(counter: &mut u64) -> u64 {
    let v = *counter;
    *counter += 1;
    v
}

impl Flow {
    pub fn next_send_seq(&mut self) -> u64 {
        post_inc(&mut self.send_seq)
    }

    pub fn next_posted_seq(&mut self) -> u64 {
        post_inc(&mut self.recv_posted)
    }
}

/// Everything held about one peer. See the module docs for the layout.
#[derive(Clone, Default)]
pub(crate) struct Gate {
    /// Submission window toward the peer.
    pub window: VecDeque<PacketWrapper>,
    /// Keyed by tag. A hash map because nothing depends on the order
    /// flows are visited in (the retransmit queue below carries the replay
    /// order) and most gates hold one or two flows: a B-tree pins a
    /// 632-byte node per gate however few it holds, which at 1024 ranks
    /// (~13 gates per core) showed up as +5 % peak heap.
    pub flows: HashMap<u64, Flow>,
    /// Retry mode: eager envelopes awaiting the peer's cumulative ack,
    /// keyed `(tag, seq)`. On the gate rather than in each [`Flow`] so a
    /// retransmission sweep costs O(unacked), not O(flows ever opened);
    /// the key order is the `(tag, seq)` replay order either way.
    pub unacked: BTreeMap<(u64, u64), EnvRetx>,
    /// Rendezvous records are boxed: a B-tree allocates its nodes eleven
    /// slots at a time and a gate rarely has more than one rendezvous in
    /// flight per direction, so inline records would pin ~3 KiB of mostly
    /// empty node per gate that ever ran one each way.
    pub rdv_out: BTreeMap<u64, Box<RdvOut>>,
    pub rdv_in: BTreeMap<u64, Box<RdvIn>>,
    /// Retry mode: tombstones of finished inbound rendezvous — a replayed
    /// RTS/DATA for one of these gets a FIN, not a new transfer.
    pub rdv_done: BTreeSet<u64>,
    /// Rail the peer's most recent inbound packet arrived on — control
    /// replies are routed back the same way, so an ack never chases a
    /// peer into a rail that just died.
    pub last_in_rail: Option<usize>,
    /// Posted receives waiting across `flows` — non-zero is "inbound
    /// expected from this peer", which the membership sweep asks of every
    /// gate on every pass.
    posted_waiting: usize,
    /// Flow control, sender side: eager credits left toward the peer, out
    /// of `FlowConfig::eager_credits`. `None` until the first eager send
    /// or credit return seeds it (the record does not know the config).
    pub send_credits: Option<u32>,
    /// Flow control, receiver side: credits earned (an eager message was
    /// consumed) awaiting return on the next ctrl flush.
    pub credit_owed: u32,
    /// Flow control, receiver side: credits whose return the high-water
    /// hysteresis is withholding until the unexpected queue drains.
    pub credit_withheld: u32,
}

impl Gate {
    /// The flow for `tag`, opened on first use.
    pub fn flow(&mut self, tag: u64) -> &mut Flow {
        self.flows.entry(tag).or_default()
    }

    /// Post a receive on `tag`: the earliest unexpected message is
    /// consumed and returned if one waits, else `req` waits its turn.
    pub fn post_recv(&mut self, tag: u64, req: RecvReqId) -> Option<Unexpected> {
        let hit = self.flow(tag).queue.post_recv(req);
        self.posted_waiting += hit.is_none() as usize;
        hit
    }

    /// Envelope `seq` of `tag` is being delivered: the receive it
    /// matches, if one is posted. Else [`Self::store_unexpected`] it.
    pub fn try_match_arrival(&mut self, tag: u64, seq: u64) -> Option<RecvReqId> {
        let req = self.flows.get_mut(&tag)?.queue.try_match_arrival(seq)?;
        self.posted_waiting -= 1;
        Some(req)
    }

    /// Keep `msg` until a receive is posted; `ticket` is the engine-wide
    /// arrival stamp ANY_SOURCE probes arbitrate on.
    pub fn store_unexpected(&mut self, tag: u64, ticket: u64, msg: Unexpected) {
        self.flow(tag).queue.store_unexpected(ticket, msg);
    }

    /// Arrival ticket and payload length of the earliest unexpected
    /// message under `tag`. Read-only: never opens a flow.
    pub fn probe(&self, tag: u64) -> Option<(u64, usize)> {
        self.flows.get(&tag)?.queue.front()
    }

    /// Receives waiting on this peer.
    pub fn posted(&self) -> usize {
        self.posted_waiting
    }

    /// Unexpected messages held from this peer.
    pub fn unexpected(&self) -> usize {
        self.flows.values().map(|f| f.queue.unexpected_len()).sum()
    }

    /// Empty the receive side of every flow whose tag `doomed` selects.
    /// Returns the orphaned receives in ascending tag order, how many
    /// messages were dropped (unexpected and parked alike), and the eager
    /// payload bytes the unexpected ones held.
    pub fn purge_flows(&mut self, doomed: impl Fn(u64) -> bool) -> (Vec<RecvReqId>, usize, usize) {
        let mut parked = 0;
        let flows = self.flows.iter_mut().filter(|(&tag, _)| doomed(tag));
        let (orphans, dropped, dropped_bytes) = matching::purge(flows.map(|(&tag, flow)| {
            parked += std::mem::take(&mut flow.parked).len();
            (tag, &mut flow.queue)
        }));
        self.posted_waiting -= orphans.len();
        let orphans = orphans.into_iter().map(|(req, _)| req).collect();
        (orphans, dropped + parked, dropped_bytes)
    }

    /// Records held for this peer: the gate itself plus one per flow,
    /// rendezvous and tombstone. The single definition behind
    /// `peer_entry_count`, `NmStats::peer_entries` and the drain's
    /// `membership_drained_entries`; at least 1 for any live record, so a
    /// count of 0 means the core holds no record for the peer at all.
    pub fn records(&self) -> usize {
        1 + self.flows.len() + self.rdv_out.len() + self.rdv_in.len() + self.rdv_done.len()
    }

    /// Nothing queued, in flight or awaiting an ack toward this peer?
    pub fn quiescent(&self) -> bool {
        self.window.is_empty()
            && self.unacked.is_empty()
            && self.rdv_out.is_empty()
            && self.rdv_in.is_empty()
    }

    /// Earliest deadline over every armed retransmission timer of this
    /// peer: unacked eager envelopes, outbound and inbound rendezvous.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let eager = self.unacked.values().map(|rx| &rx.timer);
        let rdv_out = self.rdv_out.values().map(|r| &r.timer);
        let rdv_in = self.rdv_in.values().map(|r| &r.timer);
        eager
            .chain(rdv_out)
            .chain(rdv_in)
            .filter_map(RetxTimer::deadline)
            .min()
    }

    /// Feed `h` this peer's timers and sequence numbers, in an order that
    /// depends on nothing but their values (flows by tag): the half of
    /// `Engine::fingerprint` that `records()` and the queue depths do not
    /// already determine.
    pub fn hash_clock(&self, h: &mut impl Hasher) {
        let mut flows: Vec<_> = self.flows.iter().collect();
        flows.sort_unstable_by_key(|&(&tag, _)| tag);
        for (tag, f) in flows {
            (tag, f.send_seq, f.recv_expected, f.recv_posted).hash(h);
            f.parked.keys().for_each(|seq| seq.hash(h));
        }
        for (key, rx) in &self.unacked {
            (key, rx.timer, rx.rail).hash(h);
        }
        for (id, r) in &self.rdv_out {
            (id, r.seq, r.state, r.bytes_remaining, r.chunks_in_flight).hash(h);
            (r.last_rails, r.timer).hash(h);
        }
        for (id, r) in &self.rdv_in {
            (id, r.seq, r.received, r.timer).hash(h);
        }
        (&self.rdv_done, self.last_in_rail).hash(h);
    }

    /// Protocol-table state of the outbound rendezvous `rdv_id`.
    pub fn sender_state(&self, rdv_id: u64) -> State {
        self.rdv_out.get(&rdv_id).map_or(State::Gone, |r| r.state)
    }

    /// Derived protocol-table state of the inbound rendezvous `rdv_id`:
    /// a tombstone is `RDone`, a live record `RWaitData`, else `Gone`.
    pub fn receiver_state(&self, rdv_id: u64) -> State {
        if self.rdv_done.contains(&rdv_id) {
            State::RDone
        } else if self.rdv_in.contains_key(&rdv_id) {
            State::RWaitData
        } else {
            State::Gone
        }
    }

    /// Cumulative ack for `tag`: forget every unacked envelope below
    /// `next`. Returns the rail each one last went out on, in sequence
    /// order (rail-health credit).
    pub fn ack(&mut self, tag: u64, next: u64) -> Vec<usize> {
        let mut rails = Vec::new();
        while let Some((&key, _)) = self.unacked.range((tag, 0)..(tag, next)).next() {
            rails.extend(self.unacked.remove(&key).map(|rx| rx.rail));
        }
        rails
    }

    /// Take every queued wrapper `doomed` selects out of the window,
    /// keeping the order of both what stays and what is returned.
    pub fn purge_window(
        &mut self,
        doomed: impl Fn(&PacketWrapper) -> bool,
    ) -> VecDeque<PacketWrapper> {
        let (gone, kept) = self.window.drain(..).partition(doomed);
        self.window = kept;
        gone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{PwBody, PwId};

    fn retx(rail: usize) -> EnvRetx {
        EnvRetx {
            payload: WirePayload::Cts { rdv_id: 0 },
            timer: RetxTimer::default(),
            rail,
        }
    }

    #[test]
    fn ack_is_cumulative_per_tag_and_reports_rails_in_order() {
        let mut g = Gate::default();
        for (tag, seq, rail) in [(7, 0, 1), (7, 1, 0), (7, 2, 1), (8, 0, 0)] {
            g.unacked.insert((tag, seq), retx(rail));
        }
        assert_eq!(g.ack(7, 2), vec![1, 0]);
        assert_eq!(
            g.unacked.keys().copied().collect::<Vec<_>>(),
            [(7, 2), (8, 0)]
        );
        assert!(g.ack(7, 2).is_empty(), "a replayed ack is a no-op");
        assert!(g.ack(9, u64::MAX).is_empty(), "unknown tag");
    }

    #[test]
    fn records_counts_gate_flows_rendezvous_and_tombstones() {
        let mut g = Gate::default();
        assert_eq!(g.records(), 1);
        assert_eq!(g.flow(3).next_send_seq(), 0);
        assert_eq!(g.flow(3).next_send_seq(), 1);
        assert_eq!(g.flow(4).next_posted_seq(), 0);
        g.rdv_done.insert(11);
        assert_eq!(g.records(), 4);
        assert!(g.quiescent(), "sequence state and tombstones are not work");
        assert_eq!(g.receiver_state(11), State::RDone);
        assert_eq!(g.receiver_state(12), State::Gone);
        assert_eq!(g.sender_state(11), State::Gone);
    }

    #[test]
    fn match_queues_count_waiting_receives_and_purge_by_tag() {
        let eager = |seq| Unexpected::Eager {
            seq,
            data: NmBuf::from(vec![0u8; 5]),
        };
        let mut g = Gate::default();
        assert_eq!(g.try_match_arrival(4, 0), None, "no flow, and none opened");
        assert_eq!(g.records(), 1);
        for (tag, req) in [(9, 0), (3, 1), (3, 2)] {
            assert!(g.post_recv(tag, RecvReqId(req)).is_none());
        }
        g.store_unexpected(4, 17, eager(0));
        g.flow(3).parked.insert(6, eager(6));
        assert_eq!(
            (g.posted(), g.unexpected(), g.probe(4)),
            (3, 1, Some((17, 5)))
        );
        assert_eq!(g.try_match_arrival(3, 0), Some(RecvReqId(1)));
        let (orphans, dropped, bytes) = g.purge_flows(|tag| tag != 9);
        assert_eq!((orphans, dropped, bytes), (vec![RecvReqId(2)], 2, 5));
        assert_eq!((g.posted(), g.unexpected(), g.probe(4)), (1, 0, None));
        assert_eq!(g.records(), 4, "flows outlive their queues");
    }

    #[test]
    fn purge_window_keeps_order_on_both_sides() {
        let mut g = Gate::default();
        for id in 0..5u64 {
            g.window.push_back(PacketWrapper {
                id: PwId(id),
                dst: 1,
                body: PwBody::Cts { rdv_id: id },
                data: NmBuf::default(),
                enqueued_at: SimTime::ZERO,
            });
        }
        let gone = g.purge_window(|pw| pw.id.0 % 2 == 1);
        assert_eq!(gone.iter().map(|p| p.id.0).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(
            g.window.iter().map(|p| p.id.0).collect::<Vec<_>>(),
            [0, 2, 4]
        );
        assert!(!g.quiescent());
    }
}
