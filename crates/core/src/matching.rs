//! NewMadeleine's internal tag-matching engine.
//!
//! "NewMadeleine maintains its own receive queues, performs tag matching
//! internally, and delivers messages directly to the user buffers" (§3.1.3).
//! This module holds the two queues of that sentence: the **posted-receive
//! queue** (receives waiting for a message) and the **unexpected queue**
//! (messages waiting for a receive), keyed by `(gate, tag)`.
//!
//! A secondary *arrival-ordered per-tag index* over the unexpected queue
//! supports the `probe by tag` operation the MPI_ANY_SOURCE machinery of
//! §3.2 needs: "every time Nemesis polls for incoming messages, we probe
//! NewMadeleine to check if a corresponding message has arrived".
//!
//! Receives are matched to arrivals strictly FIFO per `(gate, tag)`; the
//! engine asserts the sender-assigned sequence numbers confirm this.
//!
//! The match step is defined once, on [`TagQueue`] — the two FIFOs of one
//! `(gate, tag)` stream — and has two owners: the sans-IO engine embeds a
//! queue in each `gate::Flow` and owns it outright, and
//! [`crate::sharded`] keeps the same queues behind a per-gate mutex for
//! real threads. [`MatchEngine`] shares no code with it: it is the
//! single-queue oracle `tests/matcher_differential.rs` holds both to.

use std::collections::{HashMap, VecDeque};

use simnet::NmBuf;

use crate::sr::RecvReqId;

/// A gate identifies the peer process; in this integration gates are global
/// MPI ranks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GateId(pub usize);

/// What arrived without a matching posted receive.
#[derive(Clone, Debug)]
pub enum Unexpected {
    /// A whole eager message (payload retained).
    Eager { seq: u64, data: NmBuf },
    /// A rendezvous announcement; the payload is still on the sender.
    Rts { seq: u64, rdv_id: u64, len: usize },
}

impl Unexpected {
    pub fn seq(&self) -> u64 {
        match self {
            Unexpected::Eager { seq, .. } | Unexpected::Rts { seq, .. } => *seq,
        }
    }

    /// Payload length of the message (what a probe reports).
    pub fn payload_len(&self) -> usize {
        match self {
            Unexpected::Eager { data, .. } => data.len(),
            Unexpected::Rts { len, .. } => *len,
        }
    }
}

/// The two FIFOs of one `(gate, tag)` message stream — receives waiting
/// for a message and messages waiting for a receive — with the match step
/// between them. An owner that stores an arrival only after it failed to
/// match keeps at most one of the two non-empty. Plain data: whoever owns
/// the queue supplies the exclusion.
#[derive(Clone, Debug, Default)]
pub struct TagQueue {
    posted: VecDeque<RecvReqId>,
    /// In arrival order, each stamped with its owner's arrival ticket —
    /// what the ANY_SOURCE probe arbitrates on across gates.
    unexpected: VecDeque<(u64, Unexpected)>,
    /// Debug check: sequence number of the last message matched.
    last_matched_seq: Option<u64>,
}

impl TagQueue {
    /// Post a receive: the earliest unexpected message is consumed and
    /// returned if one waits, otherwise `req` joins the posted queue.
    pub fn post_recv(&mut self, req: RecvReqId) -> Option<Unexpected> {
        let Some((_, msg)) = self.unexpected.pop_front() else {
            self.posted.push_back(req);
            return None;
        };
        self.matched(msg.seq());
        Some(msg)
    }

    /// First phase of an arrival: pop the earliest posted receive if one
    /// waits. `seq` feeds the FIFO debug check.
    pub fn try_match_arrival(&mut self, seq: u64) -> Option<RecvReqId> {
        let req = self.posted.pop_front()?;
        self.matched(seq);
        Some(req)
    }

    /// Second phase of an arrival: no receive was posted, keep the
    /// message, stamped with the owner's arrival `ticket`.
    pub fn store_unexpected(&mut self, ticket: u64, msg: Unexpected) {
        self.unexpected.push_back((ticket, msg));
    }

    /// Arrival ticket and payload length of the earliest unexpected
    /// message. (Peek only.)
    pub fn front(&self) -> Option<(u64, usize)> {
        let (ticket, msg) = self.unexpected.front()?;
        Some((*ticket, msg.payload_len()))
    }

    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// Message `seq` left with a receive. Queues outlive their traffic
    /// (flows are never pruned), so one that just went idle hands its
    /// buffers back; and matches must come in sender order.
    fn matched(&mut self, seq: u64) {
        if self.posted.is_empty() && self.unexpected.is_empty() {
            self.posted.shrink_to_fit();
            self.unexpected.shrink_to_fit();
        }
        let prev = self.last_matched_seq.replace(seq);
        debug_assert!(prev < Some(seq), "seq {seq} matched after {prev:?}");
    }
}

/// Empty every queue handed in (a dead gate's, or a dead epoch's across
/// gates), buffers included. Returns the orphaned receives with their
/// tags — ascending by tag, FIFO within one, the order their failures are
/// reported in — then how many unexpected messages were dropped and the
/// eager payload bytes those held.
pub fn purge<'a>(
    queues: impl Iterator<Item = (u64, &'a mut TagQueue)>,
) -> (Vec<(RecvReqId, u64)>, usize, usize) {
    let mut doomed: Vec<(u64, &mut TagQueue)> = queues.collect();
    doomed.sort_unstable_by_key(|&(tag, _)| tag);
    let (mut orphans, mut dropped, mut dropped_bytes) = (Vec::new(), 0, 0);
    for (tag, queue) in doomed {
        let queue = std::mem::take(queue);
        orphans.extend(queue.posted.into_iter().map(|req| (req, tag)));
        dropped += queue.unexpected.len();
        for (_, msg) in &queue.unexpected {
            if let Unexpected::Eager { data, .. } = msg {
                dropped_bytes += data.len();
            }
        }
    }
    (orphans, dropped, dropped_bytes)
}

/// A stored unexpected message with its origin.
#[derive(Clone, Debug)]
pub struct UnexpectedEntry {
    pub gate: GateId,
    pub tag: u64,
    pub msg: Unexpected,
}

/// The matching engine.
#[derive(Default)]
pub struct MatchEngine {
    posted: HashMap<(GateId, u64), VecDeque<RecvReqId>>,
    /// Slab of unexpected entries; consumed entries become `None` and are
    /// skipped lazily by the indices.
    unexpected: Vec<Option<UnexpectedEntry>>,
    by_key: HashMap<(GateId, u64), VecDeque<usize>>,
    by_tag: HashMap<u64, VecDeque<usize>>,
    unexpected_live: usize,
    /// Debug check: last matched sequence number per (gate, tag).
    last_matched_seq: HashMap<(GateId, u64), u64>,
}

impl MatchEngine {
    pub fn new() -> MatchEngine {
        MatchEngine::default()
    }

    /// Post a receive for `(gate, tag)`. If an unexpected message is already
    /// queued it is consumed and returned — the caller completes the receive
    /// (eager) or starts the rendezvous (RTS) immediately. Otherwise the
    /// receive waits in the posted queue.
    pub fn post_recv(&mut self, gate: GateId, tag: u64, req: RecvReqId) -> Option<Unexpected> {
        if let Some(entry) = self.pop_unexpected_for(gate, tag) {
            self.check_order(gate, tag, entry.msg.seq());
            return Some(entry.msg);
        }
        self.posted.entry((gate, tag)).or_default().push_back(req);
        None
    }

    /// An eager or RTS message arrived from `gate` with `tag`. If a receive
    /// is posted, it is consumed and returned (the caller keeps the message
    /// payload); otherwise the message is stored as unexpected.
    pub fn arrived(&mut self, gate: GateId, tag: u64, msg: Unexpected) -> Option<RecvReqId> {
        if let Some(req) = self.try_match_arrival(gate, tag, msg.seq()) {
            return Some(req);
        }
        self.store_unexpected(gate, tag, msg);
        None
    }

    /// First phase of an arrival: pop a posted receive for `(gate, tag)` if
    /// one is waiting. `seq` feeds the FIFO debug check.
    pub fn try_match_arrival(&mut self, gate: GateId, tag: u64, seq: u64) -> Option<RecvReqId> {
        if let Some(queue) = self.posted.get_mut(&(gate, tag)) {
            if let Some(req) = queue.pop_front() {
                if queue.is_empty() {
                    self.posted.remove(&(gate, tag));
                }
                self.check_order(gate, tag, seq);
                return Some(req);
            }
        }
        None
    }

    /// Second phase of an arrival: no receive was posted, keep the message
    /// in the unexpected queue.
    pub fn store_unexpected(&mut self, gate: GateId, tag: u64, msg: Unexpected) {
        let idx = self.unexpected.len();
        self.unexpected
            .push(Some(UnexpectedEntry { gate, tag, msg }));
        self.by_key.entry((gate, tag)).or_default().push_back(idx);
        self.by_tag.entry(tag).or_default().push_back(idx);
        self.unexpected_live += 1;
    }

    /// Is an unexpected message from `(gate, tag)` queued? (Peek only.)
    pub fn probe(&self, gate: GateId, tag: u64) -> bool {
        self.peek_key(gate, tag).is_some()
    }

    /// The gate of the earliest-arrived unexpected message with `tag`, from
    /// any gate — the probe the ANY_SOURCE lists run on every poll (§3.2.2).
    pub fn probe_tag(&self, tag: u64) -> Option<GateId> {
        self.probe_tag_info(tag).map(|(g, _)| g)
    }

    /// Like [`MatchEngine::probe_tag`] but also reports the message's
    /// payload length (MPI_Iprobe needs a status).
    pub fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        let deque = self.by_tag.get(&tag)?;
        for &idx in deque {
            if let Some(entry) = &self.unexpected[idx] {
                return Some((entry.gate, entry.msg.payload_len()));
            }
        }
        None
    }

    /// Payload length of the earliest unexpected message from `(gate, tag)`.
    pub fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        let idx = self.peek_key(gate, tag)?;
        self.unexpected[idx].as_ref().map(|e| e.msg.payload_len())
    }

    /// Number of live unexpected messages (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_live
    }

    /// Number of posted receives still waiting (diagnostics).
    pub fn posted_len(&self) -> usize {
        self.posted.values().map(|q| q.len()).sum()
    }

    /// Gates with at least one posted receive waiting (sorted, deduped) —
    /// the peers this rank currently *expects inbound from*, which is the
    /// set the membership silence prober watches.
    pub fn posted_gates(&self) -> Vec<GateId> {
        let mut gates: Vec<GateId> = self
            .posted
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(g, _), _)| g)
            .collect();
        gates.sort_unstable();
        gates.dedup();
        gates
    }

    /// Membership drain: remove every posted receive and unexpected
    /// message belonging to `gate`. Returns the orphaned receive requests
    /// (with their tags, so the caller can fail them) and the eager
    /// payload bytes dropped from the unexpected queue.
    pub fn purge_gate(&mut self, gate: GateId) -> (Vec<(RecvReqId, u64)>, usize) {
        let mut orphans: Vec<(RecvReqId, u64)> = Vec::new();
        let keys: Vec<(GateId, u64)> = self
            .posted
            .keys()
            .filter(|&&(g, _)| g == gate)
            .copied()
            .collect();
        let mut sorted = keys;
        sorted.sort_unstable();
        for key in sorted {
            if let Some(queue) = self.posted.remove(&key) {
                for req in queue {
                    orphans.push((req, key.1));
                }
            }
        }
        let mut dropped_bytes = 0usize;
        for entry in self.unexpected.iter_mut() {
            if entry.as_ref().is_some_and(|e| e.gate == gate) {
                let e = entry.take().expect("entry vanished");
                self.unexpected_live -= 1;
                if let Unexpected::Eager { data, .. } = &e.msg {
                    dropped_bytes += data.len();
                }
            }
        }
        // The by_key / by_tag indices skip dead slots lazily; drop the
        // gate's by_key deques outright so the map itself shrinks.
        self.by_key.retain(|&(g, _), _| g != gate);
        self.last_matched_seq.retain(|&(g, _), _| g != gate);
        (orphans, dropped_bytes)
    }

    /// Epoch quiesce: remove every posted receive and unexpected message
    /// whose *tag* satisfies `pred`, across all gates. Returns the orphaned
    /// receive requests (with gate and tag, so the caller can fail them),
    /// the number of unexpected entries dropped, and the eager payload
    /// bytes those entries held. The tag-predicate twin of
    /// [`MatchEngine::purge_gate`].
    pub fn purge_keys<F: Fn(u64) -> bool>(
        &mut self,
        pred: F,
    ) -> (Vec<(RecvReqId, GateId, u64)>, usize, usize) {
        let mut orphans: Vec<(RecvReqId, GateId, u64)> = Vec::new();
        let mut keys: Vec<(GateId, u64)> = self
            .posted
            .keys()
            .filter(|&&(_, tag)| pred(tag))
            .copied()
            .collect();
        keys.sort_unstable();
        for key in keys {
            if let Some(queue) = self.posted.remove(&key) {
                for req in queue {
                    orphans.push((req, key.0, key.1));
                }
            }
        }
        let mut dropped = 0usize;
        let mut dropped_bytes = 0usize;
        for entry in self.unexpected.iter_mut() {
            if entry.as_ref().is_some_and(|e| pred(e.tag)) {
                let e = entry.take().expect("entry vanished");
                self.unexpected_live -= 1;
                dropped += 1;
                if let Unexpected::Eager { data, .. } = &e.msg {
                    dropped_bytes += data.len();
                }
            }
        }
        // The by_tag index skips dead slots lazily; drop the matching
        // by_key deques and order checks so the maps themselves shrink.
        self.by_key.retain(|&(_, tag), _| !pred(tag));
        self.last_matched_seq.retain(|&(_, tag), _| !pred(tag));
        (orphans, dropped, dropped_bytes)
    }

    fn peek_key(&self, gate: GateId, tag: u64) -> Option<usize> {
        let deque = self.by_key.get(&(gate, tag))?;
        deque
            .iter()
            .copied()
            .find(|&idx| self.unexpected[idx].is_some())
    }

    fn pop_unexpected_for(&mut self, gate: GateId, tag: u64) -> Option<UnexpectedEntry> {
        let idx = self.peek_key(gate, tag)?;
        // Compact the by_key deque up to and including idx.
        if let Some(deque) = self.by_key.get_mut(&(gate, tag)) {
            while let Some(&front) = deque.front() {
                let dead = self.unexpected[front].is_none();
                if front == idx {
                    deque.pop_front();
                    break;
                } else if dead {
                    deque.pop_front();
                } else {
                    // Shouldn't happen: idx was the first live entry.
                    break;
                }
            }
        }
        let entry = self.unexpected[idx].take().expect("entry vanished");
        self.unexpected_live -= 1;
        // Lazily trim dead prefixes of the tag index.
        if let Some(tagq) = self.by_tag.get_mut(&entry.tag) {
            while let Some(&front) = tagq.front() {
                if self.unexpected[front].is_none() {
                    tagq.pop_front();
                } else {
                    break;
                }
            }
        }
        Some(entry)
    }

    /// FIFO-order sanity check on sender sequence numbers.
    fn check_order(&mut self, gate: GateId, tag: u64, seq: u64) {
        if let Some(prev) = self.last_matched_seq.insert((gate, tag), seq) {
            debug_assert!(
                seq > prev,
                "matching order violated on gate {gate:?} tag {tag}: seq {seq} after {prev}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eager(seq: u64) -> Unexpected {
        Unexpected::Eager {
            seq,
            data: NmBuf::from(vec![seq as u8]),
        }
    }

    #[test]
    fn posted_then_arrival_matches() {
        let mut m = MatchEngine::new();
        assert!(m.post_recv(GateId(2), 7, RecvReqId(0)).is_none());
        assert_eq!(m.posted_len(), 1);
        let hit = m.arrived(GateId(2), 7, eager(0));
        assert_eq!(hit, Some(RecvReqId(0)));
        assert_eq!(m.posted_len(), 0);
        assert_eq!(m.unexpected_len(), 0);
    }

    #[test]
    fn arrival_then_post_consumes_unexpected() {
        let mut m = MatchEngine::new();
        assert!(m.arrived(GateId(2), 7, eager(0)).is_none());
        assert_eq!(m.unexpected_len(), 1);
        match m.post_recv(GateId(2), 7, RecvReqId(0)) {
            Some(Unexpected::Eager { seq: 0, data }) => assert_eq!(&data[..], &[0]),
            other => panic!("expected eager, got {other:?}"),
        }
        assert_eq!(m.unexpected_len(), 0);
    }

    #[test]
    fn no_cross_tag_or_cross_gate_matching() {
        let mut m = MatchEngine::new();
        m.post_recv(GateId(1), 7, RecvReqId(0));
        // Different tag, same gate.
        assert!(m.arrived(GateId(1), 8, eager(0)).is_none());
        // Same tag, different gate.
        assert!(m.arrived(GateId(2), 7, eager(0)).is_none());
        assert_eq!(m.posted_len(), 1);
        assert_eq!(m.unexpected_len(), 2);
    }

    #[test]
    fn fifo_across_multiple_posts_and_arrivals() {
        let mut m = MatchEngine::new();
        m.post_recv(GateId(1), 7, RecvReqId(0));
        m.post_recv(GateId(1), 7, RecvReqId(1));
        assert_eq!(m.arrived(GateId(1), 7, eager(0)), Some(RecvReqId(0)));
        assert_eq!(m.arrived(GateId(1), 7, eager(1)), Some(RecvReqId(1)));
    }

    #[test]
    fn unexpected_consumed_in_arrival_order() {
        let mut m = MatchEngine::new();
        m.arrived(GateId(1), 7, eager(0));
        m.arrived(GateId(1), 7, eager(1));
        match m.post_recv(GateId(1), 7, RecvReqId(0)) {
            Some(u) => assert_eq!(u.seq(), 0),
            None => panic!("expected unexpected"),
        }
        match m.post_recv(GateId(1), 7, RecvReqId(1)) {
            Some(u) => assert_eq!(u.seq(), 1),
            None => panic!("expected unexpected"),
        }
    }

    #[test]
    fn probe_tag_returns_earliest_gate() {
        let mut m = MatchEngine::new();
        assert_eq!(m.probe_tag(7), None);
        m.arrived(GateId(3), 7, eager(0));
        m.arrived(GateId(1), 7, eager(0));
        // Gate 3's message arrived first.
        assert_eq!(m.probe_tag(7), Some(GateId(3)));
        // Consuming it reveals gate 1 as the next candidate.
        m.post_recv(GateId(3), 7, RecvReqId(0));
        assert_eq!(m.probe_tag(7), Some(GateId(1)));
        m.post_recv(GateId(1), 7, RecvReqId(1));
        assert_eq!(m.probe_tag(7), None);
    }

    #[test]
    fn probe_is_nondestructive() {
        let mut m = MatchEngine::new();
        m.arrived(GateId(1), 7, eager(0));
        assert!(m.probe(GateId(1), 7));
        assert!(m.probe(GateId(1), 7));
        assert!(!m.probe(GateId(1), 8));
        assert_eq!(m.unexpected_len(), 1);
    }

    #[test]
    fn rts_unexpected_is_probeable() {
        let mut m = MatchEngine::new();
        m.arrived(
            GateId(4),
            9,
            Unexpected::Rts {
                seq: 0,
                rdv_id: 11,
                len: 1 << 20,
            },
        );
        assert_eq!(m.probe_tag(9), Some(GateId(4)));
        match m.post_recv(GateId(4), 9, RecvReqId(0)) {
            Some(Unexpected::Rts {
                rdv_id: 11, len, ..
            }) => assert_eq!(len, 1 << 20),
            other => panic!("expected RTS, got {other:?}"),
        }
    }

    #[test]
    fn purge_keys_hits_only_matching_tags_across_gates() {
        let mut m = MatchEngine::new();
        m.post_recv(GateId(1), 100, RecvReqId(0));
        m.post_recv(GateId(2), 100, RecvReqId(1));
        m.post_recv(GateId(1), 7, RecvReqId(2));
        m.arrived(GateId(3), 100, eager(0));
        m.arrived(GateId(3), 7, eager(0));
        let (orphans, dropped, bytes) = m.purge_keys(|tag| tag == 100);
        assert_eq!(
            orphans,
            vec![
                (RecvReqId(0), GateId(1), 100),
                (RecvReqId(1), GateId(2), 100)
            ]
        );
        assert_eq!(dropped, 1);
        assert_eq!(bytes, 1);
        // The untouched tag keeps both its posted receive and its
        // unexpected message.
        assert_eq!(m.posted_len(), 1);
        assert_eq!(m.unexpected_len(), 1);
        assert!(m.probe(GateId(3), 7));
        assert!(!m.probe(GateId(3), 100));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "matching order violated")]
    fn out_of_order_seq_trips_debug_check() {
        let mut m = MatchEngine::new();
        m.post_recv(GateId(1), 7, RecvReqId(0));
        m.post_recv(GateId(1), 7, RecvReqId(1));
        m.arrived(GateId(1), 7, eager(5));
        m.arrived(GateId(1), 7, eager(3)); // going backwards
    }
}
