//! Per-gate sharded tag matching: the concurrent owner of [`TagQueue`].
//!
//! The real-thread hot path wants tag matching without a single global
//! lock: traffic from different peers should match concurrently. MPI
//! matching for a directed receive only ever consults one `(gate, tag)`
//! key, so gates are independent by construction, and this module keeps
//! each gate's [`TagQueue`]s — the very queue type, match step included,
//! that the sans-IO engine embeds in its per-peer records and owns
//! without a lock — behind that gate's own small mutex. Only the
//! real-thread path (`mpi_ch3::threaded`) uses it.
//!
//! The one operation that crosses gates is the ANY_SOURCE probe
//! (`probe_tag`): "which gate has the **earliest-arrived** unexpected
//! message with this tag?". Every stored unexpected arrival is stamped
//! with a ticket from one global `AtomicU64`, and `probe_tag` takes the
//! minimum ticket across shards. Tickets are handed out in arrival order,
//! so the arbitration is exactly the FIFO of the single-queue
//! [`MatchEngine`](crate::matching::MatchEngine) — a property the
//! differential test in `tests/matcher_differential.rs` drives with
//! recorded envelope streams, for this owner and the engine's alike.
//!
//! All methods take `&self`: shards use interior mutability, so consumer
//! threads match while injector threads probe concurrently.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::matching::{self, GateId, TagQueue, Unexpected};
use crate::sr::RecvReqId;

/// One gate's private matching state, keyed by tag.
type Shard = Mutex<HashMap<u64, TagQueue>>;

/// The sharded matching engine. API mirrors
/// [`MatchEngine`](crate::matching::MatchEngine) (which remains as the
/// single-queue differential oracle), with `&self` receivers.
pub struct ShardedMatchEngine {
    /// Gate registry: rarely written (first contact, purges), read on
    /// every operation. `BTreeMap` so cross-shard scans iterate in a
    /// deterministic order.
    shards: RwLock<BTreeMap<GateId, Arc<Shard>>>,
    /// Global arrival clock for ANY_SOURCE FIFO arbitration.
    next_ticket: AtomicU64,
    /// Live unexpected entries across all shards (kept O(1) readable).
    unexpected_live: AtomicUsize,
    /// Posted receives waiting across all shards.
    posted_live: AtomicUsize,
}

impl Default for ShardedMatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedMatchEngine {
    pub fn new() -> ShardedMatchEngine {
        ShardedMatchEngine {
            shards: RwLock::new(BTreeMap::new()),
            next_ticket: AtomicU64::new(0),
            unexpected_live: AtomicUsize::new(0),
            posted_live: AtomicUsize::new(0),
        }
    }

    /// The gate's shard if it has one. Everything that only reads or
    /// removes goes through here: a question about a gate never seen (or
    /// just purged) must not leave a record behind.
    fn existing(&self, gate: GateId) -> Option<Arc<Shard>> {
        self.shards.read().get(&gate).map(Arc::clone)
    }

    /// The gate's shard, created on first use (something is being stored).
    fn shard(&self, gate: GateId) -> Arc<Shard> {
        self.existing(gate)
            .unwrap_or_else(|| Arc::clone(self.shards.write().entry(gate).or_default()))
    }

    /// Post a receive for `(gate, tag)`; consumes and returns a queued
    /// unexpected message if one is waiting.
    pub fn post_recv(&self, gate: GateId, tag: u64, req: RecvReqId) -> Option<Unexpected> {
        let shard = self.shard(gate);
        let hit = shard.lock().entry(tag).or_default().post_recv(req);
        match hit {
            Some(_) => self.unexpected_live.fetch_sub(1, Ordering::Relaxed),
            None => self.posted_live.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// An arrival from `(gate, tag)`: match a posted receive or store the
    /// message unexpected.
    pub fn arrived(&self, gate: GateId, tag: u64, msg: Unexpected) -> Option<RecvReqId> {
        if let Some(req) = self.try_match_arrival(gate, tag, msg.seq()) {
            return Some(req);
        }
        self.store_unexpected(gate, tag, msg);
        None
    }

    /// First phase of an arrival: pop a posted receive if one is waiting.
    pub fn try_match_arrival(&self, gate: GateId, tag: u64, seq: u64) -> Option<RecvReqId> {
        let shard = self.existing(gate)?;
        let req = shard.lock().get_mut(&tag)?.try_match_arrival(seq)?;
        self.posted_live.fetch_sub(1, Ordering::Relaxed);
        Some(req)
    }

    /// Second phase of an arrival: keep the message in the gate's
    /// unexpected queue, stamped with the global arrival ticket.
    pub fn store_unexpected(&self, gate: GateId, tag: u64, msg: Unexpected) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(gate);
        let mut queues = shard.lock();
        queues.entry(tag).or_default().store_unexpected(ticket, msg);
        self.unexpected_live.fetch_add(1, Ordering::Relaxed);
    }

    /// Is an unexpected message from `(gate, tag)` queued? (Peek only.)
    pub fn probe(&self, gate: GateId, tag: u64) -> bool {
        self.probe_info(gate, tag).is_some()
    }

    /// The gate of the earliest-arrived unexpected message with `tag`
    /// across every gate: minimum arrival ticket across shards.
    pub fn probe_tag(&self, tag: u64) -> Option<GateId> {
        self.probe_tag_info(tag).map(|(g, _)| g)
    }

    /// Like [`ShardedMatchEngine::probe_tag`] with the payload length.
    pub fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        let shards = self.shards.read();
        let fronts = shards.iter().filter_map(|(&gate, shard)| {
            let (ticket, len) = shard.lock().get(&tag)?.front()?;
            Some((ticket, gate, len))
        });
        fronts.min().map(|(_, gate, len)| (gate, len))
    }

    /// Payload length of the earliest unexpected message from `(gate, tag)`.
    pub fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        let shard = self.existing(gate)?;
        let (_, len) = shard.lock().get(&tag)?.front()?;
        Some(len)
    }

    /// Number of live unexpected messages (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_live.load(Ordering::Relaxed)
    }

    /// Number of posted receives still waiting (diagnostics).
    pub fn posted_len(&self) -> usize {
        self.posted_live.load(Ordering::Relaxed)
    }

    /// Gates with at least one posted receive waiting (sorted, deduped).
    pub fn posted_gates(&self) -> Vec<GateId> {
        let shards = self.shards.read();
        shards
            .iter()
            .filter(|(_, shard)| shard.lock().values().any(|q| q.posted_len() > 0))
            .map(|(&g, _)| g)
            .collect()
    }

    /// Membership drain: remove every posted receive and unexpected
    /// message belonging to `gate`. Returns the orphaned receives (with
    /// tags) and the eager payload bytes dropped.
    pub fn purge_gate(&self, gate: GateId) -> (Vec<(RecvReqId, u64)>, usize) {
        let Some(shard) = self.shards.write().remove(&gate) else {
            return (Vec::new(), 0);
        };
        let (orphans, dropped, dropped_bytes) =
            matching::purge(shard.lock().iter_mut().map(|(&tag, q)| (tag, q)));
        self.posted_live.fetch_sub(orphans.len(), Ordering::Relaxed);
        self.unexpected_live.fetch_sub(dropped, Ordering::Relaxed);
        (orphans, dropped_bytes)
    }

    /// Epoch quiesce: remove every posted receive and unexpected message
    /// whose *tag* satisfies `pred`, across all gates. Orphans are
    /// returned in `(gate, tag)` order, matching the single-queue engine.
    pub fn purge_keys<F: Fn(u64) -> bool>(
        &self,
        pred: F,
    ) -> (Vec<(RecvReqId, GateId, u64)>, usize, usize) {
        let (mut orphans, mut dropped, mut dropped_bytes) = (Vec::new(), 0, 0);
        // BTreeMap iteration gives ascending gates and `purge` ascending
        // tags per gate: global (gate, tag) order.
        for (&gate, shard) in self.shards.read().iter() {
            let mut queues = shard.lock();
            let doomed = queues.iter_mut().filter(|(&tag, _)| pred(tag));
            let (reqs, n, bytes) = matching::purge(doomed.map(|(&tag, q)| (tag, q)));
            queues.retain(|&tag, _| !pred(tag));
            orphans.extend(reqs.into_iter().map(|(req, tag)| (req, gate, tag)));
            dropped += n;
            dropped_bytes += bytes;
        }
        self.posted_live.fetch_sub(orphans.len(), Ordering::Relaxed);
        self.unexpected_live.fetch_sub(dropped, Ordering::Relaxed);
        (orphans, dropped, dropped_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NmBuf;

    fn eager(seq: u64) -> Unexpected {
        Unexpected::Eager {
            seq,
            data: NmBuf::from(vec![seq as u8]),
        }
    }

    #[test]
    fn any_source_arbitration_is_global_fifo() {
        let m = ShardedMatchEngine::new();
        m.arrived(GateId(3), 7, eager(0));
        m.arrived(GateId(1), 7, eager(0));
        // Gate 3's arrival holds the lower ticket.
        assert_eq!(m.probe_tag(7), Some(GateId(3)));
        m.post_recv(GateId(3), 7, RecvReqId(0));
        assert_eq!(m.probe_tag(7), Some(GateId(1)));
        m.post_recv(GateId(1), 7, RecvReqId(1));
        assert_eq!(m.probe_tag(7), None);
    }

    #[test]
    fn shards_do_not_cross_match() {
        let m = ShardedMatchEngine::new();
        m.post_recv(GateId(1), 7, RecvReqId(0));
        assert!(m.arrived(GateId(1), 8, eager(0)).is_none());
        assert!(m.arrived(GateId(2), 7, eager(0)).is_none());
        assert_eq!(m.posted_len(), 1);
        assert_eq!(m.unexpected_len(), 2);
    }

    #[test]
    fn purge_gate_reports_orphans_and_bytes() {
        let m = ShardedMatchEngine::new();
        m.post_recv(GateId(1), 9, RecvReqId(0));
        m.post_recv(GateId(1), 3, RecvReqId(1));
        m.arrived(GateId(1), 5, eager(0));
        m.arrived(GateId(2), 5, eager(0));
        let (orphans, bytes) = m.purge_gate(GateId(1));
        // Tag-sorted, like the single-queue engine's key sort.
        assert_eq!(orphans, vec![(RecvReqId(1), 3), (RecvReqId(0), 9)]);
        assert_eq!(bytes, 1);
        assert_eq!(m.posted_len(), 0);
        assert_eq!(m.unexpected_len(), 1);
        assert!(m.probe(GateId(2), 5));
    }

    #[test]
    fn reads_about_an_unknown_or_purged_gate_leave_no_shard() {
        let m = ShardedMatchEngine::new();
        let ask = |gate| {
            assert!(!m.probe(gate, 5));
            assert_eq!(m.probe_info(gate, 5), None);
            assert_eq!(m.try_match_arrival(gate, 5, 0), None);
        };
        ask(GateId(9));
        assert_eq!(m.shards.read().len(), 0, "a probe registered a gate");
        m.arrived(GateId(1), 5, eager(0));
        m.purge_gate(GateId(1));
        ask(GateId(1));
        assert_eq!(m.shards.read().len(), 0, "a probe revived a purged gate");
    }

    #[test]
    fn purge_keys_spans_gates_in_order() {
        let m = ShardedMatchEngine::new();
        m.post_recv(GateId(2), 100, RecvReqId(1));
        m.post_recv(GateId(1), 100, RecvReqId(0));
        m.post_recv(GateId(1), 7, RecvReqId(2));
        m.arrived(GateId(3), 100, eager(0));
        let (orphans, dropped, bytes) = m.purge_keys(|t| t == 100);
        assert_eq!(
            orphans,
            vec![
                (RecvReqId(0), GateId(1), 100),
                (RecvReqId(1), GateId(2), 100)
            ]
        );
        assert_eq!((dropped, bytes), (1, 1));
        assert_eq!(m.posted_len(), 1);
    }
}
