//! Reading an engine: one typed snapshot, one fingerprint.
//!
//! [`Engine::snapshot`] is the only way engine state leaves the engine for
//! a reader — a failure dump, a test, a diff between two runs. It is a
//! plain value (`Clone + Eq + Hash`), peers in rank order, and its
//! `Display` is the dump line. [`Engine::fingerprint`] hashes the snapshot
//! together with every timer and sequence number, so two engines with
//! equal fingerprints will, fed the same calls, stay equal.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use super::Engine;
use crate::membership::{Death, PeerLiveness};
use crate::railhealth::RailHealth;
use crate::stats::NmStats;

/// What an engine holds about one peer, in numbers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PeerSnapshot {
    pub rank: usize,
    /// `Up` without the membership layer.
    pub liveness: PeerLiveness,
    /// Records held: the gate plus one per flow, rendezvous and tombstone
    /// (the unit of `NmStats::peer_entries`).
    pub records: usize,
    /// Receives waiting on the peer.
    pub posted: usize,
    /// Unexpected messages held from it.
    pub unexpected: usize,
    /// Packet wrappers queued toward it, not yet committed.
    pub window: usize,
    /// Eager credits left toward it (`None` until flow control seeds it).
    pub send_credits: Option<u32>,
    /// Credits owed to it, due on the next flush.
    pub owed: u32,
    /// Credits owed to it that the high-water throttle is withholding.
    pub withheld: u32,
}

/// The state of one [`Engine`] at one instant. Each optional layer of the
/// protocol is an `Option` here: `None` means the layer is not armed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EngineSnapshot {
    pub(crate) rank: usize,
    /// Every counter and mirror of [`Engine::stats`] except `copy`: the
    /// meter belongs to the job, so whoever shares it fills that in
    /// (`NmCore::snapshot` does).
    pub(crate) stats: NmStats,
    pub(crate) quiescent: bool,
    /// Health of each local rail (retry layer). The transition, probe,
    /// ack and degraded-time figures are `stats.rail_transitions`,
    /// `probes_sent`, `probe_acks` and `degraded_nanos`.
    pub(crate) rails: Option<Vec<RailHealth>>,
    /// One entry per peer with a record, ascending by rank.
    pub(crate) peers: Vec<PeerSnapshot>,
    /// Unexpected eager payload bytes buffered right now.
    pub(crate) unex_eager_bytes: usize,
    /// Is the high-water throttle withholding credit returns (credit layer)?
    pub(crate) fc_throttled: Option<bool>,
    pub(crate) committed_epoch: u8,
    /// `Dead` verdicts so far, in verdict order (membership layer).
    pub(crate) deaths: Option<Vec<Death>>,
}

impl EngineSnapshot {
    pub fn stats(&self) -> &NmStats {
        &self.stats
    }

    pub fn peers(&self) -> &[PeerSnapshot] {
        &self.peers
    }

    pub fn unex_eager_bytes(&self) -> usize {
        self.unex_eager_bytes
    }
}

/// The dump line: totals first, then one bracket per layer, then the
/// peers and the raw counters as their derived `Debug` (named fields).
impl fmt::Display for EngineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        let sum =
            |field: fn(&PeerSnapshot) -> usize| -> usize { self.peers.iter().map(field).sum() };
        write!(
            f,
            "nm rank {}: posted={} unexpected={} outbox={} quiescent={} epoch={} copy[{}]",
            self.rank,
            sum(|p| p.posted),
            sum(|p| p.unexpected),
            sum(|p| p.window),
            self.quiescent,
            self.committed_epoch,
            s.copy,
        )?;
        match &self.rails {
            None => write!(f, " failover[off: no retry layer]")?,
            Some(rails) => write!(
                f,
                " failover[rails={rails:?} transitions={} probes_sent={} probe_acks={} degraded={}ns]",
                s.rail_transitions, s.probes_sent, s.probe_acks, s.degraded_nanos
            )?,
        }
        match self.fc_throttled {
            None => write!(f, " flow[off: no credit layer]")?,
            Some(throttled) => write!(
                f,
                " flow[unex={}B/peak={}B stalls={} fallback={} ret={} held={} throttled={throttled}]",
                self.unex_eager_bytes,
                s.fc_peak_unex_bytes,
                s.fc_credit_stalls,
                s.fc_fallback_sends,
                s.fc_credits_returned,
                s.fc_credits_withheld,
            )?,
        }
        match &self.deaths {
            None => write!(f, " membership[off]")?,
            Some(deaths) => write!(
                f,
                " membership[transitions={} deaths={deaths:?}]",
                s.membership_transitions
            )?,
        }
        write!(f, " peers={:?} stats={s:?}", self.peers)
    }
}

impl Engine {
    /// The state of this engine as one typed value (see [`EngineSnapshot`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        let membership = self.membership.as_ref();
        let peers = self.peers.iter().map(|(&rank, gate)| PeerSnapshot {
            rank,
            liveness: membership.map_or(PeerLiveness::Up, |m| m.state(rank)),
            records: gate.records(),
            posted: gate.posted(),
            unexpected: gate.unexpected(),
            window: gate.window.len(),
            send_credits: gate.send_credits,
            owed: gate.credit_owed,
            withheld: gate.credit_withheld,
        });
        let health = self.health.as_ref();
        EngineSnapshot {
            rank: self.rank,
            stats: self.counters(),
            quiescent: self.quiescent(),
            rails: health.map(|h| (0..h.num_rails()).map(|i| h.state(i)).collect()),
            peers: peers.collect(),
            unex_eager_bytes: self.unex_eager_bytes,
            fc_throttled: self.cfg.flow.map(|_| self.fc_throttled),
            committed_epoch: self.committed_epoch,
            deaths: membership.map(|m| m.deaths().to_vec()),
        }
    }

    /// A hash of everything that decides what this engine does next: the
    /// snapshot, plus every timer and sequence number — each gate's flows
    /// in tag order (`Gate.flows` is a hash map), its retransmission
    /// timers and rendezvous progress, the health and membership clocks,
    /// the engine-wide id counters, the epoch sets and the queue depths.
    /// Payload bytes are not hashed. The same in every run of one build
    /// (`DefaultHasher::new()` is unkeyed), which is all a memo table or a
    /// replay test needs; it is not a format to store.
    pub fn fingerprint(&self) -> u64 {
        let h = &mut DefaultHasher::new();
        self.snapshot().hash(h);
        (self.next_ticket, self.next_pw, self.next_rdv).hash(h);
        (self.member_probe_seq, self.halted).hash(h);
        (&self.revoked_epochs, &self.retired).hash(h);
        (self.send_reqs.len(), self.recv_reqs.len()).hash(h);
        (self.inbound.len(), self.completions.len()).hash(h);
        (&self.dead_events, &self.revoked_events).hash(h);
        for (peer, gate) in &self.peers {
            peer.hash(h);
            gate.hash_clock(h);
        }
        if let Some(table) = &self.health {
            table.hash_clock(h);
        }
        if let Some(table) = &self.membership {
            table.hash_clock(h);
        }
        h.finish()
    }
}
