//! Contended-write-free protocol counters.
//!
//! [`StatsCells`] is the hot-path representation of [`NmStats`]: every
//! incrementable counter gets a constant index into an
//! [`obs::StripedCells`] slab, so a counter bump from any thread is one
//! `Relaxed` `fetch_add` on that thread's own cache lines — no shared
//! write contention, no lock. A [`StatsCells::snapshot`] merges the
//! per-thread slabs back into the plain [`NmStats`] struct that tests,
//! benchmarks and the fingerprint replay checker consume.
//!
//! Merge discipline (mirrors `obs::striped`):
//! - additive counters (`add`) merge by summation;
//! - high-water marks (`raise`, currently only `fc_peak_unex_bytes`)
//!   merge by maximum;
//! - gauges recomputed at snapshot time (`peer_entries`, rail-health and
//!   membership mirrors, the copy meter) are **not** stored here — the
//!   owner recomputes them in `NmCore::stats`.
//!
//! Under the single-threaded simulator only one stripe is ever touched,
//! so a snapshot is plainly the sequence of increments — bit-identical
//! to the old non-atomic field bumps, which is what keeps same-seed
//! replay fingerprints stable across this refactor.

use simnet::CopySnapshot;

/// Counters exposed for tests and the benchmark harnesses.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NmStats {
    pub eager_sends: u64,
    pub rdv_sends: u64,
    pub packets_sent: u64,
    pub aggregates_sent: u64,
    pub frags_aggregated: u64,
    pub data_chunks_sent: u64,
    pub recv_completions: u64,
    pub send_completions: u64,
    /// Retry mode: eager envelopes retransmitted after an ack timeout.
    pub eager_retries: u64,
    /// Retry mode: RTS packets retransmitted (no CTS within the timeout).
    pub rts_retries: u64,
    /// Retry mode: CTS packets retransmitted (receiver-side, no DATA
    /// progress within the timeout) or replayed for a duplicate RTS.
    pub cts_retries: u64,
    /// Retry mode: whole rendezvous payloads replayed (no FIN in time).
    pub data_retries: u64,
    /// Retry mode: cumulative envelope acks emitted.
    pub acks_sent: u64,
    /// Retry mode: rendezvous FIN packets emitted (including replays).
    pub fins_sent: u64,
    /// Retry mode: duplicate envelopes discarded by the sequence check.
    pub dup_envelopes: u64,
    /// Retry mode: duplicate DATA bytes discarded by range tracking.
    pub dup_data: u64,
    /// Malformed or stale frames the protocol table classified as errors
    /// (CTS/DATA/FIN for an unknown rendezvous without a retry layer to
    /// explain them, DATA chunks outside the announced payload range):
    /// counted and dropped — never a panic.
    pub protocol_errors: u64,
    /// Frames discarded at delivery because the end-to-end CRC failed
    /// (wire corruption); the retry layer replays them like drops.
    pub crc_drops: u64,
    /// Rail-health state machine transitions (any edge of
    /// `Up/Suspect/Down/Probing`).
    pub rail_transitions: u64,
    /// Payload bytes whose retransmission was moved off the rail that
    /// failed them onto a survivor.
    pub rerouted_bytes: u64,
    /// Cumulative rail-nanoseconds spent in a non-`Up` health state
    /// (time-in-degraded-mode, summed over rails).
    pub degraded_nanos: u64,
    /// Health probes emitted on `Probing` rails.
    pub probes_sent: u64,
    /// Probe acknowledgements accepted (stale ones are not counted).
    pub probe_acks: u64,
    /// Flow control: eager sends admitted by consuming a credit.
    pub fc_eager_admitted: u64,
    /// Flow control: sends that found the per-gate credit pool empty (each
    /// one also counts as a fallback below).
    pub fc_credit_stalls: u64,
    /// Flow control: eager-sized sends demoted to the rendezvous path
    /// because the destination gate was out of credits.
    pub fc_fallback_sends: u64,
    /// Flow control: eager credits returned to peers (receiver side,
    /// piggybacked on acks or sent as standalone `Credit` frames).
    pub fc_credits_returned: u64,
    /// Flow control: credit returns deferred by the high-water hysteresis
    /// (each credit counts once, when it is first withheld).
    pub fc_credits_withheld: u64,
    /// Peak bytes of unexpected eager payload buffered by this receiver.
    /// Tracked whether or not flow control is armed, so a flow-off run can
    /// report how far past the cap it went.
    pub fc_peak_unex_bytes: u64,
    /// Membership: liveness state-machine transitions (any edge of
    /// `Up/Suspect/Dead`, across all tracked peers).
    pub membership_transitions: u64,
    /// Membership: peers this rank has declared `Dead` (sticky).
    pub membership_dead_peers: u64,
    /// Membership: send requests completed *with an error* by the drain
    /// protocol (in-flight rendezvous aborted, queued eager sends failed,
    /// fail-fast sends toward a known-dead peer).
    pub membership_aborted_sends: u64,
    /// Membership: receive requests completed *with an error* (posted
    /// against a peer that died, or fail-fast toward a known-dead peer).
    pub membership_aborted_recvs: u64,
    /// Membership: per-peer records reclaimed by drains (the dead peer's
    /// gate, flows, rendezvous and tombstones — the same unit as
    /// `peer_entries`).
    pub membership_drained_entries: u64,
    /// Membership: frames from an already-drained peer dropped at
    /// acceptance instead of reviving per-peer state.
    pub membership_stray_frames: u64,
    /// Membership: eager credits released back to full pools by drains
    /// (in-flight credits toward the dead peer plus owed/withheld returns
    /// it will never collect).
    pub membership_credits_released: u64,
    /// Epoch hygiene: collective frames from a revoked or superseded
    /// epoch — or a retired agreement instance — counted and dropped at
    /// delivery without touching matching or per-peer protocol state
    /// (their transport sequence still advances, so the sender's ack
    /// arrives and a live peer is never indicted over a dead epoch).
    pub membership_stale_epoch: u64,
    /// Communicator epochs revoked on this rank (locally initiated or
    /// learned from a peer's poison frame; sticky, so counted once each).
    pub revoked_epochs: u64,
    /// Requests completed *with a revoked-epoch error* by a quiesce
    /// (sends and receives of the poisoned epoch).
    pub revoked_ops: u64,
    /// Live per-peer records in this core at snapshot time: one per gate
    /// plus one per flow, in-flight rendezvous and tombstone it holds.
    /// The O(active-flows) claim made measurable: an idle core reports 0
    /// no matter how many ranks the job has, and a core that only ever
    /// talked to k peers reports O(k).
    pub peer_entries: u64,
    /// Copy accounting for the whole stack this core belongs to (memcpys,
    /// allocations, zero-copy shares) — the measured side of the Fig. 2
    /// bypass argument.
    pub copy: CopySnapshot,
}

impl NmStats {
    /// Total retransmissions across all packet classes.
    pub fn total_retries(&self) -> u64 {
        self.eager_retries + self.rts_retries + self.cts_retries + self.data_retries
    }
}

/// Constant indices for every striped counter. Lower-case on purpose:
/// call sites read `stats.add(stat::eager_sends, 1)`, keeping the diff
/// from the old `stats.eager_sends += 1` form mechanical and greppable.
#[allow(non_upper_case_globals)]
pub mod stat {
    macro_rules! indices {
        ($($name:ident),+ $(,)?) => {
            indices!(@build 0usize; $($name),+);
        };
        (@build $idx:expr; $name:ident $(, $rest:ident)*) => {
            pub const $name: usize = $idx;
            indices!(@build $idx + 1; $($rest),*);
        };
        (@build $idx:expr;) => {
            /// Number of striped counters.
            pub const COUNT: usize = $idx;
        };
    }

    indices!(
        eager_sends,
        rdv_sends,
        packets_sent,
        aggregates_sent,
        frags_aggregated,
        data_chunks_sent,
        recv_completions,
        send_completions,
        eager_retries,
        rts_retries,
        cts_retries,
        data_retries,
        acks_sent,
        fins_sent,
        dup_envelopes,
        dup_data,
        protocol_errors,
        crc_drops,
        rerouted_bytes,
        fc_eager_admitted,
        fc_credit_stalls,
        fc_fallback_sends,
        fc_credits_returned,
        fc_credits_withheld,
        fc_peak_unex_bytes,
        membership_dead_peers,
        membership_aborted_sends,
        membership_aborted_recvs,
        membership_drained_entries,
        membership_stray_frames,
        membership_credits_released,
        membership_stale_epoch,
        revoked_epochs,
        revoked_ops,
    );
}

/// The striped counter bank behind [`NmStats`]. Shared-write-free on the
/// hot path; merged on read.
#[derive(Default)]
pub struct StatsCells {
    cells: obs::StripedCells<{ stat::COUNT }>,
}

impl StatsCells {
    pub fn new() -> StatsCells {
        StatsCells::default()
    }

    /// Bump an additive counter (see [`stat`] for indices).
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.cells.add(i, n);
    }

    /// Raise a high-water-mark counter to at least `v`.
    #[inline]
    pub fn raise(&self, i: usize, v: u64) {
        self.cells.raise(i, v);
    }

    /// Merged read of one additive counter.
    pub fn get(&self, i: usize) -> u64 {
        self.cells.sum(i)
    }

    /// Merged read of a high-water-mark counter (pairs with [`Self::raise`]).
    pub fn max_of(&self, i: usize) -> u64 {
        self.cells.max(i)
    }

    /// Merge every stripe into the plain snapshot struct. Gauges that the
    /// owner recomputes (`peer_entries`, rail health, membership
    /// transitions, the copy meter) are left at their defaults.
    pub fn snapshot(&self) -> NmStats {
        let c = &self.cells;
        NmStats {
            eager_sends: c.sum(stat::eager_sends),
            rdv_sends: c.sum(stat::rdv_sends),
            packets_sent: c.sum(stat::packets_sent),
            aggregates_sent: c.sum(stat::aggregates_sent),
            frags_aggregated: c.sum(stat::frags_aggregated),
            data_chunks_sent: c.sum(stat::data_chunks_sent),
            recv_completions: c.sum(stat::recv_completions),
            send_completions: c.sum(stat::send_completions),
            eager_retries: c.sum(stat::eager_retries),
            rts_retries: c.sum(stat::rts_retries),
            cts_retries: c.sum(stat::cts_retries),
            data_retries: c.sum(stat::data_retries),
            acks_sent: c.sum(stat::acks_sent),
            fins_sent: c.sum(stat::fins_sent),
            dup_envelopes: c.sum(stat::dup_envelopes),
            dup_data: c.sum(stat::dup_data),
            protocol_errors: c.sum(stat::protocol_errors),
            crc_drops: c.sum(stat::crc_drops),
            rail_transitions: 0,
            rerouted_bytes: c.sum(stat::rerouted_bytes),
            degraded_nanos: 0,
            probes_sent: 0,
            probe_acks: 0,
            fc_eager_admitted: c.sum(stat::fc_eager_admitted),
            fc_credit_stalls: c.sum(stat::fc_credit_stalls),
            fc_fallback_sends: c.sum(stat::fc_fallback_sends),
            fc_credits_returned: c.sum(stat::fc_credits_returned),
            fc_credits_withheld: c.sum(stat::fc_credits_withheld),
            fc_peak_unex_bytes: c.max(stat::fc_peak_unex_bytes),
            membership_transitions: 0,
            membership_dead_peers: c.sum(stat::membership_dead_peers),
            membership_aborted_sends: c.sum(stat::membership_aborted_sends),
            membership_aborted_recvs: c.sum(stat::membership_aborted_recvs),
            membership_drained_entries: c.sum(stat::membership_drained_entries),
            membership_stray_frames: c.sum(stat::membership_stray_frames),
            membership_credits_released: c.sum(stat::membership_credits_released),
            membership_stale_epoch: c.sum(stat::membership_stale_epoch),
            revoked_epochs: c.sum(stat::revoked_epochs),
            revoked_ops: c.sum(stat::revoked_ops),
            peer_entries: 0,
            copy: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn indices_are_dense_and_distinct() {
        // The macro assigns 0..COUNT; spot-check the ends.
        assert_eq!(stat::eager_sends, 0);
        assert_eq!(stat::revoked_ops, stat::COUNT - 1);
    }

    #[test]
    fn snapshot_mirrors_increments() {
        let s = StatsCells::new();
        s.add(stat::eager_sends, 2);
        s.add(stat::rdv_sends, 1);
        s.add(stat::rerouted_bytes, 4096);
        s.raise(stat::fc_peak_unex_bytes, 100);
        s.raise(stat::fc_peak_unex_bytes, 40);
        let snap = s.snapshot();
        assert_eq!(snap.eager_sends, 2);
        assert_eq!(snap.rdv_sends, 1);
        assert_eq!(snap.rerouted_bytes, 4096);
        assert_eq!(snap.fc_peak_unex_bytes, 100);
        assert_eq!(snap.packets_sent, 0);
        assert_eq!(s.get(stat::eager_sends), 2);
    }

    #[test]
    fn concurrent_bumps_merge_exactly() {
        let s = Arc::new(StatsCells::new());
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        s.add(stat::packets_sent, 1);
                        s.raise(stat::fc_peak_unex_bytes, k * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.packets_sent, 4000);
        assert_eq!(snap.fc_peak_unex_bytes, 3999);
    }
}
