//! Protocol counters.
//!
//! [`NmStats`] is the plain struct tests, benchmarks and the fingerprint
//! replay checker consume. An [`crate::engine::Engine`] counts straight
//! into one — it has one owner at a time, so `stats.eager_sends += 1` is
//! the whole story — and [`NmStats::absorb`] folds several engines'
//! counters into a job-wide total.
//!
//! Code that counts from several OS threads at once (`mpi-ch3`'s
//! real-thread path) does the same: each thread owns an [`NmStats`], and
//! the copies are folded with [`NmStats::absorb`] after the join. Nothing
//! is shared while the threads run.

use simnet::CopySnapshot;

/// Counters exposed for tests and the benchmark harnesses.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, Hash)]
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

/// Every counter a bump site increments, named once: the list behind
/// [`NmStats::absorb`]. Calls `$m!` with the names. All of them add up
/// except `fc_peak_unex_bytes`, a high-water mark, which the users single
/// out by name. (The fields not listed — `peer_entries`, the rail-health and
/// membership mirrors, `copy` — are gauges their owner recomputes.)
macro_rules! with_counters {
    ($m:ident) => {
        $m! {
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
            revoked_ops
        }
    };
}

impl NmStats {
    /// Total retransmissions across all packet classes.
    pub fn total_retries(&self) -> u64 {
        self.eager_retries + self.rts_retries + self.cts_retries + self.data_retries
    }

    /// Fold another core's counters into this job-wide total: every
    /// counter and gauge sums, except `fc_peak_unex_bytes`, a per-receiver
    /// high-water mark, which takes the maximum, and `copy`, which every
    /// core of a stack reads off the same job-wide meter
    /// (`RunOutcome.copy` has it once) and is left alone.
    pub fn absorb(&mut self, other: &NmStats) {
        macro_rules! fold {
            (@one fc_peak_unex_bytes) => {
                self.fc_peak_unex_bytes = self.fc_peak_unex_bytes.max(other.fc_peak_unex_bytes)
            };
            (@one $field:ident) => { self.$field += other.$field };
            ($($field:ident),+) => { $(fold!(@one $field);)+ };
        }
        with_counters!(fold);
        fold!(rail_transitions, degraded_nanos, probes_sent, probe_acks);
        fold!(membership_transitions, peer_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A field added to `NmStats` and forgotten by `absorb` reads 0 here.
    #[test]
    fn absorb_leaves_no_counter_behind() {
        let mut one = NmStats {
            rail_transitions: 1,
            degraded_nanos: 1,
            probes_sent: 1,
            probe_acks: 1,
            membership_transitions: 1,
            peer_entries: 1,
            ..NmStats::default()
        };
        macro_rules! set_each {
            ($($field:ident),+) => { $(one.$field = 1;)+ };
        }
        with_counters!(set_each);
        let mut total = NmStats::default();
        total.absorb(&one);
        total.absorb(&one);
        let shown = format!("{total:?}");
        let (counters, copy) = shown.split_once("copy:").expect("copy is the last field");
        assert_eq!(counters.matches(": 2,").count(), 39, "{shown}");
        assert_eq!(counters.matches(": 1,").count(), 1, "the peak is a maximum");
        assert!(!counters.contains(": 0,"), "{shown}");
        assert!(
            !copy.contains(|c: char| c.is_ascii_digit() && c != '0'),
            "{copy}"
        );
    }

    #[test]
    fn concurrent_bumps_merge_exactly() {
        // Each thread owns its counters; the fold at join is exact.
        let threads: Vec<_> = (0..4)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut s = NmStats::default();
                    for i in 0..1000 {
                        s.packets_sent += 1;
                        s.fc_peak_unex_bytes = s.fc_peak_unex_bytes.max(k * 1000 + i);
                    }
                    s
                })
            })
            .collect();
        let mut total = NmStats::default();
        for t in threads {
            total.absorb(&t.join().unwrap());
        }
        assert_eq!(total.packets_sent, 4000);
        assert_eq!(total.fc_peak_unex_bytes, 3999);
    }
}
