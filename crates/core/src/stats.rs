//! Protocol counters.
//!
//! [`NmStats`] is the plain struct tests, benchmarks and the fingerprint
//! replay checker consume. An [`crate::engine::Engine`] counts straight
//! into one — it has one owner at a time, so `stats.eager_sends += 1` is
//! the whole story — and [`NmStats::absorb`] folds several engines'
//! counters into a job-wide total.
//!
//! [`StatsCells`] is the shared representation for code that bumps the
//! same counters from several OS threads at once (`mpi-ch3`'s real-thread
//! path): every incrementable counter gets a constant index into an
//! [`obs::StripedCells`] slab, so a bump is one `Relaxed` `fetch_add` on
//! the calling thread's own cache lines, and [`StatsCells::snapshot`]
//! merges the slabs back into an [`NmStats`] — additive counters (`add`)
//! by summation, high-water marks (`raise`, currently only
//! `fc_peak_unex_bytes`) by maximum. Gauges an owner recomputes at read
//! time (`peer_entries`, the rail-health and membership mirrors, the copy
//! meter) are not stored in either form.

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

/// Every counter a bump site increments, named once: the list behind the
/// [`stat`] indices, [`StatsCells::snapshot`] and [`NmStats::absorb`].
/// Calls `$m!` with the names. All of them add up except
/// `fc_peak_unex_bytes`, a high-water mark, which the users single out by
/// name. (The fields not listed — `peer_entries`, the rail-health and
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

/// Constant indices for every striped counter. Lower-case on purpose:
/// call sites read `stats.add(stat::eager_sends, 1)`, the same name as
/// the field it lands in.
#[allow(non_upper_case_globals)]
pub mod stat {
    macro_rules! indices {
        ($($name:ident),+) => {
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

    with_counters!(indices);
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

    /// Merge every stripe into the plain snapshot struct. Gauges that the
    /// owner recomputes (`peer_entries`, rail health, membership
    /// transitions, the copy meter) are left at their defaults.
    pub fn snapshot(&self) -> NmStats {
        let c = &self.cells;
        macro_rules! merged {
            (@one fc_peak_unex_bytes) => { c.max(stat::fc_peak_unex_bytes) };
            (@one $field:ident) => { c.sum(stat::$field) };
            ($($field:ident),+) => {
                NmStats { $($field: merged!(@one $field),)+ ..NmStats::default() }
            };
        }
        with_counters!(merged)
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
    }

    /// A field added to `NmStats` and forgotten by `absorb` reads 0 here.
    #[test]
    fn absorb_leaves_no_counter_behind() {
        let cells = StatsCells::new();
        (0..stat::COUNT).for_each(|i| cells.add(i, 1));
        let one = NmStats {
            rail_transitions: 1,
            degraded_nanos: 1,
            probes_sent: 1,
            probe_acks: 1,
            membership_transitions: 1,
            peer_entries: 1,
            ..cells.snapshot()
        };
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
