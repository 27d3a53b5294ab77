//! The multirail split strategy.
//!
//! Implements the behaviour Fig. 5 measures: "choose the fastest network
//! for small messages … and distribute the message chunks across the
//! multiple networks in case of large messages", with chunk sizes from the
//! sampling-based equal-finish-time solve so that "NewMadeleine is able to
//! balance the load according to each network's performance when they
//! differ" (§4.1.1).
//!
//! Also aggregates consecutive small sends opportunistically (the real
//! library composes strategies; `split_balanced` here subsumes the
//! aggregation rule so multirail runs still benefit from coalescing).

use std::collections::VecDeque;

use simnet::NmBuf;

use crate::config::NmConfig;
use crate::pack::{PacketWrapper, PwBody};
use crate::sampling::{split_sizes_weighted, LinkProfile};

use super::{
    pick_single_rail, pop_aggregate, schedulable_rails, RailState, Strategy, Submission,
    MULTIRAIL_THRESHOLD,
};

/// Smallest chunk a renormalized multirail split may assign to one rail;
/// anything smaller is folded into the largest chunk (per-chunk header and
/// handoff costs would dominate below this).
const MIN_SPLIT_CHUNK: usize = 4 * 1024;

#[derive(Default)]
pub struct StratSplitBalanced;

impl StratSplitBalanced {
    pub fn new() -> StratSplitBalanced {
        StratSplitBalanced
    }
}

impl Strategy for StratSplitBalanced {
    fn name(&self) -> &'static str {
        "split_balanced"
    }

    fn try_and_commit(
        &mut self,
        _cfg: &NmConfig,
        pending: &mut VecDeque<PacketWrapper>,
        rails: &mut [RailState],
    ) -> Vec<Submission> {
        let mut out = Vec::new();
        loop {
            if !rails.iter().any(|r| r.idle) {
                return out;
            }
            let front = match pending.front() {
                Some(f) => f,
                None => return out,
            };
            // Splits go over healthy rails only: Down/Probing rails get
            // zero bytes, a ramping (recently re-admitted) rail gets a
            // weight-shrunk share.
            let splittable = front.can_split() && front.len() >= MULTIRAIL_THRESHOLD;
            if splittable && schedulable_rails(rails).nth(1).is_some() {
                // Large rendezvous data: split across every usable idle
                // rail, listed only here, where the chunk plan is built.
                let usable: Vec<usize> = schedulable_rails(rails).collect();
                let pw = pending.pop_front().unwrap();
                let profiles: Vec<LinkProfile> = usable.iter().map(|&i| rails[i].profile).collect();
                let weights: Vec<f64> = usable.iter().map(|&i| rails[i].weight).collect();
                let chunks = split_sizes_weighted(pw.len(), &profiles, &weights, MIN_SPLIT_CHUNK);
                let (rdv_id, base) = match pw.body {
                    PwBody::Data { rdv_id, offset } => (rdv_id, offset),
                    _ => unreachable!("can_split implies Data"),
                };
                let mut off = 0usize;
                for (k, &rail) in usable.iter().enumerate() {
                    let len = chunks[k];
                    if len == 0 {
                        continue;
                    }
                    let chunk = PacketWrapper {
                        id: pw.id,
                        dst: pw.dst,
                        body: PwBody::Data {
                            rdv_id,
                            offset: base + off,
                        },
                        data: pw.data.slice(off..off + len),
                        enqueued_at: pw.enqueued_at,
                    };
                    off += len;
                    rails[rail].idle = false;
                    out.push(Submission {
                        rail,
                        pws: vec![chunk],
                    });
                }
                debug_assert_eq!(off, pw.data.len(), "split must cover the payload");
                continue;
            }
            // Small (or single-usable-rail) case: fastest healthy idle rail
            // for the front packet, aggregating a prefix of small eager
            // sends. Falls back to an unhealthy rail rather than stalling.
            let len = front.len();
            let Some(rail) = pick_single_rail(rails, len) else {
                return out;
            };
            let pws = pop_aggregate(pending).expect("front exists");
            rails[rail].idle = false;
            out.push(Submission { rail, pws });
        }
    }
}

/// Build a zero-copy chunk view (used by tests to validate slicing).
#[allow(dead_code)]
fn slice_chunk(data: &NmBuf, off: usize, len: usize) -> NmBuf {
    data.slice(off..off + len)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::Strategy;
    use super::*;

    #[test]
    fn small_message_takes_fastest_rail_only() {
        let mut s = StratSplitBalanced::new();
        let mut pending: VecDeque<_> = vec![eager_pw(0, 64)].into();
        let mut rs = rails(2);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].rail, 0, "rail 0 is the low-latency rail");
        assert!(!rs[0].idle);
        assert!(rs[1].idle);
    }

    #[test]
    fn large_data_splits_across_both_rails() {
        let mut s = StratSplitBalanced::new();
        let size = 4 << 20;
        let mut pending: VecDeque<_> = vec![data_pw(0, 7, size)].into();
        let mut rs = rails(2);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 2, "one chunk per rail");
        let total: usize = subs.iter().map(|s| s.pws[0].len()).sum();
        assert_eq!(total, size);
        // Offsets partition the payload contiguously.
        let mut chunks: Vec<(usize, usize)> = subs
            .iter()
            .map(|s| match s.pws[0].body {
                PwBody::Data { offset, .. } => (offset, s.pws[0].len()),
                _ => panic!("not data"),
            })
            .collect();
        chunks.sort_unstable();
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[0].0 + chunks[0].1, chunks[1].0);
        // The faster rail (0) gets the bigger chunk.
        let rail0_len = subs.iter().find(|s| s.rail == 0).unwrap().pws[0].len();
        let rail1_len = subs.iter().find(|s| s.rail == 1).unwrap().pws[0].len();
        assert!(rail0_len > rail1_len);
    }

    #[test]
    fn below_threshold_data_stays_single_rail() {
        let mut s = StratSplitBalanced::new();
        let c = cfg(); // MULTIRAIL_THRESHOLD = 32K
        let mut pending: VecDeque<_> = vec![data_pw(0, 7, 16 * 1024)].into();
        let mut rs = rails(2);
        let subs = s.try_and_commit(&c, &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].pws[0].len(), 16 * 1024);
    }

    #[test]
    fn single_idle_rail_disables_split() {
        let mut s = StratSplitBalanced::new();
        let mut pending: VecDeque<_> = vec![data_pw(0, 7, 4 << 20)].into();
        let mut rs = rails(2);
        rs[1].idle = false;
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].rail, 0);
        assert_eq!(subs[0].pws[0].len(), 4 << 20);
    }

    #[test]
    fn aggregates_small_prefix_like_aggreg() {
        let mut s = StratSplitBalanced::new();
        let mut pending: VecDeque<_> = (0..4).map(|i| eager_pw(i, 100)).collect();
        let mut rs = rails(2);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].pws.len(), 4);
    }

    #[test]
    fn drains_queue_across_rails_until_all_busy() {
        let mut s = StratSplitBalanced::new();
        // Two large-ish eager messages: first takes rail 0, second rail 1
        // (both rails end up busy), third stays queued.
        let mut pending: VecDeque<_> = (0..3).map(|i| eager_pw(i, 12_000)).collect();
        let mut rs = rails(2);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 2);
        assert_eq!(pending.len(), 1);
        assert!(!rs[0].idle && !rs[1].idle);
        // 12 KB exceeds the aggregate byte budget, so no coalescing.
        assert!(subs.iter().all(|s| s.pws.len() == 1));
    }

    #[test]
    fn down_rail_excluded_from_split() {
        use crate::railhealth::RailHealth;
        let mut s = StratSplitBalanced::new();
        let size = 4 << 20;
        let mut pending: VecDeque<_> = vec![data_pw(0, 7, size)].into();
        let mut rs = rails_with_health(2, 1, RailHealth::Down);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1, "split collapses onto the survivor");
        assert_eq!(subs[0].rail, 0);
        assert_eq!(subs[0].pws[0].len(), size, "every byte still goes out");
    }

    #[test]
    fn small_message_prefers_up_over_suspect() {
        use crate::railhealth::RailHealth;
        let mut s = StratSplitBalanced::new();
        let mut pending: VecDeque<_> = vec![eager_pw(0, 64)].into();
        // Rail 0 is faster but Suspect: the packet should take the slower
        // but fully healthy rail 1.
        let mut rs = rails_with_health(2, 0, RailHealth::Suspect);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].rail, 1);
    }

    #[test]
    fn all_rails_down_still_makes_progress() {
        use crate::railhealth::RailHealth;
        let mut s = StratSplitBalanced::new();
        let mut pending: VecDeque<_> = vec![eager_pw(0, 64)].into();
        let mut rs = rails_with_health(2, 0, RailHealth::Down);
        rs[1].health = RailHealth::Down;
        rs[1].weight = 0.0;
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1, "traffic never stalls on health alone");
    }

    #[test]
    fn all_rails_busy_accumulates_window() {
        let mut s = StratSplitBalanced::new();
        let mut pending: VecDeque<_> = vec![eager_pw(0, 64)].into();
        let mut rs = rails(2);
        rs[0].idle = false;
        rs[1].idle = false;
        assert!(s.try_and_commit(&cfg(), &mut pending, &mut rs).is_empty());
        assert_eq!(pending.len(), 1);
    }
}
