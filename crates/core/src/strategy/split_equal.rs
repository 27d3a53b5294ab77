//! Ablation strategy: multirail splitting with a **fixed 50/50 ratio**
//! instead of the sampled equal-finish-time solve.
//!
//! Exists to quantify the value of the paper's sampling mechanism (§2.2,
//! reference [4]): on heterogeneous rails the naive split finishes when
//! the *slower* rail finishes, wasting the fast rail's tail. The
//! `ablations` bench binary compares the two.

use std::collections::VecDeque;

use crate::config::NmConfig;
use crate::pack::{PacketWrapper, PwBody};

use super::{
    pick_single_rail, schedulable_rails, RailState, Strategy, Submission, MULTIRAIL_THRESHOLD,
};

#[derive(Default)]
pub struct StratSplitEqual;

impl StratSplitEqual {
    pub fn new() -> StratSplitEqual {
        StratSplitEqual
    }
}

impl Strategy for StratSplitEqual {
    fn name(&self) -> &'static str {
        "split_equal"
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
            // Same survivor filtering as split_balanced so the ablation
            // isolates the ratio choice, not the failover behaviour.
            let usable = schedulable_rails(rails);
            if front.can_split() && front.len() >= MULTIRAIL_THRESHOLD && usable.len() > 1 {
                let pw = pending.pop_front().unwrap();
                let (rdv_id, base) = match pw.body {
                    PwBody::Data { rdv_id, offset } => (rdv_id, offset),
                    _ => unreachable!("can_split implies Data"),
                };
                // Equal shares, remainder to the last usable rail.
                let share = pw.len() / usable.len();
                let mut off = 0usize;
                for (k, &rail) in usable.iter().enumerate() {
                    let len = if k + 1 == usable.len() {
                        pw.len() - off
                    } else {
                        share
                    };
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
                continue;
            }
            // Small messages: same policy as split_balanced (fastest
            // healthy idle rail) so the ablation isolates the ratio choice.
            let len = front.len();
            let Some(rail) = pick_single_rail(rails, len) else {
                return out;
            };
            let pw = pending.pop_front().unwrap();
            rails[rail].idle = false;
            out.push(Submission {
                rail,
                pws: vec![pw],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::Strategy;
    use super::*;

    #[test]
    fn splits_exactly_in_half_regardless_of_profiles() {
        let mut s = StratSplitEqual::new();
        let size = 4 << 20;
        let mut pending: VecDeque<_> = vec![data_pw(0, 7, size)].into();
        let mut rs = rails(2); // rail 0 is faster
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 2);
        let lens: Vec<usize> = subs.iter().map(|s| s.pws[0].len()).collect();
        assert_eq!(lens[0], size / 2);
        assert_eq!(lens[1], size - size / 2);
    }

    #[test]
    fn small_messages_still_take_fastest_rail() {
        let mut s = StratSplitEqual::new();
        let mut pending: VecDeque<_> = vec![eager_pw(0, 64)].into();
        let mut rs = rails(2);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs[0].rail, 0);
    }

    #[test]
    fn down_rail_collapses_split_onto_survivor() {
        use crate::railhealth::RailHealth;
        let mut s = StratSplitEqual::new();
        let size = 4 << 20;
        let mut pending: VecDeque<_> = vec![data_pw(0, 7, size)].into();
        let mut rs = rails_with_health(2, 0, RailHealth::Down);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].rail, 1);
        assert_eq!(subs[0].pws[0].len(), size);
    }
}
