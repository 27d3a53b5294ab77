//! The aggregation strategy.
//!
//! "When a network becomes idle, it has the possibility to apply
//! optimizations on the accumulated communication requests before
//! submitting them … such strategies may use, for instance, reordering
//! techniques or messages aggregation" (§2.2).
//!
//! While the rail is busy, small sends to the same gate pile up in the
//! window; when the rail frees, a *prefix* of consecutive aggregatable
//! wrappers is coalesced into a single wire packet (bounded by
//! `MAX_AGGREG_BYTES` / `MAX_AGGREG_COUNT`, see [`super::pop_aggregate`]),
//! trading one NIC latency for a few subheader bytes per message.
//! Non-aggregatable packets (control, rendezvous data) break the run and go
//! out alone, preserving window order.

use std::collections::VecDeque;

use crate::config::NmConfig;
use crate::pack::PacketWrapper;

use super::{first_usable_rail, pop_aggregate, RailState, Strategy, Submission};

#[derive(Default)]
pub struct StratAggreg;

impl StratAggreg {
    pub fn new() -> StratAggreg {
        StratAggreg
    }
}

impl Strategy for StratAggreg {
    fn name(&self) -> &'static str {
        "aggreg"
    }

    fn try_and_commit(
        &mut self,
        _cfg: &NmConfig,
        pending: &mut VecDeque<PacketWrapper>,
        rails: &mut [RailState],
    ) -> Vec<Submission> {
        let mut out = Vec::new();
        // Primary healthy rail (failover: next usable index when the
        // first is demoted; any idle rail when everything is unhealthy).
        let rail = match first_usable_rail(rails) {
            Some(r) => r,
            None => return out,
        };
        let Some(pws) = pop_aggregate(pending) else {
            return out;
        };
        rails[rail].idle = false;
        out.push(Submission { rail, pws });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::Strategy;
    use super::*;
    use crate::pack::PwBody;

    #[test]
    fn aggregates_consecutive_small_sends() {
        let mut s = StratAggreg::new();
        let mut pending: VecDeque<_> = (0..5).map(|i| eager_pw(i, 100)).collect();
        let mut rs = rails(1);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].pws.len(), 5, "all five coalesce into one packet");
        // Window order preserved inside the aggregate.
        let ids: Vec<u64> = subs[0].pws.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(pending.is_empty());
    }

    #[test]
    fn respects_byte_budget() {
        let mut s = StratAggreg::new();
        let c = cfg(); // MAX_AGGREG_BYTES = 8192
        let mut pending: VecDeque<_> = (0..4).map(|i| eager_pw(i, 3000)).collect();
        let mut rs = rails(1);
        let subs = s.try_and_commit(&c, &mut pending, &mut rs);
        // 3000+3000 fits; +3000 would exceed 8192.
        assert_eq!(subs[0].pws.len(), 2);
        assert_eq!(pending.len(), 2);
    }

    #[test]
    fn respects_count_budget() {
        let mut s = StratAggreg::new();
        let c = cfg(); // MAX_AGGREG_COUNT = 16
        let mut pending: VecDeque<_> = (0..20).map(|i| eager_pw(i, 1)).collect();
        let mut rs = rails(1);
        let subs = s.try_and_commit(&c, &mut pending, &mut rs);
        assert_eq!(subs[0].pws.len(), 16);
        assert_eq!(pending.len(), 4);
    }

    #[test]
    fn control_packet_breaks_the_run() {
        let mut s = StratAggreg::new();
        let mut pending: VecDeque<_> = VecDeque::new();
        pending.push_back(eager_pw(0, 10));
        let mut rts = eager_pw(1, 0);
        rts.body = PwBody::Rts {
            tag: 1,
            seq: 1,
            rdv_id: 9,
            len: 1 << 20,
        };
        pending.push_back(rts);
        pending.push_back(eager_pw(2, 10));
        let mut rs = rails(1);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        // Only the first eager goes out; the RTS stops the aggregation run.
        assert_eq!(subs[0].pws.len(), 1);
        assert_eq!(pending.len(), 2);
    }

    #[test]
    fn lone_control_packet_goes_out_alone() {
        let mut s = StratAggreg::new();
        let mut pending: VecDeque<_> = VecDeque::new();
        let mut cts = eager_pw(0, 0);
        cts.body = PwBody::Cts { rdv_id: 3 };
        pending.push_back(cts);
        pending.push_back(eager_pw(1, 10));
        let mut rs = rails(1);
        let subs = s.try_and_commit(&cfg(), &mut pending, &mut rs);
        assert_eq!(subs[0].pws.len(), 1);
        assert!(matches!(subs[0].pws[0].body, PwBody::Cts { .. }));
    }

    #[test]
    fn busy_rail_accumulates_window() {
        let mut s = StratAggreg::new();
        let mut pending: VecDeque<_> = (0..3).map(|i| eager_pw(i, 10)).collect();
        let mut rs = rails(1);
        rs[0].idle = false;
        assert!(s.try_and_commit(&cfg(), &mut pending, &mut rs).is_empty());
        assert_eq!(pending.len(), 3, "window keeps accumulating");
    }
}
