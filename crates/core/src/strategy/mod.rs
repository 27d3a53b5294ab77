//! Scheduling strategies — the "sophisticated strategies for sending
//! messages" of the abstract.
//!
//! A strategy is consulted whenever the core tries to move packet wrappers
//! from a gate's submission window onto NICs. It sees the window and the
//! momentary rail states (idle/busy + sampled profile) and returns
//! submissions; the core executes them. Strategies are pure decision
//! procedures, which keeps them unit-testable in isolation.
//!
//! ## Ordering contract
//!
//! Strategies may reorder *across* gates (the core calls them per gate) and
//! may pick different rails for successive packets; envelope packets
//! (eager/RTS) carry sequence numbers and the receiving core reorders, so
//! correctness never depends on strategy behaviour. Within one submission,
//! aggregated fragments must preserve window order (asserted by tests).

mod aggreg;
mod split_balanced;
mod split_equal;
mod strat_default;

pub use aggreg::StratAggreg;
pub use split_balanced::StratSplitBalanced;
pub use split_equal::StratSplitEqual;
pub use strat_default::StratDefault;

use std::collections::VecDeque;

use crate::config::{NmConfig, StrategyKind};
use crate::pack::PacketWrapper;
use crate::railhealth::RailHealth;
use crate::sampling::{fastest_rail, LinkProfile};

/// Momentary state of one rail as the strategy sees it. The strategy marks
/// rails busy as it assigns packets so a single pass over several gates
/// cannot double-book a rail.
#[derive(Clone, Copy, Debug)]
pub struct RailState {
    pub idle: bool,
    pub profile: LinkProfile,
    /// Live health from the rail-health state machine (`Up` when health
    /// tracking is off).
    pub health: RailHealth,
    /// Scheduling weight: 1.0 for a healthy rail, 0.0 for `Down`/`Probing`
    /// ones, ramping back up after re-admission. Splits renormalize over
    /// it; a zero-weight rail gets no payload bytes.
    pub weight: f64,
}

impl RailState {
    /// May the strategy hand this rail payload traffic right now?
    pub fn schedulable(&self) -> bool {
        self.idle && self.health.usable() && self.weight > 0.0
    }
}

/// Rails a strategy may split payload across: idle, usable, weighted.
pub(crate) fn schedulable_rails(rails: &[RailState]) -> Vec<usize> {
    (0..rails.len()).filter(|&i| rails[i].schedulable()).collect()
}

/// Single-rail choice with a progress guarantee: the fastest idle `Up`
/// rail, else the fastest idle still-usable (`Suspect`) one, else the
/// fastest idle rail of any state — with every rail unhealthy the traffic
/// still goes out (the retry layer owns recovery; stalling here would turn
/// a degraded fabric into a livelock).
pub(crate) fn pick_single_rail(rails: &[RailState], bytes: usize) -> Option<usize> {
    let idle: Vec<usize> = (0..rails.len()).filter(|&i| rails[i].idle).collect();
    if idle.is_empty() {
        return None;
    }
    let up: Vec<usize> = idle
        .iter()
        .copied()
        .filter(|&i| rails[i].health == RailHealth::Up && rails[i].weight > 0.0)
        .collect();
    let cand = if !up.is_empty() {
        up
    } else {
        let usable: Vec<usize> = idle
            .iter()
            .copied()
            .filter(|&i| rails[i].health.usable())
            .collect();
        if !usable.is_empty() {
            usable
        } else {
            idle
        }
    };
    let profiles: Vec<LinkProfile> = cand.iter().map(|&i| rails[i].profile).collect();
    Some(cand[fastest_rail(bytes, &profiles)])
}

/// Lowest-index schedulable rail, falling back to the lowest-index idle
/// rail — the single-rail strategies' (default/aggreg) rail choice.
pub(crate) fn first_usable_rail(rails: &[RailState]) -> Option<usize> {
    rails
        .iter()
        .position(RailState::schedulable)
        .or_else(|| rails.iter().position(|r| r.idle))
}

/// Below this size a rendezvous DATA transfer stays on a single rail even
/// under the split strategies (split overhead would dominate).
pub(crate) const MULTIRAIL_THRESHOLD: usize = 32 * 1024;

/// Aggregation stops coalescing when the aggregate reaches this size…
const MAX_AGGREG_BYTES: usize = 8 * 1024;
/// …or this many fragments.
const MAX_AGGREG_COUNT: usize = 16;

/// Pop the front of `pending` and, if it is aggregatable, the run of
/// aggregatable wrappers behind it that fits the budget above — in window
/// order. `None` on an empty window.
pub(crate) fn pop_aggregate(pending: &mut VecDeque<PacketWrapper>) -> Option<Vec<PacketWrapper>> {
    let mut pws = vec![pending.pop_front()?];
    if pws[0].can_aggregate() {
        let mut bytes = pws[0].len();
        while pws.len() < MAX_AGGREG_COUNT {
            match pending.front() {
                Some(next) if next.can_aggregate() && bytes + next.len() <= MAX_AGGREG_BYTES => {
                    bytes += next.len();
                    pws.push(pending.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
    }
    Some(pws)
}

/// One wire packet to emit: `pws` is a single wrapper, or several
/// aggregatable wrappers coalesced into one transfer.
#[derive(Debug)]
pub struct Submission {
    pub rail: usize,
    pub pws: Vec<PacketWrapper>,
}

/// The strategy contract: "called when a driver becomes idle, may aggregate
/// several pending packet wrappers into one transfer or split one wrapper
/// across rails".
pub trait Strategy: Send {
    fn name(&self) -> &'static str;

    /// Consume whatever the strategy decides to send now from `pending`
    /// (the gate's window) given `rails`; mark used rails busy in `rails`.
    fn try_and_commit(
        &mut self,
        cfg: &NmConfig,
        pending: &mut VecDeque<PacketWrapper>,
        rails: &mut [RailState],
    ) -> Vec<Submission>;
}

/// Instantiate the strategy selected by the configuration.
pub fn make(kind: StrategyKind) -> Box<dyn Strategy> {
    match kind {
        StrategyKind::Default => Box::new(StratDefault::new()),
        StrategyKind::Aggreg => Box::new(StratAggreg::new()),
        StrategyKind::SplitBalanced => Box::new(StratSplitBalanced::new()),
        StrategyKind::SplitEqual => Box::new(StratSplitEqual::new()),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::pack::{PwBody, PwId};
    use crate::sr::SendReqId;
    use simnet::{NmBuf, SimDuration, SimTime};

    pub fn eager_pw(id: u64, len: usize) -> PacketWrapper {
        PacketWrapper {
            id: PwId(id),
            dst: 1,
            body: PwBody::Eager {
                tag: 1,
                seq: id,
                send_req: SendReqId(id as u32),
            },
            data: NmBuf::from(vec![id as u8; len]),
            enqueued_at: SimTime::ZERO,
        }
    }

    pub fn data_pw(id: u64, rdv_id: u64, len: usize) -> PacketWrapper {
        PacketWrapper {
            id: PwId(id),
            dst: 1,
            body: PwBody::Data { rdv_id, offset: 0 },
            data: NmBuf::from(vec![0u8; len]),
            enqueued_at: SimTime::ZERO,
        }
    }

    pub fn rails(n: usize) -> Vec<RailState> {
        // Rail 0 is the fastest (IB-like), later rails slightly slower.
        (0..n)
            .map(|i| RailState {
                idle: true,
                profile: LinkProfile {
                    latency: SimDuration::nanos(1_200 + 300 * i as u64),
                    bandwidth_bps: (1250.0 - 150.0 * i as f64) * 1024.0 * 1024.0,
                },
                health: RailHealth::Up,
                weight: 1.0,
            })
            .collect()
    }

    /// `rails(n)` with one rail forced into a health state (weight follows:
    /// 0 unless the state is usable).
    pub fn rails_with_health(n: usize, rail: usize, health: RailHealth) -> Vec<RailState> {
        let mut rs = rails(n);
        rs[rail].health = health;
        rs[rail].weight = if health.usable() { 1.0 } else { 0.0 };
        rs
    }

    pub fn cfg() -> NmConfig {
        NmConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        assert_eq!(make(StrategyKind::Default).name(), "default");
        assert_eq!(make(StrategyKind::Aggreg).name(), "aggreg");
        assert_eq!(make(StrategyKind::SplitBalanced).name(), "split_balanced");
    }
}
