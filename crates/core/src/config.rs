//! NewMadeleine configuration: strategy selection and protocol thresholds.

use simnet::SimDuration;

/// Which scheduling strategy the core runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrategyKind {
    /// FIFO submission, no optimization — the reference point.
    Default,
    /// Coalesce consecutive small sends to the same gate into one NIC
    /// transfer while the NIC is busy.
    Aggreg,
    /// Multirail: small messages on the fastest rail, large messages split
    /// across all rails with the sampled equal-finish-time ratio.
    SplitBalanced,
    /// Ablation variant of [`StrategyKind::SplitBalanced`]: a fixed 50/50
    /// split, ignoring the sampling — quantifies what the adaptive ratio
    /// buys on heterogeneous rails.
    SplitEqual,
}

/// Transport-level reliability: timeout / retransmit / backoff for
/// envelopes (eager + RTS), the CTS handshake half, and rendezvous data.
/// Required whenever the fabric runs a fault plan that drops packets;
/// `None` (the default) keeps the happy-path protocol — packet counts,
/// wire traffic, timings — byte-identical to the calibrated model.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Initial retransmission timeout.
    pub timeout: SimDuration,
    /// Multiplier applied to a packet's timeout after each retransmission.
    pub backoff: u32,
    /// Ceiling on the per-packet backed-off timeout.
    pub max_timeout: SimDuration,
    /// Retransmission attempts before the core declares the link dead.
    pub max_attempts: u32,
    /// Rail-health hysteresis: consecutive retransmission timeouts on one
    /// rail before it is demoted `Up → Suspect`. Kept above 1 so a single
    /// misattributed timeout (a multi-rail rendezvous can't always name
    /// the guilty rail) never demotes a healthy rail.
    pub suspect_after: u32,
    /// How often a `Down` rail is probed for recovery (`Down → Probing`).
    pub probe_interval: SimDuration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout: SimDuration::micros(80),
            backoff: 2,
            max_timeout: SimDuration::millis(1),
            max_attempts: 64,
            suspect_after: 2,
            probe_interval: SimDuration::micros(500),
        }
    }
}

/// Receiver-managed credit-based eager flow control (overload
/// protection). Every eager send consumes one credit from the sender's
/// per-gate pool; the receiver returns credits as the messages are
/// consumed, piggybacked on ctrl frames over the express channel. A
/// sender whose pool is empty degrades gracefully: the message takes the
/// rendezvous path (RTS/CTS is natural backpressure — data only moves
/// once the receiver posted), it never blocks and never drops.
///
/// The receiver additionally bounds its unexpected-queue memory with
/// high/low-water hysteresis on `unex_bytes_cap`: while its buffered
/// unexpected eager bytes sit above `high_water`, earned credit returns
/// are withheld (every sender's pool drains and eager traffic degrades to
/// rendezvous); they are released in a batch once consumption pulls the
/// queue back below `low_water`. `None` (the default) keeps the
/// happy-path wire behaviour byte-identical to the calibrated model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowConfig {
    /// Eager sends in flight (sent, credit not yet returned) allowed per
    /// destination gate before the sender falls back to rendezvous. The
    /// pools make `peers × eager_credits × eager_threshold` a hard
    /// ceiling on any receiver's unexpected eager bytes.
    pub eager_credits: u32,
    /// Target ceiling on unexpected eager bytes buffered by one receiver
    /// (all gates together). Size the pools so
    /// `peers × eager_credits × eager_threshold ≤ unex_bytes_cap` and the
    /// cap is a hard bound; the hysteresis marks below keep a slow
    /// consumer from being refilled against while it drains.
    pub unex_bytes_cap: usize,
    /// Withhold credit returns while the receiver's unexpected bytes
    /// exceed this mark (≤ `unex_bytes_cap`).
    pub high_water: usize,
    /// Release withheld credits once the unexpected bytes drain below
    /// this mark (≤ `high_water`).
    pub low_water: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        // 16 credits × the 16 KB default eager threshold = 256 KB of
        // eager data in flight per peer; cap at that, start throttling at
        // half and refill below a quarter.
        FlowConfig {
            eager_credits: 16,
            unex_bytes_cap: 256 * 1024,
            high_water: 128 * 1024,
            low_water: 64 * 1024,
        }
    }
}

impl FlowConfig {
    /// A pool sized so `credits × eager_threshold` never exceeds the cap
    /// (with hysteresis marks at 1/2 and 1/4 of it).
    pub fn bounded(eager_credits: u32, unex_bytes_cap: usize) -> FlowConfig {
        FlowConfig {
            eager_credits,
            unex_bytes_cap,
            high_water: unex_bytes_cap / 2,
            low_water: unex_bytes_cap / 4,
        }
    }
}

/// Elastic membership: per-*peer* liveness promotion on top of the
/// per-rail health machinery. When armed, repeated retransmission
/// timeouts toward one peer (on any rail) walk that peer
/// `Up → Suspect → Dead`; a `Dead` verdict triggers the drain protocol —
/// in-flight rendezvous with the peer are aborted through the protocol
/// table (`Event::PeerDead` rows), its eager credits released, and the
/// peer's gate record dropped from the core. Liveness is credited
/// only by intact inbound arrivals, and a `Dead` verdict additionally
/// requires `min_silence` of inbound silence, so a merely slow or briefly
/// hung node is never declared dead. `None` (the default) keeps the
/// PR-3 behaviour: exhausting `max_attempts` panics the rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MembershipConfig {
    /// Consecutive per-peer retransmission timeouts before `Up → Suspect`.
    pub suspect_after: u32,
    /// Consecutive per-peer timeouts before `Suspect → Dead` (subject to
    /// `min_silence`). `Dead` is sticky: a departed rank never rejoins
    /// under the same rank id.
    pub dead_after: u32,
    /// A peer is only declared `Dead` if nothing intact has arrived from
    /// it for at least this long — the inbound-credited hysteresis that
    /// protects slow-but-alive nodes.
    pub min_silence: SimDuration,
    /// While we hold posted receives or in-flight rendezvous *from* a
    /// silent peer (i.e. we expect inbound but have no outbound retries to
    /// attribute failures from), probe it at this cadence; each unanswered
    /// probe interval counts as one failure.
    pub probe_interval: SimDuration,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        // Stacked on the default RetryConfig (80µs initial timeout, ×2
        // backoff, 1ms cap): 12 consecutive timeouts ≈ 5ms of proven
        // outbound silence before a Dead verdict, far above any transient
        // stall the rail-health layer tolerates.
        MembershipConfig {
            suspect_after: 4,
            dead_after: 12,
            min_silence: SimDuration::millis(2),
            probe_interval: SimDuration::micros(400),
        }
    }
}

/// Tunables of one NewMadeleine instance.
#[derive(Clone, Copy, Debug)]
pub struct NmConfig {
    pub strategy: StrategyKind,
    /// Messages up to this size go eager; larger ones use the internal
    /// rendezvous (RTS/CTS/DATA).
    pub eager_threshold: usize,
    /// Transport-level retransmission (fault-tolerant mode). `None` keeps
    /// the exact happy-path wire behaviour.
    pub retry: Option<RetryConfig>,
    /// Credit-based eager flow control (overload protection). `None`
    /// keeps the exact happy-path wire behaviour.
    pub flow: Option<FlowConfig>,
    /// Elastic membership (node-death detection + drain). Requires
    /// `retry` to be armed (verdicts are fed by retransmission timeouts);
    /// `None` keeps the PR-3 link-presumed-dead panic.
    pub membership: Option<MembershipConfig>,
}

impl Default for NmConfig {
    fn default() -> Self {
        NmConfig {
            strategy: StrategyKind::SplitBalanced,
            eager_threshold: 16 * 1024,
            retry: None,
            flow: None,
            membership: None,
        }
    }
}

impl NmConfig {
    pub fn with_strategy(strategy: StrategyKind) -> NmConfig {
        NmConfig {
            strategy,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_thresholds() {
        let c = NmConfig::default();
        // Fig. 7(a) treats 4K/16K as eager, Fig. 7(b) treats 16K+ as
        // rendezvous: the boundary is 16 KB inclusive.
        assert_eq!(c.eager_threshold, 16 * 1024);
        assert_eq!(c.strategy, StrategyKind::SplitBalanced);
    }

    #[test]
    fn with_strategy_overrides_only_strategy() {
        let c = NmConfig::with_strategy(StrategyKind::Aggreg);
        assert_eq!(c.strategy, StrategyKind::Aggreg);
        assert_eq!(c.eager_threshold, NmConfig::default().eager_threshold);
    }

    #[test]
    fn flow_control_is_off_by_default() {
        assert!(NmConfig::default().flow.is_none());
    }

    #[test]
    fn membership_is_off_by_default_and_orders_its_thresholds() {
        assert!(NmConfig::default().membership.is_none());
        let m = MembershipConfig::default();
        assert!(m.suspect_after < m.dead_after);
        assert!(m.min_silence > SimDuration::ZERO);
        assert!(m.probe_interval > SimDuration::ZERO);
    }

    #[test]
    fn bounded_flow_config_orders_its_marks() {
        let f = FlowConfig::bounded(4, 128 * 1024);
        assert_eq!(f.unex_bytes_cap, 128 * 1024);
        assert!(f.low_water <= f.high_water);
        assert!(f.high_water <= f.unex_bytes_cap);
        let d = FlowConfig::default();
        assert!(d.low_water <= d.high_water && d.high_water <= d.unex_bytes_cap);
        // The default pool is a hard bound against the default eager
        // threshold: credits × threshold = cap.
        assert_eq!(
            d.eager_credits as usize * NmConfig::default().eager_threshold,
            d.unex_bytes_cap
        );
    }
}
