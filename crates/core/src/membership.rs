//! Per-peer liveness supervision — elastic membership.
//!
//! [`crate::railhealth`] answers "is this *rail* alive?"; this module
//! promotes those signals one level up to "is this *peer* alive?". The
//! distinction matters: a rail dying strands chunks that can reroute to
//! surviving rails, but a *node* dying strands every flow toward it on
//! every rail — the only correct response is to drain (abort the peer's
//! in-flight rendezvous through the protocol table, release its eager
//! credits, drop its gate record) and report clean failures upward.
//!
//! ```text
//!      per-peer timeouts ≥ suspect_after      ≥ dead_after AND
//!                                             silence ≥ min_silence
//!   Up ─────────────────────────────▶ Suspect ───────────────────▶ Dead
//!    ▲                                  │                        (sticky)
//!    └──────── intact inbound ──────────┘
//! ```
//!
//! * Liveness is credited **only by intact inbound arrivals** (the PR-3
//!   lesson: crediting our own send attempts resurrects dead peers).
//! * A `Dead` verdict needs both a failure streak *and* a minimum inbound
//!   silence, so a slow-but-alive node that still gets the occasional
//!   frame through is never declared dead.
//! * Peers we only *receive* from (posted recvs, in-flight inbound
//!   rendezvous) generate no retransmission timeouts to attribute, so the
//!   supervisor probes them during silence; each unanswered probe
//!   interval counts as one failure.
//! * `Dead` is sticky — a rank id never rejoins a running job. (A *late
//!   join* is a peer we have never talked to, which starts `Up`.)
//!
//! Pure bookkeeping: no RNG, no wall clock — membership verdicts replay
//! bit-for-bit with the simulation.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use simnet::SimTime;

use crate::config::MembershipConfig;

/// Liveness verdict for one peer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PeerLiveness {
    Up,
    Suspect,
    Dead,
}

/// One `Dead` verdict, as logged by the rank that reached it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Death {
    pub peer: usize,
    /// When the verdict fired.
    pub at: SimTime,
    /// How long the peer had been inbound-silent by then: the detection
    /// latency as seen from this rank.
    pub silence_ns: u64,
}

#[derive(Clone, Copy, Debug, Hash)]
struct Cell {
    state: PeerLiveness,
    /// Consecutive failures (retransmission timeouts or unanswered probe
    /// intervals) attributed to this peer.
    fail_streak: u32,
    /// Instant of the most recent intact inbound arrival (creation time
    /// until something arrives).
    last_inbound: SimTime,
    /// Earliest instant the silence prober may charge the next failure.
    next_probe_at: SimTime,
}

/// Mutable per-peer liveness table owned by the engine.
/// Lazily populated — idle peers cost nothing, matching the PR-7
/// O(active-flows) discipline.
#[derive(Clone, Debug)]
pub struct MembershipTable {
    cfg: MembershipConfig,
    cells: BTreeMap<usize, Cell>,
    transitions: u64,
    /// One entry per Dead verdict, in verdict order — the
    /// detection-latency histogram's raw data.
    deaths: Vec<Death>,
    /// Transition edges not yet drained by the owner: `(peer, new state)`
    /// in transition order — the core turns these into obs spans.
    pending_events: Vec<(usize, PeerLiveness)>,
}

impl MembershipTable {
    pub fn new(cfg: MembershipConfig) -> MembershipTable {
        MembershipTable {
            cfg,
            cells: BTreeMap::new(),
            transitions: 0,
            deaths: Vec::new(),
            pending_events: Vec::new(),
        }
    }

    fn cell(&mut self, peer: usize, now: SimTime) -> &mut Cell {
        self.cells.entry(peer).or_insert(Cell {
            state: PeerLiveness::Up,
            fail_streak: 0,
            last_inbound: now,
            next_probe_at: now + self.cfg.probe_interval,
        })
    }

    pub fn state(&self, peer: usize) -> PeerLiveness {
        self.cells
            .get(&peer)
            .map(|c| c.state)
            .unwrap_or(PeerLiveness::Up)
    }

    pub fn is_dead(&self, peer: usize) -> bool {
        self.state(peer) == PeerLiveness::Dead
    }

    /// Total state-machine transitions so far (any edge).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Dead verdicts in verdict order.
    pub fn deaths(&self) -> &[Death] {
        &self.deaths
    }

    fn set_state(&mut self, peer: usize, state: PeerLiveness, now: SimTime) {
        let cell = self.cells.get_mut(&peer).expect("cell exists");
        if cell.state != state {
            if state == PeerLiveness::Dead {
                let silence_ns = (now - cell.last_inbound).as_nanos();
                self.deaths.push(Death {
                    peer,
                    at: now,
                    silence_ns,
                });
            }
            let cell = self.cells.get_mut(&peer).expect("cell exists");
            cell.state = state;
            self.transitions += 1;
            self.pending_events.push((peer, state));
        }
    }

    /// Drain transition edges recorded since the last call (the owner
    /// turns each into an obs span).
    pub fn take_transition_events(&mut self) -> Vec<(usize, PeerLiveness)> {
        std::mem::take(&mut self.pending_events)
    }

    /// An intact frame arrived from `peer`. The only way to earn liveness.
    /// Dead is sticky: stray frames from a drained peer must be filtered
    /// *before* this call (counted, not credited).
    pub fn record_inbound(&mut self, peer: usize, now: SimTime) {
        let interval = self.cfg.probe_interval;
        let cell = self.cell(peer, now);
        if cell.state == PeerLiveness::Dead {
            return;
        }
        cell.fail_streak = 0;
        cell.last_inbound = now;
        cell.next_probe_at = now + interval;
        if cell.state == PeerLiveness::Suspect {
            self.set_state(peer, PeerLiveness::Up, now);
        }
    }

    /// A retransmission timeout that was *armed* at `armed_at` fired at
    /// `now`. The attribution contract: a timeout only indicts the peer
    /// if the peer stayed inbound-silent for the whole armed window. If
    /// an intact frame arrived at or after `armed_at`, the peer proved
    /// itself alive *during* the window — the lost frame indicts the
    /// link (rail health handles that), not the node, and charging the
    /// node would let one unlucky flow indict a demonstrably live peer.
    /// Returns `true` on a fresh `Dead` verdict, like [`record_failure`].
    ///
    /// [`record_failure`]: MembershipTable::record_failure
    pub fn record_timeout(&mut self, peer: usize, armed_at: SimTime, now: SimTime) -> bool {
        let cell = self.cell(peer, now);
        if cell.state != PeerLiveness::Dead && cell.last_inbound >= armed_at {
            return false;
        }
        self.record_failure(peer, now)
    }

    /// A retransmission timeout was attributed to `peer` (any rail).
    /// Returns `true` when this failure produced a fresh `Dead` verdict —
    /// the caller must then run the drain protocol exactly once.
    pub fn record_failure(&mut self, peer: usize, now: SimTime) -> bool {
        let cfg = self.cfg;
        let cell = self.cell(peer, now);
        if cell.state == PeerLiveness::Dead {
            return false;
        }
        cell.fail_streak = cell.fail_streak.saturating_add(1);
        let streak = cell.fail_streak;
        let silence = now - cell.last_inbound;
        match cell.state {
            PeerLiveness::Up if streak >= cfg.suspect_after => {
                self.set_state(peer, PeerLiveness::Suspect, now);
                false
            }
            PeerLiveness::Suspect if streak >= cfg.dead_after && silence >= cfg.min_silence => {
                self.set_state(peer, PeerLiveness::Dead, now);
                true
            }
            _ => false,
        }
    }

    /// Silence prober: for each peer in `expected` (peers we currently
    /// hold inbound expectations from — posted receives, inbound
    /// rendezvous), if its probe interval elapsed with no intact arrival,
    /// charge one failure and request a probe frame. Returns
    /// `(probes to send, fresh Dead verdicts)`.
    pub fn tick<I>(&mut self, now: SimTime, expected: I) -> (Vec<usize>, Vec<usize>)
    where
        I: IntoIterator<Item = usize>,
    {
        let interval = self.cfg.probe_interval;
        let mut probes = Vec::new();
        let mut dead = Vec::new();
        for peer in expected {
            let cell = self.cell(peer, now);
            if cell.state == PeerLiveness::Dead || now < cell.next_probe_at {
                continue;
            }
            cell.next_probe_at = now + interval;
            probes.push(peer);
            if self.record_failure(peer, now) {
                dead.push(peer);
            }
        }
        (probes, dead)
    }

    /// The earliest instant at which [`Self::tick`] over the same
    /// `expected` set would charge a silence failure. A peer the table has
    /// never seen has no deadline yet: its cell (and probe clock) starts
    /// at the first `tick` or arrival that names it.
    pub fn next_deadline<I>(&self, expected: I) -> Option<SimTime>
    where
        I: IntoIterator<Item = usize>,
    {
        let cells = expected.into_iter().filter_map(|p| self.cells.get(&p));
        let live = cells.filter(|c| c.state != PeerLiveness::Dead);
        live.map(|c| c.next_probe_at).min()
    }

    /// Feed `h` every per-peer streak and clock, and the transition edges
    /// not yet drained.
    pub(crate) fn hash_clock(&self, h: &mut impl Hasher) {
        (&self.cells, &self.pending_events).hash(h);
    }

    /// Force a `Dead` verdict (tests, upper-layer teardown). Returns
    /// `true` if the peer was not already dead.
    pub fn declare_dead(&mut self, peer: usize, now: SimTime) -> bool {
        self.cell(peer, now);
        if self.state(peer) == PeerLiveness::Dead {
            return false;
        }
        self.set_state(peer, PeerLiveness::Dead, now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn table() -> MembershipTable {
        MembershipTable::new(MembershipConfig::default())
    }

    #[test]
    fn failures_walk_up_suspect_dead_with_silence() {
        let cfg = MembershipConfig::default();
        let mut m = table();
        // Seed the cell with an inbound so last_inbound is known.
        m.record_inbound(7, t(0));
        for i in 0..cfg.suspect_after {
            assert!(!m.record_failure(7, t(10 + i as u64)));
        }
        assert_eq!(m.state(7), PeerLiveness::Suspect);
        // Plenty of failures but not enough silence: still only Suspect.
        for i in 0..20 {
            assert!(!m.record_failure(7, t(20 + i)));
        }
        assert_eq!(m.state(7), PeerLiveness::Suspect, "min_silence gates Dead");
        // Past the silence threshold the next failure kills it.
        let late = SimTime::ZERO + cfg.min_silence + SimDuration::micros(1);
        assert!(m.record_failure(7, late));
        assert_eq!(m.state(7), PeerLiveness::Dead);
        assert!(m.is_dead(7));
        assert_eq!(m.deaths().len(), 1);
        let death = m.deaths()[0];
        assert_eq!(death.peer, 7);
        assert!(death.silence_ns >= cfg.min_silence.as_nanos());
    }

    #[test]
    fn inbound_resets_streak_and_clears_suspect() {
        let mut m = table();
        m.record_inbound(3, t(0));
        for i in 0..6 {
            m.record_failure(3, t(10 + i));
        }
        assert_eq!(m.state(3), PeerLiveness::Suspect);
        m.record_inbound(3, t(100));
        assert_eq!(m.state(3), PeerLiveness::Up, "inbound is the only credit");
        // A slow node: failures interleaved with occasional arrivals never
        // reaches Dead.
        for i in 0..100u64 {
            m.record_failure(3, t(200 + 10 * i));
            if i % 8 == 7 {
                m.record_inbound(3, t(205 + 10 * i));
            }
        }
        assert_ne!(m.state(3), PeerLiveness::Dead);
    }

    #[test]
    fn dead_is_sticky() {
        let mut m = table();
        assert!(m.declare_dead(5, t(50)));
        assert!(!m.declare_dead(5, t(60)), "second verdict is a no-op");
        m.record_inbound(5, t(70));
        assert!(m.is_dead(5), "stray inbound must not resurrect a dead peer");
        assert!(!m.record_failure(5, t(80)));
        assert_eq!(m.transitions(), 1);
    }

    #[test]
    fn unknown_peer_is_up_and_costs_nothing() {
        let m = table();
        assert_eq!(m.state(99), PeerLiveness::Up);
        assert!(!m.is_dead(99));
    }

    #[test]
    fn silence_prober_kills_a_receive_only_peer() {
        let cfg = MembershipConfig::default();
        let mut m = table();
        m.record_inbound(2, t(0));
        let mut probes_sent = 0;
        let mut dead_at = None;
        let step = cfg.probe_interval + SimDuration::nanos(1);
        let mut now = t(0);
        for _ in 0..40 {
            now += step;
            let (probes, dead) = m.tick(now, [2usize]);
            probes_sent += probes.len();
            if !dead.is_empty() {
                dead_at = Some(now);
                break;
            }
        }
        let died = dead_at.expect("silent expected peer must be declared dead");
        assert!(probes_sent >= cfg.dead_after as usize);
        assert!(died - t(0) >= cfg.min_silence);
        // The verdict is reported exactly once.
        let (_, dead) = m.tick(died + step, [2usize]);
        assert!(dead.is_empty());
    }

    #[test]
    fn prober_spares_a_peer_that_keeps_sending() {
        let cfg = MembershipConfig::default();
        let mut m = table();
        m.record_inbound(4, t(0));
        let mut now = t(0);
        for i in 0..100 {
            now += SimDuration::nanos(cfg.probe_interval.as_nanos() / 2);
            if i % 3 == 0 {
                m.record_inbound(4, now);
            }
            let (_, dead) = m.tick(now, [4usize]);
            assert!(dead.is_empty());
        }
        assert_eq!(m.state(4), PeerLiveness::Up);
    }

    #[test]
    fn timeout_armed_before_inbound_is_not_charged() {
        let mut m = table();
        m.record_inbound(6, t(0));
        // Timer armed at t=10, peer delivered a frame at t=15, timer
        // fired at t=30: the window overlapped proven liveness — no
        // charge, no matter how many such timeouts fire.
        m.record_inbound(6, t(15));
        for _ in 0..50 {
            assert!(!m.record_timeout(6, t(10), t(30)));
        }
        assert_eq!(
            m.state(6),
            PeerLiveness::Up,
            "live peer must not be indicted"
        );
        // Windows armed *after* the last arrival charge normally.
        let cfg = MembershipConfig::default();
        for i in 0..cfg.suspect_after as u64 {
            assert!(!m.record_timeout(6, t(16 + 20 * i), t(36 + 20 * i)));
        }
        assert_eq!(m.state(6), PeerLiveness::Suspect);
    }

    #[test]
    fn timeout_attribution_matches_record_failure_when_silent() {
        let cfg = MembershipConfig::default();
        let mut m = table();
        m.record_inbound(8, t(0));
        let mut now = SimTime::ZERO + cfg.min_silence;
        let step = SimDuration::micros(5);
        let mut died = false;
        for _ in 0..(cfg.dead_after + 2) {
            let armed = now;
            now += step;
            if m.record_timeout(8, armed, now) {
                died = true;
            }
        }
        assert!(died, "a silent peer still walks to Dead via record_timeout");
        assert!(m.is_dead(8));
    }
}
