//! Per-rail liveness state machine — degraded-mode multirail.
//!
//! The sampling-driven multirail split (Fig. 5) trusts the boot-time
//! [`crate::sampling::LinkProfile`] forever; a rail that dies mid-job would
//! strand every chunk scheduled onto it until the retry layer retransmitted
//! them into the same dead port. This module gives the core a live opinion
//! per rail:
//!
//! ```text
//!        retry timeouts ≥ suspect_after        ≥ down_after
//!   Up ───────────────────────────────▶ Suspect ───────────▶ Down
//!    ▲                                    │                   │ probe_interval
//!    │ probe acks ≥ probe_successes       │ ack/success       ▼
//!    └──────────────────────────── Probing ◀─────────────────┘
//!                     ▲                 │ probe timeout
//!                     └─────────────────┘
//! ```
//!
//! * **Up** — full scheduling weight (ramped after a recovery, see
//!   `RAMP`, 1 ms).
//! * **Suspect** — still scheduled (the hysteresis absorbs misattributed
//!   timeouts: a multi-rail rendezvous cannot always name the guilty rail),
//!   one more failure streak away from demotion.
//! * **Down** — zero weight; queued and in-flight traffic is re-dispatched
//!   to survivors by the retry sweep.
//! * **Probing** — zero data weight, but low-rate [`crate::wire::WirePayload::Probe`]
//!   packets test the link; enough acks re-admit it.
//!
//! The thresholds a run may want to move live in [`RetryConfig`], the
//! rest are the constants below; the table is pure bookkeeping
//! (no RNG, no wall clock), so health decisions replay bit-for-bit with the
//! simulation.

use std::hash::{Hash, Hasher};

use simnet::{SimDuration, SimTime};

use crate::config::RetryConfig;

/// Consecutive timeouts before a `Suspect` rail is declared `Down` and its
/// traffic rerouted to survivors.
const DOWN_AFTER: u32 = 4;
/// Probe acknowledgements required to re-admit a rail (`Probing → Up`).
const PROBE_SUCCESSES: u32 = 2;
/// Re-admission ramp: a recovered rail's scheduling weight climbs from
/// 25 % back to 100 % linearly over this window, so a flapping link can't
/// immediately re-capture half of every split.
const RAMP: SimDuration = SimDuration::millis(1);

/// Liveness verdict for one rail.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RailHealth {
    Up,
    Suspect,
    Down,
    Probing,
}

impl RailHealth {
    /// May the strategies schedule payload onto this rail?
    pub fn usable(self) -> bool {
        matches!(self, RailHealth::Up | RailHealth::Suspect)
    }
}

#[derive(Clone, Copy, Debug, Hash)]
struct Cell {
    state: RailHealth,
    /// Consecutive retransmission timeouts attributed to this rail.
    fail_streak: u32,
    /// Consecutive probe acks while `Probing`.
    probe_ok: u32,
    /// Sequence number of the most recent probe (acks must echo it).
    probe_seq: u64,
    /// While `Probing`: give up and fall back to `Down` at this instant.
    probe_deadline: Option<SimTime>,
    /// While `Down`/`Probing`: earliest instant to emit the next probe.
    next_probe_at: Option<SimTime>,
    /// Instant of re-admission (`Probing → Up`), for the weight ramp.
    readmitted_at: Option<SimTime>,
    /// Degraded-time accounting watermark.
    accounted_to: SimTime,
}

/// Mutable per-rail health table owned by the engine.
#[derive(Clone, Debug)]
pub struct RailHealthTable {
    cfg: RetryConfig,
    cells: Vec<Cell>,
    transitions: u64,
    probes_sent: u64,
    probe_acks: u64,
    degraded_nanos: u64,
}

impl RailHealthTable {
    pub fn new(cfg: RetryConfig, rails: usize) -> RailHealthTable {
        RailHealthTable {
            cfg,
            cells: vec![
                Cell {
                    state: RailHealth::Up,
                    fail_streak: 0,
                    probe_ok: 0,
                    probe_seq: 0,
                    probe_deadline: None,
                    next_probe_at: None,
                    readmitted_at: None,
                    accounted_to: SimTime::ZERO,
                };
                rails
            ],
            transitions: 0,
            probes_sent: 0,
            probe_acks: 0,
            degraded_nanos: 0,
        }
    }

    pub fn num_rails(&self) -> usize {
        self.cells.len()
    }

    pub fn state(&self, rail: usize) -> RailHealth {
        self.cells
            .get(rail)
            .map(|c| c.state)
            .unwrap_or(RailHealth::Up)
    }

    /// Total state-machine transitions so far (any edge).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Probes emitted / probe acks accepted.
    pub fn probe_counts(&self) -> (u64, u64) {
        (self.probes_sent, self.probe_acks)
    }

    /// Cumulative rail-nanoseconds spent in a non-`Up` state, accounted up
    /// to each rail's last event (advance with [`RailHealthTable::tick`]).
    pub fn degraded_nanos(&self) -> u64 {
        self.degraded_nanos
    }

    /// Bring the degraded-time account for `rail` up to `now`.
    fn accrue(&mut self, rail: usize, now: SimTime) {
        let cell = &mut self.cells[rail];
        if now > cell.accounted_to {
            if cell.state != RailHealth::Up {
                self.degraded_nanos += (now - cell.accounted_to).as_nanos();
            }
            cell.accounted_to = now;
        }
    }

    fn set_state(&mut self, rail: usize, state: RailHealth, now: SimTime) {
        self.accrue(rail, now);
        let cell = &mut self.cells[rail];
        if cell.state != state {
            cell.state = state;
            self.transitions += 1;
        }
    }

    /// A retransmission timeout was attributed to `rail`.
    pub fn record_failure(&mut self, rail: usize, now: SimTime) {
        if rail >= self.cells.len() {
            return;
        }
        self.accrue(rail, now);
        let cfg = self.cfg;
        let cell = &mut self.cells[rail];
        cell.fail_streak = cell.fail_streak.saturating_add(1);
        let streak = cell.fail_streak;
        match cell.state {
            RailHealth::Up if streak >= cfg.suspect_after => {
                self.set_state(rail, RailHealth::Suspect, now);
            }
            RailHealth::Suspect if streak >= DOWN_AFTER => {
                self.set_state(rail, RailHealth::Down, now);
                let cell = &mut self.cells[rail];
                cell.next_probe_at = Some(now + cfg.probe_interval);
                cell.probe_ok = 0;
            }
            RailHealth::Probing => {
                // A data retransmission died on a rail we were probing (a
                // retry beat the reroute). Treat it as a failed probe round.
                self.set_state(rail, RailHealth::Down, now);
                let cell = &mut self.cells[rail];
                cell.next_probe_at = Some(now + cfg.probe_interval);
                cell.probe_deadline = None;
                cell.probe_ok = 0;
            }
            _ => {}
        }
    }

    /// An ack/CTS/FIN arrived crediting `rail` with a live round trip.
    pub fn record_success(&mut self, rail: usize, now: SimTime) {
        if rail >= self.cells.len() {
            return;
        }
        self.accrue(rail, now);
        let cell = &mut self.cells[rail];
        cell.fail_streak = 0;
        if cell.state == RailHealth::Suspect {
            self.set_state(rail, RailHealth::Up, now);
        }
    }

    /// A probe ack for `(rail, seq)` arrived. Stale sequence numbers (from
    /// a probe round that already timed out) are ignored.
    pub fn record_probe_ack(&mut self, rail: usize, seq: u64, now: SimTime) {
        if rail >= self.cells.len() {
            return;
        }
        self.accrue(rail, now);
        let cell = &mut self.cells[rail];
        if cell.state != RailHealth::Probing || cell.probe_seq != seq {
            return;
        }
        self.probe_acks += 1;
        let cell = &mut self.cells[rail];
        cell.probe_ok += 1;
        cell.probe_deadline = None;
        if cell.probe_ok >= PROBE_SUCCESSES {
            cell.fail_streak = 0;
            cell.next_probe_at = None;
            cell.readmitted_at = Some(now);
            self.set_state(rail, RailHealth::Up, now);
        } else {
            // Ask for the next probe immediately; pacing comes from the
            // probe round trip itself.
            cell.next_probe_at = Some(now);
        }
    }

    /// Drive the timers: start probe rounds on `Down` rails whose interval
    /// elapsed, expire unanswered probes, and advance degraded-time
    /// accounting. Returns the `(rail, seq)` probes to put on the wire.
    pub fn tick(&mut self, now: SimTime) -> Vec<(usize, u64)> {
        let cfg = self.cfg;
        let mut probes = Vec::new();
        for rail in 0..self.cells.len() {
            self.accrue(rail, now);
            let cell = &mut self.cells[rail];
            match cell.state {
                RailHealth::Down if cell.next_probe_at.is_some_and(|t| t <= now) => {
                    self.set_state(rail, RailHealth::Probing, now);
                    let cell = &mut self.cells[rail];
                    cell.probe_ok = 0;
                    cell.probe_seq += 1;
                    cell.probe_deadline = Some(now + cfg.probe_timeout());
                    cell.next_probe_at = None;
                    self.probes_sent += 1;
                    probes.push((rail, self.cells[rail].probe_seq));
                }
                RailHealth::Probing => {
                    if cell.probe_deadline.is_some_and(|t| t <= now) {
                        // Probe went unanswered: the rail is still dead.
                        self.set_state(rail, RailHealth::Down, now);
                        let cell = &mut self.cells[rail];
                        cell.probe_deadline = None;
                        cell.probe_ok = 0;
                        cell.next_probe_at = Some(now + cfg.probe_interval);
                    } else if cell.next_probe_at.is_some_and(|t| t <= now) {
                        // Mid-round follow-up probe (previous one acked).
                        cell.probe_seq += 1;
                        cell.probe_deadline = Some(now + cfg.probe_timeout());
                        cell.next_probe_at = None;
                        self.probes_sent += 1;
                        probes.push((rail, cell.probe_seq));
                    }
                }
                _ => {}
            }
        }
        probes
    }

    /// The earliest instant at which [`Self::tick`] has something to do:
    /// a `Down` rail's next probe round, a `Probing` rail's follow-up
    /// probe or its probe timeout. `None` while every rail is usable. (A
    /// re-admission ramp is no deadline: [`Self::weight`] is a function of
    /// `now`, read whenever the strategy runs, and nothing fires when the
    /// ramp ends.)
    pub fn next_deadline(&self) -> Option<SimTime> {
        let per_rail = self.cells.iter().map(|c| match c.state {
            RailHealth::Down => c.next_probe_at,
            RailHealth::Probing => c.probe_deadline.into_iter().chain(c.next_probe_at).min(),
            RailHealth::Up | RailHealth::Suspect => None,
        });
        per_rail.flatten().min()
    }

    /// Feed `h` every per-rail streak, probe sequence and timer (the
    /// counters are in `NmStats`).
    pub(crate) fn hash_clock(&self, h: &mut impl Hasher) {
        self.cells.hash(h);
    }

    /// Scheduling weight of `rail` at `now`: 0 for `Down`/`Probing`, full
    /// for `Suspect` and established `Up`, ramping 0.25 → 1.0 over
    /// `RAMP` (1 ms) after a re-admission.
    pub fn weight(&self, rail: usize, now: SimTime) -> f64 {
        let Some(cell) = self.cells.get(rail) else {
            return 1.0;
        };
        match cell.state {
            RailHealth::Down | RailHealth::Probing => 0.0,
            RailHealth::Suspect => 1.0,
            RailHealth::Up => match cell.readmitted_at {
                Some(at) if now < at + RAMP => {
                    let frac = (now - at).as_nanos() as f64 / RAMP.as_nanos() as f64;
                    0.25 + 0.75 * frac
                }
                _ => 1.0,
            },
        }
    }
}

impl RetryConfig {
    /// How long a probe may go unanswered before its round fails. Derived
    /// rather than configured: a probe round trip is bounded by the same
    /// worst-case backoff the data path tolerates.
    fn probe_timeout(&self) -> SimDuration {
        self.max_timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rails: usize) -> RailHealthTable {
        RailHealthTable::new(RetryConfig::default(), rails)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn failures_walk_up_suspect_down() {
        let mut h = table(2);
        assert_eq!(h.state(1), RailHealth::Up);
        h.record_failure(1, t(10));
        assert_eq!(h.state(1), RailHealth::Up, "one timeout is hysteresis");
        h.record_failure(1, t(20));
        assert_eq!(h.state(1), RailHealth::Suspect);
        h.record_failure(1, t(30));
        assert_eq!(h.state(1), RailHealth::Suspect);
        h.record_failure(1, t(40));
        assert_eq!(h.state(1), RailHealth::Down);
        assert_eq!(h.state(0), RailHealth::Up, "rail 0 untouched");
        assert_eq!(h.transitions(), 2);
        assert_eq!(h.weight(1, t(41)), 0.0);
        assert_eq!(h.weight(0, t(41)), 1.0);
    }

    #[test]
    fn success_resets_streak_and_clears_suspect() {
        let mut h = table(1);
        h.record_failure(0, t(10));
        h.record_failure(0, t(20));
        assert_eq!(h.state(0), RailHealth::Suspect);
        h.record_success(0, t(25));
        assert_eq!(h.state(0), RailHealth::Up);
        // Streak restarted: two more failures only reach Suspect again.
        h.record_failure(0, t(30));
        h.record_failure(0, t(40));
        assert_eq!(h.state(0), RailHealth::Suspect);
    }

    #[test]
    fn misattributed_timeouts_never_demote_with_interleaved_successes() {
        let mut h = table(2);
        for i in 0..50 {
            h.record_failure(0, t(10 * i));
            h.record_success(0, t(10 * i + 5));
        }
        assert_eq!(h.state(0), RailHealth::Up);
        assert_eq!(h.transitions(), 0);
    }

    fn drive_down(h: &mut RailHealthTable, rail: usize, at: SimTime) {
        for _ in 0..4 {
            h.record_failure(rail, at);
        }
        assert_eq!(h.state(rail), RailHealth::Down);
    }

    #[test]
    fn down_rail_probes_and_recovers() {
        let cfg = RetryConfig::default();
        let mut h = table(2);
        drive_down(&mut h, 1, t(100));
        // Before the probe interval: nothing to send.
        assert!(h.tick(t(100) + SimDuration::micros(1)).is_empty());
        // After it: one probe round starts.
        let when = t(100) + cfg.probe_interval + SimDuration::nanos(10);
        let probes = h.tick(when);
        assert_eq!(probes.len(), 1);
        let (rail, seq) = probes[0];
        assert_eq!(rail, 1);
        assert_eq!(h.state(1), RailHealth::Probing);
        assert_eq!(h.weight(1, when), 0.0, "probing carries no payload");
        // First ack: not yet re-admitted (PROBE_SUCCESSES = 2)…
        h.record_probe_ack(1, seq, when + SimDuration::micros(3));
        assert_eq!(h.state(1), RailHealth::Probing);
        // …the follow-up probe goes out and its ack completes recovery.
        let probes = h.tick(when + SimDuration::micros(4));
        assert_eq!(probes.len(), 1);
        let back_at = when + SimDuration::micros(7);
        h.record_probe_ack(1, probes[0].1, back_at);
        assert_eq!(h.state(1), RailHealth::Up);
        assert_eq!(h.probe_counts(), (2, 2));
        // Ramp: reduced weight right after recovery, full after `RAMP`.
        let w0 = h.weight(1, back_at);
        assert!((0.2..0.5).contains(&w0), "fresh weight {w0}");
        let w1 = h.weight(1, back_at + RAMP);
        assert_eq!(w1, 1.0);
    }

    #[test]
    fn unanswered_probe_falls_back_to_down() {
        let cfg = RetryConfig::default();
        let mut h = table(1);
        drive_down(&mut h, 0, t(0));
        let start = SimTime::ZERO + cfg.probe_interval + SimDuration::nanos(1);
        let probes = h.tick(start);
        assert_eq!(probes.len(), 1);
        let seq = probes[0].1;
        // No ack; past the probe timeout the rail is Down again.
        let expired = start + cfg.max_timeout + SimDuration::nanos(1);
        assert!(h.tick(expired).is_empty());
        assert_eq!(h.state(0), RailHealth::Down);
        // A stale ack from the dead round is ignored.
        h.record_probe_ack(0, seq, expired + SimDuration::nanos(5));
        assert_eq!(h.state(0), RailHealth::Down);
        // The next interval starts a fresh round with a new seq.
        let probes = h.tick(expired + cfg.probe_interval);
        assert_eq!(probes.len(), 1);
        assert_ne!(probes[0].1, seq);
    }

    #[test]
    fn degraded_time_accumulates_only_while_not_up() {
        let mut h = table(2);
        h.tick(t(50));
        assert_eq!(h.degraded_nanos(), 0);
        drive_down(&mut h, 1, t(50));
        h.tick(t(150));
        let d = h.degraded_nanos();
        assert_eq!(d, 100_000, "100µs of one down rail");
        h.tick(t(150));
        assert_eq!(h.degraded_nanos(), d, "no double counting");
    }

    #[test]
    fn out_of_range_rail_is_ignored() {
        let mut h = table(1);
        h.record_failure(7, t(1));
        h.record_success(7, t(2));
        h.record_probe_ack(7, 0, t(3));
        assert_eq!(h.state(7), RailHealth::Up);
        assert_eq!(h.weight(7, t(4)), 1.0);
        assert_eq!(h.transitions(), 0);
    }
}
