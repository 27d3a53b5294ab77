//! Timer-driven stages of a progress pass: the retransmission sweep, the
//! rail-recovery prober and the membership silence prober — and
//! [`Engine::next_deadline`], the instant the earliest of them is due.

use simnet::SimTime;

use super::{mkey, pctx, Counter, Engine, Out, MEMBER_PROBE_BIT};
use crate::gate::{Gate, RetxTimer};
use crate::protocol::{self, Action, Verdict};
use crate::railhealth::{RailHealth, RailHealthTable};
use crate::sampling::LinkProfile;
use crate::stats::NmStats;
use crate::wire::WirePayload;

/// Healthiest local rail for control traffic: the lowest-latency `Up`
/// rail, else the lowest-latency still-usable (`Suspect`) one, else
/// rail 0 (with everything down, any choice is a guess — keep it
/// deterministic).
pub(super) fn preferred_rail(health: Option<&RailHealthTable>, profiles: &[LinkProfile]) -> usize {
    let Some(h) = health else { return 0 };
    let best = |want_up: bool| -> Option<usize> {
        (0..profiles.len())
            .filter(|&i| {
                let st = h.state(i);
                if want_up {
                    st == RailHealth::Up
                } else {
                    st.usable()
                }
            })
            .min_by_key(|&i| (profiles[i].latency, i))
    };
    best(true).or_else(|| best(false)).unwrap_or(0)
}

/// Payload bytes (not wire framing) carried by one retransmittable packet —
/// what `rerouted_bytes` counts when a replay moves rails.
fn payload_data_len(p: &WirePayload) -> usize {
    match p {
        WirePayload::Eager { data, .. } | WirePayload::Data { data, .. } => data.len(),
        WirePayload::Aggregate(frags) => frags.iter().map(|f| f.data.len()).sum(),
        _ => 0,
    }
}

/// A sender-side timeout fired on a record whose outstanding packets last
/// used the rails in `mask`. Every one of them shares the blame (a
/// multi-rail split can't name the guilty one — that's why demotion needs
/// `suspect_after` repeats), and the replay goes to the healthiest rail as
/// of then. Returns that rail and — when the replay abandons any rail of
/// the mask, so also for a split that covered {0,1} and replays on {0} —
/// the `(to_rail, bytes)` of the reroute, `moved` payload bytes of which
/// are added to `rerouted_bytes`.
fn indict(
    health: &mut Option<RailHealthTable>,
    profiles: &[LinkProfile],
    stats: &mut NmStats,
    now: SimTime,
    mask: u64,
    moved: u64,
) -> (usize, Option<(usize, u64)>) {
    if let Some(h) = health.as_mut() {
        for rail in (0..h.num_rails()).filter(|rail| mask & (1 << rail) != 0) {
            h.record_failure(rail, now);
        }
    }
    let rail = preferred_rail(health.as_ref(), profiles);
    let rerouted = mask != 0 && mask != 1 << rail;
    if rerouted {
        stats.rerouted_bytes += moved;
    }
    (rail, rerouted.then_some((rail, moved)))
}

impl Out {
    /// The spans of one replay: `Retry`, `Reroute` when it left the
    /// rail(s) the packet last used, then the wire event itself (replays
    /// bypass the commit stage, which records it for first transmissions).
    pub(super) fn replay(
        &mut self,
        now: SimTime,
        key: obs::MsgKey,
        kind: obs::RetryKind,
        reroute: Option<(usize, u64)>,
        tx: obs::Phase,
    ) {
        self.phase(now.0, key, obs::Phase::Retry { kind });
        if let Some((to_rail, bytes)) = reroute {
            let to_rail = to_rail as u8;
            self.phase(now.0, key, obs::Phase::Reroute { to_rail, bytes });
        }
        self.phase(now.0, key, tx);
    }
}

/// Does this rank expect inbound traffic from the gate's peer? Those are
/// the peers the membership silence prober watches.
fn awaited(gate: &Gate) -> bool {
    gate.posted() > 0 || !gate.rdv_in.is_empty()
}

impl Engine {
    /// The earliest instant at which a progress pass has timer work to do:
    /// the minimum over every armed retransmission timer of every gate,
    /// the rail-health table's next probe instant and the membership
    /// table's next silence deadline. `None` when retry is off or nothing
    /// is armed — then only an arrival or a new request can give this
    /// engine work, and whoever drives it may sleep until one comes.
    ///
    /// This is the timer third of the adapter contract: `schedule(now)`
    /// with `now` at or past the returned instant fires (and so re-arms or
    /// disarms) whatever was due, hence always moves the deadline. Computed
    /// on demand — call it when about to park, not per pass.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.cfg.retry?;
        if self.halted {
            return None;
        }
        let retx = self.peers.values().filter_map(|g| g.next_deadline()).min();
        // The prober only runs with somewhere to aim (`sweep_probes`).
        let health = self.probe_peer.and(self.health.as_ref());
        let probe = health.and_then(|h| h.next_deadline());
        let silence = self.membership.as_ref().and_then(|m| {
            let expected = self.peers.iter().filter(|(_, g)| awaited(g));
            m.next_deadline(expected.map(|(&src, _)| src))
        });
        retx.into_iter().chain(probe).chain(silence).min()
    }

    /// Walk every armed retransmission timer and replay what timed out:
    /// unacked eager envelopes, RTS without a CTS, CTS without DATA
    /// progress, and finished DATA transfers without a FIN. Timeouts back
    /// off exponentially up to `max_timeout`; `max_attempts` consecutive
    /// replays without progress declare the link dead. No-op unless
    /// `NmConfig.retry` is set.
    pub(super) fn sweep_retries(&mut self, now: SimTime) {
        let Some(rc) = self.cfg.retry else { return };
        // With membership armed, exhausting `max_attempts` is no
        // longer a panic: every timeout is attributed to its peer and
        // the supervisor decides between Suspect, Dead and patience.
        let supervised = self.membership.is_some();
        // `(peer, armed_at)` per fired timeout: the supervisor only
        // charges the peer if it stayed inbound-silent for the whole
        // armed window (see `MembershipTable::record_timeout`).
        let mut failed_peers: Vec<(usize, SimTime)> = Vec::new();
        let mut fire = |timer: &mut RetxTimer, peer: usize, what: &str| {
            let armed_at = timer.backoff(now, &rc, supervised, what);
            if supervised {
                failed_peers.push((peer, armed_at));
            }
        };
        // Eager replays go out in `(dst, tag, seq)` order — the order
        // the two nested BTreeMaps iterate in — and every replay below
        // keeps a fixed order too: it feeds the fault RNG stream.
        for (&dst, gate) in self.peers.iter_mut() {
            let due = gate.unacked.iter_mut().filter(|(_, rx)| rx.timer.due(now));
            for (&(tag, seq), rx) in due {
                fire(&mut rx.timer, dst, "eager envelope");
                self.stats.eager_retries += 1;
                // The timeout indicts the rail the envelope went out on;
                // the replay moves to the current healthiest rail.
                let moved = payload_data_len(&rx.payload) as u64;
                let (rail, reroute) = indict(
                    &mut self.health,
                    &self.profiles,
                    &mut self.stats,
                    now,
                    1 << rx.rail,
                    moved,
                );
                rx.rail = rail;
                let key = mkey(self.rank, dst, tag, seq);
                let tx = obs::Phase::EagerTx { rail: rail as u8 };
                self.out
                    .replay(now, key, obs::RetryKind::Eager, reroute, tx);
                // share(): the replayed envelope reuses the queued
                // payload storage — retransmission never copies bytes.
                self.out.ctrl(dst, rx.payload.share(), Some(rail));
            }
        }
        // Outbound rendezvous replay in ascending id *across* gates.
        let mut out_ids: Vec<(u64, usize)> = Vec::new();
        for (&dst, gate) in &self.peers {
            let fired = gate.rdv_out.iter().filter(|(_, r)| r.timer.due(now));
            out_ids.extend(fired.map(|(&id, _)| (id, dst)));
        }
        out_ids.sort_unstable();
        for (rdv_id, dst) in out_ids {
            let gate = self.peers.get_mut(&dst).expect("collected above");
            let rdv = gate.rdv_out.get_mut(&rdv_id).expect("collected above");
            // Table lookup: `timer/rts` (waiting for the CTS — replay
            // the RTS) or `timer/data` (waiting for the FIN — replay
            // the payload). The timer is only armed in those two
            // states, so anything else is a protocol error: disarm
            // and count rather than replaying garbage.
            let verdict = protocol::step(
                rdv.state,
                protocol::Event::SendTimeout,
                pctx(true, false, false, false),
            );
            let Verdict::Step { actions, .. } = verdict else {
                rdv.timer.disarm();
                self.protocol_error();
                continue;
            };
            debug_assert!(actions.contains(&Action::Backoff));
            fire(&mut rdv.timer, dst, "rendezvous (sender)");
            let key = mkey(self.rank, dst, rdv.tag, rdv.seq);
            let len = rdv.data.len();
            let replay_rts = actions.contains(&Action::ReplayRts);
            // A replayed RTS moves no payload; `timer/data` (FIN wait: the
            // receiver never confirmed) replays the whole payload — range
            // tracking dedups whatever did arrive, and a tombstoned
            // receiver replays the FIN.
            debug_assert!(replay_rts || actions.contains(&Action::ReplayData));
            let moved = if replay_rts { 0 } else { len as u64 };
            let (rail, reroute) = indict(
                &mut self.health,
                &self.profiles,
                &mut self.stats,
                now,
                rdv.last_rails,
                moved,
            );
            rdv.last_rails = 1 << rail;
            let (counter, kind, tx, payload): (Counter, _, _, _) = if replay_rts {
                let (tag, seq) = (rdv.tag, rdv.seq);
                (
                    |s| &mut s.rts_retries,
                    obs::RetryKind::Rts,
                    obs::Phase::RtsTx {
                        rail: rail as u8,
                        len: len as u64,
                    },
                    WirePayload::Rts {
                        tag,
                        seq,
                        rdv_id,
                        len,
                    },
                )
            } else {
                (
                    |s| &mut s.data_retries,
                    obs::RetryKind::Data,
                    obs::Phase::DataChunkTx {
                        rail: rail as u8,
                        offset: 0,
                        len: len as u64,
                    },
                    WirePayload::Data {
                        rdv_id,
                        offset: 0,
                        // Zero-copy replay of the held payload.
                        data: rdv.data.share(),
                    },
                )
            };
            *counter(&mut self.stats) += 1;
            self.out.replay(now, key, kind, reroute, tx);
            self.out.ctrl(dst, payload, Some(rail));
        }
        // Inbound rendezvous replay in `(src, id)` order. A live
        // inbound record is `RWaitData` by construction; `timer/cts`
        // backs off and replays the CTS.
        for (&src, gate) in self.peers.iter_mut() {
            // Receiver-side timeout: could be the lost CTS or the
            // sender going quiet — no rail to indict. Route the replay
            // along the sender's last inbound rail.
            let via = gate.last_in_rail;
            let due = gate.rdv_in.iter_mut().filter(|(_, r)| r.timer.due(now));
            for (&rdv_id, rdv) in due {
                let verdict = protocol::step(
                    protocol::State::RWaitData,
                    protocol::Event::RecvTimeout,
                    pctx(true, false, false, false),
                );
                let Verdict::Step { actions, .. } = verdict else {
                    unreachable!("timer/cts must be a table row");
                };
                debug_assert!(actions.contains(&Action::Backoff));
                debug_assert!(actions.contains(&Action::ReplayCts));
                fire(&mut rdv.timer, src, "rendezvous (receiver)");
                self.stats.cts_retries += 1;
                let key = mkey(src, self.rank, rdv.tag, rdv.seq);
                let tx = obs::Phase::CtsTx {
                    rail: via.unwrap_or(0) as u8,
                };
                self.out.replay(now, key, obs::RetryKind::Cts, None, tx);
                self.out.ctrl(src, WirePayload::Cts { rdv_id }, via);
            }
        }
        // Promote this sweep's timeouts into per-peer liveness
        // verdicts; a fresh `Dead` runs the drain at once, and replays
        // toward a drained peer are dead letters.
        if !failed_peers.is_empty() {
            let mut newly_dead: Vec<usize> = Vec::new();
            if let Some(m) = self.membership.as_mut() {
                for (peer, armed_at) in failed_peers {
                    if m.record_timeout(peer, armed_at, now) {
                        newly_dead.push(peer);
                    }
                }
            }
            self.emit_member_events(now);
            for peer in newly_dead {
                self.drain_peer(now, peer);
            }
            if let Some(m) = self.membership.as_ref() {
                self.out.staged.retain(|s| !m.is_dead(s.dst));
            }
        }
        self.end_stage();
    }

    /// Retry mode: let the health table emit due recovery probes (`Down →
    /// Probing` transitions and follow-ups), pinned to their rails and
    /// aimed at the closest off-node peer.
    pub(super) fn sweep_probes(&mut self, now: SimTime) {
        let (Some(peer), Some(h)) = (self.probe_peer, self.health.as_mut()) else {
            return;
        };
        for (rail, seq) in h.tick(now) {
            self.out
                .ctrl(peer, WirePayload::Probe { rail, seq }, Some(rail));
        }
        self.end_stage();
    }

    /// Membership silence prober. Peers this rank currently *expects
    /// inbound from* (posted receives, in-flight inbound rendezvous)
    /// generate no retransmission timeouts to attribute failures from, so
    /// the supervisor probes them while they are silent — each unanswered
    /// probe interval counts as one failure toward the `Dead` verdict,
    /// and any intact arrival (including the probe ack) resets the streak
    /// via `accept`.
    pub(super) fn sweep_membership(&mut self, now: SimTime) {
        let Some(m) = self.membership.as_mut() else {
            return;
        };
        let expected = self.peers.iter().filter(|(_, g)| awaited(g));
        let (probes, dead) = m.tick(now, expected.map(|(&src, _)| src));
        self.emit_member_events(now);
        let rail = preferred_rail(self.health.as_ref(), &self.profiles);
        for peer in probes {
            let seq = MEMBER_PROBE_BIT | self.member_probe_seq;
            self.member_probe_seq += 1;
            self.out
                .ctrl(peer, WirePayload::Probe { rail, seq }, Some(rail));
        }
        for peer in dead {
            self.drain_peer(now, peer);
        }
        // The hook goes ahead of this stage's probes.
        self.hook_if_completed();
        self.end_stage();
    }
}
