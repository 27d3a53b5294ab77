//! The sans-IO protocol engine behind [`crate::core::NmCore`].
//!
//! [`Engine`] is every piece of NewMadeleine protocol state of one
//! process as one owned value: gates and their submission windows,
//! matching, the request tables, rail health, membership, epochs, credits.
//! Its methods take `&mut self` and the current time and touch nothing
//! else — no lock, no network handle, no event queue. Whatever the engine
//! wants done to the world outside it is pushed, in order, onto one list
//! of [`Effect`]s, which the caller takes when the call returns and
//! executes. The shell in `core.rs` does that against the simulated
//! fabric; the `loopback` module does it in a page with no simulator at
//! all.
//!
//! Time is engine state too. Every timer the protocol runs — retransmission
//! deadlines on the gates, rail-recovery probes, membership silence checks
//! — is a field in here, so [`Engine::next_deadline`] can say exactly when
//! a progress pass next has timer work. Whoever drives the engine sleeps
//! until an arrival, a new request or that instant, whichever is first;
//! no adapter needs a polling cadence of its own.
//!
//! ## Effect order
//!
//! Effects are executed strictly first-in first-out, because everything
//! downstream is order-sensitive: packet submission order feeds the fault
//! and jitter RNG streams and the event queue's same-instant tie-break,
//! and the recorder keeps spans in append order. A progress pass is a
//! sequence of *stages* — inbound, retransmission sweep, rail probes,
//! membership sweep, commit — and each stage lays its effects down as
//!
//! ```text
//!   spans of the stage · packets of the stage · hook
//! ```
//!
//! (the membership stage fires its hook before its probes). A stage's
//! packets wait in a staging buffer until the stage closes
//! (`Engine::end_stage`): that puts them behind the stage's own spans
//! — the NIC records its transmit span the moment a packet is submitted —
//! and it is the moment a control packet without a pinned rail gets one,
//! from the health table as the stage left it.
//!
//! Control and replay packets travel the fabric's express lane, which
//! never occupies a port, so holding them back until the whole pass has
//! run changes nothing the commit stage can see: the caller's rail-idle
//! view reads the same ports either way.
//!
//! Files, one per seam: `inbound` (acceptance, reordering, matching, the
//! receiver and sender halves of the rendezvous table), `retry`
//! (retransmission, rail-probe and membership sweeps, the next deadline),
//! `outbound` (`isend`, the commit stage, NIC completions), `drain` (peer
//! death and epoch quiesce), `flow` (eager credits), `snapshot` (the read
//! side: [`EngineSnapshot`] and [`Engine::fingerprint`]); `loopback` is
//! the reference adapter.
//!
//! ## What a driver may read
//!
//! [`Engine::snapshot`], [`Engine::fingerprint`],
//! [`Engine::next_deadline`] and [`Engine::has_work`] — `&self`, pure —
//! and the completions,
//! through [`Engine::take_completions`]. The fields are not part of
//! the contract. Counters are the engine's own plain integers: whoever
//! shares an engine's numbers across threads publishes a snapshot.

mod drain;
mod flow;
mod inbound;
pub mod loopback;
mod outbound;
mod retry;
mod snapshot;

pub use snapshot::{EngineSnapshot, PeerSnapshot};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use simnet::{CopyMeter, NmBuf, SimTime};

use crate::config::NmConfig;
use crate::gate::Gate;
use crate::keys;
use crate::matching::GateId;
use crate::membership::MembershipTable;
use crate::protocol;
use crate::railhealth::RailHealthTable;
use crate::sampling::LinkProfile;
use crate::sr::{CompletionKind, NmCompletion, RecvReqId, SendReqId};
use crate::stats::NmStats;
use crate::strategy::RailState;
use crate::wire::{NmWire, WirePayload};

/// One thing the engine wants done outside itself.
#[derive(Clone)]
pub enum Effect {
    /// Append a lifecycle span to the job's recorder.
    Span(obs::Event),
    /// Put `wire` on local rail `rail`. Without a completion tag it is a
    /// control or replay packet and rides the express lane; with one it
    /// is a packet the strategy committed, and [`Engine::sent`] wants the
    /// tag back once the NIC has read the buffer.
    Packet {
        wire: NmWire,
        rail: usize,
        sent: Option<SentTag>,
    },
    /// Something happened that a background progress engine would want
    /// to react to: fire the event hook.
    Hook,
}

/// What the NIC's send-completion of one committed packet finishes.
#[derive(Clone)]
pub struct SentTag {
    /// Eager sends the packet carried.
    pub eager_reqs: Vec<SendReqId>,
    /// `(dst, rdv_id)` when the packet is a rendezvous DATA chunk (the
    /// only packets that pay a registration delay).
    pub data_chunk_rdv: Option<(usize, u64)>,
}

/// A packet of the stage in progress (see the module docs).
#[derive(Clone)]
struct Staged {
    dst: usize,
    payload: WirePayload,
    /// `None`: the healthiest rail as of the end of the stage.
    rail: Option<usize>,
    sent: Option<SentTag>,
}

/// The engine's way out: spans and hooks go straight onto the effect
/// list, packets wait in `staged` for their stage to close. A field of
/// its own so the protocol code can record while it holds a gate.
#[derive(Clone)]
struct Out {
    rec: obs::RankRec,
    staged: Vec<Staged>,
    effects: Vec<Effect>,
}

impl Out {
    fn span(&mut self, t_ns: u64, scope: obs::Scope) {
        if self.rec.on() {
            let rank = self.rec.rank();
            self.effects
                .push(Effect::Span(obs::Event { t_ns, rank, scope }));
        }
    }

    /// Record a phase transition of message `key`.
    fn phase(&mut self, t_ns: u64, key: obs::MsgKey, phase: obs::Phase) {
        self.span(t_ns, obs::Scope::Msg { key, phase });
    }

    /// Record a machinery event.
    fn engine(&mut self, t_ns: u64, ev: obs::EngineEvent) {
        self.span(t_ns, obs::Scope::Engine { ev });
    }

    /// Stage one control or replay packet (control traffic bypasses the
    /// gates — it must not be rescheduled or aggregated by the machinery
    /// it repairs).
    fn ctrl(&mut self, dst: usize, payload: WirePayload, rail: Option<usize>) {
        self.staged.push(Staged {
            dst,
            payload,
            rail,
            sent: None,
        });
    }

    fn hook(&mut self) {
        self.effects.push(Effect::Hook);
    }
}

#[derive(Clone)]
struct SendReq {
    cookie: u64,
    done: bool,
    /// Message identity for lifecycle spans (dst, tag, per-(dst,tag) seq).
    dst: usize,
    tag: u64,
    seq: u64,
}

#[derive(Clone)]
struct RecvReq {
    cookie: u64,
    done: bool,
    /// Message identity for lifecycle spans. `seq` starts as the posted
    /// counter value and is pinned to the matched envelope's sequence at
    /// match time (the two agree under in-order matching).
    src: usize,
    tag: u64,
    seq: u64,
}

/// Which counter an outcome bumps, where the choice is made in a `match`.
type Counter = fn(&mut NmStats) -> &mut u64;

/// How a request ends: with its result (`()` for a send, the payload for
/// a receive), or with an error because its peer was declared dead or
/// its communicator epoch was revoked (the peer may be perfectly alive).
enum Outcome<T> {
    Done(T),
    PeerDead,
    Revoked,
}

/// Membership silence probes share [`WirePayload::Probe`] with the
/// rail-health prober; this bit keeps their sequence spaces disjoint so a
/// membership probe's ack can never be mistaken for a rail-recovery ack.
const MEMBER_PROBE_BIT: u64 = 1 << 63;

/// Span-key sequence space for fail-fast requests toward a dead peer:
/// they never claim a wire sequence number (nothing will carry them) and
/// must not open a gate or flow record, so their lifecycle spans draw a
/// unique key from the request id in this disjoint high-bit space.
const DEAD_LETTER_SEQ: u64 = 1 << 62;

/// Span key for a message `src → dst` under `tag` with envelope `seq`.
fn mkey(src: usize, dst: usize, tag: u64, seq: u64) -> obs::MsgKey {
    obs::MsgKey {
        src: src as u32,
        dst: dst as u32,
        tag,
        seq,
    }
}

/// Guard context for a [`protocol::step`] lookup in this adapter. The
/// core always speaks the pipelined dialect (CH3's buffered/ack modes
/// answer those guards in `mpi-ch3`).
fn pctx(retry: bool, in_range: bool, last: bool, credit_fallback: bool) -> protocol::Ctx {
    protocol::Ctx {
        retry,
        ack_mode: false,
        buffered: false,
        in_range,
        last,
        credit_fallback,
    }
}

/// All NewMadeleine protocol state of one process (see the module docs).
/// A plain value: `Clone` gives an independent engine that, stepped the
/// same way, does the same thing. Two handles are shared rather than
/// copied, because they belong to the job and not to the engine: the copy
/// meter and the span recorder.
#[derive(Clone)]
pub struct Engine {
    rank: usize,
    /// Size of the job: frames naming a rank outside it are rejected.
    nranks: usize,
    pub(crate) cfg: NmConfig,
    /// Sampled profile of each local rail (§2.2, the adaptive split input).
    profiles: Vec<LinkProfile>,
    /// Lowest rank on a different node — the peer health probes are
    /// aimed at (`None` in single-peer-less topologies).
    probe_peer: Option<usize>,
    /// Everything held about each peer — submission window, sequencing,
    /// match queues, rendezvous, retransmit queue, credits both ways — one
    /// record per rank this core has exchanged traffic with
    /// ([`crate::gate`]). BTreeMap for deterministic iteration; boxed so a
    /// tree node holds eleven pointers, not eleven 200-byte records.
    pub(crate) peers: BTreeMap<usize, Box<Gate>>,
    /// Arrival clock: each message stored unexpected takes the next
    /// ticket, and the ANY_SOURCE probe picks the lowest across gates.
    next_ticket: u64,
    send_reqs: Vec<SendReq>,
    recv_reqs: Vec<RecvReq>,
    /// Packets accepted from the fabric, pending processing.
    inbound: VecDeque<NmWire>,
    completions: VecDeque<NmCompletion>,
    /// Retry mode: per-rail health state machine (`None` without retry —
    /// the happy path has no failure signals to drive it).
    pub(crate) health: Option<RailHealthTable>,
    /// Bytes of unexpected eager payload currently buffered (receiver
    /// side; always tracked — it feeds `fc_peak_unex_bytes`).
    pub(crate) unex_eager_bytes: usize,
    /// Hysteresis latch: set when `unex_eager_bytes` climbs past
    /// `high_water`, cleared when it falls back to `low_water`.
    fc_throttled: bool,
    next_pw: u64,
    next_rdv: u64,
    /// The counters; `peer_entries`, the health and membership mirrors and
    /// `copy` are filled in on read.
    stats: NmStats,
    /// The stack-wide copy meter; attached to every payload entering this
    /// core so downstream shares/copies keep charging the same counters.
    pub(crate) meter: Arc<CopyMeter>,
    /// Per-peer liveness supervisor (`None` without
    /// [`crate::config::MembershipConfig`] — node death then keeps the
    /// PR-3 link-presumed-dead panic).
    pub(crate) membership: Option<MembershipTable>,
    /// Fresh `Dead` verdicts not yet consumed by the upper layer (the MPI
    /// progress engine retargets ANY_SOURCE and retires the VC on these).
    pub(crate) dead_events: VecDeque<usize>,
    /// Monotonic sequence for membership silence probes (kept disjoint
    /// from rail-health probe sequences via [`MEMBER_PROBE_BIT`]).
    member_probe_seq: u64,
    /// This rank crashed (or finalized under churn): drop all traffic,
    /// report quiescent, never panic on behalf of a dead process.
    halted: bool,
    /// Highest committed communicator epoch. Collective frames whose
    /// epoch field is below this (agreement/join excepted) are stale.
    pub(crate) committed_epoch: u8,
    /// Sticky set of revoked epochs: a replayed poison frame is a counted
    /// no-op, exactly like a replayed death verdict.
    revoked_epochs: BTreeSet<u32>,
    /// Fresh revoke verdicts not yet consumed by the upper layer (the MPI
    /// progress engine re-broadcasts the poison peer-to-peer and fails
    /// its collective state on these).
    pub(crate) revoked_events: VecDeque<u32>,
    /// Retired agreement instances (collective keys with the round bits
    /// masked): frames for these are counted stale and dropped. Never
    /// GC'd — agreement keys are epoch-exempt so the epoch filter can't
    /// cover them, and the set grows by one tiny entry per agreement.
    retired: BTreeSet<u64>,
    /// The commit stage's rail snapshot, rebuilt in place on every commit
    /// so the stage allocates nothing once it has run. Working space only:
    /// no state survives a commit.
    rails: Vec<RailState>,
    out: Out,
}

impl Engine {
    /// `profiles` holds one sampled profile per local rail, `probe_peer`
    /// the rank rail-health probes are aimed at; lifecycle spans are
    /// emitted as [`Effect::Span`] when `rec` records them.
    pub fn new(
        cfg: NmConfig,
        rank: usize,
        nranks: usize,
        profiles: Vec<LinkProfile>,
        probe_peer: Option<usize>,
        meter: Arc<CopyMeter>,
        rec: obs::RankRec,
    ) -> Engine {
        assert!(!profiles.is_empty(), "a core needs at least one rail");
        assert!(
            cfg.membership.is_none() || cfg.retry.is_some(),
            "membership verdicts are fed by retransmission timeouts; arm `retry` first"
        );
        Engine {
            rank,
            nranks,
            probe_peer,
            peers: BTreeMap::new(),
            next_ticket: 0,
            send_reqs: Vec::new(),
            recv_reqs: Vec::new(),
            inbound: VecDeque::new(),
            completions: VecDeque::new(),
            health: cfg.retry.map(|rc| RailHealthTable::new(rc, profiles.len())),
            unex_eager_bytes: 0,
            fc_throttled: false,
            next_pw: 0,
            next_rdv: 0,
            stats: NmStats::default(),
            meter,
            membership: cfg.membership.map(MembershipTable::new),
            dead_events: VecDeque::new(),
            member_probe_seq: 0,
            halted: false,
            committed_epoch: 0,
            revoked_epochs: BTreeSet::new(),
            revoked_events: VecDeque::new(),
            retired: BTreeSet::new(),
            rails: Vec::with_capacity(profiles.len()),
            out: Out {
                rec,
                staged: Vec::new(),
                effects: Vec::new(),
            },
            profiles,
            cfg,
        }
    }

    /// Swap the filled effect list for `spare` (empty; its capacity is
    /// what the next call fills). Call once per entry point, after it.
    pub fn swap_effects(&mut self, spare: &mut Vec<Effect>) {
        debug_assert!(spare.is_empty() && self.out.staged.is_empty());
        std::mem::swap(&mut self.out.effects, spare);
    }

    /// Close a stage: its packets join the effect list, and those without
    /// a usable pinned rail go to the healthiest one as of now.
    fn end_stage(&mut self) {
        if self.out.staged.is_empty() {
            return;
        }
        let fallback = retry::preferred_rail(self.health.as_ref(), &self.profiles);
        for s in self.out.staged.drain(..) {
            let rail = s.rail.filter(|&r| r < self.profiles.len());
            self.out.effects.push(Effect::Packet {
                wire: NmWire::new(self.rank, s.dst, s.payload),
                rail: rail.unwrap_or(fallback),
                sent: s.sent,
            });
        }
    }

    fn hook_if_completed(&mut self) {
        if !self.completions.is_empty() {
            self.out.hook();
        }
    }

    /// `nm_schedule`: process inbound packets, sweep retransmission timers
    /// (retry mode), then commit the submission windows. `rail_idle(i)`
    /// tells whether local rail `i` could start a transfer right now.
    pub fn schedule(&mut self, now: SimTime, rail_idle: &dyn Fn(usize) -> bool) {
        if self.halted {
            return;
        }
        self.process_inbound(now);
        self.sweep_retries(now);
        self.sweep_probes(now);
        self.sweep_membership(now);
        self.commit(now, rail_idle);
    }

    /// Crash/teardown: empty every queue and go permanently quiescent.
    pub fn halt(&mut self) {
        self.halted = true;
        self.peers.clear();
        self.inbound.clear();
        self.completions.clear();
    }

    /// The completions surfaced since the last call, in order.
    pub fn take_completions(&mut self) -> Vec<NmCompletion> {
        self.completions.drain(..).collect()
    }

    /// Would a progress pass ([`Engine::schedule`] and the drains of what
    /// it surfaces) do anything at this instant? A pure read for a driver
    /// that polls far more often than work arrives: `false` promises that
    /// such a pass would emit no effect and leave [`Engine::fingerprint`]
    /// as it is, so the driver may skip it. `true` may be a false alarm,
    /// which costs one ordinary pass.
    ///
    /// The queues a driver drains count even on a halted engine. Past
    /// them, a live engine has work with anything in a submission window
    /// (the commit stage reads rail idleness, which nothing here knows),
    /// with credits due back, and always with retry armed: the timer
    /// sweeps move the rail-health clock and open membership cells even
    /// when nothing fires.
    pub fn has_work(&self) -> bool {
        let surfaced = !(self.inbound.is_empty()
            && self.completions.is_empty()
            && self.dead_events.is_empty()
            && self.revoked_events.is_empty());
        surfaced
            || !self.halted
                && (self.cfg.retry.is_some() || self.window_queued() || self.credits_due())
    }

    /// Nothing in flight, nothing pending?
    pub fn quiescent(&self) -> bool {
        self.inbound.is_empty()
            && self.peers.values().all(|g| g.quiescent())
            && self.completions.is_empty()
    }

    /// Counter snapshot (includes the live copy-meter tally and the
    /// rail-health table's failover counters).
    pub fn stats(&self) -> NmStats {
        let mut s = self.counters();
        s.copy = self.meter.snapshot();
        s
    }

    /// Everything of [`Self::stats`] that is this engine's own: the
    /// counters, `peer_entries`, the health and membership mirrors.
    fn counters(&self) -> NmStats {
        let mut s = self.stats;
        s.peer_entries = self.peers.values().map(|g| g.records() as u64).sum();
        if let Some(h) = self.health.as_ref() {
            s.rail_transitions = h.transitions();
            s.degraded_nanos = h.degraded_nanos();
            (s.probes_sent, s.probe_acks) = h.probe_counts();
        }
        if let Some(m) = self.membership.as_ref() {
            s.membership_transitions = m.transitions();
        }
        s
    }

    /// The protocol table classified a frame as malformed or stale
    /// ([`protocol::Verdict::Error`]): count it and drop it. The one thing
    /// this must never do is panic.
    fn protocol_error(&mut self) {
        self.stats.protocol_errors += 1;
    }

    /// Fail-fast verdict for a new request toward `peer` under `tag`.
    /// A known-dead peer: the request still completes (no-cancel rule) —
    /// with an error, immediately, instead of burning a full
    /// retransmission ladder against a corpse. A revoked/superseded
    /// epoch: every frame of the key is acked-and-dropped at delivery,
    /// so a send would retransmit its RTS forever (and eventually indict
    /// a perfectly live peer) and a receive could never match.
    fn refusal<T>(&self, peer: usize, tag: u64) -> Option<Outcome<T>> {
        if self.membership.as_ref().is_some_and(|m| m.is_dead(peer)) {
            Some(Outcome::PeerDead)
        } else if self.tag_is_stale(tag) {
            Some(Outcome::Revoked)
        } else {
            None
        }
    }

    /// Complete a send that [`Self::refusal`] turns away, on the spot. It
    /// claims no wire sequence number and opens no gate or flow record (a
    /// drained peer keeps exactly zero).
    fn refuse_send(
        &mut self,
        now: SimTime,
        dst: usize,
        tag: u64,
        len: usize,
        cookie: u64,
    ) -> Option<SendReqId> {
        let outcome = self.refusal(dst, tag)?;
        let req = SendReqId(self.send_reqs.len() as u32);
        let seq = DEAD_LETTER_SEQ | req.0 as u64;
        self.send_reqs.push(SendReq {
            cookie,
            done: false,
            dst,
            tag,
            seq,
        });
        let key = mkey(self.rank, dst, tag, seq);
        self.out
            .phase(now.0, key, obs::Phase::SendPosted { len: len as u64 });
        self.finish_send(now.0, req, outcome);
        self.out.hook();
        Some(req)
    }

    /// Receive-side twin of [`Self::refuse_send`]: a receive against a
    /// drained peer (its unexpected queue was purged, its frames are
    /// strays) or a dead epoch can never match.
    fn refuse_recv(
        &mut self,
        now: SimTime,
        src: usize,
        tag: u64,
        cookie: u64,
    ) -> Option<RecvReqId> {
        let outcome = self.refusal(src, tag)?;
        let req = RecvReqId(self.recv_reqs.len() as u32);
        let seq = DEAD_LETTER_SEQ | req.0 as u64;
        self.recv_reqs.push(RecvReq {
            cookie,
            done: false,
            src,
            tag,
            seq,
        });
        let key = mkey(src, self.rank, tag, seq);
        self.out.phase(now.0, key, obs::Phase::RecvPosted);
        self.finish_recv(now.0, req, outcome);
        self.out.hook();
        Some(req)
    }

    /// Surface the completion of a send request. The no-cancel rule
    /// (§2.2.1) is honoured on every path: a request whose peer died or
    /// whose epoch was revoked does complete — the error is the result.
    fn finish_send(&mut self, t_ns: u64, req: SendReqId, outcome: Outcome<()>) {
        let r = &mut self.send_reqs[req.0 as usize];
        debug_assert!(!r.done, "double completion of send request");
        r.done = true;
        let (peer, side) = (r.dst, obs::Side::Send);
        let (counter, phase, kind): (Counter, _, _) = match outcome {
            Outcome::Done(()) => (
                |s| &mut s.send_completions,
                obs::Phase::Completed { side },
                CompletionKind::Send,
            ),
            Outcome::PeerDead => (
                |s| &mut s.membership_aborted_sends,
                obs::Phase::Aborted { side },
                CompletionKind::SendFailed { peer },
            ),
            Outcome::Revoked => (
                |s| &mut s.revoked_ops,
                obs::Phase::Revoked { side },
                CompletionKind::SendRevoked {
                    peer,
                    epoch: keys::epoch_of(r.tag),
                },
            ),
        };
        *counter(&mut self.stats) += 1;
        let key = mkey(self.rank, r.dst, r.tag, r.seq);
        self.out.phase(t_ns, key, phase);
        self.completions.push_back(NmCompletion {
            cookie: r.cookie,
            kind,
        });
    }

    /// Receive-side twin of [`Self::finish_send`].
    fn finish_recv(&mut self, t_ns: u64, req: RecvReqId, outcome: Outcome<NmBuf>) {
        let r = &mut self.recv_reqs[req.0 as usize];
        debug_assert!(!r.done, "double completion of recv request");
        r.done = true;
        let (gate, tag, side) = (GateId(r.src), r.tag, obs::Side::Recv);
        let (counter, phase, kind): (Counter, _, _) = match outcome {
            Outcome::Done(data) => (
                |s| &mut s.recv_completions,
                obs::Phase::Completed { side },
                // Lineage ends at the user-facing completion: surrender the
                // underlying Bytes view (zero-copy, storage still aliased).
                CompletionKind::Recv {
                    data: data.into_bytes(),
                    gate,
                    tag,
                },
            ),
            Outcome::PeerDead => (
                |s| &mut s.membership_aborted_recvs,
                obs::Phase::Aborted { side },
                CompletionKind::RecvFailed { gate, tag },
            ),
            Outcome::Revoked => (
                |s| &mut s.revoked_ops,
                obs::Phase::Revoked { side },
                CompletionKind::RecvRevoked {
                    gate,
                    tag,
                    epoch: keys::epoch_of(tag),
                },
            ),
        };
        *counter(&mut self.stats) += 1;
        let key = mkey(r.src, self.rank, r.tag, r.seq);
        self.out.phase(t_ns, key, phase);
        self.completions.push_back(NmCompletion {
            cookie: r.cookie,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    //! [`Engine::has_work`], one condition at a time.

    use super::*;
    use crate::config::{FlowConfig, RetryConfig};

    /// Flow control with a 64 KiB cap: high water 32 KiB, low 16 KiB.
    fn flow() -> NmConfig {
        NmConfig {
            flow: Some(FlowConfig::bounded(4, 64 * 1024)),
            ..NmConfig::default()
        }
    }

    /// Each condition turns an idle engine's verdict to "work" on its own.
    #[test]
    fn each_condition_alone_is_work() {
        type Set = fn(&mut Engine);
        let conditions: [(&str, NmConfig, Set); 9] = [
            ("inbound", NmConfig::default(), |e| {
                let credit = WirePayload::Credit { credits: 0 };
                e.inbound.push_back(NmWire::new(1, 0, credit));
            }),
            ("completions", NmConfig::default(), |e| {
                let kind = CompletionKind::Send;
                e.completions.push_back(NmCompletion { cookie: 0, kind });
            }),
            ("dead_events", NmConfig::default(), |e| {
                e.dead_events.push_back(1)
            }),
            ("revoked_events", NmConfig::default(), |e| {
                e.revoked_events.push_back(0)
            }),
            ("window", NmConfig::default(), |e| {
                e.isend(SimTime::ZERO, 1, 7, NmBuf::default(), 0);
            }),
            ("credit owed", flow(), |e| e.owe_credit(1, 8)),
            ("latch due to close", flow(), |e| {
                e.unex_eager_bytes = 32 * 1024 + 1
            }),
            ("latch due to open", flow(), |e| e.fc_throttled = true),
            ("withheld credit released", flow(), |e| {
                e.peers.entry(1).or_default().credit_withheld = 1;
            }),
        ];
        for (name, cfg, set) in conditions {
            let mut e = loopback::engine(cfg, 0, 2);
            assert!(!e.has_work(), "{name}: a fresh engine is idle");
            set(&mut e);
            assert!(e.has_work(), "{name} alone is work");
        }
    }

    /// Credits held back by a closed latch that is not due to open are no
    /// work: the pass would only hold them back again.
    #[test]
    fn withheld_credits_behind_a_closed_latch_are_no_work() {
        let mut e = loopback::engine(flow(), 0, 2);
        e.fc_throttled = true;
        e.unex_eager_bytes = 16 * 1024 + 1;
        e.peers.entry(1).or_default().credit_withheld = 3;
        assert!(!e.has_work());
        e.unex_eager_bytes -= 1;
        assert!(e.has_work(), "at low water the latch opens");
    }

    /// With retry armed a live engine always has work; halted, only what
    /// it still has to surface counts.
    #[test]
    fn retry_is_work_until_the_halt() {
        let retry = NmConfig {
            retry: Some(RetryConfig::default()),
            ..NmConfig::default()
        };
        let mut e = loopback::engine(retry, 0, 2);
        assert!(e.has_work());
        e.halt();
        assert!(!e.has_work());
        e.dead_events.push_back(1);
        assert!(e.has_work(), "a halted engine still has its queues drained");
    }
}
