//! The NewMadeleine core: gates, submission windows, protocol state
//! machines, and progress.
//!
//! One [`NmCore`] exists per process. Sends enter per-gate submission
//! windows ([`crate::pack`]); the configured [`crate::strategy`] moves them
//! onto rails whenever [`NmCore::schedule`] runs or a NIC completes a
//! transfer. Inbound packets are accepted by the node's fabric sink via
//! [`NmCore::accept`] and processed — matching, rendezvous transitions,
//! completions — on the next `schedule`.
//!
//! ## Protocols
//!
//! * **Eager** (≤ `eager_threshold`): the payload rides in the packet.
//! * **Rendezvous**: `RTS` announces the message; the receiver matches it
//!   and answers `CTS`; the sender then queues the payload as a splittable
//!   `DATA` wrapper (this is where the multirail split happens). Both
//!   handshake halves run *inside* NewMadeleine — the reason the MPICH2
//!   integration must bypass the CH3 rendezvous (§2.1.3, Fig. 2).
//!
//! ## Ordering
//!
//! Envelope packets (eager/RTS) carry per-(gate, tag) sequence numbers.
//! Because strategies may put consecutive messages on different rails,
//! arrivals can be out of order; a receiver-side reorder buffer parks early
//! arrivals and feeds the matching engine strictly in sequence — the
//! "reordering techniques" of §2.2.
//!
//! ## Progress discipline
//!
//! `isend`/`irecv` never touch the NIC; only `schedule` (called by the MPI
//! progress engine or by PIOMan) commits the window and processes inbound
//! packets. NIC send-completions continue an already-committed pipeline
//! (chaining the next window packet) but never process inbound traffic.
//! This is what makes communication/computation overlap an explicit
//! property of *who drives progress* — the subject of Fig. 7.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simnet::{
    BufOrigin, CopyMeter, CopySnapshot, Fabric, NmBuf, NodeId, RailId, Scheduler, SimDuration,
    SimTime,
};

use crate::config::{NmConfig, RetryConfig};
use crate::credit::CreditBank;
use crate::gate::{EnvRetx, Envelope, Gate, RdvIn, RdvOut};
use crate::keys;
use crate::matching::{GateId, Unexpected};
use crate::sharded::ShardedMatchEngine;
use crate::membership::{MembershipTable, PeerLiveness};
use crate::pack::{PacketWrapper, PwBody, PwId};
use crate::protocol::{self, Action, Verdict};
use crate::railhealth::{RailHealth, RailHealthTable};
use crate::sampling::LinkProfile;
use crate::sr::{CompletionKind, NmCompletion, RecvReqId, SendReqId};
use crate::stats::{stat, StatsCells};
use crate::strategy::{self, RailState, Strategy, Submission};
use crate::wire::{EagerFrag, NmWire, WirePayload};

/// Hook invoked (on the engine thread) when something happened that a
/// background progress engine would want to react to: an inbound packet was
/// accepted or a NIC completed a transfer. PIOMan installs this.
pub type EventHook = Arc<dyn Fn(&Scheduler) + Send + Sync>;

/// Binding of a core to the simulated network: which fabric, which node it
/// sits in, which rails it may use, and where every rank lives.
#[derive(Clone)]
pub struct NmNet {
    pub fabric: Arc<Fabric<NmWire>>,
    pub node: NodeId,
    pub rails: Vec<RailId>,
    pub rank_to_node: Arc<Vec<NodeId>>,
}

/// Counters exposed for tests and the benchmark harnesses.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
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

impl NmStats {
    /// Total retransmissions across all packet classes.
    pub fn total_retries(&self) -> u64 {
        self.eager_retries + self.rts_retries + self.cts_retries + self.data_retries
    }
}

struct SendReq {
    cookie: u64,
    done: bool,
    /// Message identity for lifecycle spans (dst, tag, per-(dst,tag) seq).
    dst: usize,
    tag: u64,
    seq: u64,
}

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

struct Inner {
    cfg: NmConfig,
    strategy: Box<dyn Strategy>,
    /// Everything held about each peer — submission window, sequencing,
    /// rendezvous, retransmit queue, credits to return — one record per
    /// rank this core has exchanged traffic with ([`crate::gate`]).
    /// BTreeMap for deterministic iteration; boxed so a tree node holds
    /// eleven pointers, not eleven 200-byte records.
    peers: BTreeMap<usize, Box<Gate>>,
    /// Tag matching, sharded per source gate so injector threads and the
    /// progress engine match traffic from different peers concurrently
    /// (the single-queue `MatchEngine` remains as the differential
    /// oracle — see `tests/matcher_differential.rs`).
    matching: ShardedMatchEngine,
    send_reqs: Vec<SendReq>,
    recv_reqs: Vec<RecvReq>,
    /// Packets accepted from the fabric, pending processing.
    inbound: VecDeque<NmWire>,
    completions: VecDeque<NmCompletion>,
    /// Retry mode: acks/FINs/probe replies to put on the wire after the
    /// current inbound batch (sent outside the inner lock). The third
    /// element pins the packet to a specific local rail; `None` lets
    /// [`NmCore::send_direct`] pick the healthiest one.
    ctrl_out: VecDeque<(usize, WirePayload, Option<usize>)>,
    /// Retry mode: per-rail health state machine (`None` without retry —
    /// the happy path has no failure signals to drive it).
    health: Option<RailHealthTable>,
    /// Flow control, sender side: remaining eager credits per destination
    /// gate (lazily seeded from `FlowConfig::eager_credits`). Lock-free
    /// pools shared by `Arc` so real-thread injectors can admit eager
    /// sends without taking the core mutex (see [`crate::credit`]).
    send_credits: Arc<CreditBank>,
    /// Bytes of unexpected eager payload currently buffered (receiver
    /// side; always tracked — it feeds `fc_peak_unex_bytes`).
    unex_eager_bytes: usize,
    /// Hysteresis latch: set when `unex_eager_bytes` climbs past
    /// `high_water`, cleared when it falls back to `low_water`.
    fc_throttled: bool,
    next_pw: u64,
    next_rdv: u64,
    stats: StatsCells,
    /// The stack-wide copy meter; attached to every payload entering this
    /// core so downstream shares/copies keep charging the same counters.
    meter: Arc<CopyMeter>,
    /// Lifecycle-span recording handle, stamped with this core's rank.
    /// Lives inside `Inner` so the lock-free static helpers
    /// (`finish_send`, `handle_data`, …) can record through it.
    rec: obs::RankRec,
    /// Per-peer liveness supervisor (`None` without
    /// [`crate::config::MembershipConfig`] — node death then keeps the
    /// PR-3 link-presumed-dead panic).
    membership: Option<MembershipTable>,
    /// Fresh `Dead` verdicts not yet consumed by the upper layer (the MPI
    /// progress engine retargets ANY_SOURCE and retires the VC on these).
    dead_events: VecDeque<usize>,
    /// Monotonic sequence for membership silence probes (kept disjoint
    /// from rail-health probe sequences via [`MEMBER_PROBE_BIT`]).
    member_probe_seq: u64,
    /// This rank crashed (or finalized under churn): drop all traffic,
    /// report quiescent, never panic on behalf of a dead process.
    halted: bool,
    /// Highest committed communicator epoch. Collective frames whose
    /// epoch field is below this (agreement/join excepted) are stale.
    committed_epoch: u8,
    /// Sticky set of revoked epochs: a replayed poison frame is a counted
    /// no-op, exactly like a replayed death verdict.
    revoked_epochs: BTreeSet<u32>,
    /// Fresh revoke verdicts not yet consumed by the upper layer (the MPI
    /// progress engine re-broadcasts the poison peer-to-peer and fails
    /// its collective state on these).
    revoked_events: VecDeque<u32>,
    /// Retired agreement instances (collective keys with the round bits
    /// masked): frames for these are counted stale and dropped. Never
    /// GC'd — agreement keys are epoch-exempt so the epoch filter can't
    /// cover them, and the set grows by one tiny entry per agreement.
    retired: BTreeSet<u64>,
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

/// How many bytes of `[start, end)` are *not* already covered by the
/// sorted, disjoint range set — computed without mutating, so the
/// protocol table's `Last` guard can be answered before the copy runs.
fn fresh_len(ranges: &[(usize, usize)], start: usize, end: usize) -> usize {
    let mut fresh = end - start;
    for &(rs, re) in ranges {
        let os = start.max(rs);
        let oe = end.min(re);
        if os < oe {
            fresh -= oe - os;
        }
    }
    fresh
}

/// Merge `[start, end)` into a sorted, disjoint range set; returns how many
/// bytes of the new range were not already covered.
fn insert_range(ranges: &mut Vec<(usize, usize)>, start: usize, end: usize) -> usize {
    let mut fresh = end - start;
    for &(rs, re) in ranges.iter() {
        let os = start.max(rs);
        let oe = end.min(re);
        if os < oe {
            fresh -= oe - os;
        }
    }
    ranges.push((start, end));
    ranges.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
    for &(rs, re) in ranges.iter() {
        if let Some(last) = merged.last_mut() {
            if rs <= last.1 {
                last.1 = last.1.max(re);
                continue;
            }
        }
        merged.push((rs, re));
    }
    *ranges = merged;
    fresh
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

/// One NewMadeleine instance (per process).
pub struct NmCore {
    rank: usize,
    net: NmNet,
    profiles: Vec<LinkProfile>,
    /// Lowest rank on a different node — the peer health probes are
    /// aimed at (`None` in single-peer-less topologies).
    probe_peer: Option<usize>,
    inner: Mutex<Inner>,
    hook: Mutex<Option<EventHook>>,
}

/// How a request ends: with its result (`()` for a send, the payload for
/// a receive), or with an error because its peer was declared dead or
/// its communicator epoch was revoked (the peer may be perfectly alive).
enum Outcome<T> {
    Done(T),
    PeerDead,
    Revoked,
}

/// Everything needed to put one packet on the wire, extracted under the
/// inner lock and executed outside it.
struct Outgoing {
    rail: RailId,
    dst_node: NodeId,
    wire: NmWire,
    bytes: usize,
    eager_reqs: Vec<SendReqId>,
    /// `(dst, rdv_id)` when the packet is a rendezvous DATA chunk.
    data_chunk_rdv: Option<(usize, u64)>,
}

impl NmCore {
    pub fn new(cfg: NmConfig, rank: usize, net: NmNet) -> Arc<NmCore> {
        Self::with_instruments(cfg, rank, net, CopyMeter::new(), None)
    }

    /// Like [`NmCore::new`] but sharing a caller-provided [`CopyMeter`] —
    /// the MPI stack builder passes one job-wide meter so MPI-ingress,
    /// Nemesis and nmad copies all land in the same tally — and recording
    /// typed lifecycle span events (message phases, retries, credit
    /// movements) through `recorder` when one is given.
    pub fn with_instruments(
        cfg: NmConfig,
        rank: usize,
        net: NmNet,
        meter: Arc<CopyMeter>,
        recorder: Option<&Arc<obs::Recorder>>,
    ) -> Arc<NmCore> {
        assert!(!net.rails.is_empty(), "a core needs at least one rail");
        // Startup sampling: fit each rail's latency/bandwidth profile
        // (§2.2, the adaptive split ratio input).
        let profiles: Vec<LinkProfile> = net
            .rails
            .iter()
            .map(|&rid| LinkProfile::sample(net.fabric.model(rid)))
            .collect();
        let health = cfg
            .retry
            .map(|rc| RailHealthTable::new(rc, net.rails.len()));
        assert!(
            cfg.membership.is_none() || cfg.retry.is_some(),
            "membership verdicts are fed by retransmission timeouts; arm `retry` first"
        );
        let membership = cfg.membership.map(MembershipTable::new);
        let probe_peer = net
            .rank_to_node
            .iter()
            .enumerate()
            .find(|&(r, &n)| r != rank && n != net.node)
            .map(|(r, _)| r);
        // Pools are only consulted when flow control is armed; a 0-capacity
        // bank is inert (and never reached) otherwise.
        let send_credits = Arc::new(CreditBank::new(
            cfg.flow.map(|fc| fc.eager_credits).unwrap_or(0),
        ));
        Arc::new(NmCore {
            rank,
            net,
            profiles,
            probe_peer,
            inner: Mutex::new(Inner {
                strategy: strategy::make(cfg.strategy),
                cfg,
                peers: BTreeMap::new(),
                matching: ShardedMatchEngine::new(),
                send_reqs: Vec::new(),
                recv_reqs: Vec::new(),
                inbound: VecDeque::new(),
                completions: VecDeque::new(),
                ctrl_out: VecDeque::new(),
                health,
                send_credits,
                unex_eager_bytes: 0,
                fc_throttled: false,
                next_pw: 0,
                next_rdv: 0,
                stats: StatsCells::new(),
                meter,
                rec: obs::RankRec::new(recorder, rank as u32),
                membership,
                dead_events: VecDeque::new(),
                member_probe_seq: 0,
                halted: false,
                committed_epoch: 0,
                revoked_epochs: BTreeSet::new(),
                revoked_events: VecDeque::new(),
                retired: BTreeSet::new(),
            }),
            hook: Mutex::new(None),
        })
    }

    /// This core's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The lock-free eager credit bank, shared with real-thread injectors
    /// so admission control never takes the core mutex.
    pub fn credit_bank(&self) -> Arc<CreditBank> {
        Arc::clone(&self.inner.lock().send_credits)
    }

    /// Sampled rail profiles (for diagnostics and the harnesses).
    pub fn profiles(&self) -> &[LinkProfile] {
        &self.profiles
    }

    /// Install the background-progress hook (PIOMan).
    pub fn set_event_hook(&self, hook: EventHook) {
        *self.hook.lock() = Some(hook);
    }

    /// Remove the hook.
    pub fn clear_event_hook(&self) {
        *self.hook.lock() = None;
    }

    /// The stack-wide copy meter this core charges.
    pub fn meter(&self) -> Arc<CopyMeter> {
        Arc::clone(&self.inner.lock().meter)
    }

    fn fire_hook(&self, sched: &Scheduler) {
        let hook = self.hook.lock().as_ref().map(Arc::clone);
        if let Some(h) = hook {
            h(sched);
        }
    }

    /// `nm_sr_isend`: queue `data` for `dst` under `tag`. Returns the
    /// request handle; the upper layer's `cookie` comes back in the
    /// completion. **Does not touch the NIC** — submission happens on the
    /// next [`NmCore::schedule`].
    pub fn isend(
        self: &Arc<Self>,
        sched: &Scheduler,
        dst: usize,
        tag: u64,
        data: impl Into<NmBuf>,
        cookie: u64,
    ) -> SendReqId {
        assert_ne!(dst, self.rank, "nmad is inter-node only; intra-node goes via Nemesis");
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // Attach the stack meter unless the buffer already carries one
        // (i.e. it was metered at a higher layer, MPI ingress or CH3).
        let mut data = data.into();
        if data.meter().is_none() {
            data = data.with_meter(&inner.meter);
        }
        let now = sched.now();
        if let Some(req) = Self::refuse_send(inner, now, dst, tag, data.len(), cookie) {
            drop(guard);
            self.fire_hook(sched);
            return req;
        }
        let req = SendReqId(inner.send_reqs.len() as u32);
        let gate = inner.peers.entry(dst).or_default();
        let seq = gate.flow(tag).next_send_seq();
        inner.send_reqs.push(SendReq {
            cookie,
            done: false,
            dst,
            tag,
            seq,
        });
        let pw_id = PwId(inner.next_pw);
        inner.next_pw += 1;
        inner.rec.phase(
            now.0,
            mkey(self.rank, dst, tag, seq),
            obs::Phase::SendPosted {
                len: data.len() as u64,
            },
        );
        inner.rec.inc("nmad.isend", 1);
        inner.rec.observe("nmad.send.bytes", data.len() as u64);
        // Flow-control admission: an eager-sized message needs a credit
        // from the destination gate's pool; with the pool empty it degrades
        // to the rendezvous path (RTS/CTS is natural backpressure — the
        // payload only moves once the receiver posted) instead of blocking
        // or dropping. Zero-length messages bypass the pool on both sides:
        // credits protect receiver payload memory, which they cannot use.
        let eager = data.len() <= inner.cfg.eager_threshold
            && match inner.cfg.flow {
                Some(_fc) if !data.as_slice().is_empty() => {
                    if inner.send_credits.try_acquire(dst) {
                        inner.stats.add(stat::fc_eager_admitted, 1);
                        inner
                            .rec
                            .engine(now.0, obs::EngineEvent::CreditDebit { peer: dst as u32 });
                        true
                    } else {
                        inner.stats.add(stat::fc_credit_stalls, 1);
                        inner.stats.add(stat::fc_fallback_sends, 1);
                        inner
                            .rec
                            .phase(now.0, mkey(self.rank, dst, tag, seq), obs::Phase::CreditStall);
                        false
                    }
                }
                _ => true,
            };
        let (body, data) = if eager {
            inner.stats.add(stat::eager_sends, 1);
            let body = PwBody::Eager {
                tag,
                seq,
                send_req: req,
            };
            (body, data)
        } else {
            // Rendezvous entry: `entry/size` (payload above the eager
            // threshold) or `entry/credit-fallback` (eager-sized send
            // demoted because the credit pool ran dry). Same actions,
            // distinct table rows so the explorer proves both entries
            // live.
            let retry = inner.cfg.retry.is_some();
            let credit_fallback = data.len() <= inner.cfg.eager_threshold;
            let verdict = protocol::step(
                protocol::State::Gone,
                protocol::Event::SendRdv,
                pctx(retry, false, false, credit_fallback),
            );
            let Verdict::Step { actions, next, .. } = verdict else {
                unreachable!("rendezvous entry must be a table row");
            };
            debug_assert!(actions.contains(&Action::SendRts));
            inner.stats.add(stat::rdv_sends, 1);
            let rdv_id = inner.next_rdv;
            inner.next_rdv += 1;
            let len = data.len();
            let timeout = inner
                .cfg
                .retry
                .map(|rc| rc.timeout)
                .unwrap_or(SimDuration::ZERO);
            // `ArmRtsTimer` is realized lazily: the deadline is armed in
            // `build_outgoing` when the RTS actually leaves the node (a
            // queued-but-uncommitted RTS cannot time out).
            gate.rdv_out.insert(
                rdv_id,
                Box::new(RdvOut {
                    send_req: req,
                    data,
                    bytes_remaining: len,
                    chunks_in_flight: 0,
                    state: next,
                    last_rails: 0,
                    tag,
                    seq,
                    deadline: None,
                    timeout,
                    attempts: 0,
                }),
            );
            let body = PwBody::Rts {
                tag,
                seq,
                rdv_id,
                len,
            };
            (body, NmBuf::default())
        };
        gate.window.push_back(PacketWrapper {
            id: pw_id,
            dst,
            body,
            data,
            enqueued_at: now,
        });
        req
    }

    /// Fail-fast verdict for a new request toward `peer` under `tag`.
    /// A known-dead peer: the request still completes (no-cancel rule) —
    /// with an error, immediately, instead of burning a full
    /// retransmission ladder against a corpse. A revoked/superseded
    /// epoch: every frame of the key is acked-and-dropped at delivery,
    /// so a send would retransmit its RTS forever (and eventually indict
    /// a perfectly live peer) and a receive could never match.
    fn refusal<T>(inner: &Inner, peer: usize, tag: u64) -> Option<Outcome<T>> {
        if inner.membership.as_ref().is_some_and(|m| m.is_dead(peer)) {
            Some(Outcome::PeerDead)
        } else if Self::tag_is_stale(inner, tag) {
            Some(Outcome::Revoked)
        } else {
            None
        }
    }

    /// Complete a send that [`Self::refusal`] turns away, on the spot. It
    /// claims no wire sequence number and opens no gate or flow record (a
    /// drained peer keeps exactly zero).
    fn refuse_send(
        inner: &mut Inner,
        now: SimTime,
        dst: usize,
        tag: u64,
        len: usize,
        cookie: u64,
    ) -> Option<SendReqId> {
        let outcome = Self::refusal(inner, dst, tag)?;
        let req = SendReqId(inner.send_reqs.len() as u32);
        let seq = DEAD_LETTER_SEQ | req.0 as u64;
        inner.send_reqs.push(SendReq {
            cookie,
            done: false,
            dst,
            tag,
            seq,
        });
        let key = mkey(inner.rec.rank() as usize, dst, tag, seq);
        inner
            .rec
            .phase(now.0, key, obs::Phase::SendPosted { len: len as u64 });
        inner.rec.inc("nmad.isend", 1);
        if matches!(outcome, Outcome::PeerDead) {
            inner.rec.observe("nmad.send.bytes", len as u64);
        }
        Self::finish_send(inner, now.0, req, outcome);
        Some(req)
    }

    /// Receive-side twin of [`Self::refuse_send`]: a receive against a
    /// drained peer (its unexpected queue was purged, its frames are
    /// strays) or a dead epoch can never match.
    fn refuse_recv(
        inner: &mut Inner,
        now: SimTime,
        src: usize,
        tag: u64,
        cookie: u64,
    ) -> Option<RecvReqId> {
        let outcome = Self::refusal(inner, src, tag)?;
        let req = RecvReqId(inner.recv_reqs.len() as u32);
        let seq = DEAD_LETTER_SEQ | req.0 as u64;
        inner.recv_reqs.push(RecvReq {
            cookie,
            done: false,
            src,
            tag,
            seq,
        });
        let key = mkey(src, inner.rec.rank() as usize, tag, seq);
        inner.rec.phase(now.0, key, obs::Phase::RecvPosted);
        inner.rec.inc("nmad.irecv", 1);
        Self::finish_recv(inner, now.0, req, outcome);
        Some(req)
    }

    /// `nm_sr_irecv`: post a receive for `(src, tag)`. If a matching
    /// unexpected message is queued it completes immediately (eager) or
    /// starts the rendezvous (RTS → a CTS is queued for the next
    /// `schedule`).
    pub fn irecv(
        self: &Arc<Self>,
        sched: &Scheduler,
        src: usize,
        tag: u64,
        cookie: u64,
    ) -> RecvReqId {
        assert_ne!(src, self.rank, "nmad is inter-node only");
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let now = sched.now();
        let my_rank = self.rank;
        if let Some(req) = Self::refuse_recv(inner, now, src, tag, cookie) {
            drop(guard);
            self.fire_hook(sched);
            return req;
        }
        let req = RecvReqId(inner.recv_reqs.len() as u32);
        let flow = inner.peers.entry(src).or_default().flow(tag);
        let posted_seq = flow.next_posted_seq();
        inner.recv_reqs.push(RecvReq {
            cookie,
            done: false,
            src,
            tag,
            seq: posted_seq,
        });
        inner.rec.phase(
            now.0,
            mkey(src, my_rank, tag, posted_seq),
            obs::Phase::RecvPosted,
        );
        inner.rec.inc("nmad.irecv", 1);
        let gate = GateId(src);
        if let Some(unex) = inner.matching.post_recv(gate, tag, req) {
            let (Unexpected::Eager { seq, .. } | Unexpected::Rts { seq, .. }) = unex;
            inner.recv_reqs[req.0 as usize].seq = seq;
            inner.rec.phase(
                now.0,
                mkey(src, my_rank, tag, seq),
                obs::Phase::Matched { unexpected: true },
            );
            match unex {
                Unexpected::Eager { data, .. } => {
                    Self::consume_unexpected_eager(inner, src, data.len());
                    Self::finish_recv(inner, now.0, req, Outcome::Done(data));
                }
                Unexpected::Rts { rdv_id, len, .. } => {
                    Self::start_rdv_in(inner, sched, req, src, tag, seq, rdv_id, len);
                }
            }
        }
        let had_completion = !inner.completions.is_empty();
        drop(guard);
        if had_completion {
            self.fire_hook(sched);
        }
        req
    }

    /// Accept an inbound wire packet from the fabric sink. Processing is
    /// deferred to the next `schedule`; the event hook lets a background
    /// progress engine run one promptly.
    pub fn accept(self: &Arc<Self>, sched: &Scheduler, wire: NmWire) {
        self.accept_delivery(sched, wire, 0, false);
    }

    /// [`NmCore::accept`] with delivery metadata from the fabric: the
    /// local rail index the packet arrived on and whether the wire flagged
    /// it as corrupted. A corrupted frame fails the end-to-end CRC and is
    /// dropped here — the retry layer replays it like a lost packet.
    pub fn accept_delivery(
        self: &Arc<Self>,
        sched: &Scheduler,
        mut wire: NmWire,
        rail: usize,
        corrupted: bool,
    ) {
        debug_assert_eq!(wire.dst_rank, self.rank, "misrouted packet");
        if corrupted {
            // Model bit-rot without touching payload bytes: the sender's
            // retransmit queue shares this very storage, so the damage is
            // recorded in the (owned) header CRC instead.
            wire.crc ^= 1;
        }
        let retry = {
            let mut inner = self.inner.lock();
            if inner.halted {
                return;
            }
            if !wire.crc_ok() {
                inner.stats.add(stat::crc_drops, 1);
                return;
            }
            // A frame from a peer this rank already drained must not
            // revive any per-peer state (`Dead` is sticky): count it and
            // drop it before it can touch a map.
            if inner
                .membership
                .as_ref()
                .is_some_and(|m| m.is_dead(wire.src_rank))
            {
                inner.stats.add(stat::membership_stray_frames, 1);
                inner.rec.inc("nmad.membership.stray_frames", 1);
                return;
            }
            // An intact inbound frame is the only way a peer earns
            // liveness credit (outbound attempts can be fooled; arrivals
            // cannot).
            if let Some(m) = inner.membership.as_mut() {
                m.record_inbound(wire.src_rank, sched.now());
            }
            Self::emit_member_events(&mut inner, sched.now());
            inner.peers.entry(wire.src_rank).or_default().last_in_rail = Some(rail);
            // An intact arrival is live proof of this rail: inbound credit
            // is the only success signal that cannot be fooled by a
            // multi-rail attempt mask (a rendezvous whose dead-rail chunks
            // were rerouted still *finishes*, but only the survivor ever
            // lands a frame here).
            if let Some(h) = inner.health.as_mut() {
                h.record_success(rail, sched.now());
            }
            inner.inbound.push_back(wire);
            inner.cfg.retry.is_some()
        };
        // In retry mode the transport must stay responsive (ack and FIN
        // replays) even after the local rank has stopped polling — e.g. a
        // receiver that already completed while the sender retransmits.
        // `accept` runs on the engine thread, so processing inline is safe.
        if retry {
            self.schedule(sched);
        }
        self.fire_hook(sched);
    }

    /// `nm_schedule`: process inbound packets, sweep retransmission timers
    /// (retry mode), then commit the submission windows. The MPI progress
    /// engine (or PIOMan) calls this.
    pub fn schedule(self: &Arc<Self>, sched: &Scheduler) {
        if self.inner.lock().halted {
            return;
        }
        self.process_inbound(sched);
        self.sweep_retries(sched);
        self.sweep_probes(sched);
        self.sweep_membership(sched);
        self.try_commit(sched);
    }

    /// Crash/teardown: empty every queue and go permanently quiescent.
    /// Models the process dying — nothing is flushed, nothing is acked,
    /// and the simulated fabric (node-fault windows) makes the silence
    /// real on the wire. Peers detect the death via their own membership
    /// supervision; this rank simply stops participating.
    pub fn halt(&self) {
        let mut inner = self.inner.lock();
        inner.halted = true;
        inner.peers.clear();
        inner.inbound.clear();
        inner.completions.clear();
        inner.ctrl_out.clear();
        inner.rec.inc("nmad.halt", 1);
    }

    /// Did [`NmCore::halt`] run?
    pub fn halted(&self) -> bool {
        self.inner.lock().halted
    }

    /// Is transport-level retransmission configured?
    pub fn retry_enabled(&self) -> bool {
        self.inner.lock().cfg.retry.is_some()
    }

    /// Drain all surfaced completions (cookies of finished requests).
    pub fn drain_completions(&self) -> Vec<NmCompletion> {
        let mut inner = self.inner.lock();
        inner.completions.drain(..).collect()
    }

    /// Is there an unexpected message from `(gate, tag)`?
    pub fn probe(&self, gate: GateId, tag: u64) -> bool {
        self.inner.lock().matching.probe(gate, tag)
    }

    /// Earliest-arrived unexpected message with `tag` from any gate — the
    /// ANY_SOURCE probe (§3.2.2).
    pub fn probe_tag(&self, tag: u64) -> Option<GateId> {
        self.inner.lock().matching.probe_tag(tag)
    }

    /// Probe with payload length, for MPI_Iprobe's status.
    pub fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        self.inner.lock().matching.probe_info(gate, tag)
    }

    /// ANY_SOURCE probe with gate and payload length.
    pub fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        self.inner.lock().matching.probe_tag_info(tag)
    }

    /// Posted receives not yet matched (diagnostics).
    pub fn posted_recvs(&self) -> usize {
        self.inner.lock().matching.posted_len()
    }

    /// Unexpected messages queued (diagnostics).
    pub fn unexpected_msgs(&self) -> usize {
        self.inner.lock().matching.unexpected_len()
    }

    /// Packet wrappers sitting in the submission windows — the library's
    /// "outbox" depth (diagnostics).
    pub fn window_depth(&self) -> usize {
        let inner = self.inner.lock();
        inner.peers.values().map(|g| g.window.len()).sum()
    }

    /// Nothing in flight, nothing pending?
    pub fn quiescent(&self) -> bool {
        let inner = self.inner.lock();
        inner.inbound.is_empty()
            && inner.peers.values().all(|g| g.quiescent())
            && inner.completions.is_empty()
            && inner.ctrl_out.is_empty()
    }

    /// Counter snapshot (includes the live copy-meter tally and the
    /// rail-health table's failover counters).
    pub fn stats(&self) -> NmStats {
        let inner = self.inner.lock();
        let mut s = inner.stats.snapshot();
        s.copy = inner.meter.snapshot();
        s.peer_entries = inner.peers.values().map(|g| g.records() as u64).sum();
        if let Some(h) = inner.health.as_ref() {
            s.rail_transitions = h.transitions();
            s.degraded_nanos = h.degraded_nanos();
            let (sent, acked) = h.probe_counts();
            s.probes_sent = sent;
            s.probe_acks = acked;
        }
        if let Some(m) = inner.membership.as_ref() {
            s.membership_transitions = m.transitions();
        }
        s
    }

    /// Current health state of one local rail (`Up` when health tracking
    /// is off — the happy path treats every rail as healthy).
    pub fn rail_state(&self, rail: usize) -> RailHealth {
        self.inner
            .lock()
            .health
            .as_ref()
            .map(|h| h.state(rail))
            .unwrap_or(RailHealth::Up)
    }

    /// One-line failover summary for transport `debug_state` strings, e.g.
    /// `failover[rails=Up,Down transitions=2 probes=4/2 degraded=…ns]`.
    /// `None` when health tracking is off.
    pub fn health_summary(&self) -> Option<String> {
        self.inner.lock().health.as_ref().map(|h| h.summary())
    }

    /// Is the membership supervisor armed?
    pub fn membership_enabled(&self) -> bool {
        self.inner.lock().membership.is_some()
    }

    /// Liveness verdict for one peer (`Up` when membership is off — the
    /// happy path treats every peer as alive).
    pub fn peer_state(&self, peer: usize) -> PeerLiveness {
        self.inner
            .lock()
            .membership
            .as_ref()
            .map(|m| m.state(peer))
            .unwrap_or(PeerLiveness::Up)
    }

    /// Declare `peer` dead out-of-band (an upper layer learned of the
    /// death through a side channel — a resource manager, a test harness)
    /// and run the drain immediately. Returns `false` when membership is
    /// off or the peer was already dead.
    pub fn declare_peer_dead(&self, sched: &Scheduler, peer: usize) -> bool {
        let (fresh, fire) = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let now = sched.now();
            let fresh = inner
                .membership
                .as_mut()
                .is_some_and(|m| m.declare_dead(peer, now));
            if fresh {
                Self::emit_member_events(inner, now);
                Self::drain_peer(inner, now, peer);
            }
            (fresh, fresh && !inner.completions.is_empty())
        };
        if fire {
            self.fire_hook(sched);
        }
        fresh
    }

    /// True when membership is armed and `peer` has been declared dead.
    pub fn is_peer_dead(&self, peer: usize) -> bool {
        self.inner
            .lock()
            .membership
            .as_ref()
            .is_some_and(|m| m.is_dead(peer))
    }

    /// Drain the queue of freshly-dead peers (each peer appears exactly
    /// once, in verdict order). The MPI layer polls this to retire VCs,
    /// flush ANY_SOURCE windows and shrink collective groups.
    pub fn take_dead_peers(&self) -> Vec<usize> {
        self.inner.lock().dead_events.drain(..).collect()
    }

    /// Revoke a communicator epoch locally (the MPI layer calls this both
    /// for a user-initiated `comm_revoke` and when a liveness verdict
    /// forces one). Sticky and idempotent like a death verdict: the first
    /// call quiesces every pending operation of the epoch — posted
    /// receives, in-flight rendezvous, queued and unacked eager sends —
    /// each completing with a counted revoked-epoch error; a repeat call
    /// returns `false` and changes nothing. The fresh verdict is also
    /// queued for [`NmCore::take_revoked_epochs`] so the upper layer
    /// re-broadcasts the poison peer-to-peer.
    pub fn revoke_epoch(&self, sched: &Scheduler, epoch: u32) -> bool {
        let (fresh, fire) = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let fresh = Self::learn_revoke(inner, sched.now(), epoch);
            (fresh, fresh && !inner.completions.is_empty())
        };
        if fire {
            self.fire_hook(sched);
        }
        fresh
    }

    /// Has `epoch` been revoked on this rank?
    pub fn is_epoch_revoked(&self, epoch: u32) -> bool {
        self.inner.lock().revoked_epochs.contains(&epoch)
    }

    /// Drain the queue of freshly-revoked epochs (each appears exactly
    /// once, in verdict order). The MPI progress engine polls this to
    /// fail collective state and forward the poison frame to every
    /// communicator member it hasn't provably reached.
    pub fn take_revoked_epochs(&self) -> Vec<u32> {
        self.inner.lock().revoked_events.drain(..).collect()
    }

    /// Put one revoke poison frame for `epoch` on the wire toward `dst`
    /// (express lane — the poison must not queue behind the very bulk
    /// traffic it is cancelling).
    pub fn send_revoke(self: &Arc<Self>, sched: &Scheduler, dst: usize, epoch: u32) {
        self.send_direct(sched, dst, WirePayload::Revoke { epoch }, None);
    }

    /// Commit a new communicator epoch after a shrink/rebuild or a
    /// join-merge. Frames of every earlier epoch (agreement and join keys
    /// excepted) are stale from here on; any still-pending operation of a
    /// superseded epoch is quiesced now with a revoked-epoch error.
    /// Epochs only move forward — a stale commit is a no-op.
    pub fn advance_epoch(&self, sched: &Scheduler, new_epoch: u8) {
        let fire = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if new_epoch <= inner.committed_epoch {
                return;
            }
            inner.committed_epoch = new_epoch;
            let now = sched.now();
            inner
                .rec
                .engine(now.0, obs::EngineEvent::EpochCommit { epoch: new_epoch as u32 });
            inner.rec.inc("nmad.epoch_commit", 1);
            Self::quiesce_keys(inner, now, |tag| {
                keys::is_coll(tag)
                    && !keys::epoch_exempt(tag)
                    && keys::epoch_of(tag) < new_epoch
            });
            !inner.completions.is_empty()
        };
        if fire {
            self.fire_hook(sched);
        }
    }

    /// The highest committed communicator epoch on this rank.
    pub fn committed_epoch(&self) -> u8 {
        self.inner.lock().committed_epoch
    }

    /// Retire one agreement instance (a collective key with its round
    /// bits masked, see [`keys::instance_of`]): every still-buffered or
    /// late frame of that instance — pass rounds and the DECIDED
    /// broadcast alike — is counted stale and dropped, and its abandoned
    /// posted receives complete with a revoked-epoch error. The MPI layer
    /// calls this as each agreement returns, so epoch-exempt keys cannot
    /// leak state the epoch filter will never cover.
    pub fn retire_instance(&self, sched: &Scheduler, instance: u64) {
        let fire = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if !inner.retired.insert(instance) {
                return;
            }
            let now = sched.now();
            Self::quiesce_keys(inner, now, |tag| keys::instance_of(tag) == instance);
            !inner.completions.is_empty()
        };
        if fire {
            self.fire_hook(sched);
        }
    }

    /// Death log: `(peer, verdict time, fail streak at verdict)` — the
    /// raw material for detection-latency histograms.
    pub fn death_log(&self) -> Vec<(usize, SimTime, u64)> {
        self.inner
            .lock()
            .membership
            .as_ref()
            .map(|m| m.deaths().to_vec())
            .unwrap_or_default()
    }

    /// Records still held for `peer` — its gate plus one per flow,
    /// in-flight rendezvous and tombstone, the unit `peer_entries` sums —
    /// so 0 exactly when the core holds no record for it at all: the
    /// drain's acceptance gate once `drain_peer` has run.
    pub fn peer_entry_count(&self, peer: usize) -> usize {
        self.inner.lock().peers.get(&peer).map_or(0, |g| g.records())
    }

    /// One-line membership summary for transport `debug_state` strings,
    /// e.g. `member[up=6 suspect=1 dead=1 transitions=4]`. `None` when
    /// membership is off.
    pub fn membership_summary(&self) -> Option<String> {
        self.inner.lock().membership.as_ref().map(|m| m.summary())
    }

    /// Is credit-based eager flow control armed?
    pub fn flow_enabled(&self) -> bool {
        self.inner.lock().cfg.flow.is_some()
    }

    /// Bytes of unexpected eager payload currently buffered (tracked
    /// whether or not flow control is armed).
    pub fn unexpected_eager_bytes(&self) -> usize {
        self.inner.lock().unex_eager_bytes
    }

    /// One-line flow-control summary for transport `debug_state` strings,
    /// e.g. `flow[unex=0B/peak=12KB stalls=3 fallback=3 ret=40 held=8]`.
    /// `None` when flow control is off.
    pub fn flow_summary(&self) -> Option<String> {
        let inner = self.inner.lock();
        inner.cfg.flow.map(|_| {
            let s = &inner.stats;
            format!(
                "flow[unex={}B/peak={}B stalls={} fallback={} ret={} held={}{}]",
                inner.unex_eager_bytes,
                s.max_of(stat::fc_peak_unex_bytes),
                s.get(stat::fc_credit_stalls),
                s.get(stat::fc_fallback_sends),
                s.get(stat::fc_credits_returned),
                s.get(stat::fc_credits_withheld),
                if inner.fc_throttled { " throttled" } else { "" },
            )
        })
    }

    /// A peer returned eager credits for our gate to it: refill the pool.
    /// The pool can never legitimately exceed its initial size (credits
    /// are only minted by our own sends), but stay clamped regardless.
    fn apply_credits(inner: &mut Inner, t_ns: u64, src: usize, credits: u32) {
        if credits == 0 {
            return;
        }
        if inner.cfg.flow.is_none() {
            return;
        }
        inner.rec.engine(
            t_ns,
            obs::EngineEvent::CreditRefill {
                peer: src as u32,
                credits,
            },
        );
        // Overflow debug-asserted and clamped inside the pool.
        inner.send_credits.release(src, credits);
    }

    // ------------------------------------------------------------------
    // Inbound path
    // ------------------------------------------------------------------

    fn process_inbound(self: &Arc<Self>, sched: &Scheduler) {
        let now = sched.now();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // Retry mode: (src, tag) envelope flows touched by this batch — each
        // gets one cumulative ack afterwards (BTreeSet: deterministic order).
        let mut touched: BTreeSet<(usize, u64)> = BTreeSet::new();
        let retry = inner.cfg.retry.is_some();
        while let Some(wire) = inner.inbound.pop_front() {
            let src = wire.src_rank;
            match wire.payload {
                WirePayload::Eager { tag, seq, data } => {
                    if retry {
                        touched.insert((src, tag));
                    }
                    Self::deliver_envelope(inner, sched, src, tag, seq, Envelope::Eager(data));
                }
                WirePayload::Aggregate(frags) => {
                    for EagerFrag { tag, seq, data } in frags {
                        if retry {
                            touched.insert((src, tag));
                        }
                        Self::deliver_envelope(inner, sched, src, tag, seq, Envelope::Eager(data));
                    }
                }
                WirePayload::Rts {
                    tag,
                    seq,
                    rdv_id,
                    len,
                } => {
                    if retry {
                        touched.insert((src, tag));
                    }
                    Self::deliver_envelope(inner, sched, src, tag, seq, Envelope::Rts {
                        rdv_id,
                        len,
                    });
                }
                WirePayload::Cts { rdv_id } => {
                    // No rail credit from the handshake: `last_rails` is an
                    // attempt mask, and crediting attempts would resurrect a
                    // dead rail every time its rerouted rendezvous completes.
                    // Arrival credit in `accept_delivery` covers the rail the
                    // CTS actually used.
                    Self::handle_cts(inner, sched, src, rdv_id);
                }
                WirePayload::Data {
                    rdv_id,
                    offset,
                    data,
                } => {
                    Self::handle_data(inner, now, src, rdv_id, offset, data);
                }
                WirePayload::Credit { credits } => {
                    Self::apply_credits(inner, now.0, src, credits);
                }
                WirePayload::Ack { tag, next, credits } => {
                    Self::apply_credits(inner, now.0, src, credits);
                    let credited = inner.peers.get_mut(&src).map(|g| g.ack(tag, next));
                    if let Some(h) = inner.health.as_mut() {
                        for rail in credited.unwrap_or_default() {
                            h.record_success(rail, now);
                        }
                    }
                }
                WirePayload::RdvFin { rdv_id } => {
                    // Receiver finished: `fin/early` (chunks still on the
                    // local NIC) or `fin/confirmed` (FIN-wait) release the
                    // payload and complete the send; a replayed FIN — or
                    // one naming a rendezvous addressed to another peer —
                    // finds `Gone` and is a declared ignore. Without retry
                    // no FIN is ever legal: a protocol error, not a panic.
                    let retry = inner.cfg.retry.is_some();
                    let gate = inner.peers.entry(src).or_default();
                    match protocol::step(
                        gate.sender_state(rdv_id),
                        protocol::Event::FinRx,
                        pctx(retry, false, false, false),
                    ) {
                        Verdict::Step { actions, .. } => {
                            let rdv = gate.rdv_out.remove(&rdv_id).expect("live state");
                            inner.rec.phase(
                                now.0,
                                mkey(inner.rec.rank() as usize, src, rdv.tag, rdv.seq),
                                obs::Phase::FinRx,
                            );
                            let outcome = if actions.contains(&Action::CompleteSend) {
                                Outcome::Done(())
                            } else {
                                // `fin/tombstone`: the FIN came from a
                                // revoke-tombstoned receiver before our own
                                // copy of the revoke arrived — no data ever
                                // moved, so the send fails, not completes.
                                debug_assert!(actions.contains(&Action::AbortSend));
                                Outcome::Revoked
                            };
                            Self::finish_send(inner, now.0, rdv.send_req, outcome);
                        }
                        Verdict::Ignore { .. } => {}
                        Verdict::Error => {
                            Self::protocol_error(inner, "nmad.protocol_errors.fin");
                        }
                    }
                }
                WirePayload::Probe { rail, seq } => {
                    // Reply on the probed rail itself — a probe answered on
                    // a different rail would re-admit a link it never used.
                    inner
                        .ctrl_out
                        .push_back((src, WirePayload::ProbeAck { rail, seq }, Some(rail)));
                }
                WirePayload::ProbeAck { rail, seq } => {
                    // Membership probes share the wire format but live in
                    // a disjoint (high-bit) sequence space: their ack is
                    // just the inbound credit already recorded above, not
                    // a rail-health sample.
                    if seq & MEMBER_PROBE_BIT == 0 {
                        if let Some(h) = inner.health.as_mut() {
                            h.record_probe_ack(rail, seq, now);
                        }
                    }
                }
                WirePayload::Revoke { epoch } => {
                    // Epoch poison: sticky and idempotent — the first
                    // sighting quiesces the epoch and queues the verdict
                    // for the MPI layer to re-broadcast; replays are
                    // counted no-ops.
                    Self::learn_revoke(inner, now, epoch);
                }
            }
        }
        for (src, tag) in touched {
            let gate = inner.peers.get(&src);
            let next = gate
                .and_then(|g| g.flows.get(&tag))
                .map_or(0, |f| f.recv_expected);
            inner.stats.add(stat::acks_sent, 1);
            // Route the ack back the way the peer's traffic came in — never
            // into a rail the peer may have already abandoned.
            let via = gate.and_then(|g| g.last_in_rail);
            inner
                .ctrl_out
                .push_back((src, WirePayload::Ack { tag, next, credits: 0 }, via));
        }
        // Earned credit returns ride out with this batch (piggybacked on
        // the acks above when one targets the same gate).
        Self::flush_credits(inner);
        let had_completion = !inner.completions.is_empty();
        drop(guard);
        self.flush_ctrl(sched);
        if had_completion {
            self.fire_hook(sched);
        }
    }

    /// Send queued acks/FINs (control traffic bypasses the gates — it must
    /// not be rescheduled or aggregated by the machinery it repairs).
    fn flush_ctrl(self: &Arc<Self>, sched: &Scheduler) {
        loop {
            let next = self.inner.lock().ctrl_out.pop_front();
            match next {
                Some((dst, payload, via)) => self.send_direct(sched, dst, payload, via),
                None => break,
            }
        }
    }

    /// Healthiest local rail for control traffic: the lowest-latency `Up`
    /// rail, else the lowest-latency still-usable (`Suspect`) one, else
    /// rail 0 (with everything down, any choice is a guess — keep it
    /// deterministic).
    fn preferred_rail(health: Option<&RailHealthTable>, profiles: &[LinkProfile]) -> usize {
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

    fn pick_ctrl_rail(&self) -> usize {
        let inner = self.inner.lock();
        Self::preferred_rail(inner.health.as_ref(), &self.profiles)
    }

    /// Put one control/retransmission packet directly on the wire, on the
    /// pinned rail `via` (health probes, rail-pinned replies) or on the
    /// healthiest rail otherwise.
    fn send_direct(
        self: &Arc<Self>,
        sched: &Scheduler,
        dst: usize,
        payload: WirePayload,
        via: Option<usize>,
    ) {
        let rail_idx = via
            .filter(|&r| r < self.net.rails.len())
            .unwrap_or_else(|| self.pick_ctrl_rail());
        let wire = NmWire::new(self.rank, dst, payload);
        let bytes = wire.wire_bytes();
        // Express lane: acks, handshake replays and probes must not sit
        // FIFO behind a queued rendezvous payload, or every control round
        // trip inflates past the retransmission timeout and the retry
        // layer starts indicting healthy rails.
        self.net.fabric.send_express(
            sched,
            self.net.rails[rail_idx],
            self.net.node,
            self.net.rank_to_node[dst],
            bytes,
            wire,
            None,
        );
    }

    /// Retry mode: let the health table emit due recovery probes (`Down →
    /// Probing` transitions and follow-ups) and put them on their pinned
    /// rails, aimed at the closest off-node peer.
    fn sweep_probes(self: &Arc<Self>, sched: &Scheduler) {
        let Some(peer) = self.probe_peer else { return };
        let probes = {
            let mut inner = self.inner.lock();
            match inner.health.as_mut() {
                Some(h) => h.tick(sched.now()),
                None => return,
            }
        };
        for (rail, seq) in probes {
            self.send_direct(sched, peer, WirePayload::Probe { rail, seq }, Some(rail));
        }
    }

    /// Membership silence prober. Peers this rank currently *expects
    /// inbound from* (posted receives, in-flight inbound rendezvous)
    /// generate no retransmission timeouts to attribute failures from, so
    /// the supervisor probes them while they are silent — each unanswered
    /// probe interval counts as one failure toward the `Dead` verdict,
    /// and any intact arrival (including the probe ack) resets the streak
    /// via `accept_delivery`.
    fn sweep_membership(self: &Arc<Self>, sched: &Scheduler) {
        let now = sched.now();
        let mut probes_out: Vec<(usize, WirePayload, Option<usize>)> = Vec::new();
        {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if inner.membership.is_none() {
                return;
            }
            let mut expected: Vec<usize> = inner
                .matching
                .posted_gates()
                .into_iter()
                .map(|g| g.0)
                .collect();
            let receiving = inner.peers.iter().filter(|(_, g)| !g.rdv_in.is_empty());
            expected.extend(receiving.map(|(&src, _)| src));
            expected.sort_unstable();
            expected.dedup();
            let (probes, dead) = inner
                .membership
                .as_mut()
                .expect("checked above")
                .tick(now, expected);
            Self::emit_member_events(inner, now);
            let rail = Self::preferred_rail(inner.health.as_ref(), &self.profiles);
            for peer in probes {
                let seq = MEMBER_PROBE_BIT | inner.member_probe_seq;
                inner.member_probe_seq += 1;
                inner.rec.inc("nmad.membership.probes", 1);
                probes_out.push((peer, WirePayload::Probe { rail, seq }, Some(rail)));
            }
            for peer in dead {
                Self::drain_peer(inner, now, peer);
            }
            let had_completion = !inner.completions.is_empty();
            drop(guard);
            if had_completion {
                self.fire_hook(sched);
            }
        }
        for (dst, payload, via) in probes_out {
            self.send_direct(sched, dst, payload, via);
        }
    }

    /// What the protocol table prescribes for a rendezvous record in
    /// `state` whose peer just died (membership implies retry).
    fn peer_dead_actions(inner: &mut Inner, state: protocol::State) -> &'static [Action] {
        let ctx = pctx(true, false, false, false);
        match protocol::step(state, protocol::Event::PeerDead, ctx) {
            Verdict::Step { actions, .. } => actions,
            Verdict::Ignore { .. } => &[],
            Verdict::Error => {
                Self::protocol_error(inner, "nmad.protocol_errors.dead");
                &[]
            }
        }
    }

    /// The drain protocol: `peer` was declared `Dead`. Its gate leaves the
    /// container — so `peer_entry_count(peer)` is 0 by construction — and
    /// one walk of that record cancels every in-flight rendezvous through
    /// the protocol table's `Event::PeerDead` rows (table entries, not
    /// ad-hoc surgery), fails its queued sends and posted receives, and
    /// releases its eager credits. Not one surviving-pair byte is
    /// disturbed.
    fn drain_peer(inner: &mut Inner, now: SimTime, peer: usize) {
        let t_ns = now.0;
        inner.stats.add(stat::membership_dead_peers, 1);
        inner.dead_events.push_back(peer);
        let gate = inner.peers.remove(&peer);
        let entries = gate.as_ref().map_or(0, |g| g.records()) as u64;
        let gate = *gate.unwrap_or_default();
        let dead = Self::peer_dead_actions;
        // Outbound rendezvous toward the peer, in ascending id:
        // `dead/swaitcts`, `dead/sstreaming`, `dead/swaitfin` — DisarmTimer
        // (the deadline dies with the record) + AbortSend.
        for rdv in gate.rdv_out.into_values() {
            if dead(inner, rdv.state).contains(&Action::AbortSend) {
                Self::finish_send(inner, t_ns, rdv.send_req, Outcome::PeerDead);
            }
        }
        // Inbound rendezvous from the peer: `dead/rwaitdata` — AbortRecv.
        for rdv in gate.rdv_in.into_values() {
            if dead(inner, protocol::State::RWaitData).contains(&Action::AbortRecv) {
                Self::finish_recv(inner, t_ns, rdv.recv_req, Outcome::PeerDead);
            }
        }
        // Finished-rendezvous tombstones: `dead/rdone` drops them with no
        // further action (nobody is left to replay the FIN for).
        for _ in &gate.rdv_done {
            let actions = dead(inner, protocol::State::RDone);
            debug_assert!(actions.is_empty(), "tombstone drain emits no action");
        }
        // Queued-but-uncommitted wrappers toward the peer. Eager bodies
        // still own live send requests (rendezvous ones were aborted
        // above); fail them — their payload will never leave this node.
        // Unacked envelopes just go: their sends completed locally long
        // ago, and nothing retransmits into the void any more.
        for pw in gate.window {
            if let PwBody::Eager { send_req, .. } = pw.body {
                if !inner.send_reqs[send_req.0 as usize].done {
                    Self::finish_send(inner, t_ns, send_req, Outcome::PeerDead);
                }
            }
        }
        // Posted receives against the peer fail cleanly; its buffered
        // unexpected messages are dropped (no credit is owed to a corpse).
        let (orphans, dropped_bytes) = inner.matching.purge_gate(GateId(peer));
        debug_assert!(inner.unex_eager_bytes >= dropped_bytes);
        inner.unex_eager_bytes -= dropped_bytes;
        for (req, _tag) in orphans {
            if !inner.recv_reqs[req.0 as usize].done {
                Self::finish_recv(inner, t_ns, req, Outcome::PeerDead);
            }
        }
        // Release the peer's eager credits: in-flight ones it will never
        // ack, owed/withheld ones it will never collect.
        let in_flight = inner.cfg.flow.and_then(|fc| {
            let pool = inner.send_credits.remove(peer)?;
            Some(fc.eager_credits - pool)
        });
        let released = in_flight.unwrap_or(0) + gate.credit_owed + gate.credit_withheld;
        inner
            .stats
            .add(stat::membership_credits_released, released as u64);
        // Control frames queued toward the peer, and inbound frames from
        // it that arrived before the verdict: both are dead letters.
        inner.ctrl_out.retain(|&(dst, _, _)| dst != peer);
        let before = inner.inbound.len();
        inner.inbound.retain(|w| w.src_rank != peer);
        let strays = (before - inner.inbound.len()) as u64;
        inner.stats.add(stat::membership_stray_frames, strays);
        inner.stats.add(stat::membership_drained_entries, entries);
        inner.rec.engine(
            t_ns,
            obs::EngineEvent::MemberDrain {
                peer: peer as u32,
                entries: entries as u32,
            },
        );
        inner.rec.inc("nmad.membership.drained_entries", entries);
    }

    /// A stale collective frame (revoked/superseded epoch or retired
    /// agreement instance) was dropped: bump the hygiene counter.
    fn count_stale_epoch(inner: &mut Inner, n: u64) {
        inner.stats.add(stat::membership_stale_epoch, n);
        inner.rec.inc("nmad.membership.stale_epoch", n);
    }

    /// Is `tag` a collective key whose frames must be dropped — revoked or
    /// superseded epoch, or a retired agreement instance? Agreement and
    /// join keys are epoch-exempt (they run inside poisoned epochs by
    /// design) but still honour instance retirement.
    fn tag_is_stale(inner: &Inner, tag: u64) -> bool {
        if !keys::is_coll(tag) {
            return false;
        }
        if inner.retired.contains(&keys::instance_of(tag)) {
            return true;
        }
        if keys::epoch_exempt(tag) {
            return false;
        }
        let epoch = keys::epoch_of(tag);
        epoch < inner.committed_epoch || inner.revoked_epochs.contains(&(epoch as u32))
    }

    /// A revoke verdict for `epoch` reached this rank — locally initiated
    /// or learned from a peer's poison frame. Sticky: only the first
    /// sighting quiesces the epoch and is queued for the upper layer;
    /// a replayed poison frame is a counted no-op.
    fn learn_revoke(inner: &mut Inner, now: SimTime, epoch: u32) -> bool {
        if !inner.revoked_epochs.insert(epoch) {
            Self::count_stale_epoch(inner, 1);
            return false;
        }
        inner.stats.add(stat::revoked_epochs, 1);
        inner.revoked_events.push_back(epoch);
        inner.rec.engine(now.0, obs::EngineEvent::Revoke { epoch });
        inner.rec.inc("nmad.revoke", 1);
        Self::quiesce_keys(inner, now, |tag| {
            keys::is_coll(tag)
                && !keys::epoch_exempt(tag)
                && keys::epoch_of(tag) as u32 == epoch
        });
        true
    }

    /// The epoch quiesce: fail every pending operation whose tag satisfies
    /// `pred` — in-flight rendezvous through the protocol table's
    /// `Event::Revoked` rows, posted receives and buffered unexpected
    /// frames through the matching purge, queued and unacked eager sends
    /// directly. The peers stay alive; only the keys die, so unlike
    /// [`NmCore::drain_peer`] every gate stays in place with its sequence
    /// windows, credits and rail affinity — stale frames of the dead keys
    /// are counted and acked at delivery instead.
    fn quiesce_keys<F: Fn(u64) -> bool>(inner: &mut Inner, now: SimTime, pred: F) {
        let t_ns = now.0;
        let ctx = pctx(inner.cfg.retry.is_some(), false, false, false);
        // Outbound rendezvous on poisoned keys, in ascending id across
        // gates: `revoked/swaitcts`, `revoked/sstreaming`,
        // `revoked/swaitfin` — DisarmTimer + AbortSend (the deadline dies
        // with the record).
        let mut out_ids: Vec<(u64, usize)> = Vec::new();
        let mut in_ids: Vec<(usize, u64)> = Vec::new();
        for (&peer, gate) in &inner.peers {
            let doomed_out = gate.rdv_out.iter().filter(|(_, r)| pred(r.tag));
            out_ids.extend(doomed_out.map(|(&id, _)| (id, peer)));
            let doomed_in = gate.rdv_in.iter().filter(|(_, r)| pred(r.tag));
            in_ids.extend(doomed_in.map(|(&id, _)| (peer, id)));
        }
        out_ids.sort_unstable();
        for &(rdv_id, dst) in &out_ids {
            let gate = inner.peers.get_mut(&dst).expect("collected above");
            match protocol::step(gate.sender_state(rdv_id), protocol::Event::Revoked, ctx) {
                Verdict::Step { actions, .. } => {
                    let rdv = gate.rdv_out.remove(&rdv_id).expect("collected above");
                    if actions.contains(&Action::AbortSend) {
                        Self::finish_send(inner, t_ns, rdv.send_req, Outcome::Revoked);
                    }
                }
                Verdict::Ignore { .. } => {}
                Verdict::Error => Self::protocol_error(inner, "nmad.protocol_errors.revoked"),
            }
        }
        // Inbound rendezvous on poisoned keys, in `(src, id)` order:
        // `revoked/rwaitdata` — DisarmTimer + AbortRecv + Tombstone →
        // RDone. The tombstone (not plain removal) keeps a straggling DATA
        // chunk on the FIN-replay path instead of tripping the defensive
        // data-before-reentry ignore; peer death reclaims it like any
        // finished rendezvous.
        for &(src, rdv_id) in &in_ids {
            match protocol::step(protocol::State::RWaitData, protocol::Event::Revoked, ctx) {
                Verdict::Step { actions, next, .. } => {
                    let gate = inner.peers.get_mut(&src).expect("collected above");
                    let rdv = gate.rdv_in.remove(&rdv_id).expect("collected above");
                    debug_assert_eq!(next, protocol::State::RDone);
                    if actions.contains(&Action::Tombstone) {
                        gate.rdv_done.insert(rdv_id);
                    }
                    if actions.contains(&Action::AbortRecv) {
                        Self::finish_recv(inner, t_ns, rdv.recv_req, Outcome::Revoked);
                    }
                }
                Verdict::Ignore { .. } => {}
                Verdict::Error => Self::protocol_error(inner, "nmad.protocol_errors.revoked"),
            }
        }
        // Per gate: unacked eager envelopes on poisoned keys (their sends
        // completed locally long ago — stop retransmitting into a dead
        // epoch), parked early arrivals (the predecessor that would let
        // them deliver may never be retransmitted — the sender quiesced
        // too — so drop and count them now rather than leak), and
        // queued-but-uncommitted wrappers on poisoned keys plus the
        // DATA/CTS wrappers of the rendezvous cancelled above (committing
        // one of those would index a removed record).
        let mut failed_eager: Vec<SendReqId> = Vec::new();
        let mut stale_parked = 0;
        for (&peer, gate) in inner.peers.iter_mut() {
            let doomed: Vec<(u64, u64)> =
                gate.unacked.keys().filter(|k| pred(k.0)).copied().collect();
            for key in doomed {
                gate.unacked.remove(&key);
            }
            for (_, flow) in gate.flows.iter_mut().filter(|(&tag, _)| pred(tag)) {
                stale_parked += std::mem::take(&mut flow.parked).len();
            }
            let gone = gate.purge_window(|pw| match pw.body {
                // An RTS's send request already failed with its
                // rendezvous record above.
                PwBody::Eager { tag, .. } | PwBody::Rts { tag, .. } => pred(tag),
                PwBody::Cts { rdv_id } => in_ids.contains(&(peer, rdv_id)),
                PwBody::Data { rdv_id, .. } => out_ids.contains(&(rdv_id, peer)),
            });
            failed_eager.extend(gone.iter().filter_map(|pw| match pw.body {
                PwBody::Eager { send_req, .. } => Some(send_req),
                _ => None,
            }));
        }
        for req in failed_eager {
            if !inner.send_reqs[req.0 as usize].done {
                Self::finish_send(inner, t_ns, req, Outcome::Revoked);
            }
        }
        // Posted receives fail; buffered unexpected frames of the epoch
        // are counted stale and dropped (no matching state survives).
        let (orphans, dropped_unex, dropped_bytes) = inner.matching.purge_keys(&pred);
        debug_assert!(inner.unex_eager_bytes >= dropped_bytes);
        inner.unex_eager_bytes -= dropped_bytes;
        Self::count_stale_epoch(inner, (dropped_unex + stale_parked) as u64);
        for (req, _gate, _tag) in orphans {
            if !inner.recv_reqs[req.0 as usize].done {
                Self::finish_recv(inner, t_ns, req, Outcome::Revoked);
            }
        }
    }

    /// Transport-level reordering: envelopes are fed to matching strictly
    /// in per-(src, tag) sequence order; early arrivals park.
    fn deliver_envelope(
        inner: &mut Inner,
        sched: &Scheduler,
        src: usize,
        tag: u64,
        seq: u64,
        env: Envelope,
    ) {
        let gate = inner.peers.entry(src).or_default();
        let via = gate.last_in_rail;
        let flow = gate.flow(tag);
        if seq < flow.recv_expected {
            // Already delivered: a retransmission or a wire duplicate. A
            // duplicated eager envelope is plain transport bookkeeping; a
            // duplicated RTS is a protocol event — the handshake reply
            // may have been lost, and the table decides the replay:
            // `replay/fin-on-rts` (tombstone → FIN again),
            // `replay/cts-on-rts` (live → CTS again), or
            // `replay/rts-unmatched` (count only). A duplicate without a
            // retry layer to explain it is a counted protocol error.
            let retry = inner.cfg.retry.is_some();
            let Envelope::Rts { rdv_id, .. } = env else {
                if retry {
                    inner.stats.add(stat::dup_envelopes, 1);
                } else {
                    Self::protocol_error(inner, "nmad.protocol_errors.dup_envelope");
                }
                return;
            };
            let actions = match protocol::step(
                gate.receiver_state(rdv_id),
                protocol::Event::DupRts,
                pctx(retry, false, false, false),
            ) {
                Verdict::Step { actions, .. } => actions,
                Verdict::Ignore { .. } => return,
                Verdict::Error => {
                    Self::protocol_error(inner, "nmad.protocol_errors.dup_envelope");
                    return;
                }
            };
            let mk = mkey(src, inner.rec.rank() as usize, tag, seq);
            for &action in actions {
                match action {
                    Action::CountDupEnvelope => inner.stats.add(stat::dup_envelopes, 1),
                    Action::ReplayFin => {
                        inner.stats.add(stat::fins_sent, 1);
                        inner.rec.phase(sched.now().0, mk, obs::Phase::FinTx);
                        inner
                            .ctrl_out
                            .push_back((src, WirePayload::RdvFin { rdv_id }, via));
                    }
                    Action::ReplayCts => {
                        inner.stats.add(stat::cts_retries, 1);
                        inner.rec.phase(
                            sched.now().0,
                            mk,
                            obs::Phase::Retry {
                                kind: obs::RetryKind::Cts,
                            },
                        );
                        inner.rec.phase(
                            sched.now().0,
                            mk,
                            obs::Phase::CtsTx {
                                rail: via.unwrap_or(0) as u8,
                            },
                        );
                        inner
                            .ctrl_out
                            .push_back((src, WirePayload::Cts { rdv_id }, via));
                    }
                    _ => unreachable!("DupRts rows emit no other action"),
                }
            }
            return;
        }
        if seq != flow.recv_expected {
            if flow.parked.insert(seq, env).is_some() {
                inner.stats.add(stat::dup_envelopes, 1);
            }
            return;
        }
        // In order: advance the sequence first, so the cumulative ack
        // covers the envelope whatever `deliver_now` decides about it.
        flow.recv_expected = seq + 1;
        let successors_parked = !flow.parked.is_empty();
        Self::deliver_now(inner, sched, src, tag, seq, env);
        if !successors_parked {
            return;
        }
        // Drain any parked successors that are now in order.
        let mut next = seq + 1;
        while let Some(env) = inner.peers.get_mut(&src).and_then(|g| {
            let flow = g.flows.get_mut(&tag)?;
            let env = flow.parked.remove(&next)?;
            flow.recv_expected = next + 1;
            Some(env)
        }) {
            Self::deliver_now(inner, sched, src, tag, next, env);
            next += 1;
        }
    }

    fn deliver_now(
        inner: &mut Inner,
        sched: &Scheduler,
        src: usize,
        tag: u64,
        seq: u64,
        env: Envelope,
    ) {
        // Epoch hygiene: a collective frame of a revoked or superseded
        // epoch (or a retired agreement instance) is dropped here — after
        // the caller's sequence advance, so the cumulative ack covers it and
        // the sender stops retransmitting (a live peer must never be
        // indicted over a dead epoch), but before any receiver-machine
        // span or matching state records it.
        if Self::tag_is_stale(inner, tag) {
            match protocol::step(
                protocol::State::Gone,
                protocol::Event::StaleEpoch,
                pctx(inner.cfg.retry.is_some(), false, false, false),
            ) {
                Verdict::Step { actions, .. } => {
                    debug_assert!(actions.contains(&Action::CountStaleEpoch));
                    Self::count_stale_epoch(inner, 1);
                }
                Verdict::Ignore { .. } => {}
                Verdict::Error => {
                    Self::protocol_error(inner, "nmad.protocol_errors.stale_epoch")
                }
            }
            return;
        }
        let now = sched.now();
        let key = mkey(src, inner.rec.rank() as usize, tag, seq);
        match &env {
            Envelope::Eager(_) => inner.rec.phase(now.0, key, obs::Phase::EagerRx),
            Envelope::Rts { .. } => inner.rec.phase(now.0, key, obs::Phase::RtsRx),
        }
        let gate = GateId(src);
        match inner.matching.try_match_arrival(gate, tag, seq) {
            Some(req) => {
                inner.recv_reqs[req.0 as usize].seq = seq;
                inner
                    .rec
                    .phase(now.0, key, obs::Phase::Matched { unexpected: false });
                match env {
                    Envelope::Eager(data) => {
                        // Matched on arrival: the credit cycle completes without
                        // the message ever occupying the unexpected queue.
                        Self::owe_credit(inner, src, data.len());
                        Self::finish_recv(inner, now.0, req, Outcome::Done(data))
                    }
                    Envelope::Rts { rdv_id, len } => {
                        Self::start_rdv_in(inner, sched, req, src, tag, seq, rdv_id, len)
                    }
                }
            }
            None => {
                let msg = match env {
                    Envelope::Eager(data) => {
                        inner.unex_eager_bytes += data.len();
                        inner
                            .stats
                            .raise(stat::fc_peak_unex_bytes, inner.unex_eager_bytes as u64);
                        Unexpected::Eager { seq, data }
                    }
                    Envelope::Rts { rdv_id, len } => Unexpected::Rts { seq, rdv_id, len },
                };
                inner.matching.store_unexpected(gate, tag, msg);
            }
        }
    }

    /// A buffered unexpected eager message was consumed by a receive:
    /// shrink the byte account and owe the sender its credit back.
    fn consume_unexpected_eager(inner: &mut Inner, src: usize, len: usize) {
        debug_assert!(inner.unex_eager_bytes >= len, "unexpected-byte underflow");
        inner.unex_eager_bytes -= len;
        Self::owe_credit(inner, src, len);
    }

    /// Flow control: one eager message from `src` was consumed; queue the
    /// credit for return on the next ctrl flush. Zero-length messages never
    /// consumed a credit (see `isend`), so none is owed.
    fn owe_credit(inner: &mut Inner, src: usize, len: usize) {
        if inner.cfg.flow.is_some() && len > 0 {
            inner.peers.entry(src).or_default().credit_owed += 1;
        }
    }

    /// Flow control: move owed credits onto the ctrl queue, honouring the
    /// high/low-water hysteresis — while the unexpected queue sits above
    /// `high_water` the returns are withheld (the senders drain their
    /// pools and fall back to rendezvous), and they are released in a
    /// batch once consumption pulls the queue below `low_water`. Returns
    /// piggyback on an ack already queued for the same gate when one is
    /// there (retry mode), else ride a standalone `Credit` frame — either
    /// way on the express channel, never behind bulk frames.
    fn flush_credits(inner: &mut Inner) {
        let Some(fc) = inner.cfg.flow else { return };
        if inner.fc_throttled {
            if inner.unex_eager_bytes <= fc.low_water {
                inner.fc_throttled = false;
            }
        } else if inner.unex_eager_bytes > fc.high_water {
            inner.fc_throttled = true;
        }
        for (&src, gate) in inner.peers.iter_mut() {
            let owed = std::mem::take(&mut gate.credit_owed);
            if inner.fc_throttled {
                // Defer every owed credit; each is counted once, as it
                // moves into the withheld pool.
                inner.stats.add(stat::fc_credits_withheld, owed as u64);
                gate.credit_withheld += owed;
                continue;
            }
            let n = owed + std::mem::take(&mut gate.credit_withheld);
            if n == 0 {
                continue;
            }
            inner.stats.add(stat::fc_credits_returned, n as u64);
            let piggyback = inner.ctrl_out.iter_mut().find_map(|(dst, p, _)| {
                match p {
                    WirePayload::Ack { credits, .. } if *dst == src => Some(credits),
                    _ => None,
                }
            });
            match piggyback {
                Some(credits) => *credits += n,
                None => inner.ctrl_out.push_back((
                    src,
                    WirePayload::Credit { credits: n },
                    gate.last_in_rail,
                )),
            }
        }
    }

    /// The protocol table classified a frame as malformed or stale
    /// ([`Verdict::Error`]): count it — overall and per frame class — and
    /// drop it. The one thing this must never do is panic.
    fn protocol_error(inner: &mut Inner, counter: &'static str) {
        inner.stats.add(stat::protocol_errors, 1);
        inner.rec.inc("nmad.protocol_errors", 1);
        inner.rec.inc(counter, 1);
    }

    /// Surface the completion of a send request. The no-cancel rule
    /// (§2.2.1) is honoured on every path: a request whose peer died or
    /// whose epoch was revoked does complete — the error is the result.
    fn finish_send(inner: &mut Inner, t_ns: u64, req: SendReqId, outcome: Outcome<()>) {
        let r = &mut inner.send_reqs[req.0 as usize];
        debug_assert!(!r.done, "double completion of send request");
        r.done = true;
        let (peer, side) = (r.dst, obs::Side::Send);
        let (counter, phase, metric, kind) = match outcome {
            Outcome::Done(()) => (
                stat::send_completions,
                obs::Phase::Completed { side },
                "nmad.send_completions",
                CompletionKind::Send,
            ),
            Outcome::PeerDead => (
                stat::membership_aborted_sends,
                obs::Phase::Aborted { side },
                "nmad.membership.aborted_sends",
                CompletionKind::SendFailed { peer },
            ),
            Outcome::Revoked => (
                stat::revoked_ops,
                obs::Phase::Revoked { side },
                "nmad.revoked_sends",
                CompletionKind::SendRevoked {
                    peer,
                    epoch: keys::epoch_of(r.tag),
                },
            ),
        };
        inner.stats.add(counter, 1);
        let key = mkey(inner.rec.rank() as usize, r.dst, r.tag, r.seq);
        inner.rec.phase(t_ns, key, phase);
        inner.rec.inc(metric, 1);
        inner.completions.push_back(NmCompletion {
            cookie: r.cookie,
            kind,
        });
    }

    /// Receive-side twin of [`Self::finish_send`].
    fn finish_recv(inner: &mut Inner, t_ns: u64, req: RecvReqId, outcome: Outcome<NmBuf>) {
        let r = &mut inner.recv_reqs[req.0 as usize];
        debug_assert!(!r.done, "double completion of recv request");
        r.done = true;
        let (gate, tag, side) = (GateId(r.src), r.tag, obs::Side::Recv);
        let (counter, phase, metric, kind) = match outcome {
            Outcome::Done(data) => (
                stat::recv_completions,
                obs::Phase::Completed { side },
                "nmad.recv_completions",
                // Lineage ends at the user-facing completion: surrender the
                // underlying Bytes view (zero-copy, storage still aliased).
                CompletionKind::Recv {
                    data: data.into_bytes(),
                    gate,
                    tag,
                },
            ),
            Outcome::PeerDead => (
                stat::membership_aborted_recvs,
                obs::Phase::Aborted { side },
                "nmad.membership.aborted_recvs",
                CompletionKind::RecvFailed { gate, tag },
            ),
            Outcome::Revoked => (
                stat::revoked_ops,
                obs::Phase::Revoked { side },
                "nmad.revoked_recvs",
                CompletionKind::RecvRevoked {
                    gate,
                    tag,
                    epoch: keys::epoch_of(tag),
                },
            ),
        };
        inner.stats.add(counter, 1);
        let key = mkey(r.src, inner.rec.rank() as usize, r.tag, r.seq);
        inner.rec.phase(t_ns, key, phase);
        inner.rec.inc(metric, 1);
        inner.completions.push_back(NmCompletion {
            cookie: r.cookie,
            kind,
        });
    }

    /// Turn membership transition edges into obs spans and mirror the
    /// transition counter into the stats snapshot.
    fn emit_member_events(inner: &mut Inner, now: SimTime) {
        let Some(m) = inner.membership.as_mut() else {
            return;
        };
        let events = m.take_transition_events();
        // The transition total is a gauge recomputed in `stats()` from the
        // membership table itself; no mirror copy to keep in sync here.
        for (peer, state) in events {
            let code = match state {
                PeerLiveness::Up => 0,
                PeerLiveness::Suspect => 1,
                PeerLiveness::Dead => 2,
            };
            inner.rec.engine(
                now.0,
                obs::EngineEvent::MemberState {
                    peer: peer as u32,
                    state: code,
                },
            );
            inner.rec.inc("nmad.membership.transitions", 1);
        }
    }

    /// The receiver matched an RTS: allocate the landing buffer and queue a
    /// CTS control packet back to the sender.
    #[allow(clippy::too_many_arguments)]
    fn start_rdv_in(
        inner: &mut Inner,
        sched: &Scheduler,
        req: RecvReqId,
        src: usize,
        tag: u64,
        seq: u64,
        rdv_id: u64,
        len: usize,
    ) {
        // `entry/rts-matched`: allocate the landing buffer, answer with
        // the CTS, arm the progress timer (`ArmRecvTimer` is a no-op
        // without retry).
        let verdict = protocol::step(
            protocol::State::Gone,
            protocol::Event::RtsMatched,
            pctx(inner.cfg.retry.is_some(), false, false, false),
        );
        let Verdict::Step { actions, .. } = verdict else {
            unreachable!("rts-matched entry must be a table row");
        };
        debug_assert!(actions.contains(&Action::AllocLanding));
        debug_assert!(actions.contains(&Action::SendCts));
        let timeout = inner
            .cfg
            .retry
            .map(|rc| rc.timeout)
            .unwrap_or(SimDuration::ZERO);
        let deadline = inner.cfg.retry.map(|rc| sched.now() + rc.timeout);
        // The rendezvous landing buffer is a fresh payload allocation; the
        // chunk memcpys into it are charged as each DATA lands.
        inner.meter.record_alloc();
        let gate = inner.peers.entry(src).or_default();
        let prev = gate.rdv_in.insert(
            rdv_id,
            Box::new(RdvIn {
                recv_req: req,
                tag,
                seq,
                buf: vec![0u8; len],
                received: 0,
                ranges: Vec::new(),
                deadline,
                timeout,
                attempts: 0,
            }),
        );
        debug_assert!(prev.is_none(), "duplicate rendezvous id from rank {src}");
        gate.window.push_back(PacketWrapper {
            id: PwId(inner.next_pw),
            dst: src,
            body: PwBody::Cts { rdv_id },
            data: NmBuf::default(),
            enqueued_at: sched.now(),
        });
        inner.next_pw += 1;
    }

    /// The sender got clear-to-send from `src`. Table lookup against
    /// `src`'s own gate: `cts/pipelined` queues the payload as splittable
    /// DATA; a duplicated or straggling CTS in retry mode is a declared
    /// ignore; a CTS the table cannot place (a rendezvous unknown *to that
    /// peer's gate*, without retry) is a counted protocol error — never a
    /// panic, and never a payload streamed to a rank that did not ask.
    fn handle_cts(inner: &mut Inner, sched: &Scheduler, src: usize, rdv_id: u64) {
        let retry = inner.cfg.retry.is_some();
        let gate = inner.peers.entry(src).or_default();
        let verdict = protocol::step(
            gate.sender_state(rdv_id),
            protocol::Event::CtsRx,
            pctx(retry, false, false, false),
        );
        let (actions, next) = match verdict {
            Verdict::Step { actions, next, .. } => (actions, next),
            Verdict::Ignore { .. } => return,
            Verdict::Error => {
                Self::protocol_error(inner, "nmad.protocol_errors.cts");
                return;
            }
        };
        let rdv = gate.rdv_out.get_mut(&rdv_id).expect("live state");
        rdv.state = next;
        inner.rec.phase(
            sched.now().0,
            mkey(inner.rec.rank() as usize, src, rdv.tag, rdv.seq),
            obs::Phase::CtsRx,
        );
        for &action in actions {
            match action {
                Action::DisarmTimer => {
                    // The RTS timer re-arms as a FIN timer once every DATA
                    // chunk has left the local NIC (`sent/await-fin`).
                    rdv.deadline = None;
                }
                Action::QueueData => {
                    gate.window.push_back(PacketWrapper {
                        id: PwId(inner.next_pw),
                        dst: src,
                        body: PwBody::Data { rdv_id, offset: 0 },
                        // Zero-copy: the DATA wrapper shares the sender's
                        // payload storage.
                        data: rdv.data.share(),
                        enqueued_at: sched.now(),
                    });
                    inner.next_pw += 1;
                }
                _ => unreachable!("cts/pipelined emits no other action"),
            }
        }
    }

    /// A DATA chunk landed. Table lookup against the derived receiver
    /// state (live entry = `RWaitData`, tombstone = `RDone`, neither =
    /// `Gone`): `data/chunk` copies and bumps the progress timer,
    /// `data/last*` completes the receive (and in retry mode sends the
    /// FIN and tombstones), `replay/fin-on-data` answers a replayed
    /// payload at a tombstone with the FIN again. Chunks outside the
    /// announced payload range — or for an unknown rendezvous without
    /// retry — are counted protocol errors, never a panic or a wild
    /// slice.
    fn handle_data(
        inner: &mut Inner,
        now: SimTime,
        src: usize,
        rdv_id: u64,
        offset: usize,
        data: NmBuf,
    ) {
        let retry = inner.cfg.retry.is_some();
        let gate = inner.peers.entry(src).or_default();
        let state = gate.receiver_state(rdv_id);
        // Answer the `InRange` / `Last` guards before anything mutates:
        // the chunk must lie inside the landing buffer, and `last` means
        // it completes the payload (under retry, counting only bytes not
        // already covered by a replay).
        let (in_range, last) = match gate.rdv_in.get(&rdv_id) {
            Some(rdv) => {
                let end = offset.checked_add(data.len());
                let in_range = end.is_some_and(|e| e <= rdv.buf.len());
                let last = in_range && {
                    let end = end.unwrap();
                    let fresh = if retry {
                        fresh_len(&rdv.ranges, offset, end)
                    } else {
                        data.len()
                    };
                    rdv.received + fresh == rdv.buf.len()
                };
                (in_range, last)
            }
            None => (true, false),
        };
        let actions = match protocol::step(
            state,
            protocol::Event::DataRx,
            pctx(retry, in_range, last, false),
        ) {
            Verdict::Step { actions, .. } => actions,
            // `ignore/data-before-reentry` (defensive): drop the chunk;
            // the sender's FIN timer replays it.
            Verdict::Ignore { .. } => return,
            Verdict::Error => {
                Self::protocol_error(inner, "nmad.protocol_errors.data");
                return;
            }
        };
        let my_rank = inner.rec.rank() as usize;
        let via = gate.last_in_rail;
        let mut done = false;
        for &action in actions {
            match action {
                Action::CopyChunk => {
                    let rdv = gate.rdv_in.get_mut(&rdv_id).expect("live state");
                    inner.rec.phase(
                        now.0,
                        mkey(src, my_rank, rdv.tag, rdv.seq),
                        obs::Phase::DataChunkRx {
                            offset: offset as u64,
                            len: data.len() as u64,
                        },
                    );
                    inner.rec.observe("nmad.chunk.bytes", data.len() as u64);
                    // The one unavoidable receive-side memcpy of the
                    // rendezvous path: gather the chunk into the
                    // contiguous landing buffer.
                    data.copy_out(&mut rdv.buf[offset..offset + data.len()]);
                    let dup_bytes = if retry {
                        let fresh = insert_range(&mut rdv.ranges, offset, offset + data.len());
                        rdv.received += fresh;
                        (data.len() - fresh) as u64
                    } else {
                        rdv.received += data.len();
                        0
                    };
                    debug_assert!(rdv.received <= rdv.buf.len());
                    if dup_bytes > 0 {
                        inner.stats.add(stat::dup_data, 1);
                    }
                }
                Action::BumpRecvTimer => {
                    // Progress arrived: push the CTS retransmission timer
                    // out (a no-op without retry, where no timer is armed).
                    let rdv = gate.rdv_in.get_mut(&rdv_id).expect("live state");
                    let timeout = rdv.timeout;
                    if let Some(dl) = rdv.deadline.as_mut() {
                        *dl = now + timeout;
                    }
                }
                Action::Tombstone => {
                    gate.rdv_done.insert(rdv_id);
                }
                Action::SendFin => {
                    let rdv = &gate.rdv_in[&rdv_id];
                    inner.stats.add(stat::fins_sent, 1);
                    inner.rec.phase(
                        now.0,
                        mkey(src, my_rank, rdv.tag, rdv.seq),
                        obs::Phase::FinTx,
                    );
                    inner
                        .ctrl_out
                        .push_back((src, WirePayload::RdvFin { rdv_id }, via));
                }
                Action::CompleteRecv => {
                    done = true;
                }
                Action::CountDupData => {
                    // Replayed payload at a tombstone: the sender's FIN
                    // was lost.
                    inner.stats.add(stat::dup_data, 1);
                }
                Action::ReplayFin => {
                    inner.stats.add(stat::fins_sent, 1);
                    inner
                        .ctrl_out
                        .push_back((src, WirePayload::RdvFin { rdv_id }, via));
                }
                _ => unreachable!("DataRx rows emit no other action"),
            }
        }
        if done {
            let rdv = gate.rdv_in.remove(&rdv_id).expect("live state");
            debug_assert_eq!(rdv.received, rdv.buf.len());
            // Freeze the landing buffer without a copy (the allocation was
            // charged in start_rdv_in, the fills as each chunk landed).
            let buf = NmBuf::adopt(Bytes::from(rdv.buf), BufOrigin::Nmad, &inner.meter);
            Self::finish_recv(inner, now.0, rdv.recv_req, Outcome::Done(buf));
        }
    }

    // ------------------------------------------------------------------
    // Retransmission (retry mode)
    // ------------------------------------------------------------------

    /// Walk every armed retransmission timer and replay what timed out:
    /// unacked eager envelopes, RTS without a CTS, CTS without DATA
    /// progress, and finished DATA transfers without a FIN. Timeouts back
    /// off exponentially up to `max_timeout`; `max_attempts` consecutive
    /// replays without progress declare the link dead. No-op unless
    /// `NmConfig.retry` is set.
    fn sweep_retries(self: &Arc<Self>, sched: &Scheduler) {
        let now = sched.now();
        let mut resend: Vec<(usize, WirePayload, Option<usize>)> = Vec::new();
        {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            let Some(rc) = inner.cfg.retry else { return };
            // With membership armed, exhausting `max_attempts` is no
            // longer a panic: every timeout is attributed to its peer and
            // the supervisor decides between Suspect, Dead and patience.
            let armed = inner.membership.is_some();
            // `(peer, armed_at)` per fired timeout: the supervisor only
            // charges the peer if it stayed inbound-silent for the whole
            // armed window (see `MembershipTable::record_timeout`).
            let mut failed_peers: Vec<(usize, SimTime)> = Vec::new();
            let arm_time = |deadline: SimTime, timeout: SimDuration| {
                SimTime::from_nanos(deadline.as_nanos().saturating_sub(timeout.as_nanos()))
            };
            let bump = move |timeout: &mut SimDuration, attempts: &mut u32, what: &str| {
                *attempts += 1;
                assert!(
                    armed || *attempts <= rc.max_attempts,
                    "{what}: {} retransmissions without progress — link presumed dead",
                    rc.max_attempts
                );
                let t = timeout
                    .as_nanos()
                    .saturating_mul(rc.backoff as u64)
                    .min(rc.max_timeout.as_nanos());
                *timeout = SimDuration::nanos(t);
            };
            // Eager replays go out in `(dst, tag, seq)` order — the order
            // the two nested BTreeMaps iterate in — and every resend below
            // keeps a fixed order too: it feeds the fault RNG stream.
            for (&dst, gate) in inner.peers.iter_mut() {
                for (&(tag, seq), rx) in gate.unacked.iter_mut() {
                    if now < rx.deadline {
                        continue;
                    }
                    let armed_at = arm_time(rx.deadline, rx.timeout);
                    bump(&mut rx.timeout, &mut rx.attempts, "eager envelope");
                    if armed {
                        failed_peers.push((dst, armed_at));
                    }
                    rx.deadline = now + rx.timeout;
                    inner.stats.add(stat::eager_retries, 1);
                    let key = mkey(self.rank, dst, tag, seq);
                    inner.rec.phase(
                        now.0,
                        key,
                        obs::Phase::Retry {
                            kind: obs::RetryKind::Eager,
                        },
                    );
                    // The timeout indicts the rail the envelope went out on;
                    // the replay moves to the current healthiest rail.
                    if let Some(h) = inner.health.as_mut() {
                        h.record_failure(rx.rail, now);
                    }
                    let new_rail = Self::preferred_rail(inner.health.as_ref(), &self.profiles);
                    if new_rail != rx.rail {
                        let moved = payload_data_len(&rx.payload) as u64;
                        inner.stats.add(stat::rerouted_bytes, moved);
                        inner.rec.phase(
                            now.0,
                            key,
                            obs::Phase::Reroute {
                                to_rail: new_rail as u8,
                                bytes: moved,
                            },
                        );
                        rx.rail = new_rail;
                    }
                    // Retransmissions bypass the strategy queue, so the
                    // wire event is recorded here, not in build_outgoing.
                    inner
                        .rec
                        .phase(now.0, key, obs::Phase::EagerTx { rail: rx.rail as u8 });
                    // share(): the replayed envelope reuses the queued
                    // payload storage — retransmission never copies bytes.
                    resend.push((dst, rx.payload.share(), Some(rx.rail)));
                }
            }
            // Outbound rendezvous replay in ascending id *across* gates.
            let mut out_ids: Vec<(u64, usize)> = Vec::new();
            let due = |deadline: Option<SimTime>| deadline.is_some_and(|dl| now >= dl);
            for (&dst, gate) in &inner.peers {
                let fired = gate.rdv_out.iter().filter(|(_, r)| due(r.deadline));
                out_ids.extend(fired.map(|(&id, _)| (id, dst)));
            }
            out_ids.sort_unstable();
            for (rdv_id, dst) in out_ids {
                let rdv = inner
                    .peers
                    .get_mut(&dst)
                    .and_then(|g| g.rdv_out.get_mut(&rdv_id))
                    .expect("collected above");
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
                    rdv.deadline = None;
                    Self::protocol_error(inner, "nmad.protocol_errors.timer");
                    continue;
                };
                // `Backoff`: bump the attempt count and re-arm with the
                // backed-off timeout.
                debug_assert!(actions.contains(&Action::Backoff));
                let armed_at = arm_time(rdv.deadline.expect("fired timer"), rdv.timeout);
                bump(&mut rdv.timeout, &mut rdv.attempts, "rendezvous (sender)");
                rdv.deadline = Some(now + rdv.timeout);
                let mask = rdv.last_rails;
                if armed {
                    failed_peers.push((dst, armed_at));
                }
                // Every rail the outstanding packets used shares the blame
                // (a multi-rail split can't name the guilty one — that's
                // why demotion needs `suspect_after` repeats).
                if let Some(h) = inner.health.as_mut() {
                    for rail in 0..h.num_rails() {
                        if mask & (1 << rail) != 0 {
                            h.record_failure(rail, now);
                        }
                    }
                }
                let new_rail = Self::preferred_rail(inner.health.as_ref(), &self.profiles);
                // A replay reroutes whenever it abandons any rail of the
                // attempt mask — a split that covered {0,1} and replays on
                // {0} moved the dead rail's share even though rail 0 was
                // already in the mask.
                let rerouted = mask != 0 && mask != 1 << new_rail;
                rdv.last_rails = 1 << new_rail;
                let key = mkey(self.rank, dst, rdv.tag, rdv.seq);
                if actions.contains(&Action::ReplayRts) {
                    inner.stats.add(stat::rts_retries, 1);
                    inner.rec.phase(
                        now.0,
                        key,
                        obs::Phase::Retry {
                            kind: obs::RetryKind::Rts,
                        },
                    );
                    if rerouted {
                        inner.rec.phase(
                            now.0,
                            key,
                            obs::Phase::Reroute {
                                to_rail: new_rail as u8,
                                bytes: 0,
                            },
                        );
                    }
                    // Replayed wire event (bypasses build_outgoing).
                    inner.rec.phase(
                        now.0,
                        key,
                        obs::Phase::RtsTx {
                            rail: new_rail as u8,
                            len: rdv.data.len() as u64,
                        },
                    );
                    resend.push((
                        dst,
                        WirePayload::Rts {
                            tag: rdv.tag,
                            seq: rdv.seq,
                            rdv_id,
                            len: rdv.data.len(),
                        },
                        Some(new_rail),
                    ));
                } else {
                    // `timer/data` — FIN wait: the receiver never
                    // confirmed. Replay the whole payload — range tracking
                    // dedups whatever did arrive, and a tombstoned
                    // receiver replays the FIN.
                    debug_assert!(actions.contains(&Action::ReplayData));
                    inner.stats.add(stat::data_retries, 1);
                    inner.rec.phase(
                        now.0,
                        key,
                        obs::Phase::Retry {
                            kind: obs::RetryKind::Data,
                        },
                    );
                    if rerouted {
                        inner.stats.add(stat::rerouted_bytes, rdv.data.len() as u64);
                        inner.rec.phase(
                            now.0,
                            key,
                            obs::Phase::Reroute {
                                to_rail: new_rail as u8,
                                bytes: rdv.data.len() as u64,
                            },
                        );
                    }
                    // Replayed wire event (bypasses build_outgoing).
                    inner.rec.phase(
                        now.0,
                        key,
                        obs::Phase::DataChunkTx {
                            rail: new_rail as u8,
                            offset: 0,
                            len: rdv.data.len() as u64,
                        },
                    );
                    resend.push((
                        dst,
                        WirePayload::Data {
                            rdv_id,
                            offset: 0,
                            // Zero-copy replay of the held payload.
                            data: rdv.data.share(),
                        },
                        Some(new_rail),
                    ));
                }
            }
            // Inbound rendezvous replay in `(src, id)` order. A live
            // inbound record is `RWaitData` by construction; `timer/cts`
            // backs off and replays the CTS.
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
            for (&src, gate) in inner.peers.iter_mut() {
                // Receiver-side timeout: could be the lost CTS or the
                // sender going quiet — no rail to indict. Route the replay
                // along the sender's last inbound rail.
                let via = gate.last_in_rail;
                for (&rdv_id, rdv) in gate.rdv_in.iter_mut().filter(|(_, r)| due(r.deadline)) {
                    let armed_at = arm_time(rdv.deadline.expect("fired timer"), rdv.timeout);
                    bump(&mut rdv.timeout, &mut rdv.attempts, "rendezvous (receiver)");
                    if armed {
                        failed_peers.push((src, armed_at));
                    }
                    rdv.deadline = Some(now + rdv.timeout);
                    inner.stats.add(stat::cts_retries, 1);
                    let mk = mkey(src, self.rank, rdv.tag, rdv.seq);
                    inner.rec.phase(
                        now.0,
                        mk,
                        obs::Phase::Retry {
                            kind: obs::RetryKind::Cts,
                        },
                    );
                    // Replayed wire event (bypasses build_outgoing).
                    inner.rec.phase(
                        now.0,
                        mk,
                        obs::Phase::CtsTx {
                            rail: via.unwrap_or(0) as u8,
                        },
                    );
                    resend.push((src, WirePayload::Cts { rdv_id }, via));
                }
            }
            // Promote this sweep's timeouts into per-peer liveness
            // verdicts; a fresh `Dead` runs the drain before the lock
            // drops, and replays toward a drained peer are dead letters.
            if !failed_peers.is_empty() {
                let mut newly_dead: Vec<usize> = Vec::new();
                if let Some(m) = inner.membership.as_mut() {
                    for (peer, armed_at) in failed_peers {
                        if m.record_timeout(peer, armed_at, now) {
                            newly_dead.push(peer);
                        }
                    }
                }
                Self::emit_member_events(inner, now);
                for peer in newly_dead {
                    Self::drain_peer(inner, now, peer);
                }
                if let Some(m) = inner.membership.as_ref() {
                    resend.retain(|&(dst, _, _)| !m.is_dead(dst));
                }
            }
        }
        for (dst, payload, via) in resend {
            self.send_direct(sched, dst, payload, via);
        }
    }

    // ------------------------------------------------------------------
    // Outbound path
    // ------------------------------------------------------------------

    /// Run the strategy over every gate and put the resulting packets on
    /// the wire.
    fn try_commit(self: &Arc<Self>, sched: &Scheduler) {
        let now = sched.now();
        let mut outgoing: Vec<Outgoing> = Vec::new();
        {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            // Twice per progress cycle, and an idle cycle is the common
            // one: look before building the rail snapshot.
            if inner.peers.values().all(|gate| gate.window.is_empty()) {
                return;
            }
            let mut rails: Vec<RailState> = self
                .net
                .rails
                .iter()
                .enumerate()
                .zip(&self.profiles)
                .map(|((i, &rid), &profile)| RailState {
                    idle: !self.net.fabric.rail_busy(rid, self.net.node, now),
                    profile,
                    health: inner
                        .health
                        .as_ref()
                        .map(|h| h.state(i))
                        .unwrap_or(RailHealth::Up),
                    weight: inner
                        .health
                        .as_ref()
                        .map(|h| h.weight(i, now))
                        .unwrap_or(1.0),
                })
                .collect();
            for (&dst, gate) in inner.peers.iter_mut() {
                if gate.window.is_empty() {
                    continue;
                }
                let subs = inner
                    .strategy
                    .try_and_commit(&inner.cfg, &mut gate.window, &mut rails);
                for sub in subs {
                    outgoing.push(Self::build_outgoing(
                        self.rank,
                        &self.net,
                        &inner.stats,
                        gate,
                        &inner.rec,
                        inner.cfg.retry,
                        now,
                        dst,
                        sub,
                    ));
                }
            }
        }
        for out in outgoing {
            let core = Arc::clone(self);
            let eager_reqs = out.eager_reqs;
            let data_chunk_rdv = out.data_chunk_rdv;
            let on_sent: Box<dyn FnOnce(&Scheduler) + Send> = Box::new(move |s| {
                core.handle_sent(s, &eager_reqs, data_chunk_rdv);
            });
            // NewMadeleine "does not use any caching mechanism for large
            // messages and registers dynamically and on-the-fly the needed
            // memory" (§4.1.1): rendezvous data pays the registration cost
            // before the NIC sees the buffer.
            let reg = if data_chunk_rdv.is_some() {
                let r = self
                    .net
                    .fabric
                    .model(out.rail)
                    .registration_cost(out.bytes, false);
                // Injected registration-cache miss: pay a second
                // (re-)registration round before the NIC sees the buffer.
                if self.net.fabric.reg_cache_miss(out.rail) {
                    r + r
                } else {
                    r
                }
            } else {
                simnet::SimDuration::ZERO
            };
            if reg > simnet::SimDuration::ZERO {
                let fabric = Arc::clone(&self.net.fabric);
                let (rail, src, dst, bytes, wire) =
                    (out.rail, self.net.node, out.dst_node, out.bytes, out.wire);
                sched.schedule_in(reg, move |s| {
                    fabric.send(s, rail, src, dst, bytes, wire, Some(on_sent));
                });
            } else {
                self.net.fabric.send(
                    sched,
                    out.rail,
                    self.net.node,
                    out.dst_node,
                    out.bytes,
                    out.wire,
                    Some(on_sent),
                );
            }
        }
    }

    /// Turn one strategy submission into a wire packet + bookkeeping.
    #[allow(clippy::too_many_arguments)]
    fn build_outgoing(
        my_rank: usize,
        net: &NmNet,
        stats: &StatsCells,
        gate: &mut Gate,
        rec: &obs::RankRec,
        retry: Option<RetryConfig>,
        now: SimTime,
        dst: usize,
        sub: Submission,
    ) -> Outgoing {
        let rail_idx = sub.rail;
        let rail = net.rails[rail_idx];
        let dst_node = net.rank_to_node[dst];
        stats.add(stat::packets_sent, 1);
        let mut eager_reqs = Vec::new();
        let mut data_chunk_rdv = None;
        // Retry mode: an eager envelope going on the wire starts its ack
        // timer and keeps a copy for retransmission.
        let unacked = &mut gate.unacked;
        let mut track_eager = |tag: u64, seq: u64, data: &NmBuf| {
            if let Some(rc) = retry {
                unacked.insert(
                    (tag, seq),
                    EnvRetx {
                        payload: WirePayload::Eager {
                            tag,
                            seq,
                            // The retransmit queue holds a share of the
                            // wire payload, not a copy.
                            data: data.share(),
                        },
                        deadline: now + rc.timeout,
                        timeout: rc.timeout,
                        attempts: 0,
                        rail: rail_idx,
                    },
                );
            }
        };
        let payload = if sub.pws.len() > 1 {
            stats.add(stat::aggregates_sent, 1);
            stats.add(stat::frags_aggregated, sub.pws.len() as u64);
            let frags = sub
                .pws
                .into_iter()
                .map(|pw| match pw.body {
                    PwBody::Eager {
                        tag,
                        seq,
                        send_req,
                    } => {
                        eager_reqs.push(send_req);
                        track_eager(tag, seq, &pw.data);
                        rec.phase(
                            now.0,
                            mkey(my_rank, dst, tag, seq),
                            obs::Phase::EagerTx {
                                rail: rail_idx as u8,
                            },
                        );
                        EagerFrag {
                            tag,
                            seq,
                            data: pw.data,
                        }
                    }
                    other => panic!("non-eager body {other:?} in aggregate"),
                })
                .collect();
            WirePayload::Aggregate(frags)
        } else {
            let pw = sub.pws.into_iter().next().expect("empty submission");
            match pw.body {
                PwBody::Eager {
                    tag,
                    seq,
                    send_req,
                } => {
                    eager_reqs.push(send_req);
                    track_eager(tag, seq, &pw.data);
                    rec.phase(
                        now.0,
                        mkey(my_rank, dst, tag, seq),
                        obs::Phase::EagerTx {
                            rail: rail_idx as u8,
                        },
                    );
                    WirePayload::Eager {
                        tag,
                        seq,
                        data: pw.data,
                    }
                }
                PwBody::Rts {
                    tag,
                    seq,
                    rdv_id,
                    len,
                } => {
                    // Retry mode: arm the RTS→CTS timer now that the RTS is
                    // actually leaving the node.
                    if let Some(rc) = retry {
                        let rdv = gate
                            .rdv_out
                            .get_mut(&rdv_id)
                            .expect("RTS for unknown rendezvous");
                        rdv.deadline = Some(now + rc.timeout);
                        rdv.timeout = rc.timeout;
                        rdv.last_rails = 1 << rail_idx;
                    }
                    rec.phase(
                        now.0,
                        mkey(my_rank, dst, tag, seq),
                        obs::Phase::RtsTx {
                            rail: rail_idx as u8,
                            len: len as u64,
                        },
                    );
                    WirePayload::Rts {
                        tag,
                        seq,
                        rdv_id,
                        len,
                    }
                }
                PwBody::Cts { rdv_id } => {
                    // The CTS answers `dst`'s rendezvous: the span key is
                    // the *sender's* message identity, looked up in the
                    // inbound rendezvous table.
                    if let Some(rdv) = gate.rdv_in.get(&rdv_id) {
                        rec.phase(
                            now.0,
                            mkey(dst, my_rank, rdv.tag, rdv.seq),
                            obs::Phase::CtsTx {
                                rail: rail_idx as u8,
                            },
                        );
                    }
                    WirePayload::Cts { rdv_id }
                }
                PwBody::Data { rdv_id, offset } => {
                    stats.add(stat::data_chunks_sent, 1);
                    let rdv = gate
                        .rdv_out
                        .get_mut(&rdv_id)
                        .expect("DATA chunk for unknown rendezvous");
                    rdv.bytes_remaining = rdv
                        .bytes_remaining
                        .checked_sub(pw.data.len())
                        .expect("chunk exceeds remaining bytes");
                    rdv.chunks_in_flight += 1;
                    rdv.last_rails |= 1 << rail_idx;
                    data_chunk_rdv = Some((dst, rdv_id));
                    rec.phase(
                        now.0,
                        mkey(my_rank, dst, rdv.tag, rdv.seq),
                        obs::Phase::DataChunkTx {
                            rail: rail_idx as u8,
                            offset: offset as u64,
                            len: pw.data.len() as u64,
                        },
                    );
                    WirePayload::Data {
                        rdv_id,
                        offset,
                        data: pw.data,
                    }
                }
            }
        };
        let wire = NmWire::new(my_rank, dst, payload);
        let bytes = wire.wire_bytes();
        rec.inc("nmad.packets", 1);
        rec.observe("nmad.wire.bytes", bytes as u64);
        Outgoing {
            rail,
            dst_node,
            wire,
            bytes,
            eager_reqs,
            data_chunk_rdv,
        }
    }

    /// NIC send-completion: finish eager sends, account rendezvous chunks,
    /// and keep the pipeline moving.
    fn handle_sent(
        self: &Arc<Self>,
        sched: &Scheduler,
        eager_reqs: &[SendReqId],
        data_chunk_rdv: Option<(usize, u64)>,
    ) {
        let mut fired = !eager_reqs.is_empty();
        {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            for &req in eager_reqs {
                Self::finish_send(inner, sched.now().0, req, Outcome::Done(()));
            }
            if let Some((dst, rdv_id)) = data_chunk_rdv {
                fired |= Self::chunk_sent(inner, sched.now(), dst, rdv_id);
            }
        }
        // Continue the committed pipeline (e.g. remaining window packets).
        self.try_commit(sched);
        if fired {
            self.fire_hook(sched);
        }
    }

    /// One DATA chunk of rendezvous `rdv_id` toward `dst` cleared the
    /// local NIC. Returns whether that completed the send.
    fn chunk_sent(inner: &mut Inner, now: SimTime, dst: usize, rdv_id: u64) -> bool {
        let retry = inner.cfg.retry;
        let ctx = pctx(retry.is_some(), false, false, false);
        let gate = inner.peers.get_mut(&dst);
        let Some(rdv) = gate.and_then(|g| g.rdv_out.get_mut(&rdv_id)) else {
            // The record is gone: in retry mode the receiver's FIN (driven
            // by a retransmitted chunk) legally beat this NIC completion
            // (`ignore/fin-beat-nic-completion`); otherwise it is a
            // protocol error.
            let gone = protocol::State::Gone;
            if !matches!(
                protocol::step(gone, protocol::Event::LastChunkSent, ctx),
                Verdict::Ignore { .. }
            ) {
                Self::protocol_error(inner, "nmad.protocol_errors.sent");
            }
            return false;
        };
        rdv.chunks_in_flight -= 1;
        if rdv.chunks_in_flight != 0 || rdv.bytes_remaining != 0 {
            return false;
        }
        // The final DATA chunk cleared the local NIC — the `LastChunkSent`
        // event: `sent/await-fin` (retry mode arms the FIN timer and holds
        // the payload — local completion isn't delivery) or
        // `sent/complete`.
        match protocol::step(rdv.state, protocol::Event::LastChunkSent, ctx) {
            Verdict::Step { actions, next, .. } if actions.contains(&Action::ArmFinTimer) => {
                let rc = retry.expect("FIN timer implies retry");
                rdv.state = next;
                rdv.attempts = 0;
                rdv.timeout = rc.timeout;
                rdv.deadline = Some(now + rc.timeout);
            }
            Verdict::Step { actions, .. } => {
                debug_assert!(actions.contains(&Action::CompleteSend));
                let req = rdv.send_req;
                inner.peers.entry(dst).or_default().rdv_out.remove(&rdv_id);
                Self::finish_send(inner, now.0, req, Outcome::Done(()));
                return true;
            }
            Verdict::Ignore { .. } => {}
            Verdict::Error => Self::protocol_error(inner, "nmad.protocol_errors.sent"),
        }
        false
    }
}
