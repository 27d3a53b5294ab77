//! The lifecycle span recorder: typed, SimTime-stamped phase events keyed
//! by `(src, dst, tag, seq)`.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::export::Report;
use crate::ObsConfig;

/// `rank` value used for events recorded by the simulation engine itself
/// (dispatch loop) rather than by a rank's protocol stack.
pub const ENGINE_RANK: u32 = u32::MAX;

/// Identity of one MPI message on the bypass path. `seq` is the sender's
/// per-`(dst, tag)` sequence number — the same number the receive-side
/// reorder buffer matches on, so sender- and receiver-side events of one
/// message carry the same key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgKey {
    pub src: u32,
    pub dst: u32,
    pub tag: u64,
    pub seq: u64,
}

/// Which request a `Completed` phase closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    Send,
    Recv,
}

/// Which protocol leg a retransmission sweep re-armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RetryKind {
    Eager,
    Rts,
    Cts,
    Data,
}

/// One phase transition in a message's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Sender posted the send (isend admission), payload length attached.
    SendPosted { len: u64 },
    /// Receiver posted the receive.
    RecvPosted,
    /// Receive matched an arrival (`unexpected`: the message got there
    /// before the receive was posted).
    Matched { unexpected: bool },
    /// Eager payload handed to the wire on `rail`.
    EagerTx { rail: u8 },
    /// Eager payload delivered to the receiver's core.
    EagerRx,
    /// Rendezvous request-to-send on the wire.
    RtsTx { rail: u8, len: u64 },
    RtsRx,
    /// Clear-to-send on the wire (recorded at the receiver).
    CtsTx { rail: u8 },
    CtsRx,
    /// One rendezvous DATA chunk on the wire.
    DataChunkTx { rail: u8, offset: u64, len: u64 },
    DataChunkRx { offset: u64, len: u64 },
    /// Rendezvous FIN (receiver → sender).
    FinTx,
    FinRx,
    /// The request completed at the MPI level.
    Completed { side: Side },
    /// A retransmission sweep re-sent this message's `kind` leg.
    Retry { kind: RetryKind },
    /// Failover moved this message's bytes onto another rail.
    Reroute { to_rail: u8, bytes: u64 },
    /// Eager admission stalled on an empty credit pool (the send either
    /// waits or degrades to rendezvous).
    CreditStall,
    /// The request completed *with an error*: its peer was declared dead
    /// and the drain protocol aborted it (the no-cancel rule means an
    /// abort IS a completion — exactly one of `Completed`/`Aborted`
    /// closes each side).
    Aborted { side: Side },
    /// The request completed *with an error*: its communicator epoch was
    /// revoked and the quiesce failed it. Distinct from `Aborted` because
    /// the revoke tombstones an in-flight inbound rendezvous (a straggling
    /// DATA chunk still earns a FIN replay) where a peer death drops it.
    Revoked { side: Side },
}

impl Phase {
    /// Stable label used by exporters and the breakdown table.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::SendPosted { .. } => "send_posted",
            Phase::RecvPosted => "recv_posted",
            Phase::Matched { .. } => "matched",
            Phase::EagerTx { .. } => "eager_tx",
            Phase::EagerRx => "eager_rx",
            Phase::RtsTx { .. } => "rts_tx",
            Phase::RtsRx => "rts_rx",
            Phase::CtsTx { .. } => "cts_tx",
            Phase::CtsRx => "cts_rx",
            Phase::DataChunkTx { .. } => "chunk_tx",
            Phase::DataChunkRx { .. } => "chunk_rx",
            Phase::FinTx => "fin_tx",
            Phase::FinRx => "fin_rx",
            Phase::Completed { side: Side::Send } => "completed_send",
            Phase::Completed { side: Side::Recv } => "completed_recv",
            Phase::Retry { .. } => "retry",
            Phase::Reroute { .. } => "reroute",
            Phase::CreditStall => "credit_stall",
            Phase::Aborted { side: Side::Send } => "aborted_send",
            Phase::Aborted { side: Side::Recv } => "aborted_recv",
            Phase::Revoked { side: Side::Send } => "revoked_send",
            Phase::Revoked { side: Side::Recv } => "revoked_recv",
        }
    }
}

/// An event of the machinery rather than of one message: NIC transfers,
/// PIOMan activity, shared-memory fragment copies, credit movements, the
/// simulator's dispatch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineEvent {
    /// The simulator dispatched a scheduled callback.
    DispatchCall,
    /// The simulator woke a rank.
    DispatchWake,
    /// A NIC port started a transfer (`rank` = source node).
    NicTx {
        rail: u8,
        bytes: u64,
        occupancy_ns: u64,
    },
    /// One shared-memory fragment copied into a cell.
    ShmFragCopy { bytes: u64 },
    /// A cell landed in a shared-memory receive queue.
    ShmDeliver { src_local: u32 },
    /// PIOMan was kicked (`net`: by the network; else shared memory).
    PiomKick { net: bool },
    /// PIOMan ran its ltask list.
    PiomLtaskPass { tasks: u32 },
    /// PIOMan ran an ltask pass at an ltask's deadline, no kick behind it.
    PiomRekick,
    /// One eager credit consumed toward `peer`.
    CreditDebit { peer: u32 },
    /// `credits` eager credits returned by `peer`.
    CreditRefill { peer: u32, credits: u32 },
    /// The membership supervisor moved `peer` to a new liveness state
    /// (0 = Up, 1 = Suspect, 2 = Dead).
    MemberState { peer: u32, state: u8 },
    /// The drain protocol reclaimed `entries` per-peer state entries of a
    /// dead peer.
    MemberDrain { peer: u32, entries: u32 },
    /// A communicator epoch was revoked on this rank (locally initiated or
    /// learned from a peer's poison frame — recorded once either way).
    Revoke { epoch: u32 },
    /// This rank committed a new communicator epoch (shrink/rebuild or
    /// join-merge); older-epoch collective frames are stale from here on.
    EpochCommit { epoch: u32 },
}

impl EngineEvent {
    pub fn label(&self) -> &'static str {
        match self {
            EngineEvent::DispatchCall => "dispatch_call",
            EngineEvent::DispatchWake => "dispatch_wake",
            EngineEvent::NicTx { .. } => "nic_tx",
            EngineEvent::ShmFragCopy { .. } => "shm_frag_copy",
            EngineEvent::ShmDeliver { .. } => "shm_deliver",
            EngineEvent::PiomKick { .. } => "piom_kick",
            EngineEvent::PiomLtaskPass { .. } => "piom_ltask_pass",
            EngineEvent::PiomRekick => "piom_rekick",
            EngineEvent::CreditDebit { .. } => "credit_debit",
            EngineEvent::CreditRefill { .. } => "credit_refill",
            EngineEvent::MemberState { .. } => "member_state",
            EngineEvent::MemberDrain { .. } => "member_drain",
            EngineEvent::Revoke { .. } => "revoke",
            EngineEvent::EpochCommit { .. } => "epoch_commit",
        }
    }
}

/// What an [`Event`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// A phase transition of one message.
    Msg { key: MsgKey, phase: Phase },
    /// Machinery activity.
    Engine { ev: EngineEvent },
}

/// One recorded event. Plain `Copy` data — no heap — so constructing one
/// on a guarded path costs nothing when recording is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// Recording rank ([`ENGINE_RANK`] for the dispatch loop; the source
    /// *node* for NIC events).
    pub rank: u32,
    pub scope: Scope,
}

/// The job-wide event sink. One per run, shared by every layer; append
/// order is deterministic because the simulation is logically
/// single-threaded.
pub struct Recorder {
    cfg: ObsConfig,
    events: Mutex<Vec<Event>>,
    /// Conformance mode: every recorded event is fed through this hook,
    /// which checks the transition against the protocol state table. The
    /// recorder cannot depend on the protocol crate, so the validator is
    /// injected (see `core::protocol::conformance::install`).
    validator: Mutex<Option<Validator>>,
    /// Violations the validator reported, in record order (capped).
    violations: Mutex<Vec<String>>,
}

/// A conformance hook: inspects one recorded event against a protocol
/// model and reports a violation as `Err`.
pub type Validator = Box<dyn FnMut(&Event) -> Result<(), String> + Send>;

/// Cap on collected conformance violations — enough to diagnose, bounded
/// so a systematically broken run cannot balloon memory.
const MAX_VIOLATIONS: usize = 64;

impl Recorder {
    pub fn new(cfg: ObsConfig) -> Arc<Recorder> {
        Arc::new(Recorder {
            cfg,
            events: Mutex::new(Vec::new()),
            validator: Mutex::new(None),
            violations: Mutex::new(Vec::new()),
        })
    }

    /// Install the conformance validator (replaces any previous one).
    /// Only meaningful when `cfg.conformance` is set; calls are accepted
    /// regardless so installers need not branch.
    pub fn set_validator(&self, v: Validator) {
        *self.validator.lock() = Some(v);
    }

    /// Conformance violations collected so far (empty when no validator
    /// is installed or every transition matched the table).
    pub fn violations(&self) -> Vec<String> {
        self.violations.lock().clone()
    }

    pub fn cfg(&self) -> ObsConfig {
        self.cfg
    }

    /// Are span events being kept?
    #[inline]
    pub fn spans_on(&self) -> bool {
        self.cfg.spans
    }

    /// Append one event (no-op unless spans are on). In conformance mode
    /// the event is also run through the installed validator; violations
    /// are collected, never raised here — recording must stay strictly
    /// observational.
    #[inline]
    pub fn record(&self, ev: Event) {
        if !self.cfg.spans {
            return;
        }
        self.events.lock().push(ev);
        if self.cfg.conformance {
            if let Some(v) = self.validator.lock().as_mut() {
                if let Err(e) = v(&ev) {
                    let mut viol = self.violations.lock();
                    if viol.len() < MAX_VIOLATIONS {
                        viol.push(e);
                    }
                }
            }
        }
    }

    /// Snapshot of the event stream, in append order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Freeze everything recorded so far into a [`Report`].
    pub fn report(&self) -> Report {
        Report {
            events: self.events(),
        }
    }
}

/// A per-layer recording handle: the shared [`Recorder`] plus the rank (or
/// node) identity the layer stamps on its events. `RankRec::off()` is the
/// disabled handle — every call through it is a branch on a `None` and
/// nothing more.
#[derive(Clone, Default)]
pub struct RankRec {
    rec: Option<Arc<Recorder>>,
    rank: u32,
}

impl RankRec {
    /// The disabled handle.
    pub fn off() -> RankRec {
        RankRec::default()
    }

    pub fn new(rec: Option<&Arc<Recorder>>, rank: u32) -> RankRec {
        RankRec {
            rec: rec.map(Arc::clone),
            rank,
        }
    }

    /// Are span events being recorded through this handle?
    #[inline]
    pub fn on(&self) -> bool {
        matches!(&self.rec, Some(r) if r.spans_on())
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Record a phase transition of message `key` at `t_ns`.
    #[inline]
    pub fn phase(&self, t_ns: u64, key: MsgKey, phase: Phase) {
        if let Some(r) = &self.rec {
            r.record(Event {
                t_ns,
                rank: self.rank,
                scope: Scope::Msg { key, phase },
            });
        }
    }

    /// Record a machinery event at `t_ns`.
    #[inline]
    pub fn engine(&self, t_ns: u64, ev: EngineEvent) {
        if let Some(r) = &self.rec {
            r.record(Event {
                t_ns,
                rank: self.rank,
                scope: Scope::Engine { ev },
            });
        }
    }

    /// The underlying recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.rec.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MsgKey {
        MsgKey {
            src: 0,
            dst: 1,
            tag: 7,
            seq: 0,
        }
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(ObsConfig::default());
        rec.record(Event {
            t_ns: 1,
            rank: 0,
            scope: Scope::Msg {
                key: key(),
                phase: Phase::RecvPosted,
            },
        });
        assert!(rec.events().is_empty());
    }

    #[test]
    fn off_handle_is_inert() {
        let rr = RankRec::off();
        assert!(!rr.on());
        rr.phase(1, key(), Phase::RecvPosted);
        rr.engine(2, EngineEvent::PiomRekick);
    }

    #[test]
    fn events_keep_append_order() {
        let rec = Recorder::new(ObsConfig::full());
        let rr = RankRec::new(Some(&rec), 3);
        assert!(rr.on());
        rr.phase(10, key(), Phase::SendPosted { len: 4 });
        rr.engine(5, EngineEvent::DispatchCall);
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        // Append order, not time order: the canonicalization is the
        // exporter's job.
        assert_eq!(evs[0].t_ns, 10);
        assert_eq!(evs[1].t_ns, 5);
        assert_eq!(evs[0].rank, 3);
    }
}
