//! # The CH3 rendezvous protocol as data
//!
//! Every rendezvous variant this repo implements — the NewMadeleine core's
//! pipelined RTS → CTS → chunked DATA → FIN exchange with retransmission
//! and duplicate-RTS replay, the CH3 engine's buffered rendezvous, and the
//! CH3 DataAck-throttled depth-1 pipeline — is one state machine whose
//! transitions live in a single static table: `States × Events → (Guards,
//! Actions, NextState)`. The handlers in `engine/` and `ch3.rs` are thin
//! adapters: they translate wire frames and local happenings into
//! [`Event`]s, look the transition up with [`step`], and execute the
//! emitted [`Action`]s against their concrete bookkeeping.
//!
//! Two consumers read the same table:
//!
//! * the **adapters** (runtime behaviour),
//! * the **conformance checker** ([`conformance`]) that replays recorded
//!   obs span streams through the table, turning every traced seed sweep
//!   into a conformance test.
//!
//! The exhaustive check runs the adapters themselves: the engine explorers
//! (`explore` here, `mpi-ch3`'s `ch3::explore`)
//! walk every interleaving of a bounded configuration of real engines and
//! read [`take_fired`] to prove that every row is reachable.
//!
//! ## Classification of (state, event) pairs
//!
//! [`step`] resolves a pair to exactly one of:
//!
//! * a [`Transition`] from [`TABLE`] — the protocol moves;
//! * a declared [`Ignore`] — legal no-op (e.g. a duplicated CTS while
//!   streaming). Ignores marked `defensive` are *believed unreachable*
//!   and exist only as tolerance; the explorers assert they never fire.
//! * [`Verdict::Error`] — a malformed or stale frame. Adapters count
//!   these in `protocol_errors` and drop the frame; nothing panics.
//!
//! Adding a protocol (RDMA rendezvous, pipelined chunk scheduling) means
//! adding rows, not surgery: see DESIGN.md §10.

pub mod conformance;
#[cfg(test)]
mod explore;

use std::cell::Cell;

/// Rendezvous protocol states. One enum covers both ends: a live
/// rendezvous id is in exactly one of these at each peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum State {
    /// No entry for this rendezvous id — never started, or finished and
    /// forgotten. (The receiver's *tombstoned* finish is [`State::RDone`],
    /// which still replays FINs; `Gone` replays nothing.)
    Gone,
    /// Sender: RTS queued/sent, waiting for the clear-to-send.
    SWaitCts,
    /// Sender: payload handed to the transport; chunks (or throttled
    /// fragments) still moving.
    SStreaming,
    /// Sender, retry mode: every chunk left the local NIC; holding the
    /// payload until the receiver's FIN confirms delivery.
    SWaitFin,
    /// Receiver: CTS sent, landing DATA chunks.
    RWaitData,
    /// Receiver, retry mode: transfer complete, FIN sent, entry
    /// tombstoned — stragglers and replays get the FIN again.
    RDone,
}

/// Everything that can happen to a rendezvous: wire frames arriving,
/// local decisions, and retransmission timers firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// Local: a send chose (or was forced onto) the rendezvous path.
    SendRdv,
    /// Wire: clear-to-send arrived at the sender.
    CtsRx,
    /// Wire: DataAck arrived (CH3 depth-1 throttled pipeline only).
    DataAckRx,
    /// Local: the final DATA chunk finished on the sender's NIC.
    LastChunkSent,
    /// Wire: the receiver's FIN arrived at the sender.
    FinRx,
    /// Timer: the sender's RTS (in `SWaitCts`) or FIN-wait (in
    /// `SWaitFin`) retransmission deadline passed.
    SendTimeout,
    /// Local: an inbound RTS met a posted receive.
    RtsMatched,
    /// Wire: a DATA chunk arrived at the receiver.
    DataRx,
    /// Wire: a *duplicate* RTS arrived (transport seq already delivered)
    /// — the handshake reply may have been lost.
    DupRts,
    /// Timer: the receiver saw no DATA progress before its deadline.
    RecvTimeout,
    /// Local: the membership supervisor declared the remote peer of this
    /// rendezvous dead. Fired once per in-flight entry by the drain
    /// protocol (never by a wire frame — a dead peer sends nothing).
    PeerDead,
    /// Local: the communicator epoch this rendezvous belongs to was
    /// revoked (DESIGN.md §13). Fired once per in-flight entry by the
    /// revoke quiesce — like [`Event::PeerDead`], never by a wire frame.
    Revoked,
    /// Wire: a collective frame arrived whose epoch predates the
    /// committed epoch (or whose agreement instance was retired). Always
    /// finds `Gone` — stale frames never reach live entries — and must
    /// be counted and dropped without reviving state.
    StaleEpoch,
}

/// Guard atoms. A transition fires when *all* its guards hold in the
/// adapter-supplied [`Ctx`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// The retransmission layer is armed (core retry mode).
    Retry,
    NoRetry,
    /// CH3 `rdv_ack`: depth-1 DataAck-throttled fragment pipeline.
    AckMode,
    NoAckMode,
    /// CH3 buffered semantics: the send completes when the payload is
    /// handed to the transport, with no FIN or local-completion wait.
    Buffered,
    /// Core semantics: the transport chunks the payload and the sender
    /// tracks NIC completions (and, with [`Guard::Retry`], the FIN).
    Pipelined,
    /// The chunk lies inside the announced payload length.
    InRange,
    /// The chunk/fragment at hand completes the payload.
    Last,
    NotLast,
    /// The rendezvous path was entered because the eager credit pool ran
    /// dry (flow-control degradation), not because of message size.
    CreditFallback,
    /// The ordinary entry reason: payload above the eager threshold.
    OverThreshold,
}

/// The adapter's answers to the guard atoms for one event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    pub retry: bool,
    pub ack_mode: bool,
    /// `true` = CH3 buffered semantics, `false` = core pipelined.
    pub buffered: bool,
    pub in_range: bool,
    pub last: bool,
    pub credit_fallback: bool,
}

impl Guard {
    /// Does this atom hold under `ctx`?
    pub fn holds(self, ctx: Ctx) -> bool {
        match self {
            Guard::Retry => ctx.retry,
            Guard::NoRetry => !ctx.retry,
            Guard::AckMode => ctx.ack_mode,
            Guard::NoAckMode => !ctx.ack_mode,
            Guard::Buffered => ctx.buffered,
            Guard::Pipelined => !ctx.buffered,
            Guard::InRange => ctx.in_range,
            Guard::Last => ctx.last,
            Guard::NotLast => !ctx.last,
            Guard::CreditFallback => ctx.credit_fallback,
            Guard::OverThreshold => !ctx.credit_fallback,
        }
    }
}

/// Effects a transition emits. Adapters execute them against their
/// concrete state (queues, buffers, timers, stats). An action an
/// implementation has no concept of (e.g. [`Action::BumpRecvTimer`] in
/// timer-less CH3) is a documented no-op there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    // -- sender ------------------------------------------------------
    /// Put the RTS on the wire (and create the outbound entry).
    SendRts,
    /// Arm the RTS→CTS retransmission timer (no-op without retry).
    ArmRtsTimer,
    /// Disarm the sender's running timer.
    DisarmTimer,
    /// Pipelined: hand the whole payload to the transport as chunkable
    /// DATA.
    QueueData,
    /// Buffered, unthrottled: stream every chunk now.
    SendAllData,
    /// Throttled: cut and send the next fragment.
    SendNextFragment,
    /// Arm the FIN-wait retransmission timer.
    ArmFinTimer,
    /// Surface the send completion.
    CompleteSend,
    /// Replay the RTS (timer fired before the CTS).
    ReplayRts,
    /// Replay the payload as one DATA covering every byte (timer fired
    /// before the FIN; the receiver lands only bytes it lacks).
    ReplayData,
    // -- receiver ----------------------------------------------------
    /// Prepare to receive `len` bytes. CH3 allocates its landing buffer
    /// ([`alloc_landing`]); nmad allocates nothing — it checks that the
    /// announced length could be held and opens the record its chunks
    /// land in as views of the wire.
    AllocLanding,
    /// Put the CTS on the wire (and create the inbound entry).
    SendCts,
    /// Arm the CTS→DATA retransmission timer (no-op without retry).
    ArmRecvTimer,
    /// Land the chunk, keeping only bytes not already landed (replays are
    /// idempotent). CH3 copies it into its landing buffer; nmad keeps it
    /// as a view of the wire and rejoins the views on the last chunk
    /// (`NmBuf::concat`), copying nothing.
    CopyChunk,
    /// DATA progress arrived: push the receiver's timer out.
    BumpRecvTimer,
    /// Throttled: ask for the next fragment.
    SendDataAck,
    /// Put the FIN on the wire.
    SendFin,
    /// Tombstone the finished rendezvous (stragglers replay the FIN).
    Tombstone,
    /// Surface the receive completion.
    CompleteRecv,
    /// Replay the CTS (duplicate RTS or receiver timeout — the original
    /// may have been lost).
    ReplayCts,
    /// Replay the FIN (the sender clearly never saw it).
    ReplayFin,
    // -- membership drain --------------------------------------------
    /// Surface the send as *failed* (peer died before the rendezvous
    /// completed); release the payload and per-flow bookkeeping. The
    /// no-cancel rule (§2.2.1) still holds: the request completes — with
    /// an error, not silently.
    AbortSend,
    /// Surface the receive as failed and release what has landed.
    AbortRecv,
    // -- accounting --------------------------------------------------
    /// Count a stale cross-epoch collective frame
    /// (`membership_stale_epoch`) and drop it.
    CountStaleEpoch,
    /// Count a duplicated DATA chunk.
    CountDupData,
    /// Count a duplicated envelope (replayed RTS).
    CountDupEnvelope,
    /// Exponential backoff of the firing timer.
    Backoff,
}

/// One row of the transition table.
#[derive(Debug)]
pub struct Transition {
    pub state: State,
    pub event: Event,
    pub guards: &'static [Guard],
    pub actions: &'static [Action],
    pub next: State,
    /// Human-readable row name (coverage reports, errors).
    pub name: &'static str,
}

/// One declared ignore: a (state, event, guards) combination that is a
/// legal no-op. `defensive` rows are believed unreachable and exist as
/// tolerance only — the explorers assert they never fire.
#[derive(Debug)]
pub struct Ignore {
    pub state: State,
    pub event: Event,
    pub guards: &'static [Guard],
    pub defensive: bool,
    pub name: &'static str,
}

use Action as A;
use Event as E;
use Guard as G;
use State as S;

/// The rendezvous protocol. Row order is documentation (entry, sender
/// data path, receiver data path, replay, timers); lookup is by
/// (state, event, guards), not position.
pub static TABLE: &[Transition] = &[
    // -- entry ---------------------------------------------------------
    Transition {
        state: S::Gone,
        event: E::SendRdv,
        guards: &[G::OverThreshold],
        actions: &[A::SendRts, A::ArmRtsTimer],
        next: S::SWaitCts,
        name: "entry/size",
    },
    Transition {
        state: S::Gone,
        event: E::SendRdv,
        guards: &[G::CreditFallback],
        actions: &[A::SendRts, A::ArmRtsTimer],
        next: S::SWaitCts,
        name: "entry/credit-fallback",
    },
    Transition {
        state: S::Gone,
        event: E::RtsMatched,
        guards: &[],
        actions: &[A::AllocLanding, A::SendCts, A::ArmRecvTimer],
        next: S::RWaitData,
        name: "entry/rts-matched",
    },
    // -- sender: clear-to-send -----------------------------------------
    Transition {
        state: S::SWaitCts,
        event: E::CtsRx,
        guards: &[G::Pipelined],
        actions: &[A::DisarmTimer, A::QueueData],
        next: S::SStreaming,
        name: "cts/pipelined",
    },
    Transition {
        state: S::SWaitCts,
        event: E::CtsRx,
        guards: &[G::Buffered, G::NoAckMode],
        actions: &[A::SendAllData, A::CompleteSend],
        next: S::Gone,
        name: "cts/buffered",
    },
    Transition {
        state: S::SWaitCts,
        event: E::CtsRx,
        guards: &[G::Buffered, G::AckMode, G::NotLast],
        actions: &[A::SendNextFragment],
        next: S::SStreaming,
        name: "cts/throttled",
    },
    Transition {
        state: S::SWaitCts,
        event: E::CtsRx,
        guards: &[G::Buffered, G::AckMode, G::Last],
        actions: &[A::SendNextFragment, A::CompleteSend],
        next: S::Gone,
        name: "cts/throttled-single-fragment",
    },
    // -- sender: throttled fragment pipeline ---------------------------
    Transition {
        state: S::SStreaming,
        event: E::DataAckRx,
        guards: &[G::AckMode, G::NotLast],
        actions: &[A::SendNextFragment],
        next: S::SStreaming,
        name: "ack/next-fragment",
    },
    Transition {
        state: S::SStreaming,
        event: E::DataAckRx,
        guards: &[G::AckMode, G::Last],
        actions: &[A::SendNextFragment, A::CompleteSend],
        next: S::Gone,
        name: "ack/final-fragment",
    },
    // -- sender: local NIC completion of the last chunk ----------------
    Transition {
        state: S::SStreaming,
        event: E::LastChunkSent,
        guards: &[G::Retry],
        actions: &[A::ArmFinTimer],
        next: S::SWaitFin,
        name: "sent/await-fin",
    },
    Transition {
        state: S::SStreaming,
        event: E::LastChunkSent,
        guards: &[G::NoRetry],
        actions: &[A::CompleteSend],
        next: S::Gone,
        name: "sent/complete",
    },
    // -- sender: FIN ---------------------------------------------------
    Transition {
        state: S::SStreaming,
        event: E::FinRx,
        guards: &[G::Retry],
        actions: &[A::CompleteSend],
        next: S::Gone,
        name: "fin/early",
    },
    Transition {
        state: S::SWaitFin,
        event: E::FinRx,
        guards: &[G::Retry],
        actions: &[A::CompleteSend],
        next: S::Gone,
        name: "fin/confirmed",
    },
    // A FIN reaching a sender that never saw a CTS can only come from a
    // revoke-tombstoned receiver (an honest receiver reaches `RDone` only
    // after all the data, which requires the CTS to have arrived first).
    // The receiver has declared the message over without taking a byte,
    // so the send aborts rather than completing.
    Transition {
        state: S::SWaitCts,
        event: E::FinRx,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "fin/tombstone",
    },
    // -- receiver: DATA ------------------------------------------------
    Transition {
        state: S::RWaitData,
        event: E::DataRx,
        guards: &[G::InRange, G::NotLast, G::NoAckMode],
        actions: &[A::CopyChunk, A::BumpRecvTimer],
        next: S::RWaitData,
        name: "data/chunk",
    },
    Transition {
        state: S::RWaitData,
        event: E::DataRx,
        guards: &[G::InRange, G::NotLast, G::AckMode],
        actions: &[A::CopyChunk, A::SendDataAck],
        next: S::RWaitData,
        name: "data/chunk-acked",
    },
    Transition {
        state: S::RWaitData,
        event: E::DataRx,
        guards: &[G::InRange, G::Last, G::Retry],
        actions: &[A::CopyChunk, A::SendFin, A::Tombstone, A::CompleteRecv],
        next: S::RDone,
        name: "data/last-retry",
    },
    Transition {
        state: S::RWaitData,
        event: E::DataRx,
        guards: &[G::InRange, G::Last, G::NoRetry],
        actions: &[A::CopyChunk, A::CompleteRecv],
        next: S::Gone,
        name: "data/last",
    },
    // -- receiver: replay on stale frames ------------------------------
    Transition {
        state: S::RDone,
        event: E::DataRx,
        guards: &[G::Retry],
        actions: &[A::CountDupData, A::ReplayFin],
        next: S::RDone,
        name: "replay/fin-on-data",
    },
    Transition {
        state: S::RDone,
        event: E::DupRts,
        guards: &[G::Retry],
        actions: &[A::CountDupEnvelope, A::ReplayFin],
        next: S::RDone,
        name: "replay/fin-on-rts",
    },
    Transition {
        state: S::RWaitData,
        event: E::DupRts,
        guards: &[G::Retry],
        actions: &[A::CountDupEnvelope, A::ReplayCts],
        next: S::RWaitData,
        name: "replay/cts-on-rts",
    },
    Transition {
        state: S::Gone,
        event: E::DupRts,
        guards: &[G::Retry],
        actions: &[A::CountDupEnvelope],
        next: S::Gone,
        name: "replay/rts-unmatched",
    },
    // -- membership drain: the remote peer died ------------------------
    Transition {
        state: S::SWaitCts,
        event: E::PeerDead,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "dead/swaitcts",
    },
    Transition {
        state: S::SStreaming,
        event: E::PeerDead,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "dead/sstreaming",
    },
    Transition {
        state: S::SWaitFin,
        event: E::PeerDead,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "dead/swaitfin",
    },
    Transition {
        state: S::RWaitData,
        event: E::PeerDead,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortRecv],
        next: S::Gone,
        name: "dead/rwaitdata",
    },
    // A tombstone only exists to replay FINs at a sender that might
    // retransmit; a dead sender never will. Drop it without surfacing
    // anything — the receive completed long ago.
    Transition {
        state: S::RDone,
        event: E::PeerDead,
        guards: &[G::Retry],
        actions: &[],
        next: S::Gone,
        name: "dead/rdone",
    },
    // -- communicator revoke: the epoch was poisoned ---------------------
    // Mirrors the PeerDead drain: every in-flight entry of a revoked
    // epoch is cancelled through the table, completions surface as
    // counted errors, and the conformance checker replays the same
    // `Revoked` phases. A tombstone is left alone: it carries no tag to
    // select it by epoch, and the peer's death reclaims it. Only retry
    // mode has a membership/recovery layer.
    Transition {
        state: S::SWaitCts,
        event: E::Revoked,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "revoked/swaitcts",
    },
    Transition {
        state: S::SStreaming,
        event: E::Revoked,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "revoked/sstreaming",
    },
    Transition {
        state: S::SWaitFin,
        event: E::Revoked,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortSend],
        next: S::Gone,
        name: "revoked/swaitfin",
    },
    // The aborted inbound rendezvous leaves a tombstone: the sender may
    // not have learned the revoke yet and its in-flight DATA must keep
    // finding `RDone` (→ FIN replay telling it to stop), exactly like a
    // completed transfer — `Gone` is reserved for states DATA can never
    // legally reach.
    Transition {
        state: S::RWaitData,
        event: E::Revoked,
        guards: &[G::Retry],
        actions: &[A::DisarmTimer, A::AbortRecv, A::Tombstone],
        next: S::RDone,
        name: "revoked/rwaitdata",
    },
    // -- epoch hygiene: stale cross-epoch frames ------------------------
    // A collective frame from a superseded epoch (or a retired agreement
    // instance) never matches live state — the quiesce/advance purge ran
    // first — so it always finds `Gone`. The row counts it and stays
    // `Gone`: dropped, never a panic, never revived state.
    Transition {
        state: S::Gone,
        event: E::StaleEpoch,
        guards: &[G::Retry],
        actions: &[A::CountStaleEpoch],
        next: S::Gone,
        name: "stale/epoch",
    },
    // -- timers --------------------------------------------------------
    Transition {
        state: S::SWaitCts,
        event: E::SendTimeout,
        guards: &[G::Retry],
        actions: &[A::Backoff, A::ReplayRts],
        next: S::SWaitCts,
        name: "timer/rts",
    },
    Transition {
        state: S::SWaitFin,
        event: E::SendTimeout,
        guards: &[G::Retry],
        actions: &[A::Backoff, A::ReplayData],
        next: S::SWaitFin,
        name: "timer/data",
    },
    Transition {
        state: S::RWaitData,
        event: E::RecvTimeout,
        guards: &[G::Retry],
        actions: &[A::Backoff, A::ReplayCts],
        next: S::RWaitData,
        name: "timer/cts",
    },
];

/// Declared ignores — legal no-ops, all justified by retransmission
/// (without retry no frame is ever duplicated or replayed, so every
/// stray frame is a protocol error instead).
pub static IGNORES: &[Ignore] = &[
    Ignore {
        state: S::SStreaming,
        event: E::CtsRx,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/dup-cts-streaming",
    },
    Ignore {
        state: S::SWaitFin,
        event: E::CtsRx,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/dup-cts-waitfin",
    },
    Ignore {
        state: S::Gone,
        event: E::CtsRx,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/straggler-cts",
    },
    Ignore {
        state: S::Gone,
        event: E::FinRx,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/dup-fin",
    },
    Ignore {
        state: S::Gone,
        event: E::LastChunkSent,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/fin-beat-nic-completion",
    },
    // A death verdict can reach a flow whose local entry already
    // completed and left (e.g. the sender finished; the peer died while
    // only the remote side still had state). Nothing to drain.
    Ignore {
        state: S::Gone,
        event: E::PeerDead,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/dead-gone",
    },
    // Same shape for a revoke: one side of a flow can learn of the
    // revoke after its local entry already completed and left.
    Ignore {
        state: S::Gone,
        event: E::Revoked,
        guards: &[G::Retry],
        defensive: false,
        name: "ignore/revoked-gone",
    },
    // An in-flight DATA chunk can only exist after a CTS, a CTS only
    // after the inbound entry exists, and the entry only leaves via the
    // tombstone — so DATA should never find `Gone`. Tolerated as a drop
    // (the sender's FIN timer replays), but the engine explorer proves it
    // unreachable.
    Ignore {
        state: S::Gone,
        event: E::DataRx,
        guards: &[G::Retry],
        defensive: true,
        name: "ignore/data-before-reentry",
    },
];

/// The verdict of one [`step`] lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A table row fired: run `actions`, move to `next`. `index` is the
    /// row's position in [`TABLE`] (coverage tracking).
    Step {
        index: usize,
        actions: &'static [Action],
        next: State,
    },
    /// A declared ignore matched: do nothing. `index` into [`IGNORES`].
    Ignore { index: usize, defensive: bool },
    /// No transition and no declared ignore: a malformed or stale frame.
    /// Adapters count it (`protocol_errors`) and drop the frame.
    Error,
}

/// [`Action::AllocLanding`] as CH3 performs it (nmad lands its chunks as
/// views of the wire and needs no buffer): a zeroed buffer
/// of `len` bytes, or `None` when no allocation can satisfy `len` — which
/// is the sender's word, read off a wire (a forged RTS announcing
/// `u64::MAX` bytes used to reach `vec![0u8; len]`: a capacity-overflow
/// panic). The caller counts `None` as a protocol error and sends no CTS.
///
/// Stable Rust has no fallible *zeroed* allocation. `try_reserve_exact`
/// followed by `resize(len, 0)` is a fallible one that then memsets pages
/// `vec![0; len]` gets untouched from `calloc` — measured at +5.7 % host
/// time on the ledger's `stream_large`, worse in 9 of 10 pairs
/// (BENCH_24.json). So: prove `len` can be had, hand it back, take it
/// zeroed.
pub fn alloc_landing(len: usize) -> Option<Vec<u8>> {
    Vec::<u8>::new().try_reserve_exact(len).ok()?;
    Some(vec![0u8; len])
}

// The tally keeps one bit per row and per ignore.
const _: () = assert!(TABLE.len() <= 64 && IGNORES.len() <= 64);

thread_local! {
    /// Coverage tally: the rows (`.0`) and ignores (`.1`) [`step`] has
    /// resolved to on this thread since the last [`take_fired`].
    static FIRED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Take this thread's coverage tally and clear it: bit `i` of `.0` is set
/// once [`TABLE`]`[i]` fired, bit `i` of `.1` once [`IGNORES`]`[i]`
/// matched. Only the exhaustive explorers read it; it counts the
/// conformance checker's lookups too, so a row a span announces and a row
/// only an engine steps are tallied alike.
pub fn take_fired() -> (u64, u64) {
    FIRED.with(Cell::take)
}

/// Look up the unique classification of (state, event) under `ctx`.
///
/// [`validate_table`] proves at most one table row *or* one ignore can
/// match any (state, event, ctx); this scan relies on that.
pub fn step(state: State, event: Event, ctx: Ctx) -> Verdict {
    let tally = |rows: u64, ignores: u64| {
        FIRED.with(|f| {
            let (r, i) = f.get();
            f.set((r | rows, i | ignores));
        })
    };
    for (index, t) in TABLE.iter().enumerate() {
        if t.state == state && t.event == event && t.guards.iter().all(|g| g.holds(ctx)) {
            tally(1 << index, 0);
            return Verdict::Step {
                index,
                actions: t.actions,
                next: t.next,
            };
        }
    }
    for (index, ig) in IGNORES.iter().enumerate() {
        if ig.state == state && ig.event == event && ig.guards.iter().all(|g| g.holds(ctx)) {
            tally(0, 1 << index);
            return Verdict::Ignore {
                index,
                defensive: ig.defensive,
            };
        }
    }
    Verdict::Error
}

/// Every guard context, by exhaustive enumeration of the atom cube.
fn all_ctxs() -> impl Iterator<Item = Ctx> {
    (0u32..64).map(|bits| Ctx {
        retry: bits & 1 != 0,
        ack_mode: bits & 2 != 0,
        buffered: bits & 4 != 0,
        in_range: bits & 8 != 0,
        last: bits & 16 != 0,
        credit_fallback: bits & 32 != 0,
    })
}

/// Structural soundness of the table, checked exhaustively over the
/// guard cube:
///
/// * **determinism** — no (state, event, ctx) matches two table rows, or
///   a table row and an ignore;
/// * **satisfiability** — every row and ignore fires under at least one
///   ctx (no contradictory guard sets / dead rows).
///
/// Returns the list of violations (empty = sound). Asserted by
/// `crates/core/tests/protocol_table.rs` and cheap enough to run in debug
/// adapters.
pub fn validate_table() -> Vec<String> {
    let mut problems = Vec::new();
    let mut row_sat = vec![false; TABLE.len()];
    let mut ig_sat = vec![false; IGNORES.len()];
    let states = [
        S::Gone,
        S::SWaitCts,
        S::SStreaming,
        S::SWaitFin,
        S::RWaitData,
        S::RDone,
    ];
    let events = [
        E::SendRdv,
        E::CtsRx,
        E::DataAckRx,
        E::LastChunkSent,
        E::FinRx,
        E::SendTimeout,
        E::RtsMatched,
        E::DataRx,
        E::DupRts,
        E::RecvTimeout,
        E::PeerDead,
        E::Revoked,
        E::StaleEpoch,
    ];
    for &state in &states {
        for &event in &events {
            for ctx in all_ctxs() {
                let rows: Vec<usize> = TABLE
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| {
                        t.state == state
                            && t.event == event
                            && t.guards.iter().all(|g| g.holds(ctx))
                    })
                    .map(|(i, _)| i)
                    .collect();
                let igs: Vec<usize> = IGNORES
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| {
                        g.state == state
                            && g.event == event
                            && g.guards.iter().all(|gg| gg.holds(ctx))
                    })
                    .map(|(i, _)| i)
                    .collect();
                if rows.len() > 1 {
                    problems.push(format!(
                        "ambiguous: {state:?} × {event:?} × {ctx:?} matches rows {:?}",
                        rows.iter().map(|&i| TABLE[i].name).collect::<Vec<_>>()
                    ));
                }
                if !rows.is_empty() && !igs.is_empty() {
                    problems.push(format!(
                        "conflict: {state:?} × {event:?} × {ctx:?} matches row {} and ignore {}",
                        TABLE[rows[0]].name, IGNORES[igs[0]].name
                    ));
                }
                if igs.len() > 1 {
                    problems.push(format!(
                        "ambiguous ignores: {state:?} × {event:?} × {ctx:?}: {:?}",
                        igs.iter().map(|&i| IGNORES[i].name).collect::<Vec<_>>()
                    ));
                }
                for i in rows {
                    row_sat[i] = true;
                }
                for i in igs {
                    ig_sat[i] = true;
                }
            }
        }
    }
    for (i, sat) in row_sat.iter().enumerate() {
        if !sat {
            problems.push(format!("unsatisfiable guards on row {}", TABLE[i].name));
        }
    }
    for (i, sat) in ig_sat.iter().enumerate() {
        if !sat {
            problems.push(format!(
                "unsatisfiable guards on ignore {}",
                IGNORES[i].name
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sound() {
        let problems = validate_table();
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn core_happy_path_steps() {
        let ctx = Ctx {
            retry: true,
            in_range: true,
            ..Ctx::default()
        };
        let Verdict::Step { next, .. } = step(S::Gone, E::SendRdv, ctx) else {
            panic!("entry must step");
        };
        assert_eq!(next, S::SWaitCts);
        let Verdict::Step { next, .. } = step(S::SWaitCts, E::CtsRx, ctx) else {
            panic!("CTS must step");
        };
        assert_eq!(next, S::SStreaming);
        let Verdict::Step { next, .. } = step(S::SStreaming, E::LastChunkSent, ctx) else {
            panic!("last chunk must step");
        };
        assert_eq!(next, S::SWaitFin);
        let Verdict::Step { next, actions, .. } = step(S::SWaitFin, E::FinRx, ctx) else {
            panic!("FIN must step");
        };
        assert_eq!(next, S::Gone);
        assert!(actions.contains(&A::CompleteSend));
    }

    #[test]
    fn stray_frames_are_errors_without_retry() {
        let ctx = Ctx::default();
        assert_eq!(step(S::Gone, E::CtsRx, ctx), Verdict::Error);
        assert_eq!(step(S::Gone, E::DataRx, ctx), Verdict::Error);
        assert_eq!(step(S::Gone, E::FinRx, ctx), Verdict::Error);
        assert_eq!(step(S::Gone, E::DataAckRx, ctx), Verdict::Error);
    }

    #[test]
    fn out_of_range_chunk_is_an_error_even_live() {
        let ctx = Ctx {
            retry: true,
            in_range: false,
            ..Ctx::default()
        };
        assert_eq!(step(S::RWaitData, E::DataRx, ctx), Verdict::Error);
    }

    #[test]
    fn peer_death_drains_every_live_state() {
        let ctx = Ctx {
            retry: true,
            ..Ctx::default()
        };
        for (state, want) in [
            (S::SWaitCts, A::AbortSend),
            (S::SStreaming, A::AbortSend),
            (S::SWaitFin, A::AbortSend),
            (S::RWaitData, A::AbortRecv),
        ] {
            let Verdict::Step { actions, next, .. } = step(state, E::PeerDead, ctx) else {
                panic!("{state:?} × PeerDead must step");
            };
            assert_eq!(next, S::Gone, "{state:?} drains to Gone");
            assert!(actions.contains(&want), "{state:?} must {want:?}");
        }
        // Tombstones are dropped silently; Gone is a declared ignore.
        let Verdict::Step { actions, next, .. } = step(S::RDone, E::PeerDead, ctx) else {
            panic!("RDone × PeerDead must step");
        };
        assert_eq!(next, S::Gone);
        assert!(actions.is_empty(), "a tombstone drains without surfacing");
        assert!(matches!(
            step(S::Gone, E::PeerDead, ctx),
            Verdict::Ignore {
                defensive: false,
                ..
            }
        ));
        // Without retry there is no membership layer: stepping PeerDead
        // is a caller bug, classified as an error.
        assert_eq!(
            step(S::SWaitCts, E::PeerDead, Ctx::default()),
            Verdict::Error
        );
    }

    #[test]
    fn revoke_drains_every_live_state() {
        let ctx = Ctx {
            retry: true,
            ..Ctx::default()
        };
        for (state, want, end) in [
            (S::SWaitCts, A::AbortSend, S::Gone),
            (S::SStreaming, A::AbortSend, S::Gone),
            (S::SWaitFin, A::AbortSend, S::Gone),
            // The receiver tombstones so straggling DATA keeps finding
            // RDone (FIN replay), never Gone.
            (S::RWaitData, A::AbortRecv, S::RDone),
        ] {
            let Verdict::Step { actions, next, .. } = step(state, E::Revoked, ctx) else {
                panic!("{state:?} × Revoked must step");
            };
            assert_eq!(next, end, "{state:?} quiesces to {end:?}");
            assert!(actions.contains(&want), "{state:?} must {want:?}");
        }
        // The quiesce never looks a tombstone up: it carries no tag to
        // select it by, stays as it is, and is reclaimed by the peer's own
        // death (`dead/rdone`). So `RDone` has no revoke row; `Gone` is a
        // declared ignore.
        assert_eq!(step(S::RDone, E::Revoked, ctx), Verdict::Error);
        assert!(matches!(
            step(S::Gone, E::Revoked, ctx),
            Verdict::Ignore {
                defensive: false,
                ..
            }
        ));
        // Without retry there is no recovery layer.
        assert_eq!(
            step(S::SWaitCts, E::Revoked, Ctx::default()),
            Verdict::Error
        );
    }

    #[test]
    fn stale_epoch_frames_are_counted_drops() {
        let ctx = Ctx {
            retry: true,
            ..Ctx::default()
        };
        let Verdict::Step { actions, next, .. } = step(S::Gone, E::StaleEpoch, ctx) else {
            panic!("Gone × StaleEpoch must step");
        };
        assert_eq!(next, S::Gone, "a stale frame revives nothing");
        assert_eq!(actions, [A::CountStaleEpoch]);
        // Stale classification only exists with the recovery layer armed.
        assert_eq!(step(S::Gone, E::StaleEpoch, Ctx::default()), Verdict::Error);
    }

    #[test]
    fn replayed_frames_are_tolerated_with_retry() {
        let ctx = Ctx {
            retry: true,
            ..Ctx::default()
        };
        assert!(matches!(
            step(S::Gone, E::CtsRx, ctx),
            Verdict::Ignore {
                defensive: false,
                ..
            }
        ));
        assert!(matches!(
            step(S::Gone, E::FinRx, ctx),
            Verdict::Ignore {
                defensive: false,
                ..
            }
        ));
        assert!(matches!(
            step(S::RDone, E::DataRx, ctx),
            Verdict::Step { .. }
        ));
    }
}
