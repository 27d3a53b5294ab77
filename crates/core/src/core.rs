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
//!
//! ## Engine and shell
//!
//! All protocol state and every decision lives in `crate::engine`, a
//! plain value whose methods take `&mut self` and the current time and
//! name no lock, fabric or event queue. [`NmCore`] is the shell around
//! it: every entry point locks the engine once, makes one engine call,
//! takes the ordered list of effects that call produced, unlocks, and
//! hands the list to the one executor (`NmCore::execute`) — the only
//! code here that touches the fabric, the recorder or the event hook.
//! A call that produced no effects is done after that one lock, and an
//! idle progress cycle makes no call at all: it asks
//! [`NmCore::has_work`] first.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use simnet::{CopyMeter, Fabric, NmBuf, NodeId, RailId, Scheduler, SimDuration, SimTime};

use crate::config::NmConfig;
use crate::engine::{Effect, Engine, EngineSnapshot, SentTag};
use crate::matching::GateId;
use crate::membership::{Death, PeerLiveness};
use crate::sampling::LinkProfile;
use crate::sr::{NmCompletion, RecvReqId, SendReqId};
pub use crate::stats::NmStats;
use crate::wire::NmWire;

/// Hook invoked (from an event callback) when something happened that a
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

/// What the shell's one lock guards.
struct Shell {
    engine: Engine,
    /// The effect list the previous call drained, kept for its capacity:
    /// calls trade it for the engine's filled one, so a steady-state
    /// progress pass allocates no list.
    spare: Vec<Effect>,
}

/// One NewMadeleine instance (per process).
pub struct NmCore {
    rank: usize,
    net: NmNet,
    shell: Mutex<Shell>,
    /// Set once, at wiring time.
    hook: OnceLock<EventHook>,
    /// Where [`Effect::Span`]s are appended.
    recorder: Option<Arc<obs::Recorder>>,
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
        // Startup sampling: fit each rail's latency/bandwidth profile
        // (§2.2, the adaptive split ratio input).
        let profiles: Vec<LinkProfile> = net
            .rails
            .iter()
            .map(|&rid| LinkProfile::sample(net.fabric.model(rid)))
            .collect();
        let probe_peer = net
            .rank_to_node
            .iter()
            .enumerate()
            .find(|&(r, &n)| r != rank && n != net.node)
            .map(|(r, _)| r);
        let rec = obs::RankRec::new(recorder, rank as u32);
        let nranks = net.rank_to_node.len();
        Arc::new(NmCore {
            rank,
            shell: Mutex::new(Shell {
                engine: Engine::new(cfg, rank, nranks, profiles, probe_peer, meter, rec),
                spare: Vec::new(),
            }),
            net,
            hook: OnceLock::new(),
            recorder: recorder.map(Arc::clone),
        })
    }

    /// This core's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Install the background-progress hook (PIOMan).
    pub fn set_event_hook(&self, hook: EventHook) {
        assert!(self.hook.set(hook).is_ok(), "event hook installed twice");
    }

    /// The stack-wide copy meter this core charges.
    pub fn meter(&self) -> Arc<CopyMeter> {
        Arc::clone(&self.shell.lock().engine.meter)
    }

    /// One entry point: lock the engine, make the call, take the effects
    /// it produced, unlock, execute them (and hand the emptied list back).
    fn with_engine<R>(
        self: &Arc<Self>,
        sched: &Scheduler,
        call: impl FnOnce(&mut Engine) -> R,
    ) -> R {
        let (result, mut effects) = {
            let mut shell = self.shell.lock();
            let shell = &mut *shell;
            let result = call(&mut shell.engine);
            shell.engine.swap_effects(&mut shell.spare);
            if shell.spare.is_empty() {
                return result;
            }
            (result, std::mem::take(&mut shell.spare))
        };
        self.execute(sched, &mut effects);
        self.shell.lock().spare = effects;
        result
    }

    /// The engine's view of the local NIC ports at `now`: could rail `i`
    /// start a transfer at once?
    fn rail_idle(&self, now: SimTime) -> impl Fn(usize) -> bool + '_ {
        move |i| {
            !self
                .net
                .fabric
                .rail_busy(self.net.rails[i], self.net.node, now)
        }
    }

    /// The executor: perform `effects` in order (see [`crate::engine`] for
    /// why the order is the engine's to decide).
    fn execute(self: &Arc<Self>, sched: &Scheduler, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            let (wire, rail, sent) = match effect {
                Effect::Span(event) => {
                    if let Some(recorder) = &self.recorder {
                        recorder.record(event);
                    }
                    continue;
                }
                Effect::Hook => {
                    if let Some(hook) = self.hook.get() {
                        hook(sched);
                    }
                    continue;
                }
                Effect::Packet { wire, rail, sent } => (wire, self.net.rails[rail], sent),
            };
            let fabric = &self.net.fabric;
            let (src, dst) = (self.net.node, self.net.rank_to_node[wire.dst_rank()]);
            let bytes = wire.wire_bytes();
            let Some(sent) = sent else {
                // Express lane: acks, handshake replays and probes must not
                // sit FIFO behind a queued rendezvous payload, or every
                // control round trip inflates past the retransmission
                // timeout and the retry layer starts indicting healthy
                // rails.
                fabric.send_express(sched, rail, src, dst, bytes, wire, None);
                continue;
            };
            // NewMadeleine "does not use any caching mechanism for large
            // messages and registers dynamically and on-the-fly the needed
            // memory" (§4.1.1): rendezvous data pays the registration cost
            // before the NIC sees the buffer.
            let reg = if sent.data_chunk_rdv.is_some() {
                let r = fabric.model(rail).registration_cost(bytes, false);
                // Injected registration-cache miss: pay a second
                // (re-)registration round before the NIC sees the buffer.
                if fabric.reg_cache_miss(rail) {
                    r + r
                } else {
                    r
                }
            } else {
                SimDuration::ZERO
            };
            let core = Arc::clone(self);
            let on_sent: Box<dyn FnOnce(&Scheduler) + Send> =
                Box::new(move |s| core.handle_sent(s, sent));
            if reg > SimDuration::ZERO {
                let fabric = Arc::clone(fabric);
                sched.schedule_in(reg, move |s| {
                    fabric.send(s, rail, src, dst, bytes, wire, Some(on_sent));
                });
            } else {
                fabric.send(sched, rail, src, dst, bytes, wire, Some(on_sent));
            }
        }
    }

    /// NIC send-completion of one committed packet.
    fn handle_sent(self: &Arc<Self>, sched: &Scheduler, sent: SentTag) {
        let now = sched.now();
        self.with_engine(sched, |e| e.sent(now, sent, &self.rail_idle(now)));
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
        self.with_engine(sched, |e| {
            e.isend(sched.now(), dst, tag, data.into(), cookie)
        })
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
        self.with_engine(sched, |e| e.irecv(sched.now(), src, tag, cookie))
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
    /// dropped — the retry layer replays it like a lost packet. In retry
    /// mode a progress pass runs inline (`accept` runs on the engine
    /// thread, so that is safe).
    pub fn accept_delivery(
        self: &Arc<Self>,
        sched: &Scheduler,
        wire: NmWire,
        rail: usize,
        corrupted: bool,
    ) {
        let now = sched.now();
        self.with_engine(sched, |e| {
            e.accept(now, wire, rail, corrupted, &self.rail_idle(now))
        });
    }

    /// `nm_schedule`: process inbound packets, sweep retransmission timers
    /// (retry mode), then commit the submission windows. The MPI progress
    /// engine (or PIOMan) calls this.
    pub fn schedule(self: &Arc<Self>, sched: &Scheduler) {
        let now = sched.now();
        self.with_engine(sched, |e| e.schedule(now, &self.rail_idle(now)));
    }

    /// Crash/teardown: empty every queue and go permanently quiescent.
    /// Models the process dying — nothing is flushed, nothing is acked,
    /// and the simulated fabric (node-fault windows) makes the silence
    /// real on the wire. Peers detect the death via their own membership
    /// supervision; this rank simply stops participating.
    pub fn halt(&self) {
        self.shell.lock().engine.halt();
    }

    /// The earliest instant at which [`NmCore::schedule`] has timer work
    /// (a retransmission, a rail probe, a membership silence check);
    /// `None` when retry is off or nothing is armed. How long a blocked
    /// caller may sleep if nothing arrives: everything else that gives
    /// this core work announces itself through the event hook.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.shell.lock().engine.next_deadline()
    }

    /// Would a progress pass here do anything ([`Engine::has_work`])?
    /// The MPI progress cycle asks this first and returns at once on
    /// `false`, instead of locking the engine for `schedule` and each
    /// drain in turn.
    pub fn has_work(&self) -> bool {
        self.shell.lock().engine.has_work()
    }

    /// Drain all surfaced completions (cookies of finished requests).
    pub fn drain_completions(&self) -> Vec<NmCompletion> {
        self.shell.lock().engine.take_completions()
    }

    /// Is there an unexpected message from `(gate, tag)`?
    pub fn probe(&self, gate: GateId, tag: u64) -> bool {
        self.probe_info(gate, tag).is_some()
    }

    /// Earliest-arrived unexpected message with `tag` from any gate — the
    /// ANY_SOURCE probe (§3.2.2).
    pub fn probe_tag(&self, tag: u64) -> Option<GateId> {
        self.probe_tag_info(tag).map(|(gate, _)| gate)
    }

    /// Probe with payload length, for MPI_Iprobe's status.
    pub fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        self.shell.lock().engine.probe_info(gate, tag)
    }

    /// ANY_SOURCE probe with gate and payload length.
    pub fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        self.shell.lock().engine.probe_tag_info(tag)
    }

    /// Posted receives not yet matched (diagnostics).
    pub fn posted_recvs(&self) -> usize {
        let shell = self.shell.lock();
        shell.engine.peers.values().map(|g| g.posted()).sum()
    }

    /// Unexpected messages queued (diagnostics).
    pub fn unexpected_msgs(&self) -> usize {
        let shell = self.shell.lock();
        shell.engine.peers.values().map(|g| g.unexpected()).sum()
    }

    /// Nothing in flight, nothing pending?
    pub fn quiescent(&self) -> bool {
        self.shell.lock().engine.quiescent()
    }

    /// Counter snapshot (includes the live copy-meter tally and the
    /// rail-health table's failover counters).
    pub fn stats(&self) -> NmStats {
        self.shell.lock().engine.stats()
    }

    /// The engine's state as one typed value, with the job-wide copy
    /// meter's reading filled in. Its `Display` is the dump line of a
    /// failed run; nothing else in the stack formats nmad state.
    pub fn snapshot(&self) -> EngineSnapshot {
        let shell = self.shell.lock();
        let mut snapshot = shell.engine.snapshot();
        snapshot.stats.copy = shell.engine.meter.snapshot();
        snapshot
    }

    /// Is the membership supervisor armed?
    pub fn membership_enabled(&self) -> bool {
        self.shell.lock().engine.membership.is_some()
    }

    /// Liveness verdict for one peer (`Up` when membership is off — the
    /// happy path treats every peer as alive).
    pub fn peer_state(&self, peer: usize) -> PeerLiveness {
        let shell = self.shell.lock();
        let table = shell.engine.membership.as_ref();
        table.map_or(PeerLiveness::Up, |m| m.state(peer))
    }

    /// Declare `peer` dead out-of-band (an upper layer learned of the
    /// death through a side channel — a resource manager, a test harness)
    /// and run the drain immediately. Returns `false` when membership is
    /// off or the peer was already dead.
    pub fn declare_peer_dead(self: &Arc<Self>, sched: &Scheduler, peer: usize) -> bool {
        self.with_engine(sched, |e| e.declare_peer_dead(sched.now(), peer))
    }

    /// True when membership is armed and `peer` has been declared dead.
    pub fn is_peer_dead(&self, peer: usize) -> bool {
        let shell = self.shell.lock();
        shell
            .engine
            .membership
            .as_ref()
            .is_some_and(|m| m.is_dead(peer))
    }

    /// Drain the queue of freshly-dead peers (each peer appears exactly
    /// once, in verdict order). The MPI layer polls this to retire VCs,
    /// flush ANY_SOURCE windows and shrink collective groups.
    pub fn take_dead_peers(&self) -> Vec<usize> {
        self.shell.lock().engine.dead_events.drain(..).collect()
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
    pub fn revoke_epoch(self: &Arc<Self>, sched: &Scheduler, epoch: u32) -> bool {
        self.with_engine(sched, |e| e.revoke_epoch(sched.now(), epoch))
    }

    /// Drain the queue of freshly-revoked epochs (each appears exactly
    /// once, in verdict order). The MPI progress engine polls this to
    /// fail collective state and forward the poison frame to every
    /// communicator member it hasn't provably reached.
    pub fn take_revoked_epochs(&self) -> Vec<u32> {
        self.shell.lock().engine.revoked_events.drain(..).collect()
    }

    /// Put one revoke poison frame for `epoch` on the wire toward `dst`
    /// (express lane — the poison must not queue behind the very bulk
    /// traffic it is cancelling).
    pub fn send_revoke(self: &Arc<Self>, sched: &Scheduler, dst: usize, epoch: u32) {
        self.with_engine(sched, |e| e.send_revoke(dst, epoch));
    }

    /// Commit a new communicator epoch after a shrink/rebuild or a
    /// join-merge. Frames of every earlier epoch (agreement and join keys
    /// excepted) are stale from here on; any still-pending operation of a
    /// superseded epoch is quiesced now with a revoked-epoch error.
    /// Epochs only move forward — a stale commit is a no-op.
    pub fn advance_epoch(self: &Arc<Self>, sched: &Scheduler, new_epoch: u8) {
        self.with_engine(sched, |e| e.advance_epoch(sched.now(), new_epoch));
    }

    /// The highest committed communicator epoch on this rank.
    pub fn committed_epoch(&self) -> u8 {
        self.shell.lock().engine.committed_epoch
    }

    /// Retire one agreement instance (a collective key with its round
    /// bits masked, see [`crate::keys::instance_of`]): every still-buffered
    /// or late frame of that instance — pass rounds and the DECIDED
    /// broadcast alike — is counted stale and dropped, and its abandoned
    /// posted receives complete with a revoked-epoch error. The MPI layer
    /// calls this as each agreement returns, so epoch-exempt keys cannot
    /// leak state the epoch filter will never cover.
    pub fn retire_instance(self: &Arc<Self>, sched: &Scheduler, instance: u64) {
        self.with_engine(sched, |e| e.retire_instance(sched.now(), instance));
    }

    /// Death log, in verdict order — the raw material for
    /// detection-latency histograms.
    pub fn death_log(&self) -> Vec<Death> {
        let shell = self.shell.lock();
        let table = shell.engine.membership.as_ref();
        table.map(|m| m.deaths().to_vec()).unwrap_or_default()
    }

    /// Records still held for `peer` — its gate plus one per flow,
    /// in-flight rendezvous and tombstone, the unit `peer_entries` sums —
    /// so 0 exactly when the core holds no record for it at all: the
    /// drain's acceptance gate once the drain has run.
    pub fn peer_entry_count(&self, peer: usize) -> usize {
        let shell = self.shell.lock();
        shell.engine.peers.get(&peer).map_or(0, |g| g.records())
    }

    /// Bytes of unexpected eager payload currently buffered (tracked
    /// whether or not flow control is armed).
    pub fn unexpected_eager_bytes(&self) -> usize {
        self.shell.lock().engine.unex_eager_bytes
    }
}

#[cfg(test)]
mod tests {
    //! The engine's loopback script once more, through two `NmCore`s on a
    //! simulated fabric: same traffic, same losses, same counters.

    use bytes::Bytes;
    use simnet::{NicModel, RankCtx, SimBuilder};

    use super::*;
    use crate::engine::loopback::{self, Lossy, World};

    struct OnFabric<'a> {
        ctx: &'a RankCtx,
        cores: [Arc<NmCore>; 2],
    }

    impl World for OnFabric<'_> {
        fn isend(&mut self, from: usize, tag: u64, data: Bytes, cookie: u64) {
            self.cores[from].isend(&self.ctx.scheduler(), 1 - from, tag, data, cookie);
        }

        fn irecv(&mut self, at: usize, tag: u64, cookie: u64) {
            self.cores[at].irecv(&self.ctx.scheduler(), 1 - at, tag, cookie);
        }

        fn poll(&mut self, micros: u64) {
            for _ in 0..micros {
                for core in &self.cores {
                    core.schedule(&self.ctx.scheduler());
                }
                self.ctx.advance(SimDuration::micros(1));
            }
        }

        fn completions(&mut self, at: usize) -> Vec<NmCompletion> {
            self.cores[at].drain_completions()
        }

        fn stats(&self, at: usize) -> NmStats {
            self.cores[at].stats()
        }
    }

    fn run_on_fabric(lossy: bool) -> [NmStats; 2] {
        let mut sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<NmWire>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
        let rank_to_node = Arc::new(vec![NodeId(0), NodeId(1)]);
        let wire_faults = Arc::new(Mutex::new(lossy.then(Lossy::default)));
        let cores = [0, 1].map(|rank| {
            let net = NmNet {
                fabric: Arc::clone(&fabric),
                node: NodeId(rank),
                rails: vec![RailId(0)],
                rank_to_node: Arc::clone(&rank_to_node),
            };
            let core = NmCore::new(loopback::config(lossy), rank, net);
            let (sink, faults) = (Arc::clone(&core), Arc::clone(&wire_faults));
            fabric.set_sink(
                NodeId(rank),
                Box::new(move |s, d| {
                    if !faults.lock().as_mut().is_some_and(|l| l.loses(&d.msg)) {
                        sink.accept(s, d.msg);
                    }
                }),
            );
            core
        });
        let stats = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&stats);
        sim.spawn_rank("driver", move |ctx| {
            let mut world = OnFabric { ctx: &ctx, cores };
            *slot.lock() = Some(loopback::script(&mut world));
            assert!(world.cores.iter().all(|c| c.quiescent()));
        });
        sim.run().unwrap();
        let stats = stats.lock().take();
        stats.expect("the driver rank ran the script")
    }

    #[test]
    fn bare_engines_and_cores_on_a_fabric_count_alike() {
        for lossy in [false, true] {
            assert_eq!(loopback::run(lossy), run_on_fabric(lossy), "lossy: {lossy}");
        }
    }
}
