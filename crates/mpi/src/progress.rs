//! The per-rank process state and the progress engine.
//!
//! [`ProcState`] ties everything together for one MPI process: the request
//! table, the VC table, the CH3 engine + transports, the NewMadeleine core
//! (on bypass stacks), the ANY_SOURCE lists, and — when PIOMan is enabled —
//! the semaphore-based waiting of §3.3.2.
//!
//! One **progress cycle** ([`ProcState::progress_cycle`]) is the unit of
//! work both progress modes share. It first asks every layer whether it
//! has work at this instant and returns at once when none has; otherwise
//! it goes on to
//!
//! 1. drive NewMadeleine (`nm_schedule`) or the CH3 network transport and
//!    apply its completions,
//! 2. drain the shared-memory channel through the CH3 engine,
//! 3. run the ANY_SOURCE probes of §3.2.2.
//!
//! Without PIOMan, the cycle runs inside the application's wait loops
//! (busy-wait polling, `poll_gran` steps). With PIOMan, ranks block on a
//! semaphore and the cycle runs as a PIOMan ltask after each event kick —
//! with the measured synchronization costs as reaction latency, and
//! per-message completion costs applied as completion *delays* (the work
//! happens on another core, but the requester still observes it).

use std::sync::Arc;

use bytes::Bytes;
use simnet::{
    CopyMeter, NmBuf, PollOutcome, PollSchedule, RankCtx, Scheduler, SimDuration, SimSemaphore,
    SimTime,
};

use nemesis::ShmModel;
use nmad::sr::CompletionKind;
use nmad::NmCore;
use piom::PiomServer;

use crate::api::{Src, Status};
use crate::backoff;
use crate::ch3::{Ch3Engine, Ch3Event, Ch3Out, Ch3Pkt};
use crate::costs::SoftwareCosts;
use crate::rank::RankState;
use crate::request::{NmadBinding, Req, ReqKind, ReqPath};
use crate::transport::Ch3Transport;
use crate::vc::{VcPath, VcTable};

/// User-level communicator context (COMM_WORLD point-to-point).
/// Re-exported from the canonical key layout in `nmad::keys` — the core's
/// epoch hygiene (stale-frame filtering, revoke quiesce) decodes the same
/// bit layout the MPI layer encodes.
pub const USER_CTX: u16 = nmad::keys::USER_CTX;
/// Context reserved for the collectives in `collectives.rs`.
pub const COLL_CTX: u16 = nmad::keys::COLL_CTX;

/// Combine a context id and tag into the 64-bit matching key.
#[inline]
pub fn key_of(ctx: u16, tag: u32) -> u64 {
    ((ctx as u64) << 48) | tag as u64
}

/// Recover the user tag from a key.
#[inline]
pub fn tag_of(key: u64) -> u32 {
    (key & 0xffff_ffff) as u32
}

/// The inter-node path of this stack.
pub enum NetPath {
    /// No remote peers (single-node job).
    None,
    /// The bypass: CH3 calls NewMadeleine directly (§3.1).
    Direct(Arc<NmCore>),
    /// CH3 protocols over a packet transport (legacy netmod / baselines).
    Ch3(Arc<dyn Ch3Transport>),
}

/// Everything one rank's MPI library knows: immutable wiring (topology,
/// transports, costs, PIOMan) around the one [`RankState`] it mutates.
///
/// **One owner, one lock.** Every MPI entry point — `isend_key`,
/// `irecv_key`, `progress_cycle`, each tick of `wait`/`probe`/`finalize`,
/// the PIOMan ltask, the delayed `finish_recv` completion — takes `state`
/// exactly once, works on `&mut RankState`, and executes the CH3 engine's
/// out-list (`ProcState::route`) before it lets go. **Never across a
/// park:** the lock is released before `ctx.advance`, `wake.wait` and
/// arming `poll_until` (each asserts so in debug builds) — exactly one OS
/// thread runs at a time, so a lock held by a parked rank is a deadlock,
/// not contention.
pub struct ProcState {
    pub rank: usize,
    pub size: usize,
    pub vcs: VcTable,
    state: parking_lot::Mutex<RankState>,
    pub shm: Option<Arc<dyn Ch3Transport>>,
    pub shm_model: Option<ShmModel>,
    pub net: NetPath,
    /// Eager/rendezvous boundary on the CH3 network path.
    pub net_eager_limit: usize,
    pub costs: SoftwareCosts,
    /// Job-wide copy accounting: MPI-ingress copies are charged here and
    /// the meter rides along inside every payload handle.
    pub meter: Arc<CopyMeter>,
    pub piom: Option<Arc<PiomServer>>,
    /// Wake semaphore for blocked waiters (PIOMan mode).
    pub wake: SimSemaphore,
}

impl ProcState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        size: usize,
        vcs: VcTable,
        engine: Ch3Engine,
        shm: Option<Arc<dyn Ch3Transport>>,
        shm_model: Option<ShmModel>,
        net: NetPath,
        net_eager_limit: usize,
        costs: SoftwareCosts,
        meter: Arc<CopyMeter>,
        piom: Option<Arc<PiomServer>>,
    ) -> Arc<ProcState> {
        Arc::new(ProcState {
            rank,
            size,
            vcs,
            state: RankState::new(engine).into(),
            shm,
            shm_model,
            net,
            net_eager_limit,
            costs,
            meter,
            piom,
            wake: SimSemaphore::new(format!("mpi-wake-{rank}")),
        })
    }

    /// The one place the rank's lock is taken: every entry point runs its
    /// body as `f`, and callers outside this file read the state between
    /// entry points with it (request verdicts, the collective sequence
    /// number, a snapshot). `f` must not park and must not come back here.
    /// Exactly one OS thread runs at a time and none parks holding the
    /// lock, so it is always free: finding it taken is one of those two
    /// bugs, and a panic that says so beats the deadlock it would be.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut RankState) -> R) -> R {
        let mut state = self.state.try_lock();
        f(state
            .as_mut()
            .expect("rank state re-entered, or held across a park"))
    }

    /// The dead peer `req` failed on, if it completed with that error.
    pub fn failed_peer(&self, req: Req) -> Option<usize> {
        self.with_state(|st| st.reqs.failed_peer(req))
    }

    /// The rank is about to give up the token: the state lock must be
    /// free, or whoever runs next deadlocks on it.
    fn about_to_park(&self) {
        debug_assert!(
            self.state.try_lock().is_some(),
            "rank state locked across a park"
        );
    }

    /// Park site 1 of 3: charge `d` of software cost to the rank's clock.
    fn advance(&self, ctx: &RankCtx, d: SimDuration) {
        self.about_to_park();
        ctx.advance(d);
    }

    /// Park site 2 of 3: busy-wait on `schedule` until `body` says
    /// [`PollOutcome::Ready`]: now (as tick 0, on this rank's stack), then
    /// at each tick, where events are dispatched
    /// ([`RankCtx::poll_until`]), so `body` owns what it needs. A body
    /// says `Idle` only when its wait's condition is false and no layer
    /// had work ([`ProcState::has_work`]): such a tick read state and
    /// changed nothing.
    pub(crate) fn poll(
        &self,
        ctx: &RankCtx,
        schedule: PollSchedule,
        mut body: impl FnMut(&Scheduler, u32) -> PollOutcome + Send + 'static,
    ) {
        self.about_to_park();
        if body(&ctx.scheduler(), 0) != PollOutcome::Ready {
            ctx.poll_until(schedule, body);
        }
    }

    // ------------------------------------------------------------------
    // Posting operations
    // ------------------------------------------------------------------

    /// Nonblocking send (MPID_Isend). Charges the sender-side software
    /// cost on the caller's clock. The payload handle flows down the whole
    /// stack without further copies; unmetered handles pick up the job
    /// meter here.
    pub fn isend(
        self: &Arc<Self>,
        ctx: &RankCtx,
        dst: usize,
        tag: u32,
        data: impl Into<NmBuf>,
    ) -> Req {
        self.isend_key(ctx, dst, key_of(USER_CTX, tag), data.into())
    }

    pub(crate) fn isend_key(
        self: &Arc<Self>,
        ctx: &RankCtx,
        dst: usize,
        key: u64,
        data: impl Into<NmBuf>,
    ) -> Req {
        let data = data.into();
        let data = if data.meter().is_none() {
            data.with_meter(&self.meter)
        } else {
            data
        };
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let sched = ctx.scheduler();
        let path = self.vcs.path(dst);
        // The sender-side cost is a park, so it is paid before the lock is
        // taken (only this rank creates requests: the id is the same).
        match path {
            VcPath::SelfLoop => {}
            VcPath::Shm => {
                let model = self.shm_model.expect("shm path without shm model");
                self.advance(ctx, self.costs.shm_send + model.send_cpu_cost(data.len()));
            }
            VcPath::NmadDirect | VcPath::Ch3Net => self.advance(ctx, self.costs.net_send),
        }
        self.with_state(|st| match path {
            VcPath::SelfLoop => {
                let req = st.reqs.create(ReqKind::Send, ReqPath::SelfLoop);
                st.selfq.push_back(Ch3Pkt::Eager { key, data });
                st.reqs.complete_send(req);
                self.drain_selfq(st, &sched);
                req
            }
            VcPath::Shm => {
                let req = st.reqs.create(ReqKind::Send, ReqPath::Shm);
                // The cell queues fragment + flow-control any size: always
                // eager on the shm path.
                let done = st.engine.send_msg(req, dst, key, data, usize::MAX);
                debug_assert!(done);
                self.route(st, &sched);
                st.reqs.complete_send(req);
                req
            }
            VcPath::NmadDirect => {
                // §3.1.2: MPID_Send resolves directly to the NewMadeleine
                // send for remote destinations.
                let req = st.reqs.create(ReqKind::Send, ReqPath::Net);
                let nm = self.core().isend(&sched, dst, key, data, req.0 as u64);
                st.reqs.bind_nmad(req, NmadBinding::Send(nm));
                // With PIOMan the submission is offloaded: an idle core
                // will commit the window after the sync cost (§2.2.2,
                // "offloading eager messages submission").
                if let Some(p) = &self.piom {
                    p.kick_net(&sched);
                }
                req
            }
            VcPath::Ch3Net => {
                let req = st.reqs.create(ReqKind::Send, ReqPath::Net);
                let done = st
                    .engine
                    .send_msg(req, dst, key, data, self.net_eager_limit);
                self.route(st, &sched);
                if done {
                    st.reqs.complete_send(req);
                }
                if let Some(p) = &self.piom {
                    p.kick_net(&sched);
                }
                req
            }
        })
    }

    /// The NewMadeleine core behind an `NmadDirect` VC.
    fn core(&self) -> &Arc<NmCore> {
        match &self.net {
            NetPath::Direct(c) => c,
            _ => unreachable!("NmadDirect VC without a core"),
        }
    }

    /// Nonblocking receive (MPID_Irecv).
    pub fn irecv(self: &Arc<Self>, ctx: &RankCtx, src: Src, tag: u32) -> Req {
        self.irecv_key(ctx, src, key_of(USER_CTX, tag))
    }

    pub(crate) fn irecv_key(self: &Arc<Self>, ctx: &RankCtx, src: Src, key: u64) -> Req {
        let sched = ctx.scheduler();
        self.with_state(|st| match src {
            Src::Rank(s) => {
                assert!(s < self.size, "recv from rank {s} of {}", self.size);
                match self.vcs.path(s) {
                    VcPath::SelfLoop => {
                        let req = st.reqs.create(ReqKind::Recv, ReqPath::SelfLoop);
                        self.post_ch3_recv(st, &sched, req, Some(s), key);
                        self.drain_selfq(st, &sched);
                        req
                    }
                    VcPath::Shm => {
                        let req = st.reqs.create(ReqKind::Recv, ReqPath::Shm);
                        self.post_ch3_recv(st, &sched, req, Some(s), key);
                        req
                    }
                    VcPath::NmadDirect => {
                        let req = st.reqs.create(ReqKind::Recv, ReqPath::Net);
                        // §3.2.2 ordering: while an ANY_SOURCE receive with
                        // this tag is pending, same-tag specific receives
                        // must queue behind it.
                        if !st.anysource.try_park_specific(key, req, s) {
                            let nm = self.core().irecv(&sched, s, key, req.0 as u64);
                            st.reqs.bind_nmad(req, NmadBinding::Recv(nm));
                        }
                        req
                    }
                    VcPath::Ch3Net => {
                        let req = st.reqs.create(ReqKind::Recv, ReqPath::Net);
                        self.post_ch3_recv(st, &sched, req, Some(s), key);
                        req
                    }
                }
            }
            Src::Any => {
                let req = st.reqs.create(ReqKind::RecvAnySource, ReqPath::Unknown);
                // The CH3 queues serve intra-node arrivals (and ALL
                // arrivals on non-bypass stacks).
                let flag = self.post_ch3_recv(st, &sched, req, None, key);
                if let (NetPath::Direct(_), Some(flag)) = (&self.net, flag) {
                    if self.vcs.has_remote() {
                        // Bypass stack: inter-node ANY_SOURCE needs the
                        // §3.2 lists.
                        st.anysource.register_any(key, req, flag);
                    }
                }
                req
            }
        })
    }

    /// Post into the CH3 queues, applying any immediate completion.
    /// Returns the posted entry's active flag if the receive stays pending.
    fn post_ch3_recv(
        self: &Arc<Self>,
        st: &mut RankState,
        sched: &Scheduler,
        req: Req,
        src: Option<usize>,
        key: u64,
    ) -> Option<crate::queues::ActiveFlag> {
        let flag = st.engine.post_recv(req, src, key);
        self.route(st, sched);
        flag
    }

    // ------------------------------------------------------------------
    // The progress cycle
    // ------------------------------------------------------------------

    /// Run one progress cycle. Pure with respect to the caller's clock —
    /// timing costs are charged by waiters (app-polling) or as completion
    /// delays (PIOMan). Returns whether any layer had work.
    pub fn progress_cycle(self: &Arc<Self>, sched: &Scheduler) -> bool {
        self.with_state(|st| self.cycle(st, sched))
    }

    /// One wait tick: is `req` done — now, or after one more cycle?
    fn done_or_cycle(self: &Arc<Self>, req: Req, sched: &Scheduler) -> PollOutcome {
        self.with_state(|st| {
            if st.reqs.is_done(req) {
                return PollOutcome::Ready;
            }
            let worked = self.cycle(st, sched);
            PollOutcome::of(st.reqs.is_done(req), worked)
        })
    }

    /// One progress cycle; `false` when it stopped at once because no
    /// layer had work, and so changed nothing.
    fn cycle(self: &Arc<Self>, st: &mut RankState, sched: &Scheduler) -> bool {
        // 0. Most cycles find nothing to do: ask every layer first, and
        // stop here when none has work at this instant.
        if !self.has_work(st) {
            return false;
        }
        // 1. Inter-node.
        match &self.net {
            NetPath::Direct(core) => {
                core.schedule(sched);
                self.drain_nm(st, sched, core);
                // Promote fresh death verdicts from the membership
                // supervisor into MPI-layer state: tear down the VC and
                // fail any ANY_SOURCE-parked specifics aimed at the corpse
                // (they would otherwise wait forever behind a head that can
                // never match them from that source).
                for peer in core.take_dead_peers() {
                    st.retired.retire(peer);
                    for rel in st.anysource.purge_src(peer) {
                        self.finish_recv_failed(st, sched, rel.req, peer);
                    }
                }
                // Revoke gossip (DESIGN.md §13): every epoch this rank just
                // learned is revoked — locally or from a peer's poison
                // frame — is forwarded once to every live remote peer.
                // `learn_revoke` is sticky, so the flood terminates after
                // each rank relays each epoch at most once.
                for epoch in core.take_revoked_epochs() {
                    for dst in self.vcs.remote_peers() {
                        if !st.retired.is_retired(dst) && !core.is_peer_dead(dst) {
                            core.send_revoke(sched, dst, epoch);
                        }
                    }
                }
            }
            NetPath::Ch3(t) => self.feed_ch3(st, sched, t.progress(sched)),
            NetPath::None => {}
        }
        // 2. Intra-node.
        if let Some(t) = &self.shm {
            self.feed_ch3(st, sched, t.progress(sched));
        }
        self.drain_selfq(st, sched);
        // 3. ANY_SOURCE probes (§3.2.2: "every time Nemesis polls for
        // incoming messages, we probe NewMadeleine").
        if let NetPath::Direct(core) = &self.net {
            let mut posted_any = false;
            for (key, req) in st.anysource.heads_to_probe() {
                if let Some(gate) = core.probe_tag(key) {
                    let nm = core.irecv(sched, gate.0, key, req.0 as u64);
                    st.reqs.bind_nmad(req, NmadBinding::Recv(nm));
                    st.reqs.set_path(req, ReqPath::Net);
                    st.anysource.mark_posted(key, gate.0);
                    posted_any = true;
                }
            }
            if posted_any {
                // The dynamically created request completes immediately
                // (the message already sits in NewMadeleine's buffers) —
                // surface it in this same cycle.
                self.drain_nm(st, sched, core);
            }
        }
        // 4. Final flush: packets produced while processing inbound traffic
        // (CTS → DATA, forwarded collectives, …) must leave before the
        // application regains control — their senders' requests may already
        // read complete.
        match &self.net {
            NetPath::Ch3(t) => t.flush(sched),
            NetPath::Direct(core) => core.schedule(sched),
            NetPath::None => {}
        }
        true
    }

    /// Would a cycle now do anything? Each layer answers for itself, and
    /// a false "work" only costs one ordinary cycle; a false "no work"
    /// would lose one.
    fn has_work(&self, st: &RankState) -> bool {
        st.has_work()
            || self.shm.as_ref().is_some_and(|t| t.has_work())
            || match &self.net {
                NetPath::Direct(core) => core.has_work(),
                NetPath::Ch3(t) => t.has_work(),
                NetPath::None => false,
            }
    }

    /// Apply NewMadeleine completions to the MPI request table.
    fn drain_nm(self: &Arc<Self>, st: &mut RankState, sched: &Scheduler, core: &Arc<NmCore>) {
        for c in core.drain_completions() {
            let req = Req(c.cookie as u32);
            match c.kind {
                CompletionKind::Send => self.finish_send(st, sched, req),
                CompletionKind::Recv { data, gate, tag } => {
                    let status = Status {
                        source: gate.0,
                        tag: tag_of(tag),
                        len: data.len(),
                    };
                    self.release_parked(st, sched, req);
                    self.finish_recv(st, sched, req, data, status);
                }
                // Membership drain verdicts (§2.2.1 no-cancel rule): the
                // operation is over, but with an error instead of data.
                CompletionKind::SendFailed { peer } => {
                    st.reqs.complete_send_failed(req, peer);
                    self.completed(sched);
                }
                CompletionKind::RecvFailed { gate, tag: _ } => {
                    // A failed ANY_SOURCE head still releases its parked
                    // specifics — those target other (possibly live) peers.
                    self.release_parked(st, sched, req);
                    self.finish_recv_failed(st, sched, req, gate.0);
                }
                // Revoke quiesce verdicts: the operation's epoch was torn
                // down. Like the membership drain, the request finishes —
                // with an error naming the revoked epoch instead of a
                // corpse.
                CompletionKind::SendRevoked { peer, epoch } => {
                    st.reqs.complete_send_revoked(req, peer, epoch);
                    self.completed(sched);
                }
                CompletionKind::RecvRevoked {
                    gate,
                    tag: _,
                    epoch,
                } => {
                    // Same release discipline as RecvFailed: a revoked
                    // ANY_SOURCE head must not strand its parked specifics.
                    self.release_parked(st, sched, req);
                    st.reqs.complete_recv_revoked(req, gate.0, epoch);
                    self.completed(sched);
                }
            }
        }
    }

    /// The single executor of the CH3 engine's out-list: in the order the
    /// engine decided them, packets leave toward their destination's VC
    /// and completions land in the request table.
    fn route(self: &Arc<Self>, st: &mut RankState, sched: &Scheduler) {
        for out in st.engine.take_out() {
            let (dst, pkt) = match out {
                Ch3Out::Event(e) => {
                    self.apply_ch3_event(st, sched, e);
                    continue;
                }
                Ch3Out::Pkt(dst, pkt) => (dst, pkt),
            };
            match self.vcs.path(dst) {
                VcPath::SelfLoop => st.selfq.push_back(pkt),
                VcPath::Shm => self
                    .shm
                    .as_ref()
                    .expect("shm packet without channel")
                    .send_pkt(sched, dst, pkt),
                VcPath::Ch3Net => match &self.net {
                    NetPath::Ch3(t) => t.send_pkt(sched, dst, pkt),
                    _ => unreachable!("Ch3Net VC without transport"),
                },
                VcPath::NmadDirect => {
                    unreachable!("CH3 protocol packet on the bypass path")
                }
            }
        }
    }

    /// Feed inbound CH3 packets through the protocol engine.
    fn feed_ch3(
        self: &Arc<Self>,
        st: &mut RankState,
        sched: &Scheduler,
        pkts: Vec<(usize, Ch3Pkt)>,
    ) {
        for (src, pkt) in pkts {
            st.engine.on_packet(src, pkt);
        }
        self.route(st, sched);
    }

    /// Deliver packets this rank sent to itself.
    fn drain_selfq(self: &Arc<Self>, st: &mut RankState, sched: &Scheduler) {
        while let Some(pkt) = st.selfq.pop_front() {
            st.engine.on_packet(self.rank, pkt);
            self.route(st, sched);
        }
    }

    /// `req` is over (matched, failed or revoked): if it was an ANY_SOURCE
    /// head, remove its entry and let its parked specifics flow to
    /// NewMadeleine.
    fn release_parked(&self, st: &mut RankState, sched: &Scheduler, req: Req) {
        let releases = st.anysource.on_complete(req);
        let NetPath::Direct(core) = &self.net else {
            debug_assert!(releases.is_empty());
            return;
        };
        for r in releases {
            let nm = core.irecv(sched, r.src, r.key, r.req.0 as u64);
            st.reqs.bind_nmad(r.req, NmadBinding::Recv(nm));
        }
    }

    fn apply_ch3_event(self: &Arc<Self>, st: &mut RankState, sched: &Scheduler, e: Ch3Event) {
        match e {
            Ch3Event::SendDone { req } => self.finish_send(st, sched, req),
            Ch3Event::RecvDone {
                req,
                data,
                src,
                key,
                was_any,
            } => {
                let status = Status {
                    source: src,
                    tag: tag_of(key),
                    len: data.len(),
                };
                // Record which path actually served the request (drives
                // completion-cost selection for ANY_SOURCE).
                let path = match self.vcs.path(src) {
                    VcPath::SelfLoop => ReqPath::SelfLoop,
                    VcPath::Shm => ReqPath::Shm,
                    _ => ReqPath::Net,
                };
                if st.reqs.path(req) == ReqPath::Unknown {
                    st.reqs.set_path(req, path);
                }
                if was_any {
                    // Intra-node match of a listed ANY_SOURCE request
                    // (§3.2.2, final paragraph).
                    self.release_parked(st, sched, req);
                }
                self.finish_recv(st, sched, req, data, status);
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion, costs, waiting
    // ------------------------------------------------------------------

    /// The receiver-side software cost of observing the completion of
    /// `req` with a `len`-byte payload.
    fn completion_cost(&self, st: &RankState, req: Req, len: usize) -> SimDuration {
        let kind = st.reqs.kind(req);
        if kind == ReqKind::Send {
            return SimDuration::ZERO; // sender cost charged at isend
        }
        let base = match st.reqs.path(req) {
            ReqPath::Net | ReqPath::Unknown => self.costs.net_recv,
            ReqPath::Shm => {
                let model = self.shm_model.expect("shm completion without model");
                self.costs.shm_recv + model.recv_cpu_cost(len)
            }
            ReqPath::SelfLoop => SimDuration::nanos(50),
        };
        if kind == ReqKind::RecvAnySource {
            base + self.costs.anysource_extra
        } else {
            base
        }
    }

    /// A request just completed: wake the rank if it blocks on completions
    /// (PIOMan mode) rather than polling for them.
    fn completed(&self, sched: &Scheduler) {
        if self.piom.is_some() {
            self.wake.signal(sched);
        }
    }

    fn finish_send(&self, st: &mut RankState, sched: &Scheduler, req: Req) {
        st.reqs.complete_send(req);
        self.completed(sched);
    }

    /// Terminal failure of a receive: its source was declared dead and the
    /// membership drain aborted the posted operation. No completion delay
    /// — there is no payload work, only the verdict.
    fn finish_recv_failed(&self, st: &mut RankState, sched: &Scheduler, req: Req, peer: usize) {
        st.reqs.complete_recv_failed(req, peer);
        self.completed(sched);
    }

    fn finish_recv(
        self: &Arc<Self>,
        st: &mut RankState,
        sched: &Scheduler,
        req: Req,
        data: Bytes,
        status: Status,
    ) {
        match &self.piom {
            Some(_) => {
                // The completion work runs on the progress core; the
                // requester observes it after that work's cost.
                let cost = self.completion_cost(st, req, status.len);
                let this = Arc::clone(self);
                sched.schedule_in(cost, move |s| {
                    this.with_state(|st| st.reqs.complete_recv(req, data, status));
                    this.wake.signal(s);
                });
            }
            None => st.reqs.complete_recv(req, data, status),
        }
    }

    /// MPI_Wait: block until `req` completes. Returns the payload (for
    /// receives) and the status.
    ///
    /// App-polling mode spins on a poll schedule with the bulk tier;
    /// PIOMan mode blocks on the wake semaphore (§3.3.2).
    pub fn wait(self: &Arc<Self>, ctx: &RankCtx, req: Req) -> (Option<Bytes>, Option<Status>) {
        let sched = ctx.scheduler();
        // Always drive progress at least once: buffered (eager) sends
        // complete immediately, but their packets still sit in the outbox /
        // submission window until a progress cycle flushes them — a
        // blocking send must leave the data on its way out before
        // returning, or a program whose last call is a send would strand
        // the message.
        self.progress_cycle(&sched);
        match &self.piom {
            None => {
                let this = Arc::clone(self);
                let schedule = backoff::with_bulk_tier(self.costs.poll_gran);
                self.poll(ctx, schedule, move |s, _| this.done_or_cycle(req, s));
            }
            Some(piom) => {
                while self.done_or_cycle(req, &sched) != PollOutcome::Ready {
                    // §3.3.2: block on the semaphore until a PIOMan pass
                    // completes something. The cycle above may have armed
                    // retransmission timers no pass has seen: hand PIOMan
                    // the deadline, so a lost packet that kills the whole
                    // kick chain still gets its pass.
                    piom.arm_pass(&sched, self.net_deadline());
                    // Park site 3 of 3.
                    self.about_to_park();
                    self.wake.wait(ctx);
                }
            }
        }
        let (claimed, cost) = self.with_state(|st| match st.reqs.claim(req) {
            // App-polling: the observer pays the completion cost.
            Some((data, status)) if self.piom.is_none() => {
                let len = status.map_or(0, |s| s.len);
                ((data, status), self.completion_cost(st, req, len))
            }
            Some(claimed) => (claimed, SimDuration::ZERO),
            // Already claimed (e.g. re-wait): hand back the status.
            None => ((None, st.reqs.status(req)), SimDuration::ZERO),
        });
        if cost > SimDuration::ZERO {
            self.advance(ctx, cost);
        }
        claimed
    }

    /// MPI_Test: nonblocking completion check (drives one progress cycle,
    /// like MPICH2's test).
    pub fn test(self: &Arc<Self>, ctx: &RankCtx, req: Req) -> bool {
        self.with_state(|st| {
            self.cycle(st, &ctx.scheduler());
            st.reqs.is_done(req)
        })
    }

    /// MPI_Iprobe: nonblocking check for a matchable incoming message.
    /// Drives one progress cycle, then inspects the unexpected state of
    /// whichever layer(s) would match the receive: the CH3 queues
    /// (intra-node, and everything on non-bypass stacks) and NewMadeleine's
    /// internal matching (inter-node on the bypass — the same probe the
    /// §3.2 ANY_SOURCE lists use).
    pub fn iprobe(self: &Arc<Self>, ctx: &RankCtx, src: Src, tag: u32) -> Option<Status> {
        self.cycle_and_probe(&ctx.scheduler(), src, tag).0
    }

    /// One cycle, then the probe; also whether the cycle had work.
    fn cycle_and_probe(
        self: &Arc<Self>,
        sched: &Scheduler,
        src: Src,
        tag: u32,
    ) -> (Option<Status>, bool) {
        self.with_state(|st| {
            let worked = self.cycle(st, sched);
            (self.iprobe_inner(st, src, tag), worked)
        })
    }

    /// MPI_Probe: block until [`ProcState::iprobe`] succeeds.
    pub fn probe(self: &Arc<Self>, ctx: &RankCtx, src: Src, tag: u32) -> Status {
        let schedule = match &self.piom {
            None => backoff::standard(self.costs.poll_gran),
            // PIOMan raises completions, not unexpected arrivals; probing
            // still needs a poll cadence.
            Some(_) => backoff::flat(SimDuration::nanos(500)),
        };
        let this = Arc::clone(self);
        self.poll(ctx, schedule, move |s, _| {
            let (hit, worked) = this.cycle_and_probe(s, src, tag);
            PollOutcome::of(hit.is_some(), worked)
        });
        self.with_state(|st| self.iprobe_inner(st, src, tag))
            .expect("the probe poll ends on a matchable message, and only this rank can consume it")
    }

    fn iprobe_inner(&self, st: &RankState, src: Src, tag: u32) -> Option<Status> {
        let key = key_of(USER_CTX, tag);
        // Which layer(s) would match the receive: the CH3 queues (asked
        // first) and/or NewMadeleine's own matching.
        let (from, ch3, nm) = match src {
            Src::Rank(s) => {
                let direct = self.vcs.path(s) == VcPath::NmadDirect;
                (Some(s), !direct, direct)
            }
            Src::Any => (None, true, true),
        };
        let in_ch3 = || st.engine.queues.probe(from, key);
        let in_nm = || match (&self.net, from) {
            (NetPath::Direct(core), Some(s)) => {
                core.probe_info(nmad::GateId(s), key).map(|len| (s, len))
            }
            (NetPath::Direct(core), None) => core.probe_tag_info(key).map(|(g, len)| (g.0, len)),
            _ => None,
        };
        let hit = ch3
            .then(in_ch3)
            .flatten()
            .or_else(|| nm.then(in_nm).flatten());
        hit.map(|(source, len)| Status { source, tag, len })
    }

    /// Probe for an unexpected inter-node message on a *full* 64-bit key
    /// (any source). Used by the fault-tolerant agreement to poll for a
    /// DECIDED broadcast while blocked in a pass round — the user-facing
    /// `iprobe` only speaks plain tags. Does not drive progress; callers
    /// poll inside their own progress loops.
    pub(crate) fn iprobe_key(&self, key: u64) -> Option<usize> {
        match &self.net {
            NetPath::Direct(core) => core.probe_tag(key).map(|g| g.0),
            _ => None,
        }
    }

    /// The instant the inter-node path next has timer work
    /// ([`NmCore::next_deadline`], directly or under the netmod tunnel):
    /// `None` without the retransmitting transport, or with nothing
    /// outstanding on the wire. PIOMan keeps its one timed pass armed here
    /// ([`PiomServer::arm_pass`]).
    pub fn net_deadline(&self) -> Option<SimTime> {
        match &self.net {
            NetPath::Direct(core) => core.next_deadline(),
            NetPath::Ch3(t) => t.next_deadline(),
            NetPath::None => None,
        }
    }

    /// CH3 unexpected-queue backlog of this rank: `(current buffered
    /// payload bytes, lifetime high-water mark)`. Incrementally maintained
    /// — cheap enough for per-iteration assertions in overload tests.
    pub fn unexpected_backlog(&self) -> (usize, usize) {
        self.with_state(|st| {
            let queues = &st.engine.queues;
            (queues.unexpected_bytes(), queues.unexpected_hwm())
        })
    }

    /// Is all outbound protocol work this rank is responsible for done?
    /// (Pending CH3 rendezvous halves, unsent submission-window packets.)
    fn quiescent(&self, st: &RankState) -> bool {
        if st.engine.rdv_in_flight() != 0 {
            return false;
        }
        match &self.net {
            NetPath::Direct(core) => core.quiescent(),
            NetPath::Ch3(t) => t.quiescent(),
            NetPath::None => true,
        }
    }

    /// MPI_Finalize semantics for app-polling ranks: a rank whose program
    /// has returned may still owe the network work — e.g. the DATA half of
    /// a (possibly nested) rendezvous whose CTS arrives after the last
    /// user-level wait completed. Real MPI drains this in MPI_Finalize;
    /// so do we, driving progress until the local protocol state is
    /// quiescent. PIOMan ranks need no drain: their progress is
    /// event-driven and keeps running as long as the simulation has
    /// events.
    pub fn finalize(self: &Arc<Self>, ctx: &RankCtx) {
        // Ticks of a drain that does not quiesce before it is a livelock.
        self.drain(ctx, 5_000_000);
    }

    /// The drain of [`ProcState::finalize`], whose livelock guard trips at
    /// tick `limit`, counting the first call, on the rank's stack, as
    /// tick 0.
    pub(crate) fn drain(self: &Arc<Self>, ctx: &RankCtx, limit: u32) {
        // A crashed rank's program ends abruptly; it neither drains nor
        // owes protocol work (its core is halted).
        if self.piom.is_some() || self.with_state(|st| st.crashed) {
            return;
        }
        let this = Arc::clone(self);
        self.poll(
            ctx,
            backoff::late_by_one(self.costs.poll_gran),
            move |s, tick| {
                let quiet = this.with_state(|st| {
                    this.cycle(st, s);
                    this.quiescent(st)
                });
                assert!(
                    quiet || tick < limit,
                    "MPI_Finalize drain did not quiesce (protocol leak?) at tick {tick}"
                );
                // Never `Idle`: the guard turns on the tick count alone, and
                // the ticks after an `Idle` are answered without this body.
                if quiet {
                    PollOutcome::Ready
                } else {
                    PollOutcome::Worked
                }
            },
        );
    }
}
