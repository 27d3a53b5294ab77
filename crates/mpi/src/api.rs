//! The MPI-facing API: the handle a rank program drives.
//!
//! [`MpiHandle`] bundles the rank's simulation context with its process
//! state and exposes MPI-shaped operations (`send`/`recv`/`isend`/`irecv`/
//! `wait`/…, plus the collectives of [`crate::collectives`]). Rank
//! programs — Netpipe, the NAS kernels, the examples — are written against
//! this type and run unchanged on every stack configuration.

use bytes::Bytes;
use simnet::{BufOrigin, NmBuf, RankCtx, SimDuration, SimTime};

use crate::progress::{NetPath, ProcState};
use crate::request::Req;
use std::sync::Arc;

/// An operation failed because its peer was declared dead by the
/// membership supervisor (§2.2.1 no-cancel rule: the request completed,
/// with this error, rather than being silently dropped).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerDead {
    pub peer: usize,
}

impl std::fmt::Display for PeerDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer rank {} was declared dead", self.peer)
    }
}

impl std::error::Error for PeerDead {}

/// Why a fault-tolerance-aware operation failed (see
/// [`MpiHandle::wait_ft`]): the peer died, or the whole communication
/// epoch was revoked. Callers react differently — exclusion (shrink) vs.
/// teardown-and-rebuild.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FtError {
    PeerDead { peer: usize },
    Revoked { epoch: u8 },
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::PeerDead { peer } => write!(f, "peer rank {peer} was declared dead"),
            FtError::Revoked { epoch } => write!(f, "communication epoch {epoch} was revoked"),
        }
    }
}

impl std::error::Error for FtError {}

/// Receive-source selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Src {
    Rank(usize),
    /// MPI_ANY_SOURCE.
    Any,
}

/// Completion envelope (MPI_Status).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Status {
    pub source: usize,
    pub tag: u32,
    pub len: usize,
}

/// The per-rank MPI handle.
pub struct MpiHandle {
    pub(crate) ctx: RankCtx,
    pub(crate) state: Arc<ProcState>,
}

impl Drop for MpiHandle {
    /// Implicit MPI_Finalize: when the rank program returns (dropping its
    /// handle), drain any protocol work this rank still owes the network
    /// (see [`ProcState::finalize`]). Skipped during a panic unwind so
    /// failure diagnostics aren't masked by a drain loop.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.state.finalize(&self.ctx);
        }
    }
}

impl MpiHandle {
    pub(crate) fn new(ctx: RankCtx, state: Arc<ProcState>) -> MpiHandle {
        MpiHandle { ctx, state }
    }

    /// This process's rank in COMM_WORLD.
    #[inline]
    pub fn rank(&self) -> usize {
        self.state.rank
    }

    /// COMM_WORLD size.
    #[inline]
    pub fn size(&self) -> usize {
        self.state.size
    }

    /// Current simulated time (for harness measurements).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Model a computation phase of `d` (Fig. 7's "computes for a while").
    pub fn compute(&self, d: SimDuration) {
        self.ctx.compute(d);
    }

    /// Direct access to the simulation context (harness utilities).
    pub fn ctx(&self) -> &RankCtx {
        &self.ctx
    }

    /// This rank's CH3 unexpected-queue backlog: `(current bytes, high-
    /// water mark)` — overload tests assert cap compliance through this.
    pub fn unexpected_backlog(&self) -> (usize, usize) {
        self.state.unexpected_backlog()
    }

    /// The instant this rank's NewMadeleine engine next has timer work
    /// (see [`ProcState::net_deadline`]) — what PIOMan keeps its one timed
    /// pass armed at.
    pub fn net_deadline(&self) -> Option<SimTime> {
        self.state.net_deadline()
    }

    /// Nonblocking send. The borrowed application buffer is copied once at
    /// the MPI boundary (metered: the only send-side copy of the bypass
    /// path); everything below shares that allocation.
    pub fn isend(&self, dst: usize, tag: u32, data: &[u8]) -> Req {
        let buf = NmBuf::copied_from_slice(data, BufOrigin::App, &self.state.meter);
        self.state.isend(&self.ctx, dst, tag, buf)
    }

    /// Nonblocking send of an owned buffer (avoids even the boundary copy).
    pub fn isend_bytes(&self, dst: usize, tag: u32, data: Bytes) -> Req {
        let buf = NmBuf::adopt(data, BufOrigin::App, &self.state.meter);
        self.state.isend(&self.ctx, dst, tag, buf)
    }

    /// Nonblocking receive.
    pub fn irecv(&self, src: Src, tag: u32) -> Req {
        self.state.irecv(&self.ctx, src, tag)
    }

    /// Blocking send.
    pub fn send(&self, dst: usize, tag: u32, data: &[u8]) {
        let r = self.isend(dst, tag, data);
        self.wait(r);
    }

    /// Blocking send of an owned buffer.
    pub fn send_bytes(&self, dst: usize, tag: u32, data: Bytes) {
        let r = self.isend_bytes(dst, tag, data);
        self.wait(r);
    }

    /// Blocking receive; returns payload and status.
    pub fn recv(&self, src: Src, tag: u32) -> (Bytes, Status) {
        let r = self.irecv(src, tag);
        let (data, status) = self.state.wait(&self.ctx, r);
        (
            data.expect("recv must produce data"),
            status.expect("recv must produce a status"),
        )
    }

    /// Block until `req` completes; returns payload (receives) and status.
    pub fn wait(&self, req: Req) -> Option<Status> {
        let (_data, status) = self.state.wait(&self.ctx, req);
        status
    }

    /// Block until `req` completes, returning the received payload.
    pub fn wait_data(&self, req: Req) -> (Option<Bytes>, Option<Status>) {
        self.state.wait(&self.ctx, req)
    }

    /// Membership-aware wait: like [`MpiHandle::wait_data`], but a request
    /// that completed *with an error* (its peer was declared dead while the
    /// operation was in flight) surfaces as `Err(PeerDead)` instead of a
    /// payload-less success.
    pub fn wait_result(&self, req: Req) -> Result<(Option<Bytes>, Option<Status>), PeerDead> {
        let (data, status) = self.state.wait(&self.ctx, req);
        match self.state.failed_peer(req) {
            Some(peer) => Err(PeerDead { peer }),
            None => Ok((data, status)),
        }
    }

    /// Fault-tolerance-aware wait: distinguishes *why* a request failed.
    /// `Err(FtError::Revoked)` when its epoch was revoked (comm teardown —
    /// rebuild and retry), `Err(FtError::PeerDead)` when its peer died
    /// (exclude the corpse), `Ok` otherwise.
    pub fn wait_ft(&self, req: Req) -> Result<(Option<Bytes>, Option<Status>), FtError> {
        let (data, status) = self.state.wait(&self.ctx, req);
        let verdict =
            |st: &mut crate::RankState| (st.reqs.revoked_epoch(req), st.reqs.failed_peer(req));
        match self.state.with_state(verdict) {
            (Some(epoch), _) => Err(FtError::Revoked { epoch }),
            (None, Some(peer)) => Err(FtError::PeerDead { peer }),
            (None, None) => Ok((data, status)),
        }
    }

    // ------------------------------------------------------------------
    // Elastic membership: crash injection and liveness queries
    // ------------------------------------------------------------------

    /// Simulate this rank dying right now: halt its NewMadeleine core
    /// (all queued protocol work is dropped on the floor, as a real crash
    /// would) and mark the process so the implicit finalize does not try
    /// to drain. The rank program should return immediately after calling
    /// this. Survivors detect the silence via their membership supervisors.
    pub fn crash(&self) {
        self.state.with_state(|st| st.crashed = true);
        if let NetPath::Direct(core) = &self.state.net {
            core.halt();
        }
    }

    /// Liveness verdict for `rank` as seen by this rank's membership
    /// supervisor. `true` while Up or merely Suspect; `false` only after
    /// the sticky Dead verdict. Always `true` when membership is off.
    pub fn is_alive(&self, rank: usize) -> bool {
        match &self.state.net {
            NetPath::Direct(core) => !core.is_peer_dead(rank),
            _ => true,
        }
    }

    /// Is the membership supervisor armed on this rank's core?
    pub fn membership_enabled(&self) -> bool {
        matches!(&self.state.net, NetPath::Direct(core) if core.membership_enabled())
    }

    /// Death log as seen by this rank, in verdict order — the raw
    /// material for detection-latency measurements.
    pub fn death_log(&self) -> Vec<nmad::Death> {
        match &self.state.net {
            NetPath::Direct(core) => core.death_log(),
            _ => Vec::new(),
        }
    }

    /// How many per-peer protocol entries this rank's core still holds for
    /// `rank` — must be 0 after the drain for a dead peer.
    pub fn peer_entries(&self, rank: usize) -> usize {
        match &self.state.net {
            NetPath::Direct(core) => core.peer_entry_count(rank),
            _ => 0,
        }
    }

    /// Collectives this rank aborted because a member died mid-protocol.
    pub fn coll_aborts(&self) -> u64 {
        self.state.with_state(|st| st.coll_aborts)
    }

    /// Wait for all requests, in order.
    pub fn waitall(&self, reqs: &[Req]) {
        for &r in reqs {
            self.state.wait(&self.ctx, r);
        }
    }

    /// Nonblocking completion test (drives progress once, like MPICH2).
    pub fn test(&self, req: Req) -> bool {
        self.state.test(&self.ctx, req)
    }

    /// MPI_Iprobe: is a message matching `(src, tag)` available? Returns
    /// its envelope without receiving it.
    pub fn iprobe(&self, src: Src, tag: u32) -> Option<Status> {
        self.state.iprobe(&self.ctx, src, tag)
    }

    /// MPI_Probe: block until a matching message is available.
    pub fn probe(&self, src: Src, tag: u32) -> Status {
        self.state.probe(&self.ctx, src, tag)
    }

    /// MPI_Sendrecv: simultaneous send and receive (deadlock-free even for
    /// rendezvous-sized payloads in both directions).
    pub fn sendrecv(
        &self,
        dst: usize,
        send_tag: u32,
        data: &[u8],
        src: Src,
        recv_tag: u32,
    ) -> (Bytes, Status) {
        let r = self.irecv(src, recv_tag);
        let s = self.isend(dst, send_tag, data);
        let (payload, status) = self.state.wait(&self.ctx, r);
        self.state.wait(&self.ctx, s);
        (
            payload.expect("sendrecv must produce data"),
            status.expect("sendrecv must produce a status"),
        )
    }

    // Collectives (implemented over point-to-point in `collectives.rs`).

    /// Synchronize all ranks. Large multi-node jobs use the hierarchical
    /// (node-leader) barrier, small or single-node jobs flat dissemination.
    pub fn barrier(&self) {
        crate::collectives::barrier_auto(self);
    }

    /// Fault-tolerant barrier over an explicit member list (which must
    /// include this rank and be identical on every member). Completes
    /// `Ok(())` when every member reached it, or fails fast with
    /// `Err(PeerDead)` when a member died mid-protocol — it never
    /// deadlocks, and every member always finishes the full dissemination
    /// schedule (see `collectives::try_barrier_group`).
    pub fn try_barrier(&self, group: &[usize]) -> Result<(), PeerDead> {
        crate::collectives::try_barrier_group(self, group)
    }

    /// Barrier over the survivor group only: an explicit member list,
    /// identical on every member, all of whom must be alive.
    pub fn barrier_group(&self, group: &[usize]) {
        crate::collectives::barrier_group_of(self, group);
    }

    /// Allreduce (sum) over the survivor group only (recursive doubling
    /// over the member list; all members must be alive and call this with
    /// the same list).
    pub fn allreduce_sum_group(&self, group: &[usize], contrib: &[f64]) -> Vec<f64> {
        crate::collectives::allreduce_sum_group(self, group, contrib)
    }

    /// Broadcast from `root`. Every rank returns the data. Large
    /// multi-node jobs use the hierarchical (node-leader) algorithm, small
    /// ones the flat binomial tree (see `collectives::bcast_auto`).
    pub fn bcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        crate::collectives::bcast_auto(self, root, data)
    }

    /// Sum-reduce f64 vectors to `root`.
    pub fn reduce_sum(&self, root: usize, contrib: &[f64]) -> Option<Vec<f64>> {
        crate::collectives::reduce_sum(self, root, contrib)
    }

    /// Allreduce (sum) of f64 vectors. Large multi-node jobs use the
    /// hierarchical reduce + recursive-doubling algorithm.
    pub fn allreduce_sum(&self, contrib: &[f64]) -> Vec<f64> {
        crate::collectives::allreduce_sum_auto(self, contrib)
    }

    /// Personalized all-to-all: `blocks[i]` goes to rank i; returns the
    /// blocks received (one per rank). Large jobs use Bruck's log-round
    /// algorithm, small ones the flat pairwise exchange.
    pub fn alltoall(&self, blocks: Vec<Bytes>) -> Vec<Bytes> {
        crate::collectives::alltoall_auto(self, blocks)
    }

    /// All-gather: every rank contributes `mine`; returns all blocks,
    /// indexed by rank (ring algorithm).
    pub fn allgather(&self, mine: Bytes) -> Vec<Bytes> {
        crate::collectives::allgather(self, mine)
    }

    /// Personalized all-to-all with per-destination sizes
    /// (MPI_Alltoallv). Selects Bruck vs pairwise like [`MpiHandle::alltoall`].
    pub fn alltoallv(&self, blocks: Vec<Bytes>) -> Vec<Bytes> {
        crate::collectives::alltoallv_auto(self, blocks)
    }

    // Communicator recovery (revoke / agree / shrink / join — see
    // `crate::comm` and DESIGN.md §13).

    /// Revoke the communicator's epoch: quiesce every in-flight operation
    /// keyed to it with counted errors and gossip the poison to all live
    /// peers. Sticky and idempotent; returns whether this call was the
    /// first local revocation.
    pub fn comm_revoke(&self, comm: &crate::comm::Comm) -> bool {
        crate::comm::comm_revoke(self, comm)
    }

    /// Fault-tolerant agreement over the communicator's members: every
    /// surviving member returns the *same* agreed-dead set (world ranks,
    /// ascending), even when members die mid-protocol.
    pub fn comm_agree(&self, comm: &crate::comm::Comm) -> Vec<usize> {
        crate::comm::comm_agree(self, comm)
    }

    /// Shrink: agree on survivors, advance to a fresh epoch, re-rank
    /// densely, seal with a barrier. Identical result on every survivor.
    pub fn comm_shrink(&self, comm: &crate::comm::Comm) -> crate::comm::Comm {
        crate::comm::comm_shrink(self, comm)
    }

    /// Admit `joiner` into the next epoch (run by every current member;
    /// the joiner runs [`MpiHandle::comm_join`] with the same `join_seq`).
    pub fn comm_accept(
        &self,
        comm: &crate::comm::Comm,
        joiner: usize,
        join_seq: u32,
    ) -> crate::comm::Comm {
        crate::comm::comm_accept(self, comm, joiner, join_seq)
    }

    /// Join an existing communicator as a late arrival via its leader.
    pub fn comm_join(&self, leader: usize, join_seq: u32) -> crate::comm::Comm {
        crate::comm::comm_join(self, leader, join_seq)
    }

    /// Barrier over the communicator (keys carry its epoch).
    pub fn comm_barrier(&self, comm: &crate::comm::Comm) {
        crate::comm::comm_barrier(self, comm)
    }

    /// Allreduce (sum) over the communicator.
    pub fn comm_allreduce_sum(&self, comm: &crate::comm::Comm, contrib: &[f64]) -> Vec<f64> {
        crate::comm::comm_allreduce_sum(self, comm, contrib)
    }

    /// Binomial broadcast over the communicator from dense position
    /// `root_pos`.
    pub fn comm_bcast(
        &self,
        comm: &crate::comm::Comm,
        root_pos: usize,
        data: Option<Bytes>,
    ) -> Bytes {
        crate::comm::comm_bcast(self, comm, root_pos, data)
    }

    // Datatype-aware operations (the paper's future-work extension; see
    // `datatype`). Non-contiguous layouts are packed at the MPI layer,
    // exactly as stock MPICH2 does on its generic path.

    /// Send `count` instances of `ty` gathered from `src`.
    pub fn send_typed(
        &self,
        dst: usize,
        tag: u32,
        ty: &crate::datatype::Datatype,
        src: &[u8],
        count: usize,
    ) {
        let packed = ty.pack(src, count);
        self.send_bytes(dst, tag, Bytes::from(packed));
    }

    /// Receive `count` instances of `ty`, scattered into `dst` (which must
    /// cover the type's extent). Returns the status.
    pub fn recv_typed(
        &self,
        src: Src,
        tag: u32,
        ty: &crate::datatype::Datatype,
        dst: &mut [u8],
        count: usize,
    ) -> Status {
        let (data, status) = self.recv(src, tag);
        assert_eq!(
            data.len(),
            ty.packed_size(count),
            "received size does not match the datatype signature"
        );
        ty.unpack(&data, dst, count);
        status
    }
}

#[cfg(test)]
mod tests {
    use super::Src;
    use crate::stack::{run_mpi_collect, StackConfig};
    use simnet::{Cluster, NicModel, Placement};

    /// A drain stuck on a rendezvous nobody answers finds no work at any
    /// tick. Its livelock guard must still trip exactly at its limit, as
    /// the body-call counter it replaced did (`cycles < limit`, counted
    /// from the tick-0 call), not end the run as a deadlock.
    #[test]
    fn a_stuck_finalize_drain_trips_its_guard_at_its_limit() {
        let c = Cluster::xeon_pair();
        let p = Placement::one_per_node(2, &c);
        let cfg = StackConfig::mpich2_nmad_rail(0, false);
        let run = std::panic::AssertUnwindSafe(|| {
            run_mpi_collect(&c, &p, &cfg, 2, |mpi| {
                if mpi.rank() == 0 {
                    // Rank 1 never posts the receive, so no CTS ever comes.
                    mpi.isend(1, 7, &vec![0u8; 1 << 20]);
                    mpi.state.drain(&mpi.ctx, 1000);
                }
            })
        });
        let payload = std::panic::catch_unwind(run).expect_err("the drain never quiesces");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.ends_with(
                "rank0 panicked: MPI_Finalize drain did not quiesce (protocol leak?) at tick 1000"
            ),
            "{message}"
        );
    }

    /// ANY_SOURCE receives that only remote peers serve leave nothing in
    /// the CH3 posted queue: each one's twin is cancelled when the §3.2
    /// lists hand the receive to NewMadeleine. No CH3 arrival ever comes
    /// to sweep a twin left behind, so one would stay for the whole run.
    #[test]
    fn remote_any_source_receives_leave_no_posted_twin() {
        const RECVS: usize = 1000;
        let c = Cluster::new(3, 8, vec![NicModel::connectx_ib()]);
        let p = Placement::one_per_node(3, &c);
        let cfg = StackConfig::mpich2_nmad_rail(0, false);
        assert!(cfg.bypass());
        let (_, posted) = run_mpi_collect(&c, &p, &cfg, 3, |mpi| {
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..RECVS).map(|_| mpi.irecv(Src::Any, 7)).collect();
                mpi.waitall(&reqs);
                mpi.state.with_state(|st| st.engine.queues.posted_len())
            } else {
                let sends: Vec<_> = (0..RECVS / 2)
                    .map(|i| mpi.isend(0, 7, &i.to_le_bytes()))
                    .collect();
                mpi.waitall(&sends);
                0
            }
        });
        assert_eq!(posted[0], 0, "dead CH3 twins left in rank 0's posted queue");
    }
}
