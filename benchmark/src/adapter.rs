//! The one file of the ledger that names the repository's crates.
//!
//! Every public item of the program under test that the ledger calls is
//! wrapped here and nowhere else, so an API change in the stack is repaired
//! in this file. The wrappers hand back plain numbers and ledger-owned
//! structs; no type of the stack crosses into the other modules except the
//! payload handle [`Payload`].
//!
//! Wrapped, by crate:
//!
//! * `mpi_ch3` — `stack::{run_mpi_collect, StackConfig::{mpich2_nmad,
//!   mpich2_nmad_rail, with_fabric_seed, with_flow, with_faults, with_obs},
//!   RunOutcome}`, `MpiHandle::{rank, size, now, isend, isend_bytes, irecv,
//!   wait, wait_data, barrier, allreduce_sum, alltoall}`, `Src`, `Req`,
//!   `run_threaded`, `ThreadedConfig`, `ThreadedReport`,
//!   `queues::Ch3Queues::{post, match_arrival}`.
//! * `nasbench` — `kernels::{run_iteration, KernelCtx}`, `KernelParams::of`,
//!   `Kernel::CG`, `Class::A` (the loop of `run_nas`, which itself returns no
//!   counters), and `run_nas` as the reference the tests compare against.
//! * `nmad` — `NmCore::{new, isend, irecv, schedule, drain_completions,
//!   accept, stats → NmStats}`, `NmNet`, `NmConfig`, `FlowConfig::bounded`,
//!   `StrategyKind`, `sr::CompletionKind`, `sharded::ShardedMatchEngine::
//!   {post_recv, arrived, store_unexpected, probe_tag}`, `matching::Unexpected`,
//!   `strategy::{make, Strategy::try_and_commit, RailState}`, `RailHealth`,
//!   `pack::{PacketWrapper, PwBody, PwId}`, `sampling::split_sizes`,
//!   `LinkProfile::sample`, `NmWire::{new, crc_ok}`, `WirePayload`,
//!   `credit::CreditBank::{try_acquire, release}`.
//! * `nemesis` — `NemQueue::{enqueue, dequeue}`, `CellPool::new`,
//!   `CellHandle` (`fill`, `payload`).
//! * `simnet` — `Cluster::{xeon_pair, grid5000_opteron, new}`,
//!   `Placement::{one_per_node, block, round_robin}`, `NicModel::{connectx_ib,
//!   myri10g_mx}`, `FaultPlan::uniform`, `FaultSpec`, `SimBuilder`,
//!   `Sim::{spawn_rank, run}`, `RankCtx::{advance, now, scheduler}`,
//!   `Fabric::{new, set_sink}`, `event::{EventQueue, EventKind}`, `NmBuf`,
//!   `CopySnapshot`, `FaultCounters`, `SimOutcome`.
//! * `obs` — `ObsConfig::recording_only`, `Report::{events, breakdown}`,
//!   `Scope`, `EngineEvent::label`, `PhaseBreakdown`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpich2_nmad_repro::mpi_ch3::queues::Ch3Queues;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{self, MpiHandle, Req, Src, ThreadedConfig};
use mpich2_nmad_repro::nasbench::kernels::{run_iteration, KernelCtx};
use mpich2_nmad_repro::nasbench::{Class, Kernel, KernelParams};
use mpich2_nmad_repro::nemesis::{CellHandle, CellPool, NemQueue};
use mpich2_nmad_repro::nmad::credit::CreditBank;
use mpich2_nmad_repro::nmad::matching::Unexpected;
use mpich2_nmad_repro::nmad::pack::{PacketWrapper, PwBody, PwId};
use mpich2_nmad_repro::nmad::sampling::split_sizes;
use mpich2_nmad_repro::nmad::sharded::ShardedMatchEngine;
use mpich2_nmad_repro::nmad::sr::CompletionKind;
use mpich2_nmad_repro::nmad::strategy::{self, RailState, Strategy};
use mpich2_nmad_repro::nmad::{
    FlowConfig, GateId, LinkProfile, NmConfig, NmCore, NmNet, NmWire, RailHealth, RecvReqId,
    SendReqId, StrategyKind, WirePayload,
};
use mpich2_nmad_repro::obs::{ObsConfig, Report, Scope};
use mpich2_nmad_repro::simnet::event::{EventKind, EventQueue};
use mpich2_nmad_repro::simnet::{
    Cluster, Fabric, FaultPlan, FaultSpec, NicModel, NmBuf, NodeId, Placement, RailId, RankId,
    SimBuilder, SimDuration, SimTime,
};

use crate::spans::{Span, Tracer};

/// An owned, reference-counted payload as the MPI API takes and returns it.
pub type Payload = bytes::Bytes;

/// A pending MPI request.
pub type Request = Req;

// ---------------------------------------------------------------------------
// Machines and stacks.
// ---------------------------------------------------------------------------

/// A simulated machine with ranks placed on it.
pub struct Topology {
    cluster: Cluster,
    placement: Placement,
    nranks: usize,
}

impl Topology {
    fn new(cluster: Cluster, placement: Placement, nranks: usize) -> Topology {
        Topology {
            cluster,
            placement,
            nranks,
        }
    }

    /// The paper's point-to-point testbed (IB + Myri-10G), one rank per node.
    pub fn xeon_pair() -> Topology {
        let c = Cluster::xeon_pair();
        let p = Placement::one_per_node(2, &c);
        Topology::new(c, p, 2)
    }

    /// Two ranks sharing one node of the pair: shared memory only.
    pub fn xeon_same_node() -> Topology {
        let c = Cluster::xeon_pair();
        let p = Placement::block(2, &c);
        Topology::new(c, p, 2)
    }

    /// The paper's NAS testbed (10 nodes × 8 cores, IB), one rank per node.
    pub fn grid5000_one_per_node(nranks: usize) -> Topology {
        let c = Cluster::grid5000_opteron();
        let p = Placement::one_per_node(nranks, &c);
        Topology::new(c, p, nranks)
    }

    /// The same testbed filled round-robin, as `nasbench::run_nas` places.
    pub fn grid5000_round_robin(nranks: usize) -> Topology {
        let c = Cluster::grid5000_opteron();
        let p = Placement::round_robin(nranks, &c);
        Topology::new(c, p, nranks)
    }

    /// 16-core IB nodes filled in blocks (at least two nodes).
    pub fn blocks_of_16(nranks: usize) -> Topology {
        let c = Cluster::new(
            nranks.div_ceil(16).max(2),
            16,
            vec![NicModel::connectx_ib()],
        );
        let p = Placement::block(nranks, &c);
        Topology::new(c, p, nranks)
    }
}

/// One MPI stack variant.
#[derive(Clone)]
pub struct Stack(StackConfig);

impl Stack {
    /// MPICH2-NewMadeleine over the InfiniBand rail only.
    pub fn ib_only(pioman: bool) -> Stack {
        Stack(StackConfig::mpich2_nmad_rail(0, pioman))
    }

    /// MPICH2-NewMadeleine over every rail of the machine (multirail split).
    pub fn all_rails(pioman: bool) -> Stack {
        Stack(StackConfig::mpich2_nmad(pioman))
    }

    /// Name the fabric's jitter seed.
    pub fn seeded(self, seed: u64) -> Stack {
        Stack(self.0.with_fabric_seed(seed))
    }

    /// Credit-based eager flow control with a bounded unexpected queue.
    pub fn bounded_flow(self, eager_credits: u32, unexpected_cap_bytes: usize) -> Stack {
        Stack(
            self.0
                .with_flow(FlowConfig::bounded(eager_credits, unexpected_cap_bytes)),
        )
    }

    /// Seeded packet loss and duplication on every rail (arms the retry
    /// layer). The plan holds the run's coin-flip state, so build a fresh
    /// stack for every job.
    pub fn lossy(self, seed: u64, drop_share: f64, dup_share: f64) -> Stack {
        let spec = FaultSpec {
            drop_pct: drop_share,
            dup_pct: dup_share,
            ..FaultSpec::default()
        };
        Stack(self.0.with_faults(FaultPlan::uniform(seed, spec)))
    }

    fn recording(&self) -> StackConfig {
        self.0.clone().with_obs(ObsConfig::recording_only())
    }
}

// ---------------------------------------------------------------------------
// Counters of a finished job, as plain numbers.
// ---------------------------------------------------------------------------

/// Exact counters of one simulated job (`RunOutcome`), summed over ranks
/// unless stated. Deterministic for a seed: two reps must compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobCounters {
    pub final_sim_ns: u64,
    pub events: u64,
    pub wakes: u64,
    pub fabric_msgs: u64,
    pub wire_bytes: u64,
    pub memcpy_calls: u64,
    pub bytes_copied: u64,
    pub payload_allocs: u64,
    pub slice_refs: u64,
    pub fault_dropped: u64,
    pub fault_duplicated: u64,
    pub piom_rekicks: u64,
    pub eager_sends: u64,
    pub rdv_sends: u64,
    pub packets_sent: u64,
    pub aggregates_sent: u64,
    pub frags_aggregated: u64,
    pub data_chunks_sent: u64,
    pub acks_sent: u64,
    pub retransmissions: u64,
    pub dup_drops: u64,
    pub crc_drops: u64,
    pub fc_fallback_sends: u64,
    pub fc_credit_stalls: u64,
    /// Largest unexpected-eager backlog of any one rank.
    pub fc_peak_unex_bytes: u64,
    pub protocol_errors: u64,
    /// Per-peer state entries still held at job end.
    pub peer_entries_end: u64,
}

impl JobCounters {
    fn from_outcome(o: &RunOutcome) -> JobCounters {
        let mut c = JobCounters {
            final_sim_ns: o.sim.final_time.as_nanos(),
            events: o.sim.events,
            wakes: o.sim.wakes,
            fabric_msgs: o.rail_counters.iter().map(|r| r.0).sum(),
            wire_bytes: o.rail_counters.iter().map(|r| r.1).sum(),
            memcpy_calls: o.copy.memcpy_calls,
            bytes_copied: o.copy.bytes_copied,
            payload_allocs: o.copy.allocations,
            slice_refs: o.copy.slice_refs,
            fault_dropped: o.fault_counters.map_or(0, |f| f.dropped),
            fault_duplicated: o.fault_counters.map_or(0, |f| f.duplicated),
            piom_rekicks: o.piom_rekicks,
            ..JobCounters::default()
        };
        for s in &o.nm_stats {
            c.eager_sends += s.eager_sends;
            c.rdv_sends += s.rdv_sends;
            c.packets_sent += s.packets_sent;
            c.aggregates_sent += s.aggregates_sent;
            c.frags_aggregated += s.frags_aggregated;
            c.data_chunks_sent += s.data_chunks_sent;
            c.acks_sent += s.acks_sent;
            c.retransmissions += s.total_retries();
            c.dup_drops += s.dup_envelopes + s.dup_data;
            c.crc_drops += s.crc_drops;
            c.fc_fallback_sends += s.fc_fallback_sends;
            c.fc_credit_stalls += s.fc_credit_stalls;
            c.fc_peak_unex_bytes = c.fc_peak_unex_bytes.max(s.fc_peak_unex_bytes);
            c.protocol_errors += s.protocol_errors;
            c.peer_entries_end += s.peer_entries;
        }
        c
    }
}

/// What the stack's own recorder saw in a traced job (`obs::Report`).
#[derive(Clone, Debug, Default)]
pub struct ObsCounts {
    pub events: u64,
    pub nic_tx: u64,
    pub dispatch_call: u64,
    pub shm_frag_copy: u64,
    pub shm_deliver: u64,
    pub piom_kick: u64,
    pub piom_ltask_pass: u64,
    /// Messages with at least one lifecycle event.
    pub messages: u64,
    /// Simulated ns attributed to intervals ending in each phase label.
    pub phase_ns: Vec<(&'static str, u64)>,
    pub phase_coverage: f64,
}

impl ObsCounts {
    fn from_report(r: &Report) -> ObsCounts {
        let mut c = ObsCounts {
            events: r.events.len() as u64,
            ..ObsCounts::default()
        };
        for e in &r.events {
            if let Scope::Engine { ev } = &e.scope {
                match ev.label() {
                    "nic_tx" => c.nic_tx += 1,
                    "dispatch_call" => c.dispatch_call += 1,
                    "shm_frag_copy" => c.shm_frag_copy += 1,
                    "shm_deliver" => c.shm_deliver += 1,
                    "piom_kick" => c.piom_kick += 1,
                    "piom_ltask_pass" => c.piom_ltask_pass += 1,
                    _ => {}
                }
            }
        }
        let b = r.breakdown();
        c.messages = b.messages;
        c.phase_coverage = b.coverage();
        c.phase_ns = b.phases.iter().map(|p| (p.label, p.total_ns)).collect();
        c
    }
}

// ---------------------------------------------------------------------------
// Running an MPI job.
// ---------------------------------------------------------------------------

/// A received message.
pub struct Received {
    pub data: Payload,
    pub source: usize,
    pub tag: u32,
}

/// The handle a rank program of the ledger drives: the stack's `MpiHandle`
/// behind the calls the workloads use, each inside a span when tracing is on.
pub struct Rank<'a> {
    mpi: &'a MpiHandle,
    tracer: Tracer,
}

impl Rank<'_> {
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    pub fn size(&self) -> usize {
        self.mpi.size()
    }

    /// The simulated clock, ns.
    pub fn sim_ns(&self) -> u64 {
        self.mpi.now().as_nanos()
    }

    /// Run `f` inside a span of the ledger's own (`op`, `app.gen`,
    /// `app.verify`, `rep`).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.scope(name, || self.sim_ns(), f)
    }

    /// Run one workload-level operation: an `op` span whose children carry
    /// `id`.
    pub fn op<R>(&self, id: u64, f: impl FnOnce() -> R) -> R {
        self.tracer.set_op(id);
        self.span("op", f)
    }

    pub fn isend(&self, dst: usize, tag: u32, data: &[u8]) -> Request {
        self.span("app.isend", || self.mpi.isend(dst, tag, data))
    }

    /// Send an owned buffer (no copy at the MPI boundary).
    pub fn isend_owned(&self, dst: usize, tag: u32, data: Payload) -> Request {
        self.span("app.isend", || self.mpi.isend_bytes(dst, tag, data))
    }

    /// Post a receive from `src`, or from any source for `None`.
    pub fn irecv(&self, src: Option<usize>, tag: u32) -> Request {
        let src = src.map_or(Src::Any, Src::Rank);
        self.span("app.irecv", || self.mpi.irecv(src, tag))
    }

    /// Wait for a send to complete.
    pub fn wait_send(&self, req: Request) {
        self.span("app.wait", || {
            self.mpi.wait(req);
        })
    }

    /// Wait for a receive; `None` if it completed without payload or status.
    pub fn wait_recv(&self, req: Request) -> Option<Received> {
        self.span("app.wait", || match self.mpi.wait_data(req) {
            (Some(data), Some(status)) => Some(Received {
                data,
                source: status.source,
                tag: status.tag,
            }),
            _ => None,
        })
    }

    pub fn barrier(&self) {
        self.span("app.collective.barrier", || self.mpi.barrier())
    }

    pub fn allreduce_sum(&self, contrib: &[f64]) -> Vec<f64> {
        self.span("app.collective.allreduce", || {
            self.mpi.allreduce_sum(contrib)
        })
    }

    pub fn alltoall(&self, blocks: Vec<Payload>) -> Vec<Payload> {
        self.span("app.collective.alltoall", || self.mpi.alltoall(blocks))
    }

    /// One NAS CG class-A iteration on `nprocs` ranks (what `run_nas` loops
    /// over).
    pub fn nas_cg_iteration(&self, nprocs: usize) {
        let params = KernelParams::of(Kernel::CG, Class::A);
        let kctx = KernelCtx {
            mpi: self.mpi,
            params: &params,
            class: Class::A,
            nprocs,
            compute_factor: 1.0,
            lu_nz_override: None,
        };
        self.span("app.kernel.cg_iteration", || {
            run_iteration(Kernel::CG, &kctx)
        })
    }
}

/// A finished simulated job.
pub struct JobResult<T> {
    pub counters: JobCounters,
    /// Present when the job ran traced.
    pub obs: Option<ObsCounts>,
    /// Each rank's return value, by rank.
    pub ranks: Vec<T>,
    /// Each rank's spans, by rank (empty untraced).
    pub spans: Vec<Vec<Span>>,
}

/// Run `program` on every rank of `topo` over `stack` (`run_mpi_collect`).
/// Traced, the stack's recorder and the ledger's span recorder are both on.
pub fn run_job<T: Send + 'static>(
    topo: &Topology,
    stack: &Stack,
    traced: bool,
    program: impl Fn(&Rank) -> T + Send + Sync + 'static,
) -> JobResult<T> {
    let cfg = if traced {
        stack.recording()
    } else {
        stack.0.clone()
    };
    let (outcome, per_rank) = run_mpi_collect(
        &topo.cluster,
        &topo.placement,
        &cfg,
        topo.nranks,
        move |mpi| {
            let rank = Rank {
                mpi,
                tracer: Tracer::new(traced, mpi.rank() as u32),
            };
            let out = rank.span("rep", || program(&rank));
            (out, rank.tracer.into_spans())
        },
    );
    let (ranks, spans) = per_rank.into_iter().unzip();
    JobResult {
        counters: JobCounters::from_outcome(&outcome),
        obs: outcome.obs.as_ref().map(ObsCounts::from_report),
        ranks,
        spans,
    }
}

/// `nasbench::run_nas` for CG class A on the Grid'5000 testbed: the
/// per-iteration simulated seconds it reports (the reference the ledger's
/// own loop over [`Rank::nas_cg_iteration`] is checked against).
#[cfg(test)]
pub fn run_nas_cg_reference(nprocs: usize, iters: usize) -> f64 {
    mpich2_nmad_repro::nasbench::run_nas(
        &Cluster::grid5000_opteron(),
        &Stack::all_rails(true).0,
        Kernel::CG,
        Class::A,
        nprocs,
        Some(iters),
    )
    .iter_s
}

// ---------------------------------------------------------------------------
// The real-thread path.
// ---------------------------------------------------------------------------

/// One `run_threaded` run (`ThreadedReport`).
pub struct ThreadedRun {
    pub delivered: u64,
    /// Enqueue-to-delivery latency of every message, ascending.
    pub latencies_ns: Vec<u64>,
    pub fifo_violations: u64,
    pub credit_intact: bool,
    pub crc_drops: u64,
    pub eager_sends: u64,
    pub rdv_sends: u64,
    pub credit_stalls: u64,
    pub matched_posted: u64,
    pub matched_unexpected: u64,
}

/// One producer, one VC consumer, 256 B payloads, every 8th message
/// rendezvous, window 64, 32 eager credits: two threads in all.
pub const THREADED_THREADS: u64 = 2;

pub fn run_threaded(msgs: u64) -> ThreadedRun {
    let r = mpi_ch3::run_threaded(ThreadedConfig {
        producers: 1,
        vcs: 1,
        window: 64,
        msgs_per_producer: msgs,
        payload_bytes: 256,
        rdv_every: 8,
        eager_credits: 32,
    });
    ThreadedRun {
        delivered: r.total_msgs,
        latencies_ns: r.latencies_ns,
        fifo_violations: r.fifo_violations,
        credit_intact: r.credit_intact,
        crc_drops: r.stats.crc_drops,
        eager_sends: r.stats.eager_sends,
        rdv_sends: r.stats.rdv_sends,
        credit_stalls: r.stats.fc_credit_stalls,
        matched_posted: r.matched_posted,
        matched_unexpected: r.matched_unexpected,
    }
}

// ---------------------------------------------------------------------------
// Isolated calls into single layers (the probes time these).
// ---------------------------------------------------------------------------

/// simnet: `ranks` bare rank threads each calling `advance` `per_rank` times,
/// so every event is a token handoff. Returns `(wakes, seconds in Sim::run)`.
pub fn handoff_run(ranks: usize, per_rank: usize) -> (u64, f64) {
    let mut sim = SimBuilder::new().build();
    for r in 0..ranks {
        sim.spawn_rank(format!("r{r}"), move |ctx| {
            for _ in 0..per_rank {
                ctx.advance(SimDuration::nanos(100));
            }
        });
    }
    let t0 = Instant::now();
    let out = sim.run().expect("bare handoff simulation cannot deadlock");
    (out.wakes, t0.elapsed().as_secs_f64())
}

/// simnet: the calendar event queue.
pub struct EvQueue(EventQueue);

impl EvQueue {
    pub fn new() -> EvQueue {
        EvQueue(EventQueue::new())
    }
    pub fn push(&mut self, time_ns: u64) {
        self.0.push(SimTime(time_ns), EventKind::Wake(RankId(0)));
    }
    /// Pop the earliest event; its time in ns.
    pub fn pop(&mut self) -> Option<u64> {
        self.0.pop().map(|(t, _)| t.as_nanos())
    }
}

/// nemesis: one producer's window of cells, its free queue and a VC queue.
pub struct CellRing {
    pool: Arc<CellPool>,
    free: NemQueue,
    vc: NemQueue,
}

impl CellRing {
    pub fn new(cells: usize) -> CellRing {
        let (pool, mut handles) = CellPool::new(1, cells);
        let free = NemQueue::new();
        for h in handles.remove(0) {
            free.enqueue(h);
        }
        CellRing {
            pool,
            free,
            vc: NemQueue::new(),
        }
    }

    fn take(&self, q: &NemQueue) -> CellHandle {
        q.dequeue(&self.pool)
            .expect("ring is never empty between cycles")
    }

    /// One dequeue + enqueue on a lock-free queue.
    pub fn queue_cycle(&self) {
        let cell = self.take(&self.free);
        self.free.enqueue(cell);
    }

    /// A cell's full trip: claim from the free queue, fill, enqueue on the
    /// VC, dequeue, read, recycle. Returns a byte of the payload read.
    pub fn cell_cycle(&self, payload: &[u8]) -> u8 {
        let mut cell = self.take(&self.free);
        cell.fill(payload);
        self.vc.enqueue(cell);
        let cell = self.take(&self.vc);
        let seen = cell.payload().last().copied().unwrap_or(0);
        self.free.enqueue(cell);
        seen
    }
}

/// nmad: the sharded tag matcher.
pub struct Matcher {
    engine: ShardedMatchEngine,
    next_seq: u64,
}

impl Matcher {
    pub fn new() -> Matcher {
        Matcher {
            engine: ShardedMatchEngine::new(),
            next_seq: 0,
        }
    }

    fn arrival(&mut self, data: &NmBuf) -> Unexpected {
        self.next_seq += 1;
        Unexpected::Eager {
            seq: self.next_seq,
            data: data.share(),
        }
    }

    /// Post a receive, then the arrival that matches it.
    pub fn posted_hit(&mut self, gate: usize, tag: u64, data: &ProbeBuf) -> bool {
        let posted = self
            .engine
            .post_recv(GateId(gate), tag, RecvReqId(0))
            .is_none();
        let msg = self.arrival(&data.0);
        posted && self.engine.arrived(GateId(gate), tag, msg).is_some()
    }

    /// An arrival with no receive posted, then the receive that consumes it.
    pub fn unexpected_hit(&mut self, gate: usize, tag: u64, data: &ProbeBuf) -> bool {
        let msg = self.arrival(&data.0);
        let stored = self.engine.arrived(GateId(gate), tag, msg).is_none();
        stored
            && self
                .engine
                .post_recv(GateId(gate), tag, RecvReqId(0))
                .is_some()
    }

    /// Leave one unexpected message of `tag` queued on `gate`.
    pub fn park_unexpected(&mut self, gate: usize, tag: u64, data: &ProbeBuf) {
        let msg = self.arrival(&data.0);
        self.engine.store_unexpected(GateId(gate), tag, msg);
    }

    /// The ANY_SOURCE probe: which gate holds the earliest `tag`?
    pub fn probe_any(&self, tag: u64) -> Option<usize> {
        self.engine.probe_tag(tag).map(|g| g.0)
    }
}

/// A payload buffer for the probes (`NmBuf`); sharing it is a refcount bump.
pub struct ProbeBuf(NmBuf);

impl ProbeBuf {
    pub fn new(len: usize) -> ProbeBuf {
        ProbeBuf(NmBuf::from((0..len).map(|i| i as u8).collect::<Vec<u8>>()))
    }
}

/// nmad: a scheduling strategy with the rails of the Xeon pair, idle.
pub struct StrategyBench {
    strategy: Box<dyn Strategy>,
    cfg: NmConfig,
    rails: Vec<RailState>,
}

/// A gate's submission window (`VecDeque<PacketWrapper>`).
pub struct Window(VecDeque<PacketWrapper>);

impl StrategyBench {
    fn new(kind: StrategyKind) -> StrategyBench {
        let rails = [NicModel::connectx_ib(), NicModel::myri10g_mx()]
            .iter()
            .map(|m| RailState {
                idle: true,
                profile: LinkProfile::sample(m),
                health: RailHealth::Up,
                weight: 1.0,
            })
            .collect();
        StrategyBench {
            strategy: strategy::make(kind),
            cfg: NmConfig::default(),
            rails,
        }
    }

    pub fn aggregating() -> StrategyBench {
        StrategyBench::new(StrategyKind::Aggreg)
    }

    pub fn split_balanced() -> StrategyBench {
        StrategyBench::new(StrategyKind::SplitBalanced)
    }

    /// A window of `n` eager sends sharing `data`.
    pub fn eager_window(n: usize, data: &ProbeBuf) -> Window {
        Window(
            (0..n as u64)
                .map(|i| PacketWrapper {
                    id: PwId(i),
                    dst: 1,
                    body: PwBody::Eager {
                        tag: 1,
                        seq: i,
                        send_req: SendReqId(i as u32),
                    },
                    data: data.0.share(),
                    enqueued_at: SimTime::ZERO,
                })
                .collect(),
        )
    }

    /// A window holding one rendezvous DATA wrapper over `data`.
    pub fn data_window(data: &ProbeBuf) -> Window {
        Window(VecDeque::from([PacketWrapper {
            id: PwId(0),
            dst: 1,
            body: PwBody::Data {
                rdv_id: 0,
                offset: 0,
            },
            data: data.0.share(),
            enqueued_at: SimTime::ZERO,
        }]))
    }

    /// `try_and_commit` with every rail idle; returns wire packets emitted.
    pub fn commit(&mut self, window: &mut Window) -> usize {
        for r in &mut self.rails {
            r.idle = true;
        }
        self.strategy
            .try_and_commit(&self.cfg, &mut window.0, &mut self.rails)
            .len()
    }
}

/// nmad: the equal-finish-time split of `len` bytes over the pair's rails.
pub struct SplitSolver(Vec<LinkProfile>);

impl SplitSolver {
    pub fn new() -> SplitSolver {
        SplitSolver(vec![
            LinkProfile::sample(&NicModel::connectx_ib()),
            LinkProfile::sample(&NicModel::myri10g_mx()),
        ])
    }
    /// Bytes assigned to the first rail.
    pub fn solve(&self, len: usize) -> usize {
        split_sizes(len, &self.0)[0]
    }
}

/// nmad: seal an eager packet over `data` with the end-to-end CRC, then
/// verify it as the receiver does.
pub fn wire_seal_verify(data: &ProbeBuf) -> bool {
    NmWire::new(
        0,
        1,
        WirePayload::Eager {
            tag: 1,
            seq: 0,
            data: data.0.share(),
        },
    )
    .crc_ok()
}

/// nmad: the per-gate credit pools.
pub struct Credits(CreditBank);

impl Credits {
    pub fn new(cap: u32) -> Credits {
        Credits(CreditBank::new(cap))
    }
    /// Take one credit from `gate` and give it back.
    pub fn cycle(&self, gate: usize) -> bool {
        let got = self.0.try_acquire(gate);
        self.0.release(gate, 1);
        got
    }
}

/// mpi-ch3: the CH3 posted/unexpected queue pair.
pub struct Ch3Q(Ch3Queues);

impl Ch3Q {
    pub fn new() -> Ch3Q {
        Ch3Q(Ch3Queues::new())
    }
    /// Post a receive for `(src, key)`, then match the arrival.
    pub fn post_match(&self, src: usize, key: u64) -> bool {
        self.0.post(Req(0), Some(src), key).is_ok() && self.0.match_arrival(src, key).is_some()
    }
}

/// nmad: two `NmCore`s over a one-rail IB `Fabric` in a bare simulation, no
/// CH3 above them, playing `round_trips` 4-byte ping-pongs by polling every
/// 100 simulated ns. Returns `(host seconds in Sim::run, simulated ns from
/// rank 0's first send to its last receive)`.
pub fn core_pingpong(round_trips: usize) -> (f64, u64) {
    let mut sim = SimBuilder::new().build();
    let fabric: Arc<Fabric<NmWire>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
    let rank_to_node = Arc::new(vec![NodeId(0), NodeId(1)]);
    let cores: Vec<Arc<NmCore>> = (0..2)
        .map(|r| {
            NmCore::new(
                NmConfig::default(),
                r,
                NmNet {
                    fabric: Arc::clone(&fabric),
                    node: NodeId(r),
                    rails: vec![RailId(0)],
                    rank_to_node: Arc::clone(&rank_to_node),
                },
            )
        })
        .collect();
    for (r, core) in cores.iter().enumerate() {
        let core = Arc::clone(core);
        fabric.set_sink(NodeId(r), Box::new(move |s, d| core.accept(s, d.msg)));
    }
    let region = Arc::new(Mutex::new(0u64));
    for (r, core) in cores.into_iter().enumerate() {
        let region = Arc::clone(&region);
        sim.spawn_rank(format!("core{r}"), move |ctx| {
            let sched = ctx.scheduler();
            let peer = 1 - r;
            // Drive progress until one receive completion has been drained.
            let wait_recv = || loop {
                core.schedule(&sched);
                let got = core
                    .drain_completions()
                    .iter()
                    .any(|c| matches!(c.kind, CompletionKind::Recv { .. }));
                if got {
                    return;
                }
                ctx.advance(SimDuration::nanos(100));
            };
            let t0 = ctx.now();
            for i in 0..round_trips as u64 {
                core.irecv(&sched, peer, 7, 2 * i);
                if r == 0 {
                    core.isend(&sched, peer, 7, Payload::from_static(b"ping"), 2 * i + 1);
                    wait_recv();
                } else {
                    wait_recv();
                    core.isend(&sched, peer, 7, Payload::from_static(b"pong"), 2 * i + 1);
                }
            }
            // Flush the last send before the rank thread ends.
            core.schedule(&sched);
            if r == 0 {
                *region.lock().expect("no rank panicked") = (ctx.now() - t0).as_nanos();
            }
        });
    }
    let t0 = Instant::now();
    sim.run().expect("core ping-pong cannot deadlock");
    let host_s = t0.elapsed().as_secs_f64();
    let sim_ns = *region.lock().expect("no rank panicked");
    (host_s, sim_ns)
}
