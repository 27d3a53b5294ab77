//! Stack assembly and the MPI job runner.
//!
//! [`StackConfig`] describes one MPI implementation variant (which
//! inter-node path, PIOMan or not, calibration constants);
//! [`run_mpi`] builds the simulated cluster — fabric, shared-memory
//! domains, NewMadeleine cores, PIOMan servers — wires everything together
//! the way §3 describes, spawns one simulated rank per process, and runs the
//! program to completion.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{
    Cluster, CopyMeter, CopySnapshot, Fabric, FabricOpts, FaultCounters, FaultPlan, NodeId,
    Placement, RailId, SimBuilder, SimOutcome, TopoMap,
};

use nemesis::{ShmDomain, ShmModel};
use nmad::{
    FlowConfig, MembershipConfig, NmConfig, NmCore, NmNet, NmWire, RetryConfig, StrategyKind,
};
use piom::{PiomConfig, PiomServer};

use crate::api::MpiHandle;
use crate::ch3::Ch3Engine;
use crate::costs::SoftwareCosts;
use crate::progress::{NetPath, ProcState};
use crate::transport::{
    Ch3Transport, Ch3Wire, FabricTransport, Inbox, NmadNetmodTransport, ShmTransport,
};
use crate::vc::VcTable;

/// Calibration of a network-tailored comparator stack.
#[derive(Clone, Debug)]
pub struct TailoredProfile {
    pub name: &'static str,
    /// CH3 eager/rendezvous boundary.
    pub eager_threshold: usize,
    /// Rendezvous payload pipelining chunk (None = single DATA packet).
    pub rdv_chunk: Option<usize>,
    /// ACK-throttled (depth-1) fragment pipeline — Open MPI 1.2-era openib
    /// behaviour, the source of its bandwidth dip above the eager limit.
    pub rdv_ack: bool,
    /// Fixed pipeline-startup cost charged before the first rendezvous
    /// fragment leaves (protocol switch + initial registration round).
    pub rdv_setup: simnet::SimDuration,
    /// Registration cache: `true` skips the dynamic registration cost on
    /// zero-copy transfers (MVAPICH2's advantage at large sizes, §4.1.1).
    pub reg_cache: bool,
    pub costs: SoftwareCosts,
    /// Which cluster rail this single-rail stack drives.
    pub rail: usize,
}

/// The inter-node path of a stack.
#[derive(Clone, Debug)]
pub enum InterNode {
    /// §3.1: CH3 bypasses Nemesis and calls NewMadeleine directly.
    NmadDirect {
        strategy: StrategyKind,
        /// Cluster-rail indices NewMadeleine may use (None = all).
        rails: Option<Vec<usize>>,
    },
    /// §2.1.3: NewMadeleine behind the plain network-module interface,
    /// CH3 protocols on top (nested handshakes).
    NmadNetmod {
        strategy: StrategyKind,
        rails: Option<Vec<usize>>,
    },
    /// A network-tailored comparator (see the `baselines` crate).
    Tailored(TailoredProfile),
}

/// One MPI implementation variant.
#[derive(Clone, Debug)]
pub struct StackConfig {
    pub name: String,
    pub inter: InterNode,
    /// `Some` enables PIOMan: centralized progression, semaphore waits,
    /// background overlap.
    pub pioman: Option<PiomConfig>,
    /// Software costs for the NewMadeleine paths (tailored stacks carry
    /// their own in the profile).
    pub costs: SoftwareCosts,
    pub shm_model: ShmModel,
    pub cells_per_rank: usize,
    /// NewMadeleine protocol thresholds.
    pub nm: NmConfig,
    /// Application compute-time multiplier. 1.0 for every stack except the
    /// Open MPI-like baseline, whose measured EP/LU lag in Fig. 8 is not
    /// explained by communication costs — the paper observes it without
    /// attributing a cause, and we reproduce it as a small compute-side
    /// inefficiency (documented in DESIGN.md §6).
    pub compute_factor: f64,
    /// Explicit seed for the fabric's per-port jitter streams (0 keeps the
    /// legacy, purely model-derived streams). Every scenario that relies on
    /// replayability should name its seed here.
    pub fabric_seed: u64,
    /// Fault plan installed on the NewMadeleine fabric (ignored by tailored
    /// stacks — their CH3 wire protocol has no retransmission layer).
    pub faults: Option<Arc<FaultPlan>>,
    /// Structured observability: message-lifecycle spans across every
    /// layer of the stack. Off by default — a disabled config costs one
    /// branch per instrumentation site and allocates nothing.
    pub obs: obs::ObsConfig,
}

impl StackConfig {
    /// The paper's stack: MPICH2 with the NewMadeleine bypass over all
    /// available rails, multirail strategy.
    pub fn mpich2_nmad(pioman: bool) -> StackConfig {
        StackConfig {
            name: if pioman {
                "MPICH2-NMad with PIOMan".into()
            } else {
                "MPICH2-NMad".into()
            },
            inter: InterNode::NmadDirect {
                strategy: StrategyKind::SplitBalanced,
                rails: None,
            },
            pioman: pioman.then(PiomConfig::default),
            costs: SoftwareCosts::mpich2_nmad(),
            shm_model: ShmModel::xeon(),
            cells_per_rank: 64,
            nm: NmConfig::default(),
            compute_factor: 1.0,
            fabric_seed: 0,
            faults: None,
            obs: obs::ObsConfig::default(),
        }
    }

    /// Same but restricted to a single cluster rail (the "IB only" / "MX
    /// only" curves of Figs. 4–6).
    pub fn mpich2_nmad_rail(rail: usize, pioman: bool) -> StackConfig {
        let mut cfg = Self::mpich2_nmad(pioman);
        cfg.inter = InterNode::NmadDirect {
            strategy: StrategyKind::SplitBalanced,
            rails: Some(vec![rail]),
        };
        cfg
    }

    /// The legacy integration: NewMadeleine as a plain Nemesis network
    /// module, CH3 protocols (and their nested rendezvous) on top.
    pub fn mpich2_nmad_netmod(rail: usize) -> StackConfig {
        StackConfig {
            name: "MPICH2-NMad (netmod, nested handshake)".into(),
            inter: InterNode::NmadNetmod {
                strategy: StrategyKind::Default,
                rails: Some(vec![rail]),
            },
            pioman: None,
            costs: SoftwareCosts::nmad_netmod(),
            shm_model: ShmModel::xeon(),
            cells_per_rank: 64,
            nm: NmConfig::default(),
            compute_factor: 1.0,
            fabric_seed: 0,
            faults: None,
            obs: obs::ObsConfig::default(),
        }
    }

    /// Name the fabric seed explicitly (jitter streams + replay identity).
    pub fn with_fabric_seed(mut self, seed: u64) -> StackConfig {
        self.fabric_seed = seed;
        self
    }

    /// Install a fault plan. Seeds the fabric with the plan's seed and —
    /// if the plan can lose or duplicate packets, or kill whole nodes —
    /// turns on the transport retry layer, without which drops are
    /// unsurvivable. A plan with node-level faults (crash/hang/join
    /// windows) additionally arms the membership supervisor: node death is
    /// only survivable if somebody promotes the silence into a verdict.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> StackConfig {
        self.fabric_seed = plan.seed();
        if (plan.lossy() || plan.has_node_faults()) && self.nm.retry.is_none() {
            self.nm.retry = Some(RetryConfig::default());
        }
        if plan.has_node_faults() && self.nm.membership.is_none() {
            self.nm.membership = Some(MembershipConfig::default());
        }
        self.faults = Some(plan);
        self
    }

    /// Arm (or tune) the elastic-membership supervisor explicitly. Implies
    /// the retry layer — verdicts are fed by retransmission timeouts.
    pub fn with_membership(mut self, m: MembershipConfig) -> StackConfig {
        if self.nm.retry.is_none() {
            self.nm.retry = Some(RetryConfig::default());
        }
        self.nm.membership = Some(m);
        self
    }

    /// Arm credit-based eager flow control on the NewMadeleine paths
    /// (overload protection; ignored by tailored stacks, whose CH3 wire
    /// protocol has no credit layer).
    pub fn with_flow(mut self, flow: FlowConfig) -> StackConfig {
        self.nm.flow = Some(flow);
        self
    }

    /// Arm structured observability: per-message lifecycle spans (with or
    /// without table conformance), surfaced on [`RunOutcome::obs`].
    pub fn with_obs(mut self, obs: obs::ObsConfig) -> StackConfig {
        self.obs = obs;
        self
    }

    /// Does this stack bypass CH3 for inter-node traffic?
    pub fn bypass(&self) -> bool {
        matches!(self.inter, InterNode::NmadDirect { .. })
    }
}

/// Result of a completed MPI job.
#[derive(Debug)]
pub struct RunOutcome {
    pub sim: SimOutcome,
    /// Per-rank NewMadeleine statistics (empty for tailored stacks).
    pub nm_stats: Vec<nmad::core::NmStats>,
    /// Injected-fault counters (when the stack carried a fault plan).
    pub fault_counters: Option<FaultCounters>,
    /// Per-rail `(messages, bytes)` seen by the NewMadeleine fabric —
    /// replay-identity fingerprint for the determinism tests.
    pub rail_counters: Vec<(u64, u64)>,
    /// Total PIOMan re-kicks across all ranks: ltask passes run at an
    /// engine deadline with no kick behind them.
    pub piom_rekicks: u64,
    /// Job-wide copy accounting: every payload memcpy/allocation/share from
    /// MPI ingress down to the NIC, across all ranks (the Fig. 2 copy
    /// breakdown). Deterministic for a fixed seed.
    pub copy: CopySnapshot,
    /// Structured observability report: the job-wide span stream (None
    /// unless the stack armed `ObsConfig`).
    pub obs: Option<obs::Report>,
}

impl RunOutcome {
    /// Job-wide NewMadeleine totals: every rank's `nm_stats` folded by
    /// [`nmad::NmStats::absorb`] (sums; `fc_peak_unex_bytes` is the
    /// largest any one receiver saw; `copy` is left at zero — the job-wide
    /// figure is [`RunOutcome::copy`]).
    pub fn nm_total(&self) -> nmad::NmStats {
        let mut total = nmad::NmStats::default();
        self.nm_stats.iter().for_each(|s| total.absorb(s));
        total
    }

    /// Per-phase latency breakdown reconstructed from the span stream
    /// (None unless the run armed span recording).
    pub fn phase_breakdown(&self) -> Option<obs::PhaseBreakdown> {
        self.obs.as_ref().map(|r| r.breakdown())
    }
}

/// Run `program` on `nranks` simulated processes over `cluster` with the
/// given placement and stack.
pub fn run_mpi(
    cluster: &Cluster,
    placement: &Placement,
    cfg: &StackConfig,
    nranks: usize,
    program: Arc<dyn Fn(MpiHandle) + Send + Sync>,
) -> RunOutcome {
    assert_eq!(placement.nranks(), nranks, "placement/nranks mismatch");
    let mut builder = SimBuilder::new();
    // Debug escape hatch: bound the event count so a livelocked job fails
    // loudly instead of spinning (`MPI_SIM_MAX_EVENTS=...`).
    if let Ok(limit) = std::env::var("MPI_SIM_MAX_EVENTS") {
        if let Ok(n) = limit.parse::<u64>() {
            builder = builder.max_events(n);
        }
    }
    // One job-wide span recorder (None when observability is off:
    // every instrumentation site below degrades to a single branch).
    let recorder: Option<Arc<obs::Recorder>> =
        cfg.obs.enabled().then(|| obs::Recorder::new(cfg.obs));
    if let Some(rec) = &recorder {
        builder = builder.with_recorder(rec);
        // Conformance mode: every recorded span event is replayed through
        // the protocol transition table as it happens (no-op unless
        // `cfg.obs.conformance` is armed).
        nmad::protocol::conformance::install(rec, cfg.nm.retry.is_some());
    }
    let mut sim = builder.build();
    let sched = sim.scheduler();
    // One job-wide copy meter: MPI ingress, Nemesis cells, NewMadeleine and
    // the CH3 engines all charge the same tally (surfaced in `RunOutcome`).
    let meter = CopyMeter::new();
    // Job-wide topology indices, built once and shared by every rank's VC
    // table and the hierarchical collectives. All per-rank locality queries
    // below are O(1) against this map (the per-rank `ranks_on` scans they
    // replace were O(ranks²) job-wide).
    let topo: Arc<TopoMap> = Arc::new(TopoMap::new(placement));
    let rank_to_node: Arc<Vec<NodeId>> =
        Arc::new((0..nranks).map(|r| placement.node_of(r)).collect());

    // --- Shared-memory domains, one per populated node -----------------
    let mut domains: Vec<Option<Arc<ShmDomain>>> = vec![None; cluster.nodes];
    for (node, domain) in domains.iter_mut().enumerate() {
        let ranks = topo.ranks_on(NodeId(node));
        if ranks.is_empty() {
            continue;
        }
        *domain = Some(ShmDomain::with_instruments(
            ranks,
            cfg.cells_per_rank,
            cfg.shm_model,
            Arc::clone(&meter),
            recorder.as_ref(),
        ));
    }
    // --- Inter-node fabric + per-rank path ------------------------------
    enum NetSetup {
        Direct(Vec<Arc<NmCore>>),
        Netmod(Vec<Arc<NmCore>>),
        Tailored(Vec<Arc<Inbox>>, Arc<Fabric<Ch3Wire>>, TailoredProfile),
        None,
    }
    let any_remote = topo.multi_node();
    let mut nm_fabric: Option<Arc<Fabric<NmWire>>> = None;
    // The fabric takes ownership of its NIC models, so the cluster's rail
    // descriptions must be cloned out of the borrowed `Cluster`.
    let rail_models = |subset: &Option<Vec<usize>>| -> Vec<simnet::NicModel> {
        match subset {
            Some(idx) => idx.iter().map(|&i| cluster.rails[i].clone()).collect(),
            None => cluster.rails.clone(),
        }
    };
    let net_setup = if !any_remote {
        NetSetup::None
    } else {
        match &cfg.inter {
            InterNode::NmadDirect { strategy, rails }
            | InterNode::NmadNetmod { strategy, rails } => {
                let models = rail_models(rails);
                if let Some(plan) = &cfg.faults {
                    assert!(
                        !(plan.lossy() || plan.has_node_faults()) || cfg.nm.retry.is_some(),
                        "a lossy or node-fault plan needs NmConfig.retry (see StackConfig::with_faults)"
                    );
                    assert!(
                        !plan.has_node_faults() || cfg.nm.membership.is_some(),
                        "a node-fault plan needs NmConfig.membership (see StackConfig::with_faults)"
                    );
                }
                let fabric: Arc<Fabric<NmWire>> = Fabric::with_opts(
                    cluster.nodes,
                    models,
                    FabricOpts {
                        seed: cfg.fabric_seed,
                        fault: cfg.faults.as_ref().map(Arc::clone),
                        recorder: recorder.as_ref().map(Arc::clone),
                    },
                );
                let rail_ids: Vec<RailId> = (0..fabric.num_rails()).map(RailId).collect();
                let mut nm_cfg = cfg.nm;
                nm_cfg.strategy = *strategy;
                let cores: Vec<Arc<NmCore>> = (0..nranks)
                    .map(|r| {
                        NmCore::with_instruments(
                            nm_cfg,
                            r,
                            NmNet {
                                fabric: Arc::clone(&fabric),
                                node: placement.node_of(r),
                                // Each core owns its rail list (Copy ids).
                                rails: rail_ids.clone(),
                                rank_to_node: Arc::clone(&rank_to_node),
                            },
                            Arc::clone(&meter),
                            recorder.as_ref(),
                        )
                    })
                    .collect();
                // Node sinks demultiplex on the destination rank (hashed —
                // a linear probe here is O(node ranks) per delivery).
                for node in 0..cluster.nodes {
                    let node_cores: HashMap<usize, Arc<NmCore>> = topo
                        .ranks_on(NodeId(node))
                        .iter()
                        .map(|&r| (r, Arc::clone(&cores[r])))
                        .collect();
                    if node_cores.is_empty() {
                        continue;
                    }
                    fabric.set_sink(
                        NodeId(node),
                        Box::new(move |s, d| {
                            let dst = d.msg.dst_rank();
                            let core = node_cores
                                .get(&dst)
                                .unwrap_or_else(|| panic!("no core for rank {dst}"));
                            // Cores index rails identically to the fabric
                            // (NmNet.rails is the full 0..n id list), so the
                            // fabric rail id doubles as the local index.
                            core.accept_delivery(s, d.msg, d.rail.0, d.corrupted);
                        }),
                    );
                }
                nm_fabric = Some(Arc::clone(&fabric));
                if matches!(cfg.inter, InterNode::NmadDirect { .. }) {
                    NetSetup::Direct(cores)
                } else {
                    NetSetup::Netmod(cores)
                }
            }
            InterNode::Tailored(profile) => {
                // The fabric owns its NIC model; cloned out of the
                // borrowed `Cluster` description.
                let models = vec![cluster.rails[profile.rail].clone()];
                let fabric: Arc<Fabric<Ch3Wire>> = Fabric::new(cluster.nodes, models);
                let inboxes: Vec<Arc<Inbox>> = (0..nranks).map(|_| Inbox::new()).collect();
                for node in 0..cluster.nodes {
                    let node_boxes: HashMap<usize, Arc<Inbox>> = topo
                        .ranks_on(NodeId(node))
                        .iter()
                        .map(|&r| (r, Arc::clone(&inboxes[r])))
                        .collect();
                    if node_boxes.is_empty() {
                        continue;
                    }
                    fabric.set_sink(
                        NodeId(node),
                        Box::new(move |s, d| {
                            let dst = d.msg.dst;
                            let inbox = node_boxes
                                .get(&dst)
                                .unwrap_or_else(|| panic!("no inbox for rank {dst}"));
                            inbox.push(s, d.msg.src, d.msg.pkt);
                        }),
                    );
                }
                // The profile is cloned out of the borrowed config: the
                // setup enum outlives the `cfg` borrow inside the loop.
                NetSetup::Tailored(inboxes, fabric, profile.clone())
            }
        }
    };
    // --- Per-rank process state -----------------------------------------
    let mut states: Vec<Arc<ProcState>> = Vec::with_capacity(nranks);
    let mut piom_servers: Vec<Option<Arc<PiomServer>>> = Vec::with_capacity(nranks);
    let mut cores_for_stats: Vec<Arc<NmCore>> = Vec::new();
    for r in 0..nranks {
        let vcs = VcTable::new(r, Arc::clone(&topo), cfg.bypass());
        // A net set-up exists exactly when some rank lives on another node
        // (`any_remote`), which is every rank's `vcs.has_remote()`.
        let net = match &net_setup {
            NetSetup::Direct(cores) => NetPath::Direct(Arc::clone(&cores[r])),
            NetSetup::Netmod(cores) => {
                let t = NmadNetmodTransport::new(Arc::clone(&cores[r]), vcs.remote_peers());
                NetPath::Ch3(Arc::new(t) as Arc<dyn Ch3Transport>)
            }
            NetSetup::Tailored(inboxes, fabric, profile) => {
                let t = FabricTransport::new(
                    Arc::clone(fabric),
                    r,
                    placement.node_of(r),
                    RailId(0),
                    Arc::clone(&rank_to_node),
                    Arc::clone(&inboxes[r]),
                    profile.reg_cache,
                )
                .with_rdv_setup(profile.rdv_setup)
                .with_copy_meter(&meter);
                NetPath::Ch3(Arc::new(t) as Arc<dyn Ch3Transport>)
            }
            NetSetup::None => NetPath::None,
        };
        if let NetSetup::Direct(cores) | NetSetup::Netmod(cores) = &net_setup {
            cores_for_stats.push(Arc::clone(&cores[r]));
        }
        let (engine, costs, net_eager) = match &net_setup {
            NetSetup::Tailored(_, _, p) => (
                Ch3Engine::with_ack(p.eager_threshold, p.rdv_chunk, p.rdv_ack),
                p.costs,
                p.eager_threshold,
            ),
            _ => (
                Ch3Engine::new(cfg.nm.eager_threshold, None),
                cfg.costs,
                cfg.nm.eager_threshold,
            ),
        };
        let engine = engine.with_copy_meter(&meter);
        // Shared-memory transport (only when the node hosts >1 rank).
        let node = topo.node_of(r);
        let colocated = topo.node_ranks(r).len() > 1;
        let (shm, shm_model) = if colocated {
            let domain = Arc::clone(domains[node.0].as_ref().unwrap());
            let ti = Arc::clone(&topo);
            let local_of: Arc<dyn Fn(usize) -> usize + Send + Sync> =
                Arc::new(move |g| ti.local_index(g));
            let t = ShmTransport::new(domain, topo.local_index(r), local_of);
            (
                Some(Arc::new(t) as Arc<dyn Ch3Transport>),
                Some(cfg.shm_model),
            )
        } else {
            (None, Some(cfg.shm_model))
        };
        let piom_server = cfg
            .pioman
            .map(|p| PiomServer::new(p, obs::RankRec::new(recorder.as_ref(), r as u32), &sched));
        let state = ProcState::new(
            r,
            nranks,
            vcs,
            engine,
            shm,
            shm_model,
            net,
            net_eager,
            costs,
            Arc::clone(&meter),
            piom_server.as_ref().map(Arc::clone),
        );
        // PIOMan wiring (part 1): the progress cycle becomes an ltask and
        // the shared-memory side kicks this rank's server on deliveries
        // (§3.3.1, the "global polling authority"). Network hooks are
        // wired in a second pass, per node.
        if let Some(server) = &piom_server {
            let st = Arc::clone(&state);
            server.register_fn(
                &format!("mpi-progress-{r}"),
                Arc::new(move |s| {
                    st.progress_cycle(s);
                    st.net_deadline()
                }),
            );
            if let Some(t) = &state.shm {
                let sv = Arc::clone(server);
                t.set_event_hook(Arc::new(move |s| sv.kick_shm(s)));
            }
            server.start(&sched);
        }
        piom_servers.push(piom_server);
        states.push(state);
    }

    // PIOMan wiring (part 2): a NIC event must wake EVERY co-located
    // rank's progress engine, not just the rank the event belongs to —
    // ranks on one node share the NIC, so one rank's send-completion is
    // another rank's "the rail is idle now, commit your window" signal.
    if cfg.pioman.is_some() {
        for (r, state) in states.iter().enumerate() {
            let node_servers: Vec<Arc<PiomServer>> = topo
                .node_ranks(r)
                .iter()
                .filter_map(|&peer| piom_servers[peer].as_ref().map(Arc::clone))
                .collect();
            let hook: Arc<dyn Fn(&simnet::Scheduler) + Send + Sync> = Arc::new(move |s| {
                for sv in &node_servers {
                    sv.kick_net(s);
                }
            });
            match &state.net {
                NetPath::Direct(core) => core.set_event_hook(hook),
                NetPath::Ch3(t) => t.set_event_hook(hook),
                NetPath::None => {}
            }
        }
    }

    // --- Rank threads ----------------------------------------------------
    for (r, state) in states.iter().enumerate() {
        let program = Arc::clone(&program);
        let state = Arc::clone(state);
        sim.spawn_rank(format!("rank{r}"), move |ctx| {
            program(MpiHandle::new(ctx, state));
        });
    }
    let outcome = sim.run().unwrap_or_else(|e| {
        // Dump per-rank protocol state so deadlocks/livelocks are
        // diagnosable from the panic output.
        eprintln!("=== MPI job '{}' failed: {e} ===", cfg.name);
        for (r, st) in states.iter().enumerate() {
            let rank = st.with_state(|st| st.snapshot());
            let nm = match &st.net {
                NetPath::Direct(core) => core.snapshot().to_string(),
                NetPath::Ch3(t) => format!("ch3-net {}", t.snapshot()),
                NetPath::None => "no-net".into(),
            };
            eprintln!("  rank{r}: {rank}; {nm}");
        }
        panic!("MPI job '{}' failed: {e}", cfg.name);
    });
    // Conformance mode: a trace that stepped outside the protocol table is
    // a failure of the run, not a statistic to squint at.
    if let Some(rec) = &recorder {
        let violations = rec.violations();
        assert!(
            violations.is_empty(),
            "MPI job '{}': {} protocol-conformance violation(s):\n  {}",
            cfg.name,
            violations.len(),
            violations.join("\n  ")
        );
    }
    RunOutcome {
        sim: outcome,
        nm_stats: cores_for_stats.iter().map(|c| c.stats()).collect(),
        fault_counters: cfg.faults.as_ref().map(|p| p.counters()),
        rail_counters: nm_fabric
            .as_ref()
            .map(|f| f.rail_counters())
            .unwrap_or_default(),
        piom_rekicks: piom_servers.iter().flatten().map(|s| s.rekicks()).sum(),
        copy: meter.snapshot(),
        obs: recorder.as_ref().map(|r| r.report()),
    }
}

/// Convenience: run and collect a value from each rank.
pub fn run_mpi_collect<T: Send + 'static>(
    cluster: &Cluster,
    placement: &Placement,
    cfg: &StackConfig,
    nranks: usize,
    program: impl Fn(&MpiHandle) -> T + Send + Sync + 'static,
) -> (RunOutcome, Vec<T>) {
    let results: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..nranks).map(|_| None).collect()));
    let r2 = Arc::clone(&results);
    let outcome = run_mpi(
        cluster,
        placement,
        cfg,
        nranks,
        Arc::new(move |mpi: MpiHandle| {
            let rank = mpi.rank();
            let v = program(&mpi);
            r2.lock()[rank] = Some(v);
        }),
    );
    let collected = Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("results still shared"))
        .into_inner()
        .into_iter()
        .map(|v| v.expect("rank produced no result"))
        .collect();
    (outcome, collected)
}
