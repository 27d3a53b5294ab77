//! Rails (networks) connecting node NIC ports, and message routing.
//!
//! A [`Fabric`] is the set of networks installed in a cluster. Each *rail*
//! is one network type (e.g. InfiniBand, Myrinet) with one [`NicPort`] per
//! node. Multirail configurations — the heterogeneous IB + MX setup of
//! Fig. 5 — are simply fabrics with more than one rail.
//!
//! The fabric is generic over the wire-message type `M`: each protocol stack
//! in this workspace (NewMadeleine, the baselines) defines its own wire
//! format and instantiates its own fabric per simulation run.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::Scheduler;
use crate::fault::FaultPlan;
use crate::nic::{CloneFn, DeliverFn, NicModel, NicPort, PortFault, Transfer};
use crate::time::SimTime;
use crate::topology::NodeId;

/// Index of a rail (network) within a fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RailId(pub usize);

/// A message arriving at a node.
pub struct Delivery<M> {
    pub src: NodeId,
    pub rail: RailId,
    pub msg: M,
    /// The wire corrupted the payload in flight (injected by the fault
    /// plan's `corrupt_pct`); an end-to-end checksum above must catch it.
    pub corrupted: bool,
}

/// Per-node handler invoked (inline in the dispatch loop) for every
/// arriving message.
pub type SinkFn<M> = Box<dyn FnMut(&Scheduler, Delivery<M>) + Send>;

/// Re-export of the NIC wire-size unit used across the workspace.
pub use crate::nic::MB;

/// Wire message marker trait alias (anything sendable works).
pub trait WireMessage: Send + 'static {}
impl<T: Send + 'static> WireMessage for T {}

struct RailPorts<M: Send + 'static> {
    model: Arc<NicModel>,
    ports: Vec<Arc<NicPort<M>>>,
}

/// Construction options: the master seed every per-port RNG (jitter) and
/// the fault plan derive from, named explicitly so every test names its
/// seed instead of relying on per-call defaults.
#[derive(Default)]
pub struct FabricOpts {
    /// Master seed mixed into every port's jitter RNG.
    pub seed: u64,
    /// Optional fault-injection plan (see [`crate::fault`]).
    pub fault: Option<Arc<FaultPlan>>,
    /// Optional observability recorder: every port emits `nic_tx` engine
    /// events through it, stamped with the source node.
    pub recorder: Option<Arc<obs::Recorder>>,
}

/// All networks of a simulated cluster.
pub struct Fabric<M: Send + 'static> {
    rails: Vec<RailPorts<M>>,
    sinks: Arc<Mutex<Vec<Option<SinkFn<M>>>>>,
    seed: u64,
    fault: Option<Arc<FaultPlan>>,
}

impl<M: Send + 'static> Fabric<M> {
    /// Build a fabric over `nodes` nodes with one rail per model in
    /// `rail_models` (every node gets a port on every rail). Seed 0, no
    /// faults; use [`Fabric::with_opts`] to name a seed or inject faults.
    pub fn new(nodes: usize, rail_models: Vec<NicModel>) -> Arc<Self> {
        Self::build(nodes, rail_models, FabricOpts::default(), None)
    }

    fn build(
        nodes: usize,
        rail_models: Vec<NicModel>,
        opts: FabricOpts,
        clone_fn: Option<CloneFn<M>>,
    ) -> Arc<Self> {
        assert!(nodes > 0, "fabric needs at least one node");
        assert!(!rail_models.is_empty(), "fabric needs at least one rail");
        let sinks: Arc<Mutex<Vec<Option<SinkFn<M>>>>> =
            Arc::new(Mutex::new((0..nodes).map(|_| None).collect()));
        let mut rails = Vec::with_capacity(rail_models.len());
        for (ri, model) in rail_models.into_iter().enumerate() {
            let model = Arc::new(model);
            let rail_id = RailId(ri);
            let mut ports = Vec::with_capacity(nodes);
            for n in 0..nodes {
                let sinks = Arc::clone(&sinks);
                let node_plan = opts.fault.clone();
                let deliver: DeliverFn<M> = Arc::new(move |sched, src, dst, msg, corrupted| {
                    // Scheduled node faults eat the frame at delivery time:
                    // a dead node neither sends nor receives, a hung node
                    // doesn't send. Sender-side DMA completion already
                    // fired, exactly like a wire drop.
                    if let Some(plan) = &node_plan {
                        if plan.node_suppressed(src.0, dst.0, sched.now()) {
                            return;
                        }
                    }
                    let mut sinks = sinks.lock();
                    let slot = sinks
                        .get_mut(dst.0)
                        .unwrap_or_else(|| panic!("delivery to unknown node {dst:?}"));
                    match slot {
                        Some(sink) => sink(
                            sched,
                            Delivery {
                                src,
                                rail: rail_id,
                                msg,
                                corrupted,
                            },
                        ),
                        None => panic!("delivery to node {dst:?} with no sink installed"),
                    }
                });
                let fault = opts.fault.as_ref().map(|plan| PortFault {
                    plan: Arc::clone(plan),
                    rail: ri,
                    clone: clone_fn.as_ref().map(Arc::clone),
                });
                ports.push(NicPort::new(
                    Arc::clone(&model),
                    NodeId(n),
                    ri,
                    opts.seed,
                    deliver,
                    fault,
                    obs::RankRec::new(opts.recorder.as_ref(), n as u32),
                ));
            }
            rails.push(RailPorts { model, ports });
        }
        Arc::new(Fabric {
            rails,
            sinks,
            seed: opts.seed,
            fault: opts.fault,
        })
    }

    /// The master seed this fabric was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consult the fault plan: does a registration on `rail` miss the
    /// registration cache? Always `false` without a plan.
    pub fn reg_cache_miss(&self, rail: RailId) -> bool {
        self.fault
            .as_ref()
            .map(|p| p.reg_cache_miss(rail.0))
            .unwrap_or(false)
    }

    /// Per-rail `(messages, bytes)` transmitted, aggregated over every
    /// node's port — the fabric-side counters the determinism tests pin.
    pub fn rail_counters(&self) -> Vec<(u64, u64)> {
        self.rails
            .iter()
            .map(|r| {
                r.ports.iter().fold((0, 0), |(m, b), p| {
                    let (pm, pb) = p.counters();
                    (m + pm, b + pb)
                })
            })
            .collect()
    }

    /// Number of rails (networks).
    pub fn num_rails(&self) -> usize {
        self.rails.len()
    }

    /// The performance model of rail `rail`.
    pub fn model(&self, rail: RailId) -> &NicModel {
        &self.rails[rail.0].model
    }

    /// The NIC port of `node` on `rail`.
    pub fn port(&self, rail: RailId, node: NodeId) -> &Arc<NicPort<M>> {
        &self.rails[rail.0].ports[node.0]
    }

    /// Install the delivery handler for `node`. Must be done for every node
    /// that can receive before any traffic flows; replaces any previous
    /// sink.
    pub fn set_sink(&self, node: NodeId, sink: SinkFn<M>) {
        self.sinks.lock()[node.0] = Some(sink);
    }

    /// Convenience: submit a transfer on `rail` from `src`.
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &self,
        sched: &Scheduler,
        rail: RailId,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        msg: M,
        on_sent: Option<crate::nic::SentHook>,
    ) {
        self.submit(sched, rail, src, dst, bytes, msg, on_sent, false);
    }

    /// Submit a latency-critical control frame on `rail`: it queues in the
    /// port's express lane, ahead of waiting bulk transfers (it still
    /// cannot preempt the transfer already on the wire). Keeps handshakes
    /// and acks reactive when a rail is saturated with rendezvous data.
    #[allow(clippy::too_many_arguments)]
    pub fn send_express(
        &self,
        sched: &Scheduler,
        rail: RailId,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        msg: M,
        on_sent: Option<crate::nic::SentHook>,
    ) {
        self.submit(sched, rail, src, dst, bytes, msg, on_sent, true);
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        sched: &Scheduler,
        rail: RailId,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        msg: M,
        on_sent: Option<crate::nic::SentHook>,
        priority: bool,
    ) {
        assert_ne!(src, dst, "fabric is inter-node only; use the shm channel");
        self.port(rail, src).submit(
            sched,
            Transfer {
                dst,
                bytes,
                msg,
                on_sent,
                priority,
            },
        );
    }

    /// Is `src`'s port on `rail` busy at `now`?
    pub fn rail_busy(&self, rail: RailId, src: NodeId, now: SimTime) -> bool {
        self.port(rail, src).busy(now)
    }
}

impl<M: Send + Clone + 'static> Fabric<M> {
    /// Build a fabric with an explicit seed and (optionally) a fault plan.
    /// Requires `M: Clone` so the fault layer can materialize duplicate
    /// deliveries.
    pub fn with_opts(nodes: usize, rail_models: Vec<NicModel>, opts: FabricOpts) -> Arc<Self> {
        // Ownership constraint: a duplicate-fault delivery must hand the
        // sink an independent wire message while the original is still in
        // flight, so the fault layer genuinely needs `Clone` here. For the
        // NewMadeleine wire type this bottoms out in `NmBuf::clone`, a
        // metered refcount share — no payload bytes are copied.
        let clone_fn: CloneFn<M> = Arc::new(|m: &M| m.clone());
        Self::build(nodes, rail_models, opts, Some(clone_fn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::nic::NicModel;
    use crate::time::{SimDuration, SimTime};
    use parking_lot::Mutex as PlMutex;

    #[derive(Debug, PartialEq)]
    struct Msg(u32);

    #[test]
    fn point_to_point_delivery_time() {
        let sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<Msg>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
        let got = Arc::new(PlMutex::new(Vec::new()));
        for n in 0..2 {
            let got = Arc::clone(&got);
            fabric.set_sink(
                NodeId(n),
                Box::new(move |s, d| {
                    got.lock().push((n, d.src, d.msg.0, s.now()));
                }),
            );
        }
        let sched = sim.scheduler();
        let f2 = Arc::clone(&fabric);
        sched.schedule_at(SimTime::ZERO, move |s| {
            f2.send(s, RailId(0), NodeId(0), NodeId(1), 0, Msg(7), None);
        });
        sim.run().unwrap();
        let got = got.lock();
        assert_eq!(got.len(), 1);
        let (node, src, val, at) = got[0];
        assert_eq!((node, src, val), (1, NodeId(0), 7));
        // Zero-byte message arrives after the per-packet handoff cost plus
        // the wire latency.
        assert_eq!(at, SimTime(1_320));
    }

    #[test]
    fn serial_port_queues_back_to_back_sends() {
        let sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<Msg>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
        let got = Arc::new(PlMutex::new(Vec::new()));
        let g = Arc::clone(&got);
        fabric.set_sink(
            NodeId(1),
            Box::new(move |s, d| g.lock().push((d.msg.0, s.now()))),
        );
        fabric.set_sink(NodeId(0), Box::new(|_, _| panic!("unexpected")));
        let sched = sim.scheduler();
        let f2 = Arc::clone(&fabric);
        let size = 1_250_000; // 1 ms of serialization at 1250 MB/s (MB=2^20)
        sched.schedule_at(SimTime::ZERO, move |s| {
            f2.send(s, RailId(0), NodeId(0), NodeId(1), size, Msg(1), None);
            assert!(f2.rail_busy(RailId(0), NodeId(0), s.now()));
            f2.send(s, RailId(0), NodeId(0), NodeId(1), size, Msg(2), None);
        });
        sim.run().unwrap();
        let got = got.lock();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        // Second message is delayed by the first one's port occupancy
        // (per-packet cost + serialization).
        let occ = NicModel::connectx_ib().occupancy(size);
        assert_eq!(got[1].1, got[0].1 + occ);
    }

    #[test]
    fn multirail_ports_are_independent() {
        let sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<Msg>> =
            Fabric::new(2, vec![NicModel::connectx_ib(), NicModel::myri10g_mx()]);
        assert_eq!(fabric.num_rails(), 2);
        let got = Arc::new(PlMutex::new(Vec::new()));
        let g = Arc::clone(&got);
        fabric.set_sink(
            NodeId(1),
            Box::new(move |s, d| g.lock().push((d.rail, s.now()))),
        );
        let sched = sim.scheduler();
        let f2 = Arc::clone(&fabric);
        sched.schedule_at(SimTime::ZERO, move |s| {
            f2.send(s, RailId(0), NodeId(0), NodeId(1), 0, Msg(0), None);
            // Rail 1 is NOT busy even though rail 0 is mid-transfer.
            assert!(!f2.rail_busy(RailId(1), NodeId(0), s.now()));
            f2.send(s, RailId(1), NodeId(0), NodeId(1), 0, Msg(0), None);
        });
        sim.run().unwrap();
        let got = got.lock();
        assert_eq!(got.len(), 2);
        // IB (1.2us + 120ns handoff) beats MX (1.5us + 150ns).
        assert_eq!(got[0].0, RailId(0));
        assert_eq!(got[0].1, SimTime(1_320));
        assert_eq!(got[1].0, RailId(1));
        assert_eq!(got[1].1, SimTime(1_650));
    }

    #[test]
    fn on_sent_fires_at_serialization_end() {
        let sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<Msg>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
        fabric.set_sink(NodeId(1), Box::new(|_, _| {}));
        let sent_at = Arc::new(PlMutex::new(None));
        let sa = Arc::clone(&sent_at);
        let sched = sim.scheduler();
        let f2 = Arc::clone(&fabric);
        let size = 1_250_000;
        sched.schedule_at(SimTime::ZERO, move |s| {
            f2.send(
                s,
                RailId(0),
                NodeId(0),
                NodeId(1),
                size,
                Msg(0),
                Some(Box::new(move |s| *sa.lock() = Some(s.now()))),
            );
        });
        sim.run().unwrap();
        let occ = NicModel::connectx_ib().occupancy(size);
        assert_eq!(sent_at.lock().unwrap(), SimTime::ZERO + occ);
    }

    #[test]
    #[should_panic(expected = "inter-node only")]
    fn same_node_send_is_rejected() {
        let sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<Msg>> = Fabric::new(2, vec![NicModel::connectx_ib()]);
        let sched = sim.scheduler();
        fabric.send(&sched, RailId(0), NodeId(0), NodeId(0), 0, Msg(0), None);
        let _ = SimDuration::ZERO;
    }
}
