//! NIC performance models and simulated NIC ports.
//!
//! The paper's testbed NICs are modelled by [`NicModel`]: a one-way wire
//! latency, a serialization bandwidth, and (for RDMA-style networks) a
//! dynamic memory-registration cost. The calibration constants come from the
//! paper's own measured numbers (§4.1.1) and are documented in DESIGN.md §4.
//!
//! A [`NicPort`] is one NIC installed in one node: a serial resource that
//! transmits one message at a time and queues the rest, which is exactly the
//! "is the network busy?" signal NewMadeleine's strategies key off
//! (§2.2: "when a network is already fulfilled with communication requests,
//! NewMadeleine keeps a window of packets to send").

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::Scheduler;
use crate::fault::FaultPlan;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// Cost of registering memory with the NIC before a zero-copy transfer.
#[derive(Clone, Copy, Debug)]
pub struct RegistrationModel {
    /// Fixed per-registration cost.
    pub base: SimDuration,
    /// Additional cost per byte registered.
    pub per_byte_ns: f64,
}

impl RegistrationModel {
    /// Cost to register a buffer of `bytes`.
    pub fn cost(&self, bytes: usize) -> SimDuration {
        self.base + SimDuration::nanos((bytes as f64 * self.per_byte_ns) as u64)
    }
}

/// Optional per-transfer timing jitter: each transfer's wire time is
/// multiplied by a factor drawn uniformly from `[1−pct, 1+pct]` with a
/// deterministic seeded RNG, so jittered runs are still reproducible.
/// Used by the sensitivity harness to show the reproduced figure *shapes*
/// don't depend on the noise-free NIC model.
#[derive(Clone, Copy, Debug)]
pub struct JitterModel {
    /// Relative amplitude, e.g. 0.05 for ±5 %.
    pub pct: f64,
    /// Base seed (combined with node/rail identity per port).
    pub seed: u64,
}

/// Performance model of one network interface type.
#[derive(Clone, Debug)]
pub struct NicModel {
    /// Human-readable name, e.g. `"ConnectX IB (Verbs)"`.
    pub name: &'static str,
    /// One-way small-message wire latency (host-to-host, excluding the MPI
    /// software stack).
    pub latency: SimDuration,
    /// Serialization bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Per-message host-side cost to hand a buffer to the NIC.
    pub send_overhead: SimDuration,
    /// Per-message host-side cost to retrieve a buffer from the NIC.
    pub recv_overhead: SimDuration,
    /// Memory-registration cost for zero-copy (rendezvous) transfers, if the
    /// network requires registration.
    pub registration: Option<RegistrationModel>,
    /// Optional deterministic timing jitter (None = exact model).
    pub jitter: Option<JitterModel>,
}

impl NicModel {
    /// ConnectX InfiniBand through the Verbs interface: the paper reports a
    /// raw latency of 1.2 µs and a peak bandwidth around 1.25 GB/s (§4.1.1,
    /// Fig. 4).
    pub fn connectx_ib() -> NicModel {
        NicModel {
            name: "ConnectX IB (Verbs)",
            latency: SimDuration::nanos(1_200),
            bandwidth_bps: 1_250.0 * MB_F,
            send_overhead: SimDuration::nanos(120),
            recv_overhead: SimDuration::nanos(120),
            registration: Some(RegistrationModel {
                base: SimDuration::nanos(500),
                per_byte_ns: 0.012,
            }),
            jitter: None,
        }
    }

    /// Myri-10G through the MX interface: calibrated so that the full
    /// MPICH2-NewMadeleine stack lands at the ~2.4 µs small-message latency
    /// of Fig. 6(b), with a peak bandwidth around 1.1 GB/s (Fig. 5).
    pub fn myri10g_mx() -> NicModel {
        NicModel {
            name: "Myri-10G (MX)",
            latency: SimDuration::nanos(1_500),
            bandwidth_bps: 1_100.0 * MB_F,
            send_overhead: SimDuration::nanos(150),
            recv_overhead: SimDuration::nanos(150),
            // MX handles registration internally; no explicit cost.
            registration: None,
            jitter: None,
        }
    }

    /// Time from submission to last byte arriving at the peer, for a
    /// `bytes`-long message on an idle NIC: per-packet host/NIC handoff
    /// cost, then wire latency plus serialization.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        self.send_overhead + self.latency + self.serialization(bytes)
    }

    /// Time the NIC port stays busy per packet: the per-packet handoff
    /// cost plus serialization. The per-packet cost is what message
    /// aggregation amortizes (§2.2).
    pub fn occupancy(&self, bytes: usize) -> SimDuration {
        self.send_overhead + self.serialization(bytes)
    }

    /// Pure serialization time for `bytes` on the wire.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Registration cost for a zero-copy transfer of `bytes`;
    /// zero if the network does not require registration or `cached` is
    /// true (registration-cache hit, as in MVAPICH2).
    pub fn registration_cost(&self, bytes: usize, cached: bool) -> SimDuration {
        match (&self.registration, cached) {
            (Some(reg), false) => reg.cost(bytes),
            _ => SimDuration::ZERO,
        }
    }
}

/// 1 MB = 1024 × 1024 bytes — the paper's definition (§4.1).
pub const MB: usize = 1024 * 1024;
const MB_F: f64 = MB as f64;

/// A transfer submitted to a NIC port.
pub struct Transfer<M> {
    pub dst: NodeId,
    /// Wire size used for timing (headers + payload).
    pub bytes: usize,
    /// Structured message content, handed to the destination sink.
    pub msg: M,
    /// Invoked on the engine when the NIC has finished reading the send
    /// buffer (sender-side completion).
    pub on_sent: Option<SentHook>,
    /// Latency-critical control frame: transmitted on the port's express
    /// channel, which does not wait for (or extend) the serial transmit
    /// engine's occupancy. A real NIC interleaves such MTU-sized control
    /// packets between the fragments of an in-flight bulk message;
    /// NewMadeleine relies on this to keep acks and handshakes reactive
    /// while a rail is saturated with rendezvous data. Express frames
    /// still pay the model's send overhead, serialization and latency,
    /// and still pass through the fault plan.
    pub priority: bool,
}

/// Sender-side completion callback: fires on the engine once the NIC has
/// finished reading the send buffer.
pub type SentHook = Box<dyn FnOnce(&Scheduler) + Send>;

struct PortState<M> {
    busy_until: SimTime,
    backlog: VecDeque<Transfer<M>>,
    /// Diagnostic counters.
    messages_sent: u64,
    bytes_sent: u64,
    /// Deterministic jitter source (present iff the model has jitter).
    rng: Option<rand::rngs::SmallRng>,
}

/// One NIC installed in one node: a serial transmit resource.
pub struct NicPort<M: Send + 'static> {
    pub model: Arc<NicModel>,
    node: NodeId,
    rail: usize,
    state: Mutex<PortState<M>>,
    deliver: DeliverFn<M>,
    /// Fault injection for this port, if the fabric installed a plan.
    fault: Option<PortFault<M>>,
    /// Observability handle (rank = this port's node id).
    rec: obs::RankRec,
}

/// Routing hook installed by the [`crate::fabric::Fabric`]: given the
/// scheduler, source node, destination node, the message and whether the
/// wire corrupted its payload in flight, arrange delivery to the
/// destination's sink.
pub(crate) type DeliverFn<M> = Arc<dyn Fn(&Scheduler, NodeId, NodeId, M, bool) + Send + Sync>;

/// Message replicator used to materialize duplicate deliveries. Installed
/// only when the wire-message type is `Clone` (see `Fabric::with_opts`).
pub(crate) type CloneFn<M> = Arc<dyn Fn(&M) -> M + Send + Sync>;

/// Fault-injection wiring of one port: the shared plan, this port's rail
/// index within it, and the replicator for duplicated deliveries.
pub(crate) struct PortFault<M> {
    pub plan: Arc<FaultPlan>,
    pub rail: usize,
    pub clone: Option<CloneFn<M>>,
}

impl<M: Send + 'static> NicPort<M> {
    pub(crate) fn new(
        model: Arc<NicModel>,
        node: NodeId,
        rail: usize,
        seed: u64,
        deliver: DeliverFn<M>,
        fault: Option<PortFault<M>>,
        rec: obs::RankRec,
    ) -> Arc<Self> {
        use rand::SeedableRng;
        let rng = model.jitter.map(|j| {
            // Seed deterministically per port (node × rail × fabric seed)
            // so runs stay reproducible and every test names its seed.
            rand::rngs::SmallRng::seed_from_u64(
                j.seed
                    ^ seed
                    ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (rail as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            )
        });
        Arc::new(NicPort {
            model,
            node,
            rail,
            state: Mutex::new(PortState {
                busy_until: SimTime::ZERO,
                backlog: VecDeque::new(),
                messages_sent: 0,
                bytes_sent: 0,
                rng,
            }),
            deliver,
            fault,
            rec,
        })
    }

    /// The node this port belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Is the transmit engine currently busy (or holding a backlog)?
    /// This is the signal NewMadeleine's strategies consult to decide
    /// whether to accumulate packets in the submission window.
    pub fn busy(&self, now: SimTime) -> bool {
        let st = self.state.lock();
        st.busy_until > now || !st.backlog.is_empty()
    }

    /// Earliest instant at which the transmit engine will be idle.
    pub fn free_at(&self, now: SimTime) -> SimTime {
        let st = self.state.lock();
        st.busy_until.max(now)
    }

    /// (messages, bytes) transmitted so far.
    pub fn counters(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.messages_sent, st.bytes_sent)
    }

    /// Submit a transfer. If the port is idle it starts immediately;
    /// otherwise it is queued FIFO behind in-flight transfers.
    pub fn submit(self: &Arc<Self>, sched: &Scheduler, xfer: Transfer<M>) {
        let now = sched.now();
        if xfer.priority {
            // Express channel: never queued, never occupies the serial
            // transmit engine.
            self.start_transfer(sched, now, xfer);
            return;
        }
        let start = {
            let mut st = self.state.lock();
            if st.busy_until > now || !st.backlog.is_empty() {
                st.backlog.push_back(xfer);
                return;
            }
            st.busy_until = now; // will be extended by start_transfer
            now
        };
        self.start_transfer(sched, start, xfer);
    }

    /// Begin transmitting `xfer` at `start` (port known idle).
    fn start_transfer(self: &Arc<Self>, sched: &Scheduler, start: SimTime, xfer: Transfer<M>) {
        // Fault verdict first: a stall extends the port occupancy before
        // the bytes move; drop/duplicate/delay shape the delivery below.
        let fault = self
            .fault
            .as_ref()
            .map(|pf| pf.plan.on_transfer(pf.rail, xfer.bytes, start))
            .unwrap_or_default();
        let mut serialization = self.model.serialization(xfer.bytes);
        let mut latency = self.model.latency;
        if let Some((bw_factor, lat_factor)) = fault.brownout {
            // A brown-out slows the wire, not the host: only the
            // serialization and latency legs stretch, the send overhead
            // stays at model cost.
            serialization =
                SimDuration::nanos((serialization.as_nanos() as f64 * bw_factor) as u64);
            latency = SimDuration::nanos((latency.as_nanos() as f64 * lat_factor) as u64);
        }
        let mut occupancy = self.model.send_overhead + serialization;
        if let Some(stall) = fault.stall {
            occupancy = stall + occupancy;
        }
        {
            let mut st = self.state.lock();
            if let (Some(rng), Some(j)) = (&mut st.rng, self.model.jitter) {
                use rand::Rng;
                let f = 1.0 + rng.gen_range(-j.pct..=j.pct);
                occupancy = SimDuration::nanos((occupancy.as_nanos() as f64 * f) as u64);
                latency = SimDuration::nanos((latency.as_nanos() as f64 * f) as u64);
            }
            if !xfer.priority {
                st.busy_until = start + occupancy;
            }
            st.messages_sent += 1;
            st.bytes_sent += xfer.bytes as u64;
        }
        let sent_at = start + occupancy;
        let delivered_at = sent_at + latency + fault.extra_delay;
        self.rec.engine(
            start.0,
            obs::EngineEvent::NicTx {
                rail: self.rail as u8,
                bytes: xfer.bytes as u64,
                occupancy_ns: occupancy.as_nanos(),
            },
        );
        // Sender-side completion + backlog continuation. These fire even
        // for dropped transfers: the NIC *did* read the send buffer — only
        // the wire ate the packet. Express frames never held the transmit
        // engine, so they have no backlog to continue.
        let port = Arc::clone(self);
        let on_sent = xfer.on_sent;
        let express = xfer.priority;
        sched.schedule_at(sent_at, move |s| {
            if let Some(cb) = on_sent {
                cb(s);
            }
            if !express {
                port.pump(s);
            }
        });
        if fault.drop {
            return;
        }
        // Duplicate copy, if the fault plan asked for one and the wire
        // format is replicable.
        if fault.duplicate {
            if let Some(clone) = self.fault.as_ref().and_then(|pf| pf.clone.as_ref()) {
                let copy = clone(&xfer.msg);
                let deliver = Arc::clone(&self.deliver);
                let (src, dst) = (self.node, xfer.dst);
                sched.schedule_at(delivered_at + fault.dup_extra_delay, move |s| {
                    // Duplicates re-walk the wire independently; model them
                    // as arriving intact (the original carries the corrupt
                    // verdict).
                    deliver(s, src, dst, copy, false);
                });
            }
        }
        // Delivery at the destination.
        let deliver = Arc::clone(&self.deliver);
        let (src, dst, msg) = (self.node, xfer.dst, xfer.msg);
        let corrupted = fault.corrupt;
        sched.schedule_at(delivered_at, move |s| {
            deliver(s, src, dst, msg, corrupted);
        });
    }

    /// Start the next backlogged transfer, if any.
    fn pump(self: &Arc<Self>, sched: &Scheduler) {
        let now = sched.now();
        let next = {
            let mut st = self.state.lock();
            if st.busy_until > now {
                return; // another transfer already started
            }
            st.backlog.pop_front()
        };
        if let Some(xfer) = next {
            self.start_transfer(sched, now, xfer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_overhead_latency_serialization() {
        let m = NicModel::connectx_ib();
        let t0 = m.transfer_time(0);
        assert_eq!(t0, m.send_overhead + m.latency);
        let t1 = m.transfer_time(MB);
        // 1 MB at 1250 MB/s = 800 µs of serialization.
        let expected = m.send_overhead + m.latency + SimDuration::micros(800);
        let diff = t1.as_nanos() as i64 - expected.as_nanos() as i64;
        assert!(diff.abs() < 10, "got {t1:?}, expected {expected:?}");
        assert_eq!(m.occupancy(0), m.send_overhead);
    }

    #[test]
    fn registration_cost_respects_cache() {
        let m = NicModel::connectx_ib();
        assert_eq!(m.registration_cost(MB, true), SimDuration::ZERO);
        let uncached = m.registration_cost(MB, false);
        assert!(uncached > SimDuration::ZERO);
        // MX needs no registration at all.
        let mx = NicModel::myri10g_mx();
        assert_eq!(mx.registration_cost(MB, false), SimDuration::ZERO);
    }

    #[test]
    fn ib_calibration_matches_paper() {
        // The paper reports 1.2 µs raw IB latency (§4.1.1).
        let m = NicModel::connectx_ib();
        assert_eq!(m.latency, SimDuration::nanos(1_200));
        // And a peak bandwidth around 1.25 GB/s.
        let bw_mbps = m.bandwidth_bps / MB as f64;
        assert!((bw_mbps - 1250.0).abs() < 1.0);
    }
}
