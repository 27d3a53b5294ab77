//! CH3 packet transports.
//!
//! Three ways a CH3 packet reaches another rank:
//!
//! * [`ShmTransport`] — over the Nemesis shared-memory cell queues, for
//!   co-located ranks (always used, in every stack).
//! * [`FabricTransport`] — straight over one simulated NIC, for the
//!   network-tailored comparator stacks (MVAPICH2-like, Open MPI-like).
//! * [`NmadNetmodTransport`] — tunnelled through NewMadeleine messages via
//!   the four-routine module interface: the *legacy* integration whose
//!   nested rendezvous Fig. 2 criticizes. CH3 packets are byte-encoded,
//!   sent as NewMadeleine messages on a reserved tag, and — crucially — a
//!   CH3 `Data` packet larger than NewMadeleine's eager threshold triggers
//!   NewMadeleine's *own* internal RTS/CTS, producing the double handshake
//!   mechanically rather than by assumption.
//!
//! Outbound packets on the network transports sit in an outbox until
//! [`Ch3Transport::progress`] runs — progress only happens when the MPI
//! stack is driven (by the application or by PIOMan), which is what Fig. 7
//! measures.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};

use parking_lot::Mutex;
use simnet::{
    BufOrigin, CopyMeter, CopySnapshot, Fabric, NmBuf, NodeId, RailId, Scheduler, SimTime,
};

use nemesis::{MsgHeader, ShmDomain};
use nmad::sr::CompletionKind;
use nmad::NmCore;

use crate::ch3::Ch3Pkt;

/// Hook fired (from an event callback) when inbound traffic lands — PIOMan's
/// wake-up signal.
pub type EventHook = Arc<dyn Fn(&Scheduler) + Send + Sync>;

/// A CH3 packet transport.
pub trait Ch3Transport: Send + Sync {
    /// Queue `pkt` for `dst`. Buffered: the wire is only touched by
    /// `progress`/`flush`.
    fn send_pkt(&self, sched: &Scheduler, dst: usize, pkt: Ch3Pkt);

    /// Flush the outbox and drain inbound packets.
    fn progress(&self, sched: &Scheduler) -> Vec<(usize, Ch3Pkt)>;

    /// Push any outboxed packets onto the wire without draining inbound.
    /// The progress engine calls this at the END of every cycle so packets
    /// produced while processing inbound traffic (CTS → DATA) leave before
    /// the application regains control.
    fn flush(&self, sched: &Scheduler);

    /// Install the inbound-event hook.
    fn set_event_hook(&self, hook: EventHook);

    /// The transport's state as one typed value (failure diagnostics).
    fn snapshot(&self) -> TransportSnapshot;

    /// Is all outbound work this transport is responsible for finished?
    /// Drives the MPI_Finalize drain: a rank may not stop progressing
    /// while, e.g., the DATA half of a nested rendezvous still sits in its
    /// submission window.
    fn quiescent(&self) -> bool {
        true
    }

    /// The instant this transport next has timer work of its own (a
    /// retransmission deadline), kick or no kick.
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }

    /// Would [`Ch3Transport::progress`] or [`Ch3Transport::flush`] do
    /// anything now? The progress cycle skips itself when no layer has
    /// work, so `false` must be exact; `true` is always safe. The
    /// shared-memory transport answers from its endpoint. The two network
    /// transports keep this default: only the baseline stacks use them,
    /// and no ledger workload runs one.
    fn has_work(&self) -> bool {
        true
    }
}

/// A [`Ch3Transport`] at one instant. Its `Display` is the transport's
/// part of a failed run's dump line — the only place transport state is
/// formatted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportSnapshot {
    Shm {
        local: usize,
        /// Mailbox deliveries raised and not yet polled.
        pending_deliveries: u64,
        /// Fragment-reassembly bytes held now, and at most so far.
        reasm_bytes: usize,
        reasm_hwm: usize,
        copy: CopySnapshot,
    },
    Fabric {
        rank: usize,
        outbox: usize,
        inbox: usize,
        /// `None`: no job-wide meter was wired in.
        copy: Option<CopySnapshot>,
    },
    Netmod {
        /// Tunnelled frames that did not decode, counted and dropped.
        malformed: u64,
        core: Box<nmad::engine::EngineSnapshot>,
    },
}

impl fmt::Display for TransportSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportSnapshot::Shm {
                local,
                pending_deliveries,
                reasm_bytes,
                reasm_hwm,
                copy,
            } => write!(
                f,
                "shm local={local} outbox=0 pending_deliveries={pending_deliveries} \
                 reasm[cur={reasm_bytes}B hwm={reasm_hwm}B] copy[{copy}] \
                 failover[n/a: shared memory has no rails] \
                 flow[n/a: cell pool is the shm backpressure]"
            ),
            TransportSnapshot::Fabric {
                rank,
                outbox,
                inbox,
                copy,
            } => {
                let copy = copy.map_or("unmetered".into(), |c| c.to_string());
                write!(
                    f,
                    "fabric rank={rank} outbox={outbox} inbox={inbox} copy[{copy}] \
                     failover[n/a: tailored stack is single-rail] \
                     flow[n/a: tailored stack has no credits]"
                )
            }
            TransportSnapshot::Netmod { malformed, core } => {
                write!(f, "netmod malformed_frames={malformed} {core}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------

/// CH3 over the Nemesis shared-memory channel.
pub struct ShmTransport {
    domain: Arc<ShmDomain>,
    my_local: usize,
    /// Global rank → local index on this node.
    local_of: Arc<dyn Fn(usize) -> usize + Send + Sync>,
}

impl ShmTransport {
    pub fn new(
        domain: Arc<ShmDomain>,
        my_local: usize,
        local_of: Arc<dyn Fn(usize) -> usize + Send + Sync>,
    ) -> ShmTransport {
        ShmTransport {
            domain,
            my_local,
            local_of,
        }
    }

    fn header_of(&self, dst: usize, pkt: &Ch3Pkt) -> (MsgHeader, NmBuf) {
        let me = self.domain.global_rank(self.my_local);
        let mut h = MsgHeader {
            src_rank: me,
            dst_rank: dst,
            ..Default::default()
        };
        match pkt {
            Ch3Pkt::Eager { key, data } => {
                h.packet_type = 0;
                h.tag = *key;
                // Zero-copy hand-off: the cell queues copy-in from this
                // shared view, the packet keeps its own handle.
                (h, data.share())
            }
            Ch3Pkt::Rts { key, rdv_id, len } => {
                h.packet_type = 1;
                h.tag = *key;
                h.aux = [*rdv_id, *len as u64];
                (h, NmBuf::default())
            }
            Ch3Pkt::Cts { rdv_id } => {
                h.packet_type = 2;
                h.aux = [*rdv_id, 0];
                (h, NmBuf::default())
            }
            Ch3Pkt::Data {
                rdv_id,
                offset,
                data,
            } => {
                h.packet_type = 3;
                h.aux = [*rdv_id, *offset as u64];
                (h, data.share())
            }
            Ch3Pkt::DataAck { rdv_id } => {
                h.packet_type = 4;
                h.aux = [*rdv_id, 0];
                (h, NmBuf::default())
            }
        }
    }

    fn pkt_of(h: &MsgHeader, data: NmBuf) -> Ch3Pkt {
        match h.packet_type {
            0 => Ch3Pkt::Eager { key: h.tag, data },
            1 => Ch3Pkt::Rts {
                key: h.tag,
                rdv_id: h.aux[0],
                len: h.aux[1] as usize,
            },
            2 => Ch3Pkt::Cts { rdv_id: h.aux[0] },
            3 => Ch3Pkt::Data {
                rdv_id: h.aux[0],
                offset: h.aux[1] as usize,
                data,
            },
            4 => Ch3Pkt::DataAck { rdv_id: h.aux[0] },
            t => panic!("unknown shm packet type {t}"),
        }
    }
}

impl Ch3Transport for ShmTransport {
    fn send_pkt(&self, sched: &Scheduler, dst: usize, pkt: Ch3Pkt) {
        let (header, data) = self.header_of(dst, &pkt);
        let dst_local = (self.local_of)(dst);
        self.domain
            .send(sched, self.my_local, dst_local, header, data);
    }

    fn progress(&self, sched: &Scheduler) -> Vec<(usize, Ch3Pkt)> {
        let mut out = Vec::new();
        while let Some((h, data)) = self.domain.poll(sched, self.my_local) {
            out.push((h.src_rank, Self::pkt_of(&h, data)));
        }
        out
    }

    fn flush(&self, _sched: &Scheduler) {
        // Shared-memory sends go straight into the cell queues; nothing is
        // outboxed.
    }

    fn has_work(&self) -> bool {
        self.domain.has_incoming(self.my_local)
    }

    fn set_event_hook(&self, hook: EventHook) {
        let local = self.my_local;
        self.domain
            .set_delivery_hook(local, Arc::new(move |s, _l| hook(s)));
    }

    fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot::Shm {
            local: self.my_local,
            pending_deliveries: self.domain.mailbox(self.my_local).pending(),
            reasm_bytes: self.domain.reassembly_bytes(self.my_local),
            reasm_hwm: self.domain.reassembly_hwm(self.my_local),
            copy: self.domain.meter().snapshot(),
        }
    }
}

// ---------------------------------------------------------------------
// Raw fabric (tailored baselines)
// ---------------------------------------------------------------------

/// Wire message of the tailored stacks.
pub struct Ch3Wire {
    pub src: usize,
    pub dst: usize,
    pub pkt: Ch3Pkt,
}

/// Shared inbox a fabric sink pushes into (one per rank).
#[derive(Default)]
pub struct Inbox {
    q: Mutex<VecDeque<(usize, Ch3Pkt)>>,
    /// Set once, at wiring time.
    hook: OnceLock<EventHook>,
}

impl Inbox {
    pub fn new() -> Arc<Inbox> {
        Arc::new(Inbox::default())
    }

    /// Deliver a packet (called by the node's fabric sink).
    pub fn push(&self, sched: &Scheduler, src: usize, pkt: Ch3Pkt) {
        self.q.lock().push_back((src, pkt));
        if let Some(hook) = self.hook.get() {
            hook(sched);
        }
    }
}

/// CH3 straight over one NIC rail — the comparator-stack transport.
pub struct FabricTransport {
    fabric: Arc<Fabric<Ch3Wire>>,
    my_rank: usize,
    node: NodeId,
    rail: RailId,
    rank_to_node: Arc<Vec<NodeId>>,
    outbox: Mutex<VecDeque<(usize, Ch3Pkt)>>,
    inbox: Arc<Inbox>,
    /// Registration cache (MVAPICH2): hit ⇒ zero-copy DATA pays no
    /// registration cost.
    reg_cache: bool,
    /// Pipeline-startup delay before a CTS leaves (tailored stacks with a
    /// costly rendezvous protocol switch).
    rdv_setup: simnet::SimDuration,
    /// Job-wide copy meter (diagnostics; the payload handles carry the
    /// charging meter themselves).
    meter: Option<Arc<CopyMeter>>,
}

impl FabricTransport {
    /// No pipeline-startup delay and no meter; see the builders below.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fabric: Arc<Fabric<Ch3Wire>>,
        my_rank: usize,
        node: NodeId,
        rail: RailId,
        rank_to_node: Arc<Vec<NodeId>>,
        inbox: Arc<Inbox>,
        reg_cache: bool,
    ) -> FabricTransport {
        FabricTransport {
            fabric,
            my_rank,
            node,
            rail,
            rank_to_node,
            outbox: Mutex::new(VecDeque::new()),
            inbox,
            reg_cache,
            rdv_setup: simnet::SimDuration::ZERO,
            meter: None,
        }
    }

    /// Charge `rdv_setup` before each CTS leaves (builder style).
    pub fn with_rdv_setup(mut self, rdv_setup: simnet::SimDuration) -> FabricTransport {
        self.rdv_setup = rdv_setup;
        self
    }

    /// Attach the job-wide copy meter (builder style; shown by
    /// [`Ch3Transport::snapshot`]).
    pub fn with_copy_meter(mut self, meter: &Arc<CopyMeter>) -> FabricTransport {
        self.meter = Some(Arc::clone(meter));
        self
    }
}

impl Ch3Transport for FabricTransport {
    fn send_pkt(&self, _sched: &Scheduler, dst: usize, pkt: Ch3Pkt) {
        self.outbox.lock().push_back((dst, pkt));
    }

    fn progress(&self, sched: &Scheduler) -> Vec<(usize, Ch3Pkt)> {
        self.flush(sched);
        let mut q = self.inbox.q.lock();
        q.drain(..).collect()
    }

    fn flush(&self, sched: &Scheduler) {
        loop {
            let (dst, pkt) = match self.outbox.lock().pop_front() {
                Some(x) => x,
                None => break,
            };
            let bytes = pkt.wire_bytes();
            let dst_node = self.rank_to_node[dst];
            let wire = Ch3Wire {
                src: self.my_rank,
                dst,
                pkt,
            };
            // Zero-copy DATA pays dynamic registration unless cached; the
            // rendezvous CTS pays the pipeline-startup cost.
            let reg = match &wire.pkt {
                Ch3Pkt::Data { .. } => self
                    .fabric
                    .model(self.rail)
                    .registration_cost(bytes, self.reg_cache),
                Ch3Pkt::Cts { .. } => self.rdv_setup,
                _ => simnet::SimDuration::ZERO,
            };
            if reg > simnet::SimDuration::ZERO {
                let fabric = Arc::clone(&self.fabric);
                let (rail, node) = (self.rail, self.node);
                sched.schedule_in(reg, move |s| {
                    fabric.send(s, rail, node, dst_node, bytes, wire, None);
                });
            } else {
                self.fabric
                    .send(sched, self.rail, self.node, dst_node, bytes, wire, None);
            }
        }
    }

    fn set_event_hook(&self, hook: EventHook) {
        assert!(
            self.inbox.hook.set(hook).is_ok(),
            "inbox hook installed twice"
        );
    }

    fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot::Fabric {
            rank: self.my_rank,
            outbox: self.outbox.lock().len(),
            inbox: self.inbox.q.lock().len(),
            copy: self.meter.as_ref().map(|m| m.snapshot()),
        }
    }

    fn quiescent(&self) -> bool {
        self.outbox.lock().is_empty()
    }
}

// ---------------------------------------------------------------------
// NewMadeleine behind the module interface (legacy path)
// ---------------------------------------------------------------------

/// Reserved NewMadeleine tag carrying tunnelled CH3 packets.
pub const NETMOD_KEY: u64 = u64::MAX - 1;
/// Cookie marking netmod sends (completions ignored — CH3 is buffered).
const NETMOD_SEND_COOKIE: u64 = u64::MAX;
/// Cookie base for per-gate netmod receives: cookie = BASE + gate.
const NETMOD_RECV_BASE: u64 = u64::MAX / 2;

/// CH3 tunnelled through NewMadeleine messages (§2.1.3's baseline design).
pub struct NmadNetmodTransport {
    core: Arc<NmCore>,
    /// Remote peers (one pre-posted receive each, reposted on completion).
    peers: Vec<usize>,
    started: Once,
    /// Tunnelled frames [`Ch3Pkt::decode`] refused: counted and dropped.
    malformed: AtomicU64,
    /// The core's copy meter, re-attached to inbound frames (the completion
    /// boundary hands out plain `Bytes`, which drops the lineage).
    meter: Arc<CopyMeter>,
}

impl NmadNetmodTransport {
    pub fn new(core: Arc<NmCore>, peers: Vec<usize>) -> NmadNetmodTransport {
        let meter = core.meter();
        NmadNetmodTransport {
            core,
            peers,
            started: Once::new(),
            malformed: AtomicU64::new(0),
            meter,
        }
    }

    /// `net_module_init`: pre-post one receive per remote gate.
    fn ensure_started(&self, sched: &Scheduler) {
        self.started.call_once(|| {
            for &p in &self.peers {
                self.core
                    .irecv(sched, p, NETMOD_KEY, NETMOD_RECV_BASE + p as u64);
            }
        });
    }
}

impl Ch3Transport for NmadNetmodTransport {
    fn send_pkt(&self, sched: &Scheduler, dst: usize, pkt: Ch3Pkt) {
        self.ensure_started(sched);
        // Tunnelled: the packet becomes an opaque NewMadeleine message —
        // the extra encode/copy is the module-queue copy of §2.1.3, and a
        // large DATA packet will cross NewMadeleine's own eager threshold
        // and trigger the *nested* internal rendezvous.
        self.core
            .isend(sched, dst, NETMOD_KEY, pkt.encode(), NETMOD_SEND_COOKIE);
    }

    fn progress(&self, sched: &Scheduler) -> Vec<(usize, Ch3Pkt)> {
        self.ensure_started(sched);
        self.core.schedule(sched);
        let mut out = Vec::new();
        for c in self.core.drain_completions() {
            match c.kind {
                CompletionKind::Send => {
                    debug_assert_eq!(c.cookie, NETMOD_SEND_COOKIE);
                }
                CompletionKind::Recv { data, gate, .. } => {
                    debug_assert_eq!(c.cookie, NETMOD_RECV_BASE + gate.0 as u64);
                    let frame = NmBuf::adopt(data, BufOrigin::Ch3, &self.meter);
                    // The frame crossed a wire: one that does not decode is
                    // counted and dropped, and the gate stays served.
                    match Ch3Pkt::decode(frame) {
                        Some(pkt) => out.push((gate.0, pkt)),
                        None => {
                            self.malformed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Repost — the module must always be ready to poll.
                    self.core
                        .irecv(sched, gate.0, NETMOD_KEY, NETMOD_RECV_BASE + gate.0 as u64);
                }
                CompletionKind::SendFailed { .. } | CompletionKind::RecvFailed { .. } => {
                    // The legacy netmod path predates elastic membership:
                    // CH3 runs its own protocols on top and has no drain
                    // story for a half-tunnelled packet.
                    panic!("membership drain verdict on the netmod path (unsupported)")
                }
                CompletionKind::SendRevoked { .. } | CompletionKind::RecvRevoked { .. } => {
                    // Likewise: epoch revocation is a bypass-path concept;
                    // the netmod tunnel never uses collective keys.
                    panic!("epoch revocation on the netmod path (unsupported)")
                }
            }
        }
        out
    }

    fn flush(&self, sched: &Scheduler) {
        // The "outbox" is NewMadeleine's submission window; a schedule pass
        // commits it.
        self.core.schedule(sched);
    }

    fn set_event_hook(&self, hook: EventHook) {
        self.core.set_event_hook(hook);
    }

    fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot::Netmod {
            malformed: self.malformed.load(Ordering::Relaxed),
            core: Box::new(self.core.snapshot()),
        }
    }

    fn quiescent(&self) -> bool {
        self.core.quiescent()
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.core.next_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis::ShmModel;
    use simnet::{SimBuilder, SimDuration};

    #[test]
    fn shm_transport_roundtrips_each_packet_kind() {
        let mut sim = SimBuilder::new().build();
        let domain = ShmDomain::new(&[0, 1], 16, ShmModel::xeon());
        let l0: Arc<dyn Fn(usize) -> usize + Send + Sync> = Arc::new(|g| g);
        let t0 = Arc::new(ShmTransport::new(Arc::clone(&domain), 0, Arc::clone(&l0)));
        let t1 = Arc::new(ShmTransport::new(Arc::clone(&domain), 1, l0));
        let pkts = vec![
            Ch3Pkt::Eager {
                key: 5,
                data: NmBuf::from(bytes::Bytes::from_static(b"e")),
            },
            Ch3Pkt::Rts {
                key: 6,
                rdv_id: 1,
                len: 999,
            },
            Ch3Pkt::Cts { rdv_id: 1 },
            Ch3Pkt::Data {
                rdv_id: 1,
                offset: 4,
                data: NmBuf::from(bytes::Bytes::from_static(b"dd")),
            },
        ];
        let n = pkts.len();
        let t0b = Arc::clone(&t0);
        sim.spawn_rank("sender", move |ctx| {
            let sched = ctx.scheduler();
            for p in pkts {
                t0b.send_pkt(&sched, 1, p);
            }
        });
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            let mut got = Vec::new();
            while got.len() < n {
                got.extend(t1.progress(&sched));
                ctx.advance(SimDuration::nanos(100));
            }
            assert!(matches!(got[0].1, Ch3Pkt::Eager { key: 5, .. }));
            assert!(matches!(
                got[1].1,
                Ch3Pkt::Rts {
                    key: 6,
                    rdv_id: 1,
                    len: 999
                }
            ));
            assert!(matches!(got[2].1, Ch3Pkt::Cts { rdv_id: 1 }));
            match &got[3].1 {
                Ch3Pkt::Data {
                    rdv_id: 1,
                    offset: 4,
                    data,
                } => assert_eq!(&data[..], b"dd"),
                other => panic!("wrong packet {other:?}"),
            }
            assert!(got.iter().all(|(src, _)| *src == 0));
        });
        sim.run().unwrap();
    }

    #[test]
    fn fabric_transport_defers_until_progress() {
        let mut sim = SimBuilder::new().build();
        let fabric: Arc<Fabric<Ch3Wire>> = Fabric::new(2, vec![simnet::NicModel::connectx_ib()]);
        let rank_to_node = Arc::new(vec![NodeId(0), NodeId(1)]);
        let inboxes = [Inbox::new(), Inbox::new()];
        for (n, ib) in inboxes.iter().enumerate() {
            let inbox = Arc::clone(ib);
            fabric.set_sink(
                NodeId(n),
                Box::new(move |s, d| inbox.push(s, d.msg.src, d.msg.pkt)),
            );
        }
        let t0 = Arc::new(FabricTransport::new(
            Arc::clone(&fabric),
            0,
            NodeId(0),
            RailId(0),
            Arc::clone(&rank_to_node),
            Arc::clone(&inboxes[0]),
            false,
        ));
        let t1 = Arc::new(FabricTransport::new(
            fabric,
            1,
            NodeId(1),
            RailId(0),
            rank_to_node,
            Arc::clone(&inboxes[1]),
            false,
        ));
        let t0b = Arc::clone(&t0);
        let port0 = Arc::clone(t0.fabric.port(RailId(0), NodeId(0)));
        sim.spawn_rank("sender", move |ctx| {
            let sched = ctx.scheduler();
            t0b.send_pkt(
                &sched,
                1,
                Ch3Pkt::Eager {
                    key: 1,
                    data: NmBuf::from(bytes::Bytes::from_static(b"x")),
                },
            );
            // Outboxed: nothing on the wire yet.
            ctx.advance(SimDuration::micros(10));
            assert_eq!(port0.counters().0, 0, "send must be deferred");
            let state = t0b.snapshot();
            assert!(
                matches!(state, TransportSnapshot::Fabric { outbox: 1, .. }),
                "deferred packet missing from the snapshot: {state}"
            );
            t0b.progress(&sched); // flush
        });
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            loop {
                let got = t1.progress(&sched);
                if !got.is_empty() {
                    assert_eq!(got.len(), 1);
                    assert_eq!(got[0].0, 0);
                    return;
                }
                ctx.advance(SimDuration::nanos(200));
            }
        });
        sim.run().unwrap();
    }

    /// The three hand-formatted `debug_state()` strings became one typed
    /// [`TransportSnapshot`]; its `Display` is pinned here against the old
    /// text of an shm and a fabric dump, so nothing they reported is lost.
    #[test]
    fn debug_state_reports_outbox_and_copy_meter() {
        let meter = CopyMeter::new();
        meter.record_alloc();
        meter.record_copy(64);

        let domain =
            ShmDomain::with_meter(&[0, 1], 16, nemesis::ShmModel::xeon(), Arc::clone(&meter));
        let l: Arc<dyn Fn(usize) -> usize + Send + Sync> = Arc::new(|g| g);
        let shm = ShmTransport::new(domain, 0, l);
        assert_eq!(
            shm.snapshot().to_string(),
            "shm local=0 outbox=0 pending_deliveries=0 reasm[cur=0B hwm=0B] \
             copy[memcpy=1 (64 B) alloc=1 slice=0] \
             failover[n/a: shared memory has no rails] \
             flow[n/a: cell pool is the shm backpressure]"
        );

        let fabric: Arc<Fabric<Ch3Wire>> = Fabric::new(2, vec![simnet::NicModel::connectx_ib()]);
        let rank_to_node = Arc::new(vec![NodeId(0), NodeId(1)]);
        let new_ft = || {
            FabricTransport::new(
                Arc::clone(&fabric),
                0,
                NodeId(0),
                RailId(0),
                Arc::clone(&rank_to_node),
                Inbox::new(),
                false,
            )
        };
        let ft = new_ft().with_copy_meter(&meter);
        assert_eq!(ft.snapshot(), ft.snapshot());
        assert_eq!(
            ft.snapshot().to_string(),
            "fabric rank=0 outbox=0 inbox=0 copy[memcpy=1 (64 B) alloc=1 slice=0] \
             failover[n/a: tailored stack is single-rail] \
             flow[n/a: tailored stack has no credits]"
        );
        assert!(new_ft().snapshot().to_string().contains("copy[unmetered]"));

        let nm_fabric: Arc<Fabric<nmad::NmWire>> =
            Fabric::new(2, vec![simnet::NicModel::connectx_ib()]);
        let core = NmCore::new(
            nmad::NmConfig::default(),
            0,
            nmad::NmNet {
                fabric: nm_fabric,
                node: NodeId(0),
                rails: vec![RailId(0)],
                rank_to_node,
            },
        );
        let nt = NmadNetmodTransport::new(core, vec![1]);
        let s = nt.snapshot().to_string();
        assert!(
            s.starts_with("netmod malformed_frames=0 ")
                && s.contains("outbox=")
                && s.contains("copy[")
                && s.contains("flow[off"),
            "netmod snapshot incomplete: {s}"
        );
    }
}
