//! The shared-memory channel: fragmentation, reassembly, backpressure and
//! the intra-node timing model.
//!
//! One [`ShmDomain`] exists per node and is shared by all ranks placed on
//! it. Each rank gets an endpoint holding its *receive queue*, *free queue*
//! (both [`crate::queue::NemQueue`]s over the node's cell pool), a PIOMan
//! [`Mailbox`], a pending-send list for backpressure when free cells run
//! out, and reassembly state.
//!
//! ## Timing model
//!
//! Each sender has a serial "copy pipe": fragment `i` occupies the pipe for
//! `len_i / copy_bw` and becomes visible to the receiver `latency` after its
//! copy completes. This preserves per-sender FIFO delivery (the queue's
//! ordering guarantee) while modelling memcpy bandwidth and the base
//! cache-coherence latency. Per-cell CPU costs on either side
//! ([`ShmModel::send_overhead`], [`ShmModel::recv_overhead`]) are charged by
//! the MPI layer on the rank's own clock.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{BufOrigin, CopyMeter, NmBuf, Scheduler, SimDuration, SimTime};

use crate::cell::{CellHandle, CellPool, MsgHeader, MsgKind, CELL_PAYLOAD};
use crate::mailbox::Mailbox;
use crate::queue::NemQueue;

/// Calibrated shared-memory performance model.
#[derive(Clone, Copy, Debug)]
pub struct ShmModel {
    /// Base visibility latency of an enqueued cell (cache-coherence cost).
    pub latency: SimDuration,
    /// Per-cell CPU cost on the sending rank.
    pub send_overhead: SimDuration,
    /// Per-cell CPU cost on the receiving rank.
    pub recv_overhead: SimDuration,
    /// memcpy bandwidth through the shared region, bytes/second.
    pub copy_bw_bps: f64,
}

impl ShmModel {
    /// Calibrated so the Nemesis small-message shm latency lands at the
    /// ~0.2 µs of Fig. 6(a).
    pub fn xeon() -> ShmModel {
        ShmModel {
            latency: SimDuration::nanos(100),
            send_overhead: SimDuration::nanos(50),
            recv_overhead: SimDuration::nanos(50),
            copy_bw_bps: 5.0e9,
        }
    }

    /// Time the sender's copy pipe is occupied by a `len`-byte fragment.
    pub fn copy_time(&self, len: usize) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.copy_bw_bps)
    }

    /// CPU cost the sender pays per fragment (charged by the MPI layer).
    pub fn send_cpu_cost(&self, len: usize) -> SimDuration {
        self.send_overhead + self.copy_time(len)
    }

    /// CPU cost the receiver pays per fragment.
    pub fn recv_cpu_cost(&self, len: usize) -> SimDuration {
        self.recv_overhead + self.copy_time(len)
    }
}

/// A message queued for transmission while free cells are scarce.
struct PendingOut {
    dst_local: usize,
    header: MsgHeader,
    data: NmBuf,
    /// Bytes already pushed into cells.
    sent: usize,
    /// True once the First/Only fragment has gone out.
    started: bool,
}

/// Reassembly state for one in-flight inbound message.
struct Partial {
    header: MsgHeader,
    buf: Vec<u8>,
}

/// Incremental accounting of the bytes an endpoint has parked in
/// reassembly buffers — the shared-memory analogue of the network side's
/// unexpected-queue bytes. Maintained on every fragment, never by
/// scanning, so overload diagnostics can read it on hot paths.
#[derive(Default)]
struct ReasmAccount {
    cur: usize,
    hwm: usize,
}

impl ReasmAccount {
    fn charge(&mut self, len: usize) {
        self.cur += len;
        self.hwm = self.hwm.max(self.cur);
    }

    fn release(&mut self, len: usize) {
        debug_assert!(self.cur >= len, "reassembly byte accounting underflow");
        self.cur -= len;
    }
}

struct Endpoint {
    global_rank: usize,
    /// Observability handle stamped with this endpoint's global rank.
    rec: obs::RankRec,
    recv_queue: NemQueue,
    free_queue: NemQueue,
    mailbox: Mailbox,
    pending_out: Mutex<VecDeque<PendingOut>>,
    /// Inbound partial messages keyed by sender's global rank (per-sender
    /// FIFO makes one slot per sender sufficient).
    partials: Mutex<HashMap<usize, Partial>>,
    /// Earliest time this sender's copy pipe is free.
    pipe_free_at: Mutex<SimTime>,
    /// Per-destination sequence numbers.
    next_seq: Mutex<HashMap<usize, u64>>,
    /// Completed inbound messages ready for the upper layer.
    inbox: Mutex<VecDeque<(MsgHeader, NmBuf)>>,
    /// Bytes parked in reassembly buffers (and their high-water mark).
    reasm: Mutex<ReasmAccount>,
    /// Optional hook fired (on the engine) whenever a cell lands in this
    /// endpoint's receive queue — PIOMan uses it to react immediately.
    on_delivery: Mutex<Option<DeliveryHook>>,
}

/// Hook fired on the engine when a cell lands in an endpoint's receive
/// queue; the `usize` is the sending rank's local index.
pub type DeliveryHook = Arc<dyn Fn(&Scheduler, usize) + Send + Sync>;

/// The shared-memory domain of one node.
pub struct ShmDomain {
    pool: Arc<CellPool>,
    endpoints: Vec<Endpoint>,
    model: ShmModel,
    /// Stack-wide copy accounting; every cell copy-in/out is charged here.
    meter: Arc<CopyMeter>,
}

impl ShmDomain {
    /// Create a domain for the given co-located ranks (their *global* MPI
    /// ranks, in local order) with `cells_per_rank` cells each.
    pub fn new(global_ranks: &[usize], cells_per_rank: usize, model: ShmModel) -> Arc<ShmDomain> {
        Self::with_meter(global_ranks, cells_per_rank, model, CopyMeter::new())
    }

    /// Like [`ShmDomain::new`], charging copies to an existing stack meter.
    pub fn with_meter(
        global_ranks: &[usize],
        cells_per_rank: usize,
        model: ShmModel,
        meter: Arc<CopyMeter>,
    ) -> Arc<ShmDomain> {
        Self::with_instruments(global_ranks, cells_per_rank, model, meter, None)
    }

    /// Like [`ShmDomain::with_meter`], additionally emitting typed `obs`
    /// engine events (fragment copies, deliveries) through `recorder`.
    pub fn with_instruments(
        global_ranks: &[usize],
        cells_per_rank: usize,
        model: ShmModel,
        meter: Arc<CopyMeter>,
        recorder: Option<&Arc<obs::Recorder>>,
    ) -> Arc<ShmDomain> {
        let (pool, initial) = CellPool::new(global_ranks.len().max(1), cells_per_rank);
        let mut endpoints = Vec::with_capacity(global_ranks.len());
        for (local, &g) in global_ranks.iter().enumerate() {
            let ep = Endpoint {
                global_rank: g,
                rec: obs::RankRec::new(recorder, g as u32),
                recv_queue: NemQueue::new(),
                free_queue: NemQueue::new(),
                mailbox: Mailbox::new(),
                pending_out: Mutex::new(VecDeque::new()),
                partials: Mutex::new(HashMap::new()),
                pipe_free_at: Mutex::new(SimTime::ZERO),
                next_seq: Mutex::new(HashMap::new()),
                inbox: Mutex::new(VecDeque::new()),
                reasm: Mutex::new(ReasmAccount::default()),
                on_delivery: Mutex::new(None),
            };
            endpoints.push(ep);
            let _ = local;
        }
        let domain = Arc::new(ShmDomain {
            pool,
            endpoints,
            model,
            meter,
        });
        // Seed each endpoint's free queue with its initial cells.
        for (local, handles) in initial.into_iter().enumerate() {
            if local < domain.endpoints.len() {
                for h in handles {
                    domain.endpoints[local].free_queue.enqueue(h);
                }
            }
        }
        domain
    }

    /// The timing model in force.
    pub fn model(&self) -> &ShmModel {
        &self.model
    }

    /// The copy meter this domain charges.
    pub fn meter(&self) -> &Arc<CopyMeter> {
        &self.meter
    }

    /// The PIOMan mailbox of a local endpoint.
    pub fn mailbox(&self, local: usize) -> Mailbox {
        Mailbox::clone(&self.endpoints[local].mailbox)
    }

    /// Install the delivery hook for `local` (PIOMan integration).
    pub fn set_delivery_hook(&self, local: usize, hook: DeliveryHook) {
        *self.endpoints[local].on_delivery.lock() = Some(hook);
    }

    /// Queue `data` for transmission from `src_local` to `dst_local` and
    /// start pumping fragments. Never blocks; backpressure is handled by
    /// the pending list. Returns the per-destination sequence number
    /// assigned to the message.
    pub fn send(
        self: &Arc<Self>,
        sched: &Scheduler,
        src_local: usize,
        dst_local: usize,
        mut header: MsgHeader,
        data: NmBuf,
    ) -> u64 {
        assert_ne!(src_local, dst_local, "self-send must be handled above");
        let seq = {
            let mut seqs = self.endpoints[src_local].next_seq.lock();
            let s = seqs.entry(dst_local).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        header.seq = seq;
        header.total_len = data.len();
        self.endpoints[src_local]
            .pending_out
            .lock()
            .push_back(PendingOut {
                dst_local,
                header,
                data,
                sent: 0,
                started: false,
            });
        self.pump(sched, src_local);
        seq
    }

    /// Move fragments of `src_local`'s pending messages into free cells and
    /// schedule their delivery. Called after sends and whenever one of this
    /// endpoint's cells is returned.
    pub fn pump(self: &Arc<Self>, sched: &Scheduler, src_local: usize) {
        let ep = &self.endpoints[src_local];
        loop {
            // Claim a free cell first; without one we cannot progress.
            let mut cell = match ep.free_queue.dequeue(&self.pool) {
                Some(c) => c,
                None => return,
            };
            let mut pending = ep.pending_out.lock();
            let front = match pending.front_mut() {
                Some(f) => f,
                None => {
                    // Nothing to send: give the cell back.
                    drop(pending);
                    ep.free_queue.enqueue(cell);
                    return;
                }
            };
            let remaining = front.data.len() - front.sent;
            let frag_len = remaining.min(CELL_PAYLOAD);
            let kind = match (front.started, front.sent + frag_len >= front.data.len()) {
                (false, true) => MsgKind::Only,
                (false, false) => MsgKind::First,
                (true, true) => MsgKind::Last,
                (true, false) => MsgKind::Middle,
            };
            cell.kind = kind;
            cell.header = front.header;
            cell.fill(&front.data[front.sent..front.sent + frag_len]);
            // The copy-in *into* the shared cell is one of the two
            // unavoidable shm copies (Fig. 2's copy-in/copy-out pair).
            self.meter.record_copy(frag_len);
            front.sent += frag_len;
            front.started = true;
            let dst_local = front.dst_local;
            let done = front.sent >= front.data.len();
            if done {
                pending.pop_front();
            }
            drop(pending);

            // Reserve the sender's serial copy pipe.
            let now = sched.now();
            ep.rec.engine(
                now.0,
                obs::EngineEvent::ShmFragCopy {
                    bytes: frag_len as u64,
                },
            );
            let (start, end) = {
                let mut free_at = ep.pipe_free_at.lock();
                let start = (*free_at).max(now);
                let end = start + self.model.copy_time(frag_len.max(1));
                *free_at = end;
                (start, end)
            };
            let visible_at = end + self.model.latency;
            let domain = Arc::clone(self);
            sched.schedule_at(visible_at, move |s| {
                domain.deliver(s, dst_local, cell);
            });
            let _ = start;
        }
    }

    /// Delivery event: the cell lands in the destination's receive queue.
    fn deliver(self: &Arc<Self>, sched: &Scheduler, dst_local: usize, cell: CellHandle) {
        let ep = &self.endpoints[dst_local];
        ep.rec.engine(
            sched.now().0,
            obs::EngineEvent::ShmDeliver {
                src_local: cell.origin as u32,
            },
        );
        ep.recv_queue.enqueue(cell);
        ep.mailbox.raise();
        let hook = ep.on_delivery.lock().as_ref().map(Arc::clone);
        if let Some(hook) = hook {
            hook(sched, dst_local);
        }
    }

    /// Drain one cell from `local`'s receive queue, if any, advancing
    /// reassembly. Returns a completed message when one finishes. The cell
    /// is returned to its origin's free queue and the origin's pump runs
    /// (it may have been starved of cells).
    pub fn poll(self: &Arc<Self>, sched: &Scheduler, local: usize) -> Option<(MsgHeader, NmBuf)> {
        // Return anything already assembled first.
        if let Some(done) = self.endpoints[local].inbox.lock().pop_front() {
            return Some(done);
        }
        loop {
            let ep = &self.endpoints[local];
            let cell = ep.recv_queue.dequeue(&self.pool)?;
            ep.mailbox.consume();
            let completed = self.absorb(local, &cell);
            // Recycle the cell to its origin and restart that origin's pump.
            let origin = cell.origin;
            self.endpoints[origin].free_queue.enqueue(cell);
            self.pump(sched, origin);
            if let Some(msg) = completed {
                return Some(msg);
            }
            // Fragment absorbed but message incomplete: keep draining.
        }
    }

    /// Fold one received fragment into reassembly state; returns the
    /// message if this fragment completed it.
    fn absorb(&self, local: usize, cell: &CellHandle) -> Option<(MsgHeader, NmBuf)> {
        let ep = &self.endpoints[local];
        match cell.kind {
            MsgKind::Only => {
                // Bytes pass straight through to the caller: charge so the
                // high-water mark sees them, release because nothing stays
                // parked.
                let mut reasm = ep.reasm.lock();
                reasm.charge(cell.payload().len());
                reasm.release(cell.payload().len());
                drop(reasm);
                Some((
                    cell.header,
                    // Copy-out of the shared cell into private storage (the
                    // second half of the copy-in/copy-out pair).
                    NmBuf::copied_from_slice(cell.payload(), BufOrigin::Nemesis, &self.meter),
                ))
            }
            MsgKind::First => {
                // Reassembly landing buffer: allocated once at the final
                // size, then each fragment is copied out of its cell.
                let mut buf = Vec::with_capacity(cell.header.total_len);
                buf.extend_from_slice(cell.payload());
                self.meter.record_alloc();
                self.meter.record_copy(cell.payload().len());
                ep.reasm.lock().charge(cell.payload().len());
                let mut partials = ep.partials.lock();
                let prev = partials.insert(
                    cell.header.src_rank,
                    Partial {
                        header: cell.header,
                        buf,
                    },
                );
                assert!(
                    prev.is_none(),
                    "interleaved fragments from rank {} — per-sender FIFO violated",
                    cell.header.src_rank
                );
                None
            }
            MsgKind::Middle | MsgKind::Last => {
                let mut partials = ep.partials.lock();
                let partial = partials
                    .get_mut(&cell.header.src_rank)
                    .expect("Middle/Last fragment without a First");
                partial.buf.extend_from_slice(cell.payload());
                self.meter.record_copy(cell.payload().len());
                ep.reasm.lock().charge(cell.payload().len());
                if cell.kind == MsgKind::Last {
                    let done = partials.remove(&cell.header.src_rank).unwrap();
                    ep.reasm.lock().release(done.buf.len());
                    assert_eq!(
                        done.buf.len(),
                        done.header.total_len,
                        "reassembled length mismatch"
                    );
                    // Freezing the landing buffer into an NmBuf is
                    // zero-copy (Vec -> refcounted storage handoff); the
                    // allocation was already charged at the First fragment.
                    Some((
                        done.header,
                        NmBuf::adopt(done.buf.into(), BufOrigin::Nemesis, &self.meter),
                    ))
                } else {
                    None
                }
            }
        }
    }

    /// Does `local` have anything to poll? Exact while no other thread
    /// delivers to it, as under the simulator's token, where one rank
    /// thread runs at a time and deliveries are events: the MPI progress
    /// cycle relies on that to skip itself. With senders running
    /// concurrently a `false` may be stale by the time it returns.
    pub fn has_incoming(&self, local: usize) -> bool {
        let ep = &self.endpoints[local];
        ep.mailbox.pending() > 0 || !ep.recv_queue.is_empty_hint() || !ep.inbox.lock().is_empty()
    }

    /// Global rank of a local endpoint.
    pub fn global_rank(&self, local: usize) -> usize {
        self.endpoints[local].global_rank
    }

    /// Bytes `local` currently has parked in reassembly buffers.
    pub fn reassembly_bytes(&self, local: usize) -> usize {
        self.endpoints[local].reasm.lock().cur
    }

    /// High-water mark of [`ShmDomain::reassembly_bytes`] — peak inbound
    /// buffering this endpoint ever saw (overload diagnostics).
    pub fn reassembly_hwm(&self, local: usize) -> usize {
        self.endpoints[local].reasm.lock().hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simnet::{SimBuilder, SimTime};

    fn run_shm<T: Send + 'static>(
        f: impl FnOnce(&Scheduler, Arc<ShmDomain>) -> T + Send + 'static,
        check: impl FnOnce(T, SimTime) + Send + 'static,
    ) {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let domain = ShmDomain::new(&[0, 1], 8, ShmModel::xeon());
        let out = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        sched.schedule_at(SimTime::ZERO, move |s| {
            *out2.lock() = Some(f(s, domain));
        });
        let outcome = sim.run().unwrap();
        let v = out.lock().take().expect("setup did not run");
        check(v, outcome.final_time);
    }

    #[test]
    fn small_message_roundtrip() {
        run_shm(
            |s, d| {
                let hdr = MsgHeader {
                    src_rank: 0,
                    dst_rank: 1,
                    tag: 9,
                    ..Default::default()
                };
                d.send(s, 0, 1, hdr, NmBuf::from(Bytes::from_static(b"ping")));
                d
            },
            |d, final_time| {
                // Delivery happened during the run; poll it now.
                let sim = SimBuilder::new().build();
                let sched = sim.scheduler();
                let (hdr, data) = d.poll(&sched, 1).expect("message should be there");
                assert_eq!(hdr.tag, 9);
                assert_eq!(&data[..], b"ping");
                assert!(d.poll(&sched, 1).is_none());
                // 4 bytes: copy ~0.8ns -> 0ns? copy_time(4) = 0.8ns -> 1ns
                // (rounded); visible at ~latency.
                assert!(final_time >= SimTime(100));
            },
        );
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let payload = Bytes::from(
            (0..(2 * CELL_PAYLOAD + 1234))
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>(),
        );
        let expect = payload.slice(..); // zero-copy view shared with the send
        run_shm(
            move |s, d| {
                let hdr = MsgHeader {
                    src_rank: 0,
                    dst_rank: 1,
                    tag: 5,
                    ..Default::default()
                };
                d.send(s, 0, 1, hdr, NmBuf::from(payload));
                d
            },
            move |d, _| {
                let sim = SimBuilder::new().build();
                let sched = sim.scheduler();
                let (hdr, data) = d.poll(&sched, 1).expect("assembled message");
                assert_eq!(hdr.total_len, expect.len());
                assert_eq!(&data[..], &expect[..]);
            },
        );
    }

    #[test]
    fn backpressure_recycles_cells() {
        // 3 cells per rank but a message needing 5 fragments: the sender
        // stalls until the receiver polls (returning cells) — here delivery
        // events alone can't finish it, so we poll from a rank.
        let payload: Vec<u8> = vec![7u8; 5 * CELL_PAYLOAD];
        let expect_len = payload.len();
        let mut sim = SimBuilder::new().build();
        let domain = ShmDomain::new(&[0, 1], 3, ShmModel::xeon());
        let d2 = Arc::clone(&domain);
        let sched = sim.scheduler();
        sched.schedule_at(SimTime::ZERO, move |s| {
            let hdr = MsgHeader {
                src_rank: 0,
                dst_rank: 1,
                ..Default::default()
            };
            d2.send(s, 0, 1, hdr, NmBuf::from(payload));
        });
        let got = Arc::new(Mutex::new(None));
        let got2 = Arc::clone(&got);
        let d3 = Arc::clone(&domain);
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            loop {
                if let Some((hdr, data)) = d3.poll(&sched, 1) {
                    *got2.lock() = Some((hdr, data));
                    return;
                }
                ctx.advance(SimDuration::nanos(200));
            }
        });
        sim.run().unwrap();
        let (hdr, data) = got.lock().take().expect("message must complete");
        assert_eq!(hdr.total_len, expect_len);
        assert_eq!(data.len(), expect_len);
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn per_sender_fifo_order() {
        // Two messages 0->1 must arrive in send order even though the first
        // is much larger.
        let big = vec![1u8; CELL_PAYLOAD];
        let mut sim = SimBuilder::new().build();
        let domain = ShmDomain::new(&[0, 1], 8, ShmModel::xeon());
        let d2 = Arc::clone(&domain);
        let sched = sim.scheduler();
        sched.schedule_at(SimTime::ZERO, move |s| {
            let mk = |tag| MsgHeader {
                src_rank: 0,
                dst_rank: 1,
                tag,
                ..Default::default()
            };
            d2.send(s, 0, 1, mk(1), NmBuf::from(big));
            d2.send(s, 0, 1, mk(2), NmBuf::from(Bytes::from_static(b"small")));
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        let d3 = Arc::clone(&domain);
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            while o2.lock().len() < 2 {
                if let Some((hdr, _)) = d3.poll(&sched, 1) {
                    o2.lock().push(hdr.tag);
                } else {
                    ctx.advance(SimDuration::nanos(100));
                }
            }
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![1, 2]);
    }

    #[test]
    fn mailbox_counts_deliveries() {
        let mut sim = SimBuilder::new().build();
        let domain = ShmDomain::new(&[0, 1], 8, ShmModel::xeon());
        let mb = domain.mailbox(1);
        let d2 = Arc::clone(&domain);
        let sched = sim.scheduler();
        sched.schedule_at(SimTime::ZERO, move |s| {
            for _ in 0..3 {
                d2.send(
                    s,
                    0,
                    1,
                    MsgHeader::default(),
                    NmBuf::from(Bytes::from_static(b"m")),
                );
            }
        });
        let d3 = Arc::clone(&domain);
        let mb2 = Mailbox::clone(&mb);
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            // Wait until all three cells landed.
            while mb2.total() < 3 {
                ctx.advance(SimDuration::nanos(100));
            }
            assert!(d3.has_incoming(1));
            let mut n = 0;
            while d3.poll(&sched, 1).is_some() {
                n += 1;
            }
            assert_eq!(n, 3);
            assert_eq!(mb2.pending(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn reassembly_accounting_tracks_fragments() {
        // A 2.5-cell message parks bytes during reassembly; once polled the
        // current count returns to zero but the high-water mark keeps the
        // peak.
        let len = 2 * CELL_PAYLOAD + 100;
        let payload: Vec<u8> = vec![3u8; len];
        let mut sim = SimBuilder::new().build();
        let domain = ShmDomain::new(&[0, 1], 8, ShmModel::xeon());
        let d2 = Arc::clone(&domain);
        let sched = sim.scheduler();
        sched.schedule_at(SimTime::ZERO, move |s| {
            let hdr = MsgHeader {
                src_rank: 0,
                dst_rank: 1,
                ..Default::default()
            };
            d2.send(s, 0, 1, hdr, NmBuf::from(payload));
        });
        let d3 = Arc::clone(&domain);
        sim.spawn_rank("receiver", move |ctx| {
            let sched = ctx.scheduler();
            loop {
                if d3.poll(&sched, 1).is_some() {
                    break;
                }
                ctx.advance(SimDuration::nanos(200));
            }
            assert_eq!(d3.reassembly_bytes(1), 0, "nothing parked after poll");
            assert_eq!(d3.reassembly_hwm(1), len, "peak saw the whole message");
            assert_eq!(d3.reassembly_hwm(0), 0, "sender buffered nothing");
        });
        sim.run().unwrap();
    }

    #[test]
    fn delivery_hook_fires() {
        let sim = SimBuilder::new().build();
        let domain = ShmDomain::new(&[0, 1], 8, ShmModel::xeon());
        let hits = Arc::new(Mutex::new(0));
        let h2 = Arc::clone(&hits);
        domain.set_delivery_hook(
            1,
            Arc::new(move |_s, local| {
                assert_eq!(local, 1);
                *h2.lock() += 1;
            }),
        );
        let d2 = Arc::clone(&domain);
        let sched = sim.scheduler();
        sched.schedule_at(SimTime::ZERO, move |s| {
            d2.send(
                s,
                0,
                1,
                MsgHeader::default(),
                NmBuf::from(Bytes::from_static(b"x")),
            );
        });
        sim.run().unwrap();
        assert_eq!(*hits.lock(), 1);
    }
}
