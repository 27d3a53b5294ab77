//! The real-thread hot path: producers → per-VC Nemesis queues → sharded
//! matcher, on actual OS threads.
//!
//! Everything else in this crate drives the stack from the simulator's
//! logically-single-threaded token protocol. This module composes the same
//! lock-free building blocks into a stack that runs under *real*
//! concurrency:
//!
//! * **Producers** (application threads) each own a private window of
//!   Nemesis cells. Per message they do the real sender-side work — fill
//!   the payload, seal it with the end-to-end [`NmWire`] CRC — then push
//!   the cell onto their virtual connection's [`NemQueue`] (multi-producer
//!   lock-free enqueue, model-checked in `tests/loom_queue.rs`).
//! * **Per-VC consumers** (progress threads) drain their queue — each
//!   queue has exactly one consumer, the Nemesis contract — verify the
//!   CRC, and run tag matching through the [`ShardedMatchEngine`]: even
//!   sequence numbers exercise the posted-first path, odd ones the
//!   unexpected-first path plus the ANY_SOURCE ticket arbitration
//!   (`probe_tag`). Cells are recycled to the owning producer's free queue,
//!   which is what bounds the in-flight window.
//! * **Eager flow control** runs through the shared [`CreditBank`]: a
//!   producer spins (yielding) until its gate has a credit; the consumer
//!   returns the credit at delivery. Credit conservation is checked after
//!   every run.
//! * **Rendezvous** models the two-phase protocol: the producer parks the
//!   payload in a shared rendezvous store and enqueues a small RTS cell;
//!   the consumer claims the payload directly (the CTS/DATA round-trip
//!   collapses to a handoff through the store, sealed by the DATA packet's
//!   CRC).
//! * **Statistics** are owned, not shared: each producer and each consumer
//!   counts into its own [`NmStats`], and the copies are folded with
//!   [`NmStats::absorb`] once the threads are joined. The folded total
//!   must equal a single-threaded oracle run ([`run_inline`]) executing
//!   the identical per-message logic.
//!
//! Latency is sampled per message (enqueue-to-delivery, monotonic clock)
//! and reported as exact percentiles — the numbers behind `BENCH_10.json`
//! and the perf ledger's `threaded_injection` workload.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nemesis::cell::{CellPool, MsgKind};
use nemesis::queue::NemQueue;
use nmad::credit::CreditBank;
use nmad::matching::Unexpected;
use nmad::sharded::ShardedMatchEngine;
use nmad::{GateId, NmStats, NmWire, RecvReqId, WirePayload};
use parking_lot::Mutex;
use piom::WorkerTeam;
use simnet::NmBuf;

/// CH3 packet type carried in the cell header: a whole eager message.
const PKT_EAGER: u32 = 1;
/// CH3 packet type carried in the cell header: a rendezvous RTS.
const PKT_RTS: u32 = 2;

/// Shape of a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Application (sender) threads. Producer `p` is pinned to VC
    /// `p % vcs`, so all of a producer's traffic crosses one queue and
    /// per-sender FIFO is a global property.
    pub producers: usize,
    /// Virtual connections: one lock-free queue + one consumer thread each.
    pub vcs: usize,
    /// Cells in each producer's private window (its in-flight bound).
    pub window: usize,
    /// Messages each producer injects.
    pub msgs_per_producer: u64,
    /// Payload bytes per eager message (also the rendezvous payload size).
    pub payload_bytes: usize,
    /// Every `rdv_every`-th message goes rendezvous (0 = all eager).
    pub rdv_every: u64,
    /// Per-gate eager credits (0 = flow control off).
    pub eager_credits: u32,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            producers: 4,
            vcs: 2,
            window: 32,
            msgs_per_producer: 1_000,
            payload_bytes: 256,
            rdv_every: 8,
            eager_credits: 16,
        }
    }
}

impl ThreadedConfig {
    /// Producer `p`'s per-message tag (one flow per producer, so the
    /// ANY_SOURCE probe has a unique answer to get right).
    fn tag_of(&self, p: usize) -> u64 {
        1_000 + p as u64
    }

    /// The consumer rank owning VC `c` (consumers are ranked after
    /// producers, like a node's dedicated progress cores).
    fn consumer_rank(&self, c: usize) -> usize {
        self.producers + c
    }

    /// Messages VC `c` will deliver.
    fn expected_on_vc(&self, c: usize) -> u64 {
        let pinned = (0..self.producers).filter(|p| p % self.vcs == c).count() as u64;
        pinned * self.msgs_per_producer
    }
}

/// Everything the producer and consumer threads share.
struct Shared {
    cfg: ThreadedConfig,
    pool: Arc<CellPool>,
    /// One multi-producer queue per VC; VC `c`'s consumer is its single
    /// dequeuer.
    vc_queues: Vec<NemQueue>,
    /// One free-cell queue per producer; consumers enqueue recycled cells,
    /// the owning producer is the single dequeuer.
    free_queues: Vec<NemQueue>,
    credits: Arc<CreditBank>,
    matching: ShardedMatchEngine,
    /// Rendezvous payload store: rdv_id → parked payload. Touched twice
    /// per rendezvous (park, claim), never on the eager path.
    rdv_store: Mutex<HashMap<u64, NmBuf>>,
    base: Instant,
}

impl Shared {
    fn new(cfg: ThreadedConfig) -> Shared {
        assert!(cfg.producers > 0 && cfg.vcs > 0 && cfg.window > 0);
        let (pool, handles) = CellPool::new(cfg.producers, cfg.window);
        let free_queues: Vec<NemQueue> = (0..cfg.producers).map(|_| NemQueue::new()).collect();
        for (p, hs) in handles.into_iter().enumerate() {
            for h in hs {
                free_queues[p].enqueue(h);
            }
        }
        let credits = Arc::new(CreditBank::new(cfg.eager_credits));
        if cfg.eager_credits > 0 {
            // Materialize every gate's pool up front so conservation can
            // be audited even for gates that never stall.
            for p in 0..cfg.producers {
                let _ = credits.pool(p);
            }
        }
        Shared {
            cfg,
            pool,
            vc_queues: (0..cfg.vcs).map(|_| NemQueue::new()).collect(),
            free_queues,
            credits,
            matching: ShardedMatchEngine::new(),
            rdv_store: Mutex::new(HashMap::new()),
            base: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Producer `p` injects message `m`: claim a window cell, do the real
    /// sender-side work, enqueue on the pinned VC. Counts into `stats`,
    /// the producer's own.
    fn produce_one(&self, p: usize, m: u64, stats: &mut NmStats) {
        let cfg = &self.cfg;
        let vc = p % cfg.vcs;
        let dst = cfg.consumer_rank(vc);
        let tag = cfg.tag_of(p);
        let rdv = cfg.rdv_every > 0 && (m + 1).is_multiple_of(cfg.rdv_every);

        // Window backpressure: wait for one of our cells to come back.
        let mut cell = loop {
            match self.free_queues[p].dequeue(&self.pool) {
                Some(h) => break h,
                None => std::thread::yield_now(),
            }
        };

        // Deterministic payload: a function of (p, m) only, so the oracle
        // run produces byte-identical packets.
        let fill = (p as u8).wrapping_mul(31).wrapping_add(m as u8);
        let payload = NmBuf::from(vec![fill; cfg.payload_bytes]);

        cell.header.src_rank = p;
        cell.header.dst_rank = dst;
        cell.header.tag = tag;
        cell.header.seq = m;
        cell.header.total_len = cfg.payload_bytes;
        cell.kind = MsgKind::Only;

        if rdv {
            // Two-phase: park the payload, seal the DATA packet's CRC into
            // the header, send a small RTS. The queue's release/acquire
            // ordering makes the parked payload visible to the consumer.
            let rdv_id = ((p as u64) << 32) | m;
            let data_wire = NmWire::new(
                p,
                dst,
                WirePayload::Data {
                    rdv_id,
                    offset: 0,
                    // Ownership note: `share()` is a metered refcount bump,
                    // not a copy — the parked buffer and the CRC input are
                    // the same bytes.
                    data: payload.share(),
                },
            );
            self.rdv_store.lock().insert(rdv_id, payload);
            cell.header.packet_type = PKT_RTS;
            cell.header.aux = [self.now_ns(), data_wire.crc()];
            cell.fill(&[]);
            stats.rdv_sends += 1;
        } else {
            // Eager admission: one credit per message when flow control is
            // armed. The stall counter records messages that had to wait,
            // not spin iterations (spin counts are schedule noise).
            if cfg.eager_credits > 0 {
                let mut stalled = false;
                while !self.credits.try_acquire(p) {
                    stalled = true;
                    std::thread::yield_now();
                }
                if stalled {
                    stats.fc_credit_stalls += 1;
                }
                stats.fc_eager_admitted += 1;
            }
            let wire = NmWire::new(
                p,
                dst,
                WirePayload::Eager {
                    tag,
                    seq: m,
                    data: payload.share(),
                },
            );
            cell.header.packet_type = PKT_EAGER;
            cell.header.aux = [self.now_ns(), wire.crc()];
            cell.fill(payload.as_slice());
            stats.eager_sends += 1;
            // Eager completes at the sender once the bytes are copied out.
            stats.send_completions += 1;
        }
        stats.packets_sent += 1;
        self.vc_queues[vc].enqueue(cell);
    }

    /// VC `c`'s consumer processes at most one cell. Returns `false` when
    /// the queue was momentarily empty.
    fn consume_one(&self, c: usize, state: &mut ConsumerState) -> bool {
        let Some(cell) = self.vc_queues[c].dequeue(&self.pool) else {
            return false;
        };
        let cfg = &self.cfg;
        let src = cell.header.src_rank;
        let seq = cell.header.seq;
        let tag = cell.header.tag;
        let [t_inject, crc_expect] = cell.header.aux;

        // Per-sender FIFO: a producer's messages all cross this queue, so
        // its sequence numbers must arrive dense and in order.
        let expect = state.next_seq.entry(src).or_insert(0);
        if seq != *expect {
            state.fifo_violations += 1;
        }
        *expect = seq + 1;

        match cell.header.packet_type {
            PKT_EAGER => {
                // Receiver-side CRC: reseal from the delivered bytes and
                // compare against the sender's seal.
                let data = NmBuf::from(cell.payload().to_vec());
                let wire = NmWire::new(
                    src,
                    state.my_rank,
                    WirePayload::Eager {
                        tag,
                        seq,
                        data: data.share(),
                    },
                );
                if wire.crc() != crc_expect {
                    state.stats.crc_drops += 1;
                } else {
                    self.deliver(src, tag, seq, data, state);
                }
                if cfg.eager_credits > 0 {
                    self.credits.release(src, 1);
                    state.stats.fc_credits_returned += 1;
                }
            }
            PKT_RTS => {
                // Claim the parked payload (the collapsed CTS/DATA round
                // trip) and verify the DATA packet's seal.
                let rdv_id = ((src as u64) << 32) | seq;
                let payload = self
                    .rdv_store
                    .lock()
                    .remove(&rdv_id)
                    .expect("RTS without a parked rendezvous payload");
                let data_wire = NmWire::new(
                    src,
                    state.my_rank,
                    WirePayload::Data {
                        rdv_id,
                        offset: 0,
                        data: payload.share(),
                    },
                );
                state.stats.data_chunks_sent += 1;
                if data_wire.crc() != crc_expect {
                    state.stats.crc_drops += 1;
                } else {
                    self.deliver(src, tag, seq, payload, state);
                }
                state.stats.send_completions += 1;
            }
            other => panic!("unknown threaded packet type {other}"),
        }

        let latency = self.now_ns().saturating_sub(t_inject);
        state.latencies_ns.push(latency);
        state.received += 1;
        self.free_queues[src].enqueue(cell);
        true
    }

    /// Run the delivered message through the sharded matcher. Even
    /// sequence numbers post the receive first (posted-queue hit); odd
    /// ones arrive first (unexpected-queue hit) and are then claimed via
    /// the ANY_SOURCE probe + a posted receive.
    fn deliver(&self, src: usize, tag: u64, seq: u64, data: NmBuf, state: &mut ConsumerState) {
        let gate = GateId(src);
        let payload_len = data.len();
        if seq.is_multiple_of(2) {
            let req = RecvReqId(state.next_req);
            state.next_req += 1;
            assert!(
                self.matching.post_recv(gate, tag, req).is_none(),
                "posted-first receive found a stale unexpected message"
            );
            let matched = self
                .matching
                .arrived(gate, tag, Unexpected::Eager { seq, data });
            assert_eq!(matched, Some(req), "arrival missed the posted receive");
            state.matched_posted += 1;
        } else {
            assert!(
                self.matching
                    .arrived(gate, tag, Unexpected::Eager { seq, data })
                    .is_none(),
                "unexpected-first arrival matched a phantom posted receive"
            );
            // Tags are per-producer, so the global-FIFO arbitration must
            // name this gate as the earliest (and only) holder.
            assert_eq!(
                self.matching.probe_tag_info(tag),
                Some((gate, payload_len)),
                "ANY_SOURCE ticket arbitration pointed at the wrong gate"
            );
            let req = RecvReqId(state.next_req);
            state.next_req += 1;
            let msg = self
                .matching
                .post_recv(gate, tag, req)
                .expect("stored unexpected message vanished");
            assert_eq!(msg.seq(), seq);
            state.matched_unexpected += 1;
        }
        state.stats.recv_completions += 1;
    }

    /// Audit the credit bank: every pool back at capacity.
    fn credits_intact(&self) -> bool {
        self.cfg.eager_credits == 0
            || (0..self.cfg.producers)
                .all(|p| self.credits.pool(p).available() == self.cfg.eager_credits)
    }
}

/// Consumer-thread-local delivery state.
struct ConsumerState {
    my_rank: usize,
    next_seq: HashMap<usize, u64>,
    next_req: u32,
    received: u64,
    fifo_violations: u64,
    matched_posted: u64,
    matched_unexpected: u64,
    latencies_ns: Vec<u64>,
    stats: NmStats,
}

impl ConsumerState {
    fn new(my_rank: usize, expected: u64) -> ConsumerState {
        ConsumerState {
            my_rank,
            next_seq: HashMap::new(),
            next_req: 0,
            received: 0,
            fifo_violations: 0,
            matched_posted: 0,
            matched_unexpected: 0,
            latencies_ns: Vec::with_capacity(expected as usize),
            stats: NmStats::default(),
        }
    }
}

/// Outcome of a threaded (or oracle) run.
pub struct ThreadedReport {
    pub elapsed: Duration,
    pub total_msgs: u64,
    /// End-to-end injection rate over the whole run.
    pub throughput_msgs_per_sec: f64,
    /// Enqueue-to-delivery latency samples, sorted ascending (exact, one
    /// per message).
    pub latencies_ns: Vec<u64>,
    /// Every thread's counters, folded with [`NmStats::absorb`].
    pub stats: NmStats,
    pub fifo_violations: u64,
    pub matched_posted: u64,
    pub matched_unexpected: u64,
    /// Every credit pool returned to full capacity.
    pub credit_intact: bool,
}

impl ThreadedReport {
    /// Exact percentile (nearest-rank) over the collected samples.
    pub fn latency_ns_at(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * q).round() as usize;
        self.latencies_ns[idx]
    }

    pub fn p50_ns(&self) -> u64 {
        self.latency_ns_at(0.50)
    }

    pub fn p99_ns(&self) -> u64 {
        self.latency_ns_at(0.99)
    }
}

fn finish(
    shared: &Shared,
    elapsed: Duration,
    producers: &[NmStats],
    consumers: Vec<ConsumerState>,
) -> ThreadedReport {
    let mut stats = NmStats::default();
    producers.iter().for_each(|p| stats.absorb(p));
    let mut latencies: Vec<u64> = Vec::new();
    let mut fifo_violations = 0;
    let mut matched_posted = 0;
    let mut matched_unexpected = 0;
    let mut total = 0;
    for s in consumers {
        latencies.extend_from_slice(&s.latencies_ns);
        fifo_violations += s.fifo_violations;
        matched_posted += s.matched_posted;
        matched_unexpected += s.matched_unexpected;
        total += s.received;
        stats.absorb(&s.stats);
    }
    latencies.sort_unstable();
    let secs = elapsed.as_secs_f64();
    ThreadedReport {
        elapsed,
        total_msgs: total,
        throughput_msgs_per_sec: if secs > 0.0 { total as f64 / secs } else { 0.0 },
        latencies_ns: latencies,
        stats,
        fifo_violations,
        matched_posted,
        matched_unexpected,
        credit_intact: shared.credits_intact(),
    }
}

/// Run the stack on real OS threads: one thread per producer, one per VC.
pub fn run_threaded(cfg: ThreadedConfig) -> ThreadedReport {
    let shared = Arc::new(Shared::new(cfg));
    let start = Instant::now();

    let consumers = WorkerTeam::spawn(cfg.vcs, "nm-vc", |c| {
        let shared = Arc::clone(&shared);
        move || {
            let expected = shared.cfg.expected_on_vc(c);
            let mut state = ConsumerState::new(shared.cfg.consumer_rank(c), expected);
            while state.received < expected {
                if !shared.consume_one(c, &mut state) {
                    std::thread::yield_now();
                }
            }
            state
        }
    });
    let producers = WorkerTeam::spawn(cfg.producers, "nm-prod", |p| {
        let shared = Arc::clone(&shared);
        move || {
            let mut stats = NmStats::default();
            for m in 0..shared.cfg.msgs_per_producer {
                shared.produce_one(p, m, &mut stats);
            }
            stats
        }
    });

    let sent = producers.join();
    let states = consumers.join();
    let elapsed = start.elapsed();
    finish(&shared, elapsed, &sent, states)
}

/// Single-threaded oracle: the identical per-message logic, executed
/// sequentially (produce one, drain the VC). Deterministic counter totals
/// — the threaded run's merged [`NmStats`] must equal this run's, modulo
/// the schedule-dependent stall counter.
pub fn run_inline(cfg: ThreadedConfig) -> ThreadedReport {
    let shared = Shared::new(cfg);
    let start = Instant::now();
    let mut states: Vec<ConsumerState> = (0..cfg.vcs)
        .map(|c| ConsumerState::new(cfg.consumer_rank(c), cfg.expected_on_vc(c)))
        .collect();
    let mut sent = NmStats::default();
    for m in 0..cfg.msgs_per_producer {
        for p in 0..cfg.producers {
            shared.produce_one(p, m, &mut sent);
            let vc = p % cfg.vcs;
            while shared.consume_one(vc, &mut states[vc]) {}
        }
    }
    let elapsed = start.elapsed();
    finish(&shared, elapsed, &[sent], states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_run_delivers_everything() {
        let cfg = ThreadedConfig {
            producers: 3,
            vcs: 2,
            window: 4,
            msgs_per_producer: 100,
            payload_bytes: 64,
            rdv_every: 5,
            eager_credits: 8,
        };
        let r = run_inline(cfg);
        assert_eq!(r.total_msgs, 300);
        assert_eq!(r.fifo_violations, 0);
        assert!(r.credit_intact);
        assert_eq!(r.stats.crc_drops, 0);
        assert_eq!(r.stats.rdv_sends, 3 * 20);
        assert_eq!(r.stats.eager_sends, 3 * 80);
        assert_eq!(r.stats.recv_completions, 300);
        assert_eq!(r.matched_posted + r.matched_unexpected, 300);
        assert_eq!(r.latencies_ns.len(), 300);
    }

    #[test]
    fn threaded_small_run_matches_inline_counters() {
        let cfg = ThreadedConfig {
            producers: 2,
            vcs: 2,
            window: 8,
            msgs_per_producer: 200,
            payload_bytes: 32,
            rdv_every: 4,
            eager_credits: 4,
        };
        let mut a = run_threaded(cfg).stats;
        let mut b = run_inline(cfg).stats;
        // Stall counts depend on the schedule; everything else must agree.
        a.fc_credit_stalls = 0;
        b.fc_credit_stalls = 0;
        assert_eq!(a, b);
    }

    #[test]
    fn flow_control_off_never_touches_the_bank() {
        let cfg = ThreadedConfig {
            producers: 2,
            vcs: 1,
            window: 4,
            msgs_per_producer: 50,
            payload_bytes: 16,
            rdv_every: 0,
            eager_credits: 0,
        };
        let r = run_inline(cfg);
        assert_eq!(r.stats.fc_eager_admitted, 0);
        assert_eq!(r.stats.fc_credits_returned, 0);
        assert!(r.credit_intact);
        assert_eq!(r.stats.rdv_sends, 0);
    }

    #[test]
    fn percentiles_are_exact_over_samples() {
        let r = ThreadedReport {
            elapsed: Duration::from_secs(1),
            total_msgs: 5,
            throughput_msgs_per_sec: 5.0,
            latencies_ns: vec![10, 20, 30, 40, 100],
            stats: NmStats::default(),
            fifo_violations: 0,
            matched_posted: 0,
            matched_unexpected: 0,
            credit_intact: true,
        };
        assert_eq!(r.p50_ns(), 30);
        assert_eq!(r.p99_ns(), 100);
        assert_eq!(r.latency_ns_at(0.0), 10);
    }
}
