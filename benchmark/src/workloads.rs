//! The seven workloads. Each `run` is one rep: one complete job of fixed
//! work, launch included, whose every received byte is checked.
//!
//! All loops are closed: a caller issues its next operation only after its
//! own previous ones completed. The seed drives payload bytes, the order of
//! message sizes and the fault coin-flips, and is the stack's fabric seed;
//! the program under test sees only the generated inputs.

use std::time::Instant;

use crate::adapter::{
    self, JobCounters, JobResult, ObsCounts, Payload, Rank, Stack, Topology, THREADED_THREADS,
};
use crate::spans::{host_ns, Span};
use crate::stats::percentile_nearest_rank;
use crate::sys::live_threads;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PingpongSmall,
    StreamLarge,
    FaninOverload,
    LossyLadder,
    Coll1024,
    NasCg64,
    ThreadedInjection,
}

pub const ALL: [Workload; 7] = [
    Workload::PingpongSmall,
    Workload::StreamLarge,
    Workload::FaninOverload,
    Workload::LossyLadder,
    Workload::Coll1024,
    Workload::NasCg64,
    Workload::ThreadedInjection,
];

/// A full rep.
pub const FULL: u32 = 1;
/// The warm-up rep of a set-up: one fifth of a full rep.
pub const WARMUP: u32 = 5;

// Frozen rep sizes (loop units at FULL), sized at about 2 s of host time per
// rep on the 2-core reference box. Changing one changes every number the
// ledger has recorded.
const PINGPONG_ROUND_TRIPS: u64 = 2_500;
const STREAM_WINDOWS: u64 = 500;
const STREAM_WINDOW_MSGS: usize = 4;
const FANIN_SENDERS: usize = 8;
const FANIN_MSGS_PER_SENDER: u64 = 12_000;
const FANIN_BATCH: u64 = 32;
const LADDER_ROUNDS: u64 = 250;
const LADDER_SIZES: [usize; 6] = [1, 600, 4 << 10, 17 << 10, 48 << 10, 200 << 10];
const COLL_RANKS: usize = 1_024;
const COLL_ROUNDS: u64 = 2;
const NAS_RANKS: usize = 64;
const NAS_ITERATIONS: u64 = 15;
const THREADED_MSGS: u64 = 2_000_000;

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// The paper's MPICH2-NewMadeleine one-way latency over IB (Fig. 4a).
const PAPER_LATENCY_US: f64 = 2.1;
/// The paper's multirail bandwidth for large messages (Fig. 5b), MB = 2^20 B.
const PAPER_MULTIRAIL_MB_S: f64 = 2_250.0;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "pingpong_small",
            Workload::StreamLarge => "stream_large",
            Workload::FaninOverload => "fanin_overload",
            Workload::LossyLadder => "lossy_ladder",
            Workload::Coll1024 => "coll_1024",
            Workload::NasCg64 => "nas_cg_64",
            Workload::ThreadedInjection => "threaded_injection",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists and its frozen size
    /// (`BENCHMARK.json` carries these).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "2 ranks, 4 B, 2500 round trips/rep on the paper's default polling stack over IB: per-message fixed cost, the poll/wake loop and CH3 progress do the work; sim value is paper point E1/E11",
            Workload::StreamLarge => "500 windows/rep of 4 concurrent 256 KiB-4 MiB sends over both rails under PIOMan: per-byte cost (split strategy, rendezvous, CRC, memcpy); last window is paper point E4",
            Workload::FaninOverload => "8 senders x 12000 msgs/rep into one ANY_SOURCE receiver with bounded eager credits: unexpected-first wildcard matching and credit fallback, few bytes",
            Workload::LossyLadder => "250 rounds/rep of 6 sizes (1 B-200 KiB) both ways at 1% drop + 0.5% dup: nmad with acks, retransmit timers, dedup and rail health armed",
            Workload::Coll1024 => "1024 ranks on 64 nodes, 2 rounds/rep of allreduce + Bruck alltoall + barrier: event-queue population, handoff across 1024 threads, hierarchical collectives over shm then IB",
            Workload::NasCg64 => "NAS CG class A on 64 ranks, 15 iterations/rep under PIOMan: the application-level check, compute overlapped with mixed shm + IB traffic; every layer contributes",
            Workload::ThreadedInjection => "2000000 msgs/rep through the real-thread path (NemQueue, sharded matcher, credit bank) with 1 producer + 1 consumer and no simulator: a simnet change must not move it",
        }
    }

    /// Does the workload run on the token-serialised simulator (and so gain
    /// from being pinned to one CPU)?
    pub fn simulated(self) -> bool {
        self != Workload::ThreadedInjection
    }

    /// Loop units of a rep at `1/div` of the full size (round trips, windows,
    /// messages per sender, rounds, rounds, iterations, messages).
    fn units(self, div: u32) -> u64 {
        let div = div as u64;
        match self {
            Workload::PingpongSmall => (PINGPONG_ROUND_TRIPS / div).max(1),
            Workload::StreamLarge => (STREAM_WINDOWS / div).max(2),
            Workload::FaninOverload => (FANIN_MSGS_PER_SENDER / div).max(FANIN_BATCH),
            Workload::LossyLadder => (LADDER_ROUNDS / div).max(1),
            Workload::Coll1024 => (COLL_ROUNDS / div).max(1),
            Workload::NasCg64 => (NAS_ITERATIONS / div).max(1),
            Workload::ThreadedInjection => (THREADED_MSGS / div).max(1),
        }
    }

    /// Operations a rep at `1/div` attempts (see each workload for what one
    /// operation is).
    fn ops(self, div: u32) -> u64 {
        let per_unit = match self {
            Workload::PingpongSmall => 2,
            Workload::StreamLarge => STREAM_WINDOW_MSGS as u64,
            Workload::FaninOverload => FANIN_SENDERS as u64,
            Workload::LossyLadder => 2 * LADDER_SIZES.len() as u64,
            Workload::Coll1024 => 3 * coll_ranks(div) as u64,
            Workload::NasCg64 => NAS_RANKS as u64,
            Workload::ThreadedInjection => 1,
        };
        per_unit * self.units(div)
    }

    /// Run one rep at `1/div` of the full size with tracing on or off. A
    /// job that panics (a deadlock, an assertion inside the stack) is a rep
    /// whose every operation failed.
    pub fn run(self, seed: u64, div: u32, traced: bool) -> Rep {
        let (units, ops) = (self.units(div), self.ops(div));
        let run = move || match self {
            Workload::PingpongSmall => pingpong_small(seed, units, ops, traced),
            Workload::StreamLarge => stream_large(seed, units, ops, traced),
            Workload::FaninOverload => fanin_overload(seed, units, ops, traced),
            Workload::LossyLadder => lossy_ladder(seed, units, ops, traced),
            Workload::Coll1024 => coll_1024(seed, coll_ranks(div), units, ops, traced),
            Workload::NasCg64 => nas_cg_64(units, ops, traced),
            Workload::ThreadedInjection => threaded_injection(ops),
        };
        let started = Instant::now();
        std::panic::catch_unwind(run).unwrap_or_else(|_| Rep {
            wall_s: started.elapsed().as_secs_f64(),
            ops,
            failed: ops,
            crashed: true,
            ..Rep::default()
        })
    }
}

/// The collective job has 1 024 ranks; at the tests' 1/100 size it shrinks to
/// two nodes.
fn coll_ranks(div: u32) -> usize {
    if div >= 100 {
        32
    } else {
        COLL_RANKS
    }
}

/// One finished rep.
#[derive(Default)]
pub struct Rep {
    /// Host seconds for the whole job, launch included.
    pub wall_s: f64,
    /// Operations attempted (see each workload for what one is).
    pub ops: u64,
    /// Operations whose payload, length, source, order, result or completion
    /// was wrong.
    pub failed: u64,
    /// The job panicked; nothing but `wall_s` was measured.
    pub crashed: bool,
    /// Host ms from job launch to rank 0 leaving its first barrier.
    pub launch_ms: f64,
    /// Threads alive in the process while the job ran.
    pub threads: u64,
    pub sim: Option<SimRep>,
    pub threaded: Option<ThreadedRep>,
    /// Present on a traced rep.
    pub obs: Option<ObsCounts>,
    /// Per-rank spans of a traced rep.
    pub spans: Vec<Vec<Span>>,
}

/// The simulated side of a rep. Deterministic for a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimRep {
    /// Simulated ns of the timed region (rank 0: first barrier to last
    /// completion).
    pub region_ns: u64,
    /// Simulated µs per operation (per one-way message on the ping-pong,
    /// per iteration on NAS CG).
    pub sim_us_per_op: f64,
    /// Payload bytes received and verified, all ranks.
    pub payload_bytes: u64,
    /// `(measured, paper)` where the workload reproduces a paper point.
    pub paper_point: Option<(f64, f64)>,
    pub counters: JobCounters,
}

pub struct ThreadedRep {
    pub p50_us: f64,
    pub p99_us: f64,
    pub eager_sends: u64,
    pub rdv_sends: u64,
    pub credit_stalls: u64,
    pub crc_drops: u64,
}

// ---------------------------------------------------------------------------
// Generated inputs.
// ---------------------------------------------------------------------------

/// splitmix64: the ledger's only source of pseudo-random bits.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of one message: mixes the run seed with sender, lane and index so
/// that every payload of a run differs.
fn msg_seed(seed: u64, src: usize, lane: u64, idx: u64) -> u64 {
    mix(seed ^ mix((src as u64) << 48 ^ lane << 40 ^ idx))
}

/// Fill `out` with the byte stream of `seed`, eight bytes a step.
fn fill(seed: u64, out: &mut [u8]) {
    let mut state = seed;
    for chunk in out.chunks_mut(8) {
        state = mix(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(seed, &mut v);
    v
}

/// Fisher-Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

// ---------------------------------------------------------------------------
// Shared rank-program plumbing.
// ---------------------------------------------------------------------------

/// What one rank reports back from a rep.
#[derive(Clone, Default)]
struct RankOut {
    failed: u64,
    /// Payload bytes received and verified.
    bytes: u64,
    /// Simulated clock at the start and end of the timed region.
    t0_ns: u64,
    t1_ns: u64,
    /// Rank 0 only: host ns from job launch to leaving the first barrier,
    /// and the process's thread count at that moment.
    launch_ns: u64,
    threads: u64,
    /// A sub-interval timed on the simulated clock: `(ns, bytes)`.
    tail: (u64, u64),
}

impl RankOut {
    /// The opening barrier every rank program starts with: after it the job
    /// is launched and the timed region begins.
    fn launched(r: &Rank, job_start_ns: u64) -> RankOut {
        r.barrier();
        let mut out = RankOut::default();
        if r.rank() == 0 {
            out.launch_ns = host_ns() - job_start_ns;
            out.threads = live_threads();
        }
        out.t0_ns = r.sim_ns();
        out
    }

    /// Count one failed operation unless `ok`.
    fn check(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }

    /// Check a received message against the bytes it should carry; making
    /// those bytes is part of the check's span, so the harness's whole cost
    /// per message is on record.
    fn check_msg<W: AsRef<[u8]>>(
        &mut self,
        r: &Rank,
        got: Option<adapter::Received>,
        source: usize,
        tag: u32,
        want: impl FnOnce() -> W,
    ) {
        let verified = r.span("app.verify", || {
            let want = want();
            let want = want.as_ref();
            got.is_some_and(|m| m.source == source && m.tag == tag && m.data[..] == *want)
                .then_some(want.len() as u64)
        });
        self.check(verified.is_some());
        self.bytes += verified.unwrap_or(0);
    }

    fn finish(mut self, r: &Rank) -> RankOut {
        self.t1_ns = r.sim_ns();
        self
    }
}

/// Fold a finished job into a rep. The simulated region is rank 0's;
/// `region_units` is what it is divided by for `sim_us_per_op` (the ops,
/// except where stated); `paper_point` gets rank 0's report and that value.
fn sim_rep(
    job: JobResult<RankOut>,
    started: Instant,
    ops: u64,
    region_units: u64,
    paper_point: impl FnOnce(&RankOut, f64) -> Option<(f64, f64)>,
) -> Rep {
    let wall_s = started.elapsed().as_secs_f64();
    let r0 = &job.ranks[0];
    let region_ns = r0.t1_ns - r0.t0_ns;
    let sim_us_per_op = region_ns as f64 / 1e3 / region_units as f64;
    // A protocol error is a frame the stack could not place: none may occur
    // on a workload without corruption.
    let failed: u64 =
        job.ranks.iter().map(|r| r.failed).sum::<u64>() + job.counters.protocol_errors;
    Rep {
        wall_s,
        ops,
        failed: failed.min(ops),
        crashed: false,
        launch_ms: r0.launch_ns as f64 / 1e6,
        threads: r0.threads,
        sim: Some(SimRep {
            region_ns,
            sim_us_per_op,
            payload_bytes: job.ranks.iter().map(|r| r.bytes).sum(),
            paper_point: paper_point(r0, sim_us_per_op),
            counters: job.counters,
        }),
        threaded: None,
        obs: job.obs,
        spans: job.spans,
    }
}

// ---------------------------------------------------------------------------
// The workloads.
// ---------------------------------------------------------------------------

/// One op = one delivered, verified 4-byte message (two per round trip).
fn pingpong_small(seed: u64, rounds: u64, ops: u64, traced: bool) -> Rep {
    let started = Instant::now();
    let job_start_ns = host_ns();
    let stack = Stack::ib_only(false).seeded(seed);
    let job = adapter::run_job(&Topology::xeon_pair(), &stack, traced, move |r| {
        let (me, peer) = (r.rank(), 1 - r.rank());
        let mut out = RankOut::launched(r, job_start_ns);
        for i in 0..rounds {
            r.op(i + 1, || {
                let mine = r.span("app.gen", || payload(msg_seed(seed, me, 0, i), 4));
                if me == 0 {
                    r.wait_send(r.isend(peer, 7, &mine));
                }
                let got = r.wait_recv(r.irecv(Some(peer), 7));
                out.check_msg(r, got, peer, 7, || payload(msg_seed(seed, peer, 0, i), 4));
                if me == 1 {
                    r.wait_send(r.isend(peer, 7, &mine));
                }
            });
        }
        out.finish(r)
    });
    sim_rep(job, started, ops, ops, |_, one_way_us| {
        Some((one_way_us, PAPER_LATENCY_US))
    })
}

/// The bytes every stream payload is a slice of: large enough that the
/// biggest message can start at many different offsets.
const STREAM_POOL: usize = 8 * MIB;

/// Sizes of a rep's messages: a fixed multiset (half 256 KiB, a quarter each
/// 1 MiB and 4 MiB, so the bytes per rep never change) in seeded order, then
/// a last window of 4 × 4 MiB.
fn stream_sizes(seed: u64, windows: u64) -> Vec<usize> {
    let body = (windows as usize - 1) * STREAM_WINDOW_MSGS;
    let mut sizes: Vec<usize> = (0..body)
        .map(|i| match i % 4 {
            0 | 1 => 256 * KIB,
            2 => MIB,
            _ => 4 * MIB,
        })
        .collect();
    shuffle(&mut sizes, mix(seed ^ 0x5151));
    sizes.extend([4 * MIB; STREAM_WINDOW_MSGS]);
    sizes
}

/// Where in the pool message `i` of length `len` starts.
fn stream_offset(seed: u64, i: usize, len: usize) -> usize {
    (msg_seed(seed, 0, 1, i as u64) % ((STREAM_POOL - len) as u64 / 64 + 1)) as usize * 64
}

/// One op = one delivered, verified large message. Rank 0 sends windows of
/// four concurrent owned buffers to receives rank 1 posted beforehand; a
/// 2-byte ack closes each window.
fn stream_large(seed: u64, windows: u64, ops: u64, traced: bool) -> Rep {
    const ACK_TAG: u32 = 99;
    let sizes = std::sync::Arc::new(stream_sizes(seed, windows));
    let pool: Payload = payload(mix(seed), STREAM_POOL).into();
    let started = Instant::now();
    let job_start_ns = host_ns();
    let stack = Stack::all_rails(true).seeded(seed);
    let job = adapter::run_job(&Topology::xeon_pair(), &stack, traced, move |r| {
        let slice_of = |i: usize| {
            let off = stream_offset(seed, i, sizes[i]);
            pool.slice(off..off + sizes[i])
        };
        let me = r.rank();
        // Receives of the first window are posted before the opening
        // barrier, those of window w+1 before the ack of window w: every
        // send meets a posted receive.
        let post_window = || -> Vec<_> {
            (0..STREAM_WINDOW_MSGS as u32)
                .map(|k| r.irecv(Some(0), k))
                .collect()
        };
        let mut posted = if me == 1 { post_window() } else { Vec::new() };
        let mut out = RankOut::launched(r, job_start_ns);
        for w in 0..windows {
            let first = w as usize * STREAM_WINDOW_MSGS;
            r.op(w + 1, || {
                if me == 0 {
                    let t_window = r.sim_ns();
                    let sends: Vec<_> = (0..STREAM_WINDOW_MSGS)
                        .map(|k| r.isend_owned(1, k as u32, slice_of(first + k)))
                        .collect();
                    let ack = r.wait_recv(r.irecv(Some(1), ACK_TAG));
                    out.check_msg(r, ack, 1, ACK_TAG, || (w as u16).to_le_bytes());
                    sends.into_iter().for_each(|s| r.wait_send(s));
                    if w + 1 == windows {
                        let bytes: usize = sizes[first..].iter().sum();
                        out.tail = (r.sim_ns() - t_window, bytes as u64);
                    }
                } else {
                    for (k, req) in std::mem::take(&mut posted).into_iter().enumerate() {
                        let got = r.wait_recv(req);
                        out.check_msg(r, got, 0, k as u32, || slice_of(first + k));
                    }
                    if w + 1 < windows {
                        posted = post_window();
                    }
                    r.wait_send(r.isend(0, ACK_TAG, &(w as u16).to_le_bytes()));
                }
            });
        }
        out.finish(r)
    });
    // The acks are bookkeeping, not operations: only large messages count.
    sim_rep(job, started, ops, ops, |r0, _| {
        let (ns, bytes) = r0.tail;
        let mb_per_s = bytes as f64 / MIB as f64 / (ns as f64 / 1e9);
        Some((mb_per_s, PAPER_MULTIRAIL_MB_S))
    })
}

const FANIN_TAG: u32 = 5;

fn fanin_len(i: u64) -> usize {
    if (i + 1).is_multiple_of(16) {
        32 * KIB
    } else {
        KIB
    }
}

/// Message `i` of `sender`: an 8-byte `(sender, i)` header, then seeded bytes.
fn fanin_payload(seed: u64, sender: usize, i: u64) -> Vec<u8> {
    let mut p = payload(msg_seed(seed, sender, 2, i), fanin_len(i));
    p[..8].copy_from_slice(&((sender as u64) << 32 | i).to_le_bytes());
    p
}

/// One op = one delivered, verified message. Eight senders each keep 32
/// sends in flight; rank 0 receives from any source and checks that every
/// sender's messages arrive in order, exactly once.
fn fanin_overload(seed: u64, per_sender: u64, ops: u64, traced: bool) -> Rep {
    let started = Instant::now();
    let job_start_ns = host_ns();
    let stack = Stack::all_rails(true)
        .seeded(seed)
        .bounded_flow(16, 256 * KIB);
    let topo = Topology::grid5000_one_per_node(1 + FANIN_SENDERS);
    let job = adapter::run_job(&topo, &stack, traced, move |r| {
        let me = r.rank();
        let mut out = RankOut::launched(r, job_start_ns);
        if me == 0 {
            let mut next = [0u64; 1 + FANIN_SENDERS];
            for n in 0..ops {
                r.op(n + 1, || {
                    let got = r.wait_recv(r.irecv(None, FANIN_TAG));
                    let ok = r.span("app.verify", || {
                        let Some(m) = got else { return false };
                        let s = m.source;
                        if !(1..=FANIN_SENDERS).contains(&s) {
                            return false;
                        }
                        // The expected message is the sender's next one:
                        // anything else is a loss, a duplicate or a reorder.
                        let want = fanin_payload(seed, s, next[s]);
                        next[s] += 1;
                        out.bytes += want.len() as u64;
                        m.tag == FANIN_TAG && m.data[..] == want[..]
                    });
                    out.check(ok);
                });
            }
        } else {
            for batch in 0..per_sender.div_ceil(FANIN_BATCH) {
                r.op(batch + 1, || {
                    let sends: Vec<_> = (batch * FANIN_BATCH
                        ..((batch + 1) * FANIN_BATCH).min(per_sender))
                        .map(|i| {
                            let p = r.span("app.gen", || fanin_payload(seed, me, i));
                            r.isend(0, FANIN_TAG, &p)
                        })
                        .collect();
                    sends.into_iter().for_each(|s| r.wait_send(s));
                });
            }
        }
        out.finish(r)
    });
    sim_rep(job, started, ops, ops, |_, _| None)
}

/// One op = one delivered, verified message. Both ranks post six receives,
/// then six sends spanning eager, aggregated-eager and rendezvous sizes,
/// over a fabric that drops 1 % and duplicates 0.5 % of its packets.
fn lossy_ladder(seed: u64, rounds: u64, ops: u64, traced: bool) -> Rep {
    let started = Instant::now();
    let job_start_ns = host_ns();
    let stack = Stack::all_rails(true).lossy(seed, 0.01, 0.005);
    let job = adapter::run_job(&Topology::xeon_pair(), &stack, traced, move |r| {
        let (me, peer) = (r.rank(), 1 - r.rank());
        let mut out = RankOut::launched(r, job_start_ns);
        for round in 0..rounds {
            r.op(round + 1, || {
                let recvs: Vec<_> = (0..LADDER_SIZES.len() as u32)
                    .map(|k| r.irecv(Some(peer), k))
                    .collect();
                let sends: Vec<_> = LADDER_SIZES
                    .iter()
                    .enumerate()
                    .map(|(k, &len)| {
                        let p = r.span("app.gen", || {
                            payload(msg_seed(seed, me, 3 + k as u64, round), len)
                        });
                        r.isend(peer, k as u32, &p)
                    })
                    .collect();
                for (k, req) in recvs.into_iter().enumerate() {
                    let got = r.wait_recv(req);
                    out.check_msg(r, got, peer, k as u32, || {
                        payload(msg_seed(seed, peer, 3 + k as u64, round), LADDER_SIZES[k])
                    });
                }
                sends.into_iter().for_each(|s| r.wait_send(s));
            });
        }
        out.finish(r)
    });
    sim_rep(job, started, ops, ops, |_, _| None)
}

/// Rank `rank`'s first allreduce contribution: a small seeded integer, so
/// the sum is exact in any order.
fn coll_contribution(seed: u64, rank: usize) -> f64 {
    (msg_seed(seed, rank, 9, 0) % 1_000) as f64
}

/// The 4-byte alltoall block `src` sends to `dst` in `round`.
fn coll_block(seed: u64, src: usize, dst: usize, round: u64) -> [u8; 4] {
    let bits = msg_seed(seed, src, 10 + round, dst as u64);
    (bits as u32).to_le_bytes()
}

/// One op = one rank's collective call. Each round is an allreduce of two
/// doubles, a Bruck alltoall of 4-byte blocks and a barrier, each checked
/// against its closed form.
fn coll_1024(seed: u64, ranks: usize, rounds: u64, ops: u64, traced: bool) -> Rep {
    let want_sum = [
        (0..ranks).map(|k| coll_contribution(seed, k)).sum::<f64>(),
        (ranks * (ranks - 1) / 2) as f64,
    ];
    let started = Instant::now();
    let job_start_ns = host_ns();
    let stack = Stack::all_rails(true).seeded(seed);
    let job = adapter::run_job(&Topology::blocks_of_16(ranks), &stack, traced, move |r| {
        let (me, n) = (r.rank(), r.size());
        let mut out = RankOut::launched(r, job_start_ns);
        for round in 0..rounds {
            r.op(round + 1, || {
                let sum = r.allreduce_sum(&[coll_contribution(seed, me), me as f64]);
                out.check(sum == want_sum);
                // All blocks are slices of one buffer: n separate 4-byte
                // allocations per rank would be O(n²) allocator work job-wide.
                let backing: Payload = r
                    .span("app.gen", || {
                        (0..n)
                            .flat_map(|d| coll_block(seed, me, d, round))
                            .collect::<Vec<u8>>()
                    })
                    .into();
                let got = r.alltoall((0..n).map(|d| backing.slice(4 * d..4 * d + 4)).collect());
                let ok = r.span("app.verify", || {
                    got.len() == n
                        && got
                            .iter()
                            .enumerate()
                            .all(|(s, b)| b[..] == coll_block(seed, s, me, round))
                });
                out.check(ok);
                if ok {
                    out.bytes += 4 * n as u64;
                }
                // A barrier has no result to check beyond returning.
                r.barrier();
            });
        }
        out.finish(r)
    });
    sim_rep(job, started, ops, ops, |_, _| None)
}

/// One op = one rank-iteration. The kernel generates its own traffic, so
/// there is no seed input and no payload to verify: the checks are that it
/// completes, that the stack counts no protocol error, and (in the caller)
/// that every rep's simulated counters are identical.
fn nas_cg_64(iters: u64, ops: u64, traced: bool) -> Rep {
    let started = Instant::now();
    let job_start_ns = host_ns();
    let topo = Topology::grid5000_round_robin(NAS_RANKS);
    let job = adapter::run_job(&topo, &Stack::all_rails(true), traced, move |r| {
        let out = RankOut::launched(r, job_start_ns);
        for i in 0..iters {
            r.op(i + 1, || r.nas_cg_iteration(NAS_RANKS));
        }
        r.barrier();
        out.finish(r)
    });
    // Simulated time per iteration, as `run_nas` reports it.
    sim_rep(job, started, ops, iters, |_, _| None)
}

/// One op = one delivered message. No simulator: two real threads.
fn threaded_injection(msgs: u64) -> Rep {
    let started = Instant::now();
    let run = adapter::run_threaded(msgs);
    let wall_s = started.elapsed().as_secs_f64();
    // Every message must arrive, in order, intact, with every credit home.
    let failed = (msgs - run.delivered.min(msgs))
        + run.fifo_violations
        + run.crc_drops
        + u64::from(!run.credit_intact)
        + u64::from(run.matched_posted + run.matched_unexpected != run.delivered);
    Rep {
        wall_s,
        ops: msgs,
        failed: failed.min(msgs),
        crashed: false,
        // No barrier to time a launch against on the real-thread path.
        launch_ms: 0.0,
        threads: THREADED_THREADS + 1,
        sim: None,
        threaded: Some(ThreadedRep {
            p50_us: percentile_nearest_rank(&run.latencies_ns, 50.0) as f64 / 1e3,
            p99_us: percentile_nearest_rank(&run.latencies_ns, 99.0) as f64 / 1e3,
            eager_sends: run.eager_sends,
            rdv_sends: run.rdv_sends,
            credit_stalls: run.credit_stalls,
            crc_drops: run.crc_drops,
        }),
        obs: None,
        spans: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size every workload is run at here: a test-only constant.
    const HUNDREDTH: u32 = 100;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            payload(msg_seed(7, 1, 0, 3), 1000),
            payload(msg_seed(7, 1, 0, 3), 1000)
        );
        assert_ne!(
            payload(msg_seed(7, 1, 0, 3), 1000),
            payload(msg_seed(8, 1, 0, 3), 1000)
        );
        assert_ne!(
            payload(msg_seed(7, 1, 0, 3), 1000),
            payload(msg_seed(7, 2, 0, 3), 1000)
        );
        assert_ne!(
            payload(msg_seed(7, 1, 0, 3), 1000),
            payload(msg_seed(7, 1, 0, 4), 1000)
        );
        // A length that is no multiple of the 8-byte step is a prefix.
        assert_eq!(payload(5, 13)[..], payload(5, 16)[..13]);

        assert_eq!(stream_sizes(7, 50), stream_sizes(7, 50));
        assert_ne!(stream_sizes(7, 50), stream_sizes(8, 50));
        assert_eq!(fanin_payload(7, 3, 15), fanin_payload(7, 3, 15));
        assert_ne!(fanin_payload(7, 3, 15)[8..], fanin_payload(8, 3, 15)[8..]);
        assert_ne!(coll_block(7, 1, 2, 0), coll_block(8, 1, 2, 0));
        assert_ne!(coll_block(7, 1, 2, 0), coll_block(7, 2, 1, 0));
    }

    #[test]
    fn stream_sizes_keep_their_byte_total_under_any_seed() {
        let total = |seed| stream_sizes(seed, STREAM_WINDOWS).iter().sum::<usize>();
        assert_eq!(total(1), total(2));
        let sizes = stream_sizes(3, STREAM_WINDOWS);
        assert_eq!(sizes.len(), (STREAM_WINDOWS as usize) * STREAM_WINDOW_MSGS);
        assert!(sizes[sizes.len() - STREAM_WINDOW_MSGS..]
            .iter()
            .all(|&s| s == 4 * MIB));
        for (i, &len) in sizes.iter().enumerate() {
            assert!(stream_offset(3, i, len) + len <= STREAM_POOL);
        }
    }

    #[test]
    fn fanin_mixes_one_rendezvous_size_into_sixteen() {
        let big = (0..64).filter(|&i| fanin_len(i) == 32 * KIB).count();
        assert_eq!(big, 4);
        let p = fanin_payload(1, 5, 31);
        assert_eq!(u64::from_le_bytes(p[..8].try_into().unwrap()), 5 << 32 | 31);
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: why is {} chars",
                w.name(),
                w.why().len()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn every_workload_completes_at_a_hundredth_with_no_failed_op() {
        for w in ALL {
            let rep = w.run(11, HUNDREDTH, false);
            assert!(!rep.crashed, "{} crashed", w.name());
            assert_eq!(rep.failed, 0, "{}", w.name());
            assert!(rep.ops > 0 && rep.wall_s > 0.0, "{}", w.name());
            assert_eq!(rep.sim.is_some(), w.simulated(), "{}", w.name());
            if let Some(sim) = &rep.sim {
                assert!(sim.region_ns > 0 && sim.counters.events > 0, "{}", w.name());
                assert_eq!(sim.counters.protocol_errors, 0, "{}", w.name());
            }
        }
    }

    #[test]
    fn a_rep_is_deterministic_and_tracing_does_not_change_it() {
        for w in [Workload::LossyLadder, Workload::FaninOverload] {
            let a = w.run(5, HUNDREDTH, false);
            let b = w.run(5, HUNDREDTH, false);
            let traced = w.run(5, HUNDREDTH, true);
            assert_eq!(a.sim, b.sim, "{}", w.name());
            assert_eq!(a.sim, traced.sim, "{}", w.name());
            assert!(traced.obs.is_some() && traced.spans.iter().any(|s| !s.is_empty()));
            let other = w.run(6, HUNDREDTH, false);
            assert_eq!(other.failed, 0);
        }
    }

    #[test]
    fn nas_loop_matches_run_nas() {
        let rep = Workload::NasCg64.run(0, HUNDREDTH, false);
        let sim = rep.sim.expect("simulated");
        let reference_us = adapter::run_nas_cg_reference(NAS_RANKS, 1) * 1e6;
        assert!(
            (sim.sim_us_per_op - reference_us).abs() < 1e-3,
            "ledger {} us vs run_nas {} us per iteration",
            sim.sim_us_per_op,
            reference_us
        );
    }

    #[test]
    fn paper_points_are_reported_where_the_issue_names_them() {
        let rep = Workload::PingpongSmall.run(1, HUNDREDTH, false);
        let (got, paper) = rep.sim.unwrap().paper_point.unwrap();
        assert_eq!(paper, PAPER_LATENCY_US);
        assert!((got - paper).abs() / paper < 0.05, "one-way {got} us");
        let rep = Workload::StreamLarge.run(1, HUNDREDTH, false);
        let (got, paper) = rep.sim.unwrap().paper_point.unwrap();
        assert_eq!(paper, PAPER_MULTIRAIL_MB_S);
        // Four concurrent 4 MiB rendezvous under PIOMan with an ack reach
        // 1 950 MB/s today; the 64 MiB single transfers of Fig. 5 do better.
        assert!((got - paper).abs() / paper < 0.20, "multirail {got} MB/s");
    }
}
