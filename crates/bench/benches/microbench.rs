//! Criterion micro-benchmarks of the hot data structures (real wall-clock
//! performance, as opposed to the simulated-time figure harnesses):
//!
//! * the Nemesis lock-free cell queue (enqueue/dequeue cycle, single- and
//!   multi-producer),
//! * NewMadeleine's tag-matching engine,
//! * the strategy decision procedures (aggregation / multirail split),
//! * the sampling split solver,
//! * the wire checksum, hot in cache and cold from memory,
//! * the DES event queue,
//! * a PIOMan kick and the ltask pass it triggers,
//! * a complete simulated ping-pong (events per second of the whole
//!   stack).

use std::collections::VecDeque;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use nemesis::{CellPool, NemQueue};
use nmad::matching::{GateId, MatchEngine, Unexpected};
use nmad::pack::{PacketWrapper, PwBody, PwId};
use nmad::sampling::{split_sizes, LinkProfile};
use nmad::sr::RecvReqId;
use nmad::{NmConfig, NmWire, RailHealth, SendReqId, StrategyKind, WirePayload};
use mpi_ch3::{run_threaded, ThreadedConfig};
use simnet::event::{EventKind, EventQueue};
use simnet::{BufOrigin, CopyMeter, NmBuf, SimDuration, SimTime};

fn nem_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("nemesis-queue");
    g.throughput(Throughput::Elements(1));
    g.bench_function("enqueue-dequeue-cycle", |b| {
        let (pool, mut handles) = CellPool::new(1, 4);
        let q = NemQueue::new();
        for h in handles.remove(0) {
            q.enqueue(h);
        }
        b.iter(|| {
            let h = q.dequeue(&pool).expect("cell");
            q.enqueue(h);
        });
    });
    g.bench_function("two-producer-contention", |b| {
        // Two OS threads hammering enqueue while the bench thread drains.
        let (pool, handles) = CellPool::new(3, 256);
        let q = Arc::new(NemQueue::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let free: Arc<crossbeam::queue::SegQueue<nemesis::CellHandle>> =
            Arc::new(crossbeam::queue::SegQueue::new());
        let mut producers = Vec::new();
        let mut it = handles.into_iter();
        let mine = it.next().unwrap();
        for hs in it {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            let free = Arc::clone(&free);
            for h in hs {
                free.push(h);
            }
            let f2 = Arc::clone(&free);
            producers.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    if let Some(h) = f2.pop() {
                        q.enqueue(h);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in mine {
            q.enqueue(h);
        }
        b.iter(|| {
            if let Some(h) = q.dequeue(&pool) {
                free.push(h);
            }
        });
        stop.store(true, std::sync::atomic::Ordering::Release);
        for p in producers {
            let _ = p.join();
        }
    });
    g.finish();
}

fn matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("nmad-matching");
    g.throughput(Throughput::Elements(1));
    g.bench_function("post-then-match", |b| {
        let mut m = MatchEngine::new();
        let mut seq = 0u64;
        b.iter(|| {
            m.post_recv(GateId(1), 7, RecvReqId(0));
            let hit = m.arrived(
                GateId(1),
                7,
                Unexpected::Eager {
                    seq,
                    data: NmBuf::default(),
                },
            );
            seq += 1;
            assert!(hit.is_some());
        });
    });
    g.bench_function("unexpected-then-post", |b| {
        let mut m = MatchEngine::new();
        let mut seq = 0u64;
        b.iter(|| {
            m.arrived(
                GateId(1),
                9,
                Unexpected::Eager {
                    seq,
                    data: NmBuf::default(),
                },
            );
            let hit = m.post_recv(GateId(1), 9, RecvReqId(0));
            seq += 1;
            assert!(hit.is_some());
        });
    });
    g.bench_function("probe-tag-100-gates", |b| {
        let mut m = MatchEngine::new();
        for gate in 0..100 {
            m.arrived(
                GateId(gate),
                gate as u64 % 10,
                Unexpected::Eager {
                    seq: 0,
                    data: NmBuf::default(),
                },
            );
        }
        b.iter(|| m.probe_tag(5));
    });
    g.finish();
}

fn eager_pw(id: u64, len: usize) -> PacketWrapper {
    PacketWrapper {
        id: PwId(id),
        dst: 1,
        body: PwBody::Eager {
            tag: 1,
            seq: id,
            send_req: SendReqId(id as u32),
        },
        data: NmBuf::from(vec![0u8; len]),
        enqueued_at: SimTime::ZERO,
    }
}

fn strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("nmad-strategy");
    let cfg = NmConfig::default();
    let rails = || {
        vec![
            nmad::strategy::RailState {
                idle: true,
                profile: LinkProfile {
                    latency: SimDuration::nanos(1200),
                    bandwidth_bps: 1.25e9,
                },
                health: RailHealth::Up,
                weight: 1.0,
            },
            nmad::strategy::RailState {
                idle: true,
                profile: LinkProfile {
                    latency: SimDuration::nanos(1500),
                    bandwidth_bps: 1.1e9,
                },
                health: RailHealth::Up,
                weight: 1.0,
            },
        ]
    };
    g.bench_function("aggreg-16-small", |b| {
        let mut s = nmad::strategy::make(StrategyKind::Aggreg);
        b.iter_batched(
            || {
                let pending: VecDeque<_> = (0..16).map(|i| eager_pw(i, 64)).collect();
                (pending, rails())
            },
            |(mut pending, mut rs)| s.try_and_commit(&cfg, &mut pending, &mut rs),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("split-4MB-two-rails", |b| {
        let mut s = nmad::strategy::make(StrategyKind::SplitBalanced);
        let payload = NmBuf::from(vec![0u8; 4 << 20]);
        b.iter_batched(
            || {
                let pw = PacketWrapper {
                    id: PwId(0),
                    dst: 1,
                    body: PwBody::Data {
                        rdv_id: 1,
                        offset: 0,
                    },
                    data: payload.share(),
                    enqueued_at: SimTime::ZERO,
                };
                (VecDeque::from(vec![pw]), rails())
            },
            |(mut pending, mut rs)| s.try_and_commit(&cfg, &mut pending, &mut rs),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn sampling(c: &mut Criterion) {
    c.bench_function("sampling-split-solve", |b| {
        let profiles = [
            LinkProfile {
                latency: SimDuration::nanos(1200),
                bandwidth_bps: 1.25e9,
            },
            LinkProfile {
                latency: SimDuration::nanos(1500),
                bandwidth_bps: 1.1e9,
            },
        ];
        b.iter(|| split_sizes(std::hint::black_box(8 << 20), &profiles));
    });
}

fn event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet-events");
    g.throughput(Throughput::Elements(1));
    // A standing population so the queue has realistic depth: 1000
    // events, and 4096 (the 4096-rank shape).
    for (name, population, step) in [("push-pop", 1000u64, 7), ("push-pop-deep-4096", 4096, 11)] {
        g.bench_function(name, |b| {
            let mut q = EventQueue::new();
            for i in 0..population {
                q.push(SimTime(i * 10), EventKind::Call(Box::new(|_| {})));
            }
            let mut t = population * 10;
            b.iter(|| {
                q.push(SimTime(t), EventKind::Call(Box::new(|_| {})));
                t += step;
                q.pop()
            });
        });
    }
    g.finish();
}

/// One PIOMan kick and the ltask pass it triggers, over three ltasks, on
/// the host: the pass's first ltask kicks again until `PASSES` passes have
/// run, so a sample is a rank-less simulation of nothing but kick → pass
/// cycles. The printed ns/iter is a whole sample; divide by `PASSES` (or
/// read elem/s) for one cycle.
fn piom_pass(c: &mut Criterion) {
    use piom::{PiomConfig, PiomServer};
    use simnet::{Scheduler, SimBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};
    const PASSES: u64 = 1_000;
    let mut g = c.benchmark_group("piom-pass");
    g.throughput(Throughput::Elements(PASSES));
    g.bench_function("kick-pass-3-ltasks-x1000", |b| {
        b.iter_batched(
            || {
                let sim = SimBuilder::new().build();
                let sched = sim.scheduler();
                let server = PiomServer::new(PiomConfig::default(), Default::default(), &sched);
                let left = AtomicU64::new(PASSES);
                let weak = Arc::downgrade(&server);
                server.register_fn(
                    "rekick",
                    Arc::new(move |s: &Scheduler| {
                        if left.fetch_sub(1, Ordering::Relaxed) > 1 {
                            if let Some(server) = weak.upgrade() {
                                server.kick_net(s);
                            }
                        }
                        None
                    }),
                );
                for name in ["nemesis", "mpi"] {
                    server.register_fn(name, Arc::new(|_: &Scheduler| None));
                }
                server.kick_net(&sched);
                (sim, server)
            },
            |(sim, server)| {
                let out = sim.run().expect("a rank-less run ends");
                assert_eq!(out.events, PASSES);
                server
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn full_stack_pingpong(c: &mut Criterion) {
    use mpi_ch3::stack::{run_mpi, StackConfig};
    use mpi_ch3::{MpiHandle, Src};
    use simnet::{Cluster, Placement};
    let mut g = c.benchmark_group("full-stack");
    g.sample_size(10);
    g.bench_function("pingpong-job-100x64B", |b| {
        let cluster = Cluster::xeon_pair();
        let placement = Placement::one_per_node(2, &cluster);
        let cfg = StackConfig::mpich2_nmad(false);
        b.iter(|| {
            run_mpi(
                &cluster,
                &placement,
                &cfg,
                2,
                Arc::new(|mpi: MpiHandle| {
                    let buf = [0u8; 64];
                    if mpi.rank() == 0 {
                        for _ in 0..100 {
                            mpi.send(1, 1, &buf);
                            mpi.recv(Src::Rank(1), 1);
                        }
                    } else {
                        for _ in 0..100 {
                            mpi.recv(Src::Rank(0), 1);
                            mpi.send(0, 1, &buf);
                        }
                    }
                }),
            )
        });
    });
    g.finish();
}

/// The end-to-end checksum as the stack pays it: every payload byte is
/// sealed by the sender and verified by the receiver. Small eager
/// payloads stay in cache; a 4 MiB rendezvous chunk is read from memory,
/// so the cold case seals chunks walking an 8 MiB pool (what the ledger's
/// `nmad.wire_crc_ns_per_kib` probe, run hot, does not see).
fn wire_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("nmad-wire");
    let noise = |len: usize| -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    };
    for size in [256usize, 4096] {
        g.throughput(Throughput::Bytes(size as u64));
        let data = NmBuf::from(noise(size));
        g.bench_function(&format!("seal-verify-{size}B-hot"), |b| {
            b.iter(|| {
                let w = NmWire::new(
                    0,
                    1,
                    WirePayload::Eager {
                        tag: 1,
                        seq: 0,
                        data: data.share(),
                    },
                );
                std::hint::black_box(&w).crc_ok()
            });
        });
    }
    const CHUNK: usize = 4 << 20;
    g.throughput(Throughput::Bytes(CHUNK as u64));
    g.sample_size(20);
    let pool = NmBuf::from(noise(2 * CHUNK));
    g.bench_function("seal-4MiB-data-chunk-cold", |b| {
        let mut at = 0;
        b.iter(|| {
            at = CHUNK - at;
            let w = NmWire::new(
                0,
                1,
                WirePayload::Data {
                    rdv_id: 1,
                    offset: at,
                    data: pool.slice(at..at + CHUNK),
                },
            );
            std::hint::black_box(w.crc)
        });
    });
    g.finish();
}

/// The eager-path hand-off chain, measured both ways: the pre-refactor
/// discipline cloned the payload at every layer boundary (app → CH3
/// packet → NewMadeleine wrapper → wire), the NmBuf discipline pays one
/// metered boundary copy and shares the allocation from there on. Same
/// four hand-offs, real wall-clock cost of the copies the CopyMeter
/// merely counts.
fn copy_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("copy-path");
    for size in [4 * 1024usize, 64 * 1024, 1024 * 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        let payload = vec![0xA5u8; size];
        let label = |k: &str| format!("{k}-{}KB", size / 1024);
        let p = payload.clone();
        g.bench_function(&label("clone-per-layer"), move |b| {
            // black_box every hand-off so the optimizer cannot elide the
            // intermediate copies it would otherwise see as dead.
            b.iter(|| {
                let app = std::hint::black_box(std::hint::black_box(&p).to_vec()); // app → MPI
                let ch3 = std::hint::black_box(app.clone()); // MPI → CH3 packet
                let nm = std::hint::black_box(ch3.clone()); // CH3 → nmad wrapper
                let wire = std::hint::black_box(nm.clone()); // wrapper → wire
                std::hint::black_box(wire.len())
            });
        });
        let p = payload.clone();
        g.bench_function(&label("share-per-layer"), move |b| {
            let meter = CopyMeter::new();
            b.iter(|| {
                // One metered boundary copy…
                let app = std::hint::black_box(NmBuf::copied_from_slice(
                    std::hint::black_box(&p[..]),
                    BufOrigin::App,
                    &meter,
                ));
                // …then every hand-off is a refcount bump.
                let ch3 = std::hint::black_box(app.share());
                let nm = std::hint::black_box(ch3.share());
                let wire = std::hint::black_box(nm.slice(..));
                std::hint::black_box(wire.len())
            });
        });
    }
    g.finish();
}

fn threaded_injection(c: &mut Criterion) {
    // The real-thread hot path end to end: producers fill + CRC-seal
    // cells, the per-VC consumers verify and tag-match them through the
    // sharded engine, with flow control armed. One "element" = one
    // delivered message. The recorded trajectory (BENCH_10.json) uses
    // the larger standalone harness; this group gives criterion-grade
    // per-message numbers for quick A/B work.
    const MSGS: u64 = 4_000;
    let mut g = c.benchmark_group("threaded-injection");
    g.sample_size(10);
    for producers in [1usize, 4, 16] {
        let cfg = ThreadedConfig {
            producers,
            vcs: 4,
            window: (64 / producers).max(2),
            msgs_per_producer: MSGS / producers as u64,
            payload_bytes: 256,
            rdv_every: 8,
            eager_credits: 32,
        };
        g.throughput(Throughput::Elements(cfg.msgs_per_producer * producers as u64));
        let id = format!("{producers}-producers");
        g.bench_function(&id, |b| {
            b.iter(|| {
                let r = run_threaded(cfg);
                assert_eq!(r.fifo_violations, 0);
                r.total_msgs
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    nem_queue,
    matching,
    strategies,
    sampling,
    wire_checksum,
    event_queue,
    piom_pass,
    full_stack_pingpong,
    copy_path,
    threaded_injection
);
criterion_main!(benches);
