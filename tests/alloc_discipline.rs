//! Allocation discipline of the progress path: a PIOMan kick and the ltask
//! pass it triggers allocate nothing, one CG iteration allocates no more
//! per message than it was measured to, and a stream of large borrowed-
//! slice sends recycles its boundary copies instead of allocating them.
//!
//! This binary installs its own counting allocator. Tests run on parallel
//! threads, and a simulation runs every rank on the thread that called
//! `Sim::run`, so allocations are counted per thread: each test sees its
//! own run's count and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpich2_nmad_repro::mpi_ch3::stack::run_mpi_collect;
use mpich2_nmad_repro::mpi_ch3::{Src, StackConfig};
use mpich2_nmad_repro::nasbench::kernels::{run_iteration, KernelCtx};
use mpich2_nmad_repro::nasbench::{Class, Kernel, KernelParams};
use mpich2_nmad_repro::piom::{PiomConfig, PiomServer};
use mpich2_nmad_repro::simnet::{Cluster, Placement, Scheduler, SimBuilder, SimTime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations of at least this many bytes are counted a second time, as
/// large: above glibc's small-block caches, where a freed block can go
/// back to the kernel.
const LARGE: usize = 16 * 1024;

fn count_one(size: usize) {
    // `try_with`: an allocation during the thread's TLS teardown goes
    // uncounted rather than panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: forwards every call to `System` unchanged; the counters are
// const-initialized thread-local `Cell`s, which themselves never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of at least [`LARGE`] bytes this thread has made so far.
fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

/// Kick a server at 10 µs steps and read the allocation counter at each
/// kick and after the pass it triggers: no cycle may allocate.
#[test]
fn a_kick_and_its_pass_allocate_nothing() {
    const CYCLES: usize = 3;
    let sim = SimBuilder::new().build();
    let sched = sim.scheduler();
    let server = PiomServer::new(
        PiomConfig::default(),
        mpich2_nmad_repro::obs::RankRec::off(),
        &sched,
    );
    let passes = Arc::new(AtomicU64::new(0));
    for name in ["nmad", "nemesis", "mpi"] {
        let passes = Arc::clone(&passes);
        server.register_fn(
            name,
            Arc::new(move |_: &Scheduler| {
                passes.fetch_add(1, Ordering::Relaxed);
                None
            }),
        );
    }
    // Per cycle, the count at the kick and 5 µs later, once the pass
    // (2 µs after the kick) has run.
    let marks: Arc<Vec<[AtomicU64; 2]>> =
        Arc::new((0..CYCLES).map(|_| Default::default()).collect());
    for k in 0..CYCLES {
        let at = k as u64 * 10_000;
        let (sv, m) = (Arc::clone(&server), Arc::clone(&marks));
        sched.schedule_at(SimTime(at), move |s| {
            m[k][0].store(allocs(), Ordering::Relaxed);
            sv.kick_net(s);
        });
        let m = Arc::clone(&marks);
        sched.schedule_at(SimTime(at + 5_000), move |_| {
            m[k][1].store(allocs(), Ordering::Relaxed);
        });
    }
    sim.run().unwrap();
    assert_eq!(
        passes.load(Ordering::Relaxed),
        3 * CYCLES as u64,
        "one pass per kick"
    );
    for (k, [before, after]) in marks.iter().enumerate() {
        let allocated = after.load(Ordering::Relaxed) - before.load(Ordering::Relaxed);
        assert_eq!(allocated, 0, "kick→pass cycle {k} allocated");
    }
}

/// Allocations of a 16-rank CG class-A job under PIOMan running
/// `iterations` iterations, setup and teardown included.
fn cg_job_allocs(iterations: usize) -> u64 {
    let cluster = Cluster::grid5000_opteron();
    let nprocs = 16;
    let placement = Placement::round_robin(nprocs, &cluster);
    let params = KernelParams::of(Kernel::CG, Class::A);
    let before = allocs();
    run_mpi_collect(
        &cluster,
        &placement,
        &StackConfig::mpich2_nmad(true),
        nprocs,
        move |mpi| {
            let kctx = KernelCtx {
                mpi,
                params: &params,
                class: Class::A,
                nprocs,
                compute_factor: 1.0,
                lu_nz_override: None,
            };
            for _ in 0..iterations {
                run_iteration(Kernel::CG, &kctx);
            }
        },
    );
    allocs() - before
}

/// One CG iteration is the difference of a two- and a one-iteration job,
/// so setup and teardown cancel out. It sends 368 messages (56 eager, 312
/// rendezvous; `nasbench`'s `payload_buffers` test pins them) and made
/// 23.7 allocations per message when measured, debug and release alike;
/// the bound is that plus 25 %. With a boxed closure per kick and a cloned
/// ltask `Vec` per pass it made 50.5.
#[test]
fn one_cg_iteration_stays_under_its_allocation_bound() {
    const MESSAGES: f64 = 368.0;
    const BOUND_PER_MESSAGE: f64 = 23.7 * 1.25;
    let one = cg_job_allocs(1);
    let two = cg_job_allocs(2);
    let per_message = (two - one) as f64 / MESSAGES;
    assert!(
        per_message <= BOUND_PER_MESSAGE,
        "one CG iteration made {per_message:.1} allocations per message (bound {BOUND_PER_MESSAGE:.1})"
    );
}

/// Large allocations of a two-rank job in which rank 0 sends `messages`
/// 200 KiB payloads, each borrowed from the one buffer it holds, and
/// rank 1 receives and checks them, setup and teardown included.
fn large_send_job_allocs(messages: u32) -> u64 {
    const LEN: usize = 200 * 1024;
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let before = large_allocs();
    run_mpi_collect(
        &cluster,
        &placement,
        &StackConfig::mpich2_nmad(false),
        2,
        move |mpi| {
            if mpi.rank() == 0 {
                let mut payload = vec![0u8; LEN];
                for tag in 0..messages {
                    payload[0] = tag as u8;
                    let r = mpi.isend(1, tag, &payload);
                    mpi.wait(r);
                }
            } else {
                for tag in 0..messages {
                    let r = mpi.irecv(Src::Rank(0), tag);
                    let (data, _) = mpi.wait_data(r);
                    let data = data.expect("a receive has a payload");
                    assert_eq!((data.len(), data[0]), (LEN, tag as u8));
                }
            }
        },
    );
    large_allocs() - before
}

/// The messages of a 40-message job that a 20-message job does not send
/// cost the difference of the two, so setup and teardown cancel out. A
/// one-message job runs first: the free list outlives a job on its
/// thread, so that job's copy is the warm-up of both. Before the boundary
/// copy recycled its storage each message made 1.0 large allocation (the
/// copy itself); now the two jobs differ by at most one large allocation
/// in all (−0.05 per message when measured, debug and release alike). The
/// bound leaves room for two per job, not one per message.
#[test]
fn large_borrowed_slice_sends_recycle_their_boundary_copy() {
    const MESSAGES: u32 = 20;
    const BOUND_PER_MESSAGE: f64 = 0.1;
    large_send_job_allocs(1);
    let one = large_send_job_allocs(MESSAGES);
    let two = large_send_job_allocs(2 * MESSAGES);
    let per_message = (two as f64 - one as f64) / MESSAGES as f64;
    assert!(
        per_message <= BOUND_PER_MESSAGE,
        "each 200 KiB send made {per_message:.2} allocations of {LARGE} B or more (bound {BOUND_PER_MESSAGE})"
    );
}
