//! What the ledger asks of the operating system: CPU pinning, process
//! resource usage, `/proc` readings, host identity, and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

// ---------------------------------------------------------------------------
// CPU affinity and resource usage (libc calls declared here: no new crate).
// ---------------------------------------------------------------------------

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// highest CPU it is currently allowed on. Returns that CPU, or `None` when
/// the kernel refuses (the run then proceeds unpinned and says so).
///
/// The simulator hands one execution token between rank threads, so it never
/// uses a second core; unpinned, each handoff may cross cores and costs ten
/// times more (see README, "Pinning").
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// Process totals since start, all threads, including ones that have exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut raw = RawRusage {
            utime: [0; 2],
            stime: [0; 2],
            longs: [0; 14],
        };
        // SAFETY: `raw` has the layout of `struct rusage` and is writable;
        // 0 is RUSAGE_SELF.
        if unsafe { getrusage(0, &mut raw) } != 0 {
            return Usage::default();
        }
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            cpu_s: secs(raw.utime) + secs(raw.stime),
            voluntary_switches: raw.longs[12] as u64,
            involuntary_switches: raw.longs[13] as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// /proc readings and host identity.
// ---------------------------------------------------------------------------

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process right now.
pub fn live_threads() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_commit: String,
}

impl Host {
    pub fn read() -> Host {
        let first_line = |path: &str| {
            std::fs::read_to_string(path)
                .map(|s| s.lines().next().unwrap_or("").trim().to_string())
                .unwrap_or_default()
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: first_line("/proc/sys/kernel/osrelease"),
            git_commit: git_head().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory without
/// running git (a checkout that is not a repository has none).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

// ---------------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------------

/// Counters are striped by thread so that two real threads allocating at once
/// (`threaded_injection`) do not share a cache line; a simulated job runs one
/// thread at a time and is counted exactly.
const STRIPES: usize = 16;

#[repr(align(128))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
    /// Bytes allocated minus bytes freed *through this stripe*; one stripe
    /// may go negative (freed on another thread), the sum is the live heap.
    live: AtomicI64,
}

static STRIPE_TABLE: [Stripe; STRIPES] = [const {
    Stripe {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        live: AtomicI64::new(0),
    }
}; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator neither allocates nor runs after teardown.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn stripe() -> &'static Stripe {
    let idx = MY_STRIPE
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES);
            }
            s.get()
        })
        .unwrap_or(0);
    &STRIPE_TABLE[idx]
}

fn live_now() -> i64 {
    STRIPE_TABLE.iter().map(|s| s.live.load(Relaxed)).sum()
}

/// The peak is sampled, not tracked on every call: at each allocation of at
/// least this many bytes, and at every 64th smaller one on a stripe. It can
/// therefore miss at most 64 small allocations' worth (256 KiB).
const PEAK_SAMPLE_BYTES: usize = 4096;

pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // Forwarded rather than left to the default (alloc + memset), which
    // would turn the stack's lazily-mapped zeroed landing buffers into
    // eager writes and change what is being measured.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // Forwarded for the same reason: the default is alloc + copy + dealloc
    // even where the system allocator can grow in place.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size, layout.size());
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        stripe().live.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One allocation of `size` bytes that replaces `freed` bytes (a realloc).
fn count_alloc(size: usize, freed: usize) {
    let s = stripe();
    let n = s.allocs.fetch_add(1, Relaxed);
    s.bytes.fetch_add(size as u64, Relaxed);
    s.live.fetch_add(size as i64 - freed as i64, Relaxed);
    if size >= PEAK_SAMPLE_BYTES || n.is_multiple_of(64) {
        PEAK_LIVE.fetch_max(live_now(), Relaxed);
    }
}

/// Allocator totals since process start.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapCounts {
    pub allocs: u64,
    pub bytes: u64,
}

impl HeapCounts {
    pub fn now() -> HeapCounts {
        HeapCounts {
            allocs: STRIPE_TABLE.iter().map(|s| s.allocs.load(Relaxed)).sum(),
            bytes: STRIPE_TABLE.iter().map(|s| s.bytes.load(Relaxed)).sum(),
        }
    }
}

/// Highest live heap seen so far, in MB.
pub fn peak_live_heap_mb() -> f64 {
    PEAK_LIVE.fetch_max(live_now(), Relaxed).max(live_now()) as f64 / (1024.0 * 1024.0)
}
