//! The ledger's own span recorder: spans around its calls into the stack,
//! kept in per-thread vectors and written as a Chrome trace when the run ends.
//! Nothing here is inside the program under test.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// The thread id probe spans are filed under in the trace.
pub const PROBE_RANK: u32 = 1_000_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The workload-level operation this span belongs to (a round trip, a
    /// window, a round …); spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span in the same thread's vector.
    pub parent: u32,
    pub rank: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Simulated clock at entry and exit (both 0 outside a simulation).
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }
}

/// Host nanoseconds since the first call in this process — one time base for
/// every thread's spans.
pub fn host_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's recorder. Off, `scope` is a branch and a call.
pub struct Tracer {
    on: bool,
    rank: u32,
    op: Cell<u64>,
    open: RefCell<Vec<u32>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool, rank: u32) -> Tracer {
        Tracer {
            on,
            rank,
            op: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Run `f` inside a span called `name`; `sim_now` reads the simulated
    /// clock.
    pub fn scope<R>(
        &self,
        name: &'static str,
        sim_now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let id = spans.len() as u32;
            spans.push(Span {
                name,
                op: self.op.get(),
                parent: open.last().copied().unwrap_or(NO_PARENT),
                rank: self.rank,
                host_start_ns: host_ns(),
                host_end_ns: 0,
                sim_start_ns: sim_now(),
                sim_end_ns: 0,
            });
            open.push(id);
            id
        };
        let out = f();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.sim_end_ns = sim_now();
        span.host_end_ns = host_ns();
        self.open.borrow_mut().pop();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Per-name totals over a set of per-thread span vectors. Self time is a
/// span's duration minus the part its child spans cover.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub host_ns: u64,
    pub host_self_ns: u64,
    pub sim_ns: u64,
}

pub fn totals_by_name(threads: &[Vec<Span>]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.host_ns();
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.host_ns += s.host_ns();
            t.host_self_ns += s.host_ns().saturating_sub(children);
            t.sim_ns += s.sim_ns();
        }
    }
    out
}

/// A trace viewer stalls on files of several hundred MB; beyond this many
/// spans only every k-th operation is written (whole operations, so parents
/// and children stay together). Totals are always computed from all spans.
const MAX_TRACE_SPANS: usize = 200_000;

/// Write the merged spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event per span on the host clock, thread = rank,
/// with the simulated interval, operation id, span id and parent id in `args`.
pub fn write_chrome_trace(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let total: usize = threads.iter().map(Vec::len).sum();
    let stride = total.div_ceil(MAX_TRACE_SPANS).max(1) as u64;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_recorded\":{total},\"op_stride\":{stride}}},\"traceEvents\":["
    )?;
    let mut first = true;
    let mut base = 0u64;
    for spans in threads {
        for (i, s) in spans.iter().enumerate() {
            // Spans outside any operation (the rep itself, barriers) have
            // op 0 and are always kept.
            if s.op % stride != 0 {
                continue;
            }
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                (base + s.parent as u64) as i64
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.rank,
                s.host_start_ns as f64 / 1e3,
                s.host_ns() as f64 / 1e3,
                base + i as u64,
                parent,
                s.op,
                s.sim_start_ns,
                s.sim_end_ns,
            )?;
        }
        base += spans.len() as u64;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_parents_and_self_time() {
        let clock = Cell::new(0u64);
        let tick = || {
            clock.set(clock.get() + 10);
            clock.get()
        };
        let t = Tracer::new(true, 3);
        t.set_op(7);
        let out = t.scope("op", tick, || {
            t.scope("app.isend", tick, || ());
            t.scope("app.wait", tick, || 5)
        });
        assert_eq!(out, 5);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert!(spans.iter().all(|s| s.op == 7 && s.rank == 3));
        // The fake simulated clock ticks 10 per reading: children 10 each,
        // the parent spans all six readings.
        assert_eq!(spans[1].sim_ns(), 10);
        assert_eq!(spans[0].sim_ns(), 50);
        assert!(spans[0].host_ns() >= spans[1].host_ns() + spans[2].host_ns());

        let totals = totals_by_name(std::slice::from_ref(&spans));
        let op = totals["op"];
        assert_eq!(op.count, 1);
        assert_eq!(
            op.host_self_ns,
            spans[0].host_ns() - spans[1].host_ns() - spans[2].host_ns()
        );
        assert_eq!(totals["app.wait"].host_self_ns, totals["app.wait"].host_ns);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::new(false, 0);
        assert_eq!(t.scope("op", || 0, || 9), 9);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn trace_file_is_valid_json_with_global_ids() {
        let t0 = Tracer::new(true, 0);
        t0.scope("op", || 0, || t0.scope("app.isend", || 0, || ()));
        let t1 = Tracer::new(true, 1);
        t1.scope("op", || 0, || t1.scope("app.irecv", || 0, || ()));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_chrome_trace(&path, &[t0.into_spans(), t1.into_spans()]).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        let arg = |i: usize, k: &str| {
            events[i]
                .get("args")
                .unwrap()
                .get(k)
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!((arg(0, "id"), arg(0, "parent")), (0.0, -1.0));
        assert_eq!((arg(1, "id"), arg(1, "parent")), (1.0, 0.0));
        // Second thread's ids continue after the first thread's.
        assert_eq!((arg(3, "id"), arg(3, "parent")), (3.0, 2.0));
        assert_eq!(events[3].get("tid").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[3].get("cat").unwrap().as_str(), Some("app"));
    }
}
