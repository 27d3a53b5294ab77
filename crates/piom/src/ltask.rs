//! ltasks: the unit of background progress work PIOMan schedules.
//!
//! Each subsystem that wants progression registers an ltask; the server
//! runs every registered ltask on each detection opportunity (event kick or
//! timer tick). In the MPICH2 integration there are typically two: "poll
//! NewMadeleine" and "poll the Nemesis shared-memory mailboxes", plus the
//! MPI layer's completion task.
//!
//! An ltask answers with the instant it next needs to run *absent any
//! kick* — a retransmission deadline, say — or `None` when only events can
//! give it work. The server keeps one timed pass armed at the minimum.

use std::sync::Arc;

use simnet::{Scheduler, SimTime};

/// The work an ltask performs, inline in the simulator's dispatch loop on
/// whichever thread holds the token; returns when it next needs a pass of
/// its own accord.
pub type LTaskFn = Arc<dyn Fn(&Scheduler) -> Option<SimTime> + Send + Sync>;

/// A named background progress task.
#[derive(Clone)]
pub struct LTask {
    name: Arc<str>,
    f: LTaskFn,
    /// Invocation counter (diagnostics).
    runs: Arc<std::sync::atomic::AtomicU64>,
}

impl LTask {
    pub fn new(name: impl Into<Arc<str>>, f: LTaskFn) -> LTask {
        LTask {
            name: name.into(),
            f,
            runs: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Times this ltask has run.
    pub fn runs(&self) -> u64 {
        self.runs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Execute the task; its answer is its next deadline.
    pub fn run(&self, sched: &Scheduler) -> Option<SimTime> {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (self.f)(sched)
    }
}

impl std::fmt::Debug for LTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LTask({}, runs={})", self.name, self.runs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::SimBuilder;

    #[test]
    fn ltask_runs_and_counts() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let log = Arc::new(Mutex::new(0));
        let l2 = Arc::clone(&log);
        let t = LTask::new(
            "test",
            Arc::new(move |_| {
                *l2.lock() += 1;
                Some(SimTime(7))
            }),
        );
        assert_eq!(t.name(), "test");
        assert_eq!(t.runs(), 0);
        assert_eq!(t.run(&sched), Some(SimTime(7)));
        t.run(&sched);
        assert_eq!(*log.lock(), 2);
        assert_eq!(t.runs(), 2);
    }
}
