//! The PIOMan server: the global polling authority of §3.3.1.
//!
//! "In order to fairly make progress both intra-node and inter-node
//! communication, it is necessary to centralize the detection of
//! communication completions … the whole software stack benefits from a
//! global view of both intra-node and inter-node communication flows."
//!
//! The server owns the registered [`LTask`]s and runs all of them on each
//! detection opportunity:
//!
//! * a **network kick** (NewMadeleine accepted a packet or a NIC finished a
//!   transfer) — reacted to after [`PiomConfig::net_sync`], the ≈2 µs
//!   "stronger synchronization … lists of requests protected from
//!   concurrent accesses, network drivers not thread-safe" cost of §4.1.2;
//! * a **shared-memory kick** (a Nemesis mailbox counter was raised) —
//!   after [`PiomConfig::shm_sync`] (≈450 ns);
//! * in [`DetectionMethod::TimerDriven`] mode, a periodic tick — the
//!   degraded path when no core is idle ("context switches, timer
//!   interrupts");
//! * a **deadline**: each ltask answers with the instant it next needs to
//!   run absent any kick (a retransmission timer, when a lost packet killed
//!   the whole kick chain), and the server keeps exactly one timed pass
//!   armed at the minimum ([`PiomServer::arm_pass`]). The server is the
//!   only owner of time on this stack: neither a blocked rank nor a
//!   fixed-cadence supervisor keeps a timer of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Scheduler, SimDuration, SimTime};

use crate::ltask::{LTask, LTaskFn};

/// Re-exported ltask function type (what the MPI glue registers).
pub type ProgressFn = LTaskFn;

/// How completions are detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectionMethod {
    /// An idle core polls continuously: every kick is reacted to after just
    /// the synchronization cost. This is the configuration the paper
    /// evaluates ("the submission of data is thus performed by idle cores
    /// when it is possible", §2.2.2) and the one that overlaps
    /// communication with computation.
    IdleCorePolling,
    /// No idle core: progress only happens on a periodic scheduler tick
    /// (context switches / timer interrupts), with this period.
    TimerDriven(SimDuration),
}

/// PIOMan tuning knobs, calibrated from §4.1.2.
#[derive(Clone, Copy, Debug)]
pub struct PiomConfig {
    /// Synchronization cost on the shared-memory detection path (~450 ns).
    pub shm_sync: SimDuration,
    /// Synchronization cost on the network detection path (~2 µs).
    pub net_sync: SimDuration,
    pub method: DetectionMethod,
}

impl Default for PiomConfig {
    fn default() -> Self {
        PiomConfig {
            shm_sync: SimDuration::nanos(450),
            net_sync: SimDuration::nanos(2_000),
            method: DetectionMethod::IdleCorePolling,
        }
    }
}

/// The one timed pass the server keeps armed. simnet cannot cancel an
/// event and does not need to: arming anew bumps `generation`, and a pass
/// that fires carrying an older one does nothing.
#[derive(Default)]
struct TimedPass {
    /// Instant the live pass fires at; `None` once it has fired.
    at: Option<SimTime>,
    generation: u64,
}

/// The per-process progress server.
pub struct PiomServer {
    cfg: PiomConfig,
    ltasks: Mutex<Vec<LTask>>,
    stopped: AtomicBool,
    timer_running: AtomicBool,
    /// An ltask pass is scheduled but has not run yet (idle-core mode).
    /// Kicks arriving while set are coalesced into that pass: it fires
    /// after their simulated instant (the pending pass was scheduled no
    /// more than one sync cost ago), so it observes their work — one poll
    /// pass servicing a burst of events, exactly what a real polling core
    /// does. Without this, every NIC event fans out into one scheduled
    /// pass per co-located rank and event counts grow with node width.
    pass_pending: AtomicBool,
    kicks: AtomicU64,
    /// See [`PiomServer::arm_pass`].
    timed: Mutex<TimedPass>,
    /// Timed passes that fired live: ltask passes with no kick behind them.
    rekicks: AtomicU64,
    /// Observability handle the server stamps its events with (kicks,
    /// ltask passes, re-kicks); `RankRec::off()` when untraced.
    rec: obs::RankRec,
}

impl PiomServer {
    pub fn new(cfg: PiomConfig, rec: obs::RankRec) -> Arc<PiomServer> {
        Arc::new(PiomServer {
            cfg,
            ltasks: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
            timer_running: AtomicBool::new(false),
            pass_pending: AtomicBool::new(false),
            kicks: AtomicU64::new(0),
            timed: Mutex::default(),
            rekicks: AtomicU64::new(0),
            rec,
        })
    }

    pub fn config(&self) -> &PiomConfig {
        &self.cfg
    }

    /// Register a progress task. Tasks run in registration order.
    pub fn register(&self, task: LTask) {
        self.ltasks.lock().push(task);
    }

    /// Convenience: register a closure as an ltask.
    pub fn register_fn(&self, name: &str, f: ProgressFn) -> LTask {
        let task = LTask::new(name, f);
        self.register(task.clone());
        task
    }

    /// Total kicks received (diagnostics).
    pub fn kicks(&self) -> u64 {
        self.kicks.load(Ordering::Relaxed)
    }

    /// Re-kicks: ltask passes the server ran at an ltask's deadline, with
    /// no kick behind them (diagnostics).
    pub fn rekicks(&self) -> u64 {
        self.rekicks.load(Ordering::Relaxed)
    }

    /// Run every registered ltask now, then keep a timed pass armed at the
    /// earliest deadline they answered with.
    pub fn run_ltasks(self: &Arc<Self>, sched: &Scheduler) {
        if self.stopped.load(Ordering::Acquire) {
            return;
        }
        // Clone out so ltasks may register further ltasks without deadlock.
        let tasks: Vec<LTask> = self.ltasks.lock().clone();
        self.rec.engine(
            sched.now().0,
            obs::EngineEvent::PiomLtaskPass {
                tasks: tasks.len() as u32,
            },
        );
        let deadline = tasks.iter().filter_map(|t| t.run(sched)).min();
        self.arm_pass(sched, deadline);
    }

    /// Make sure an ltask pass runs no later than `deadline`, kick or no
    /// kick (`None`: nothing to arm). Called after every pass with the
    /// ltasks' own answer, and by whoever drove progress outside a pass and
    /// is about to stop doing so (a rank parking in `wait`), with the
    /// deadline it read after its last cycle.
    ///
    /// Exactly one timed pass is live at a time. A new one is armed only
    /// when none is, or when the deadline moved *earlier* than the live
    /// one; a deadline that moved later (the usual case: the ack came)
    /// keeps the live pass, which then finds nothing due and re-arms from
    /// the ltasks' answer. A live pass that fires runs the ltasks on the
    /// dispatching thread and counts as a re-kick; a superseded one runs
    /// nothing and re-arms nothing.
    pub fn arm_pass(self: &Arc<Self>, sched: &Scheduler, deadline: Option<SimTime>) {
        let Some(deadline) = deadline else {
            return;
        };
        let generation = {
            let mut armed = self.timed.lock();
            if armed.at.is_some_and(|at| at <= deadline) {
                return;
            }
            armed.at = Some(deadline);
            armed.generation += 1;
            armed.generation
        };
        let server = Arc::clone(self);
        // `max` only keeps a deadline already due from scheduling into the
        // past.
        sched.schedule_at(deadline.max(sched.now()), move |s| {
            {
                let mut armed = server.timed.lock();
                if armed.generation != generation {
                    return;
                }
                armed.at = None;
            }
            if server.stopped.load(Ordering::Acquire) {
                return;
            }
            server.rekicks.fetch_add(1, Ordering::Relaxed);
            server.rec.engine(s.now().0, obs::EngineEvent::PiomRekick);
            server.run_ltasks(s);
        });
    }

    /// A network event happened (NewMadeleine hook): react after the
    /// network synchronization cost — if an idle core is polling. In
    /// timer-driven mode the event waits for the next tick.
    pub fn kick_net(self: &Arc<Self>, sched: &Scheduler) {
        self.rec
            .engine(sched.now().0, obs::EngineEvent::PiomKick { net: true });
        self.kick(sched, self.cfg.net_sync);
    }

    /// A shared-memory mailbox was raised (Nemesis hook).
    pub fn kick_shm(self: &Arc<Self>, sched: &Scheduler) {
        self.rec
            .engine(sched.now().0, obs::EngineEvent::PiomKick { net: false });
        self.kick(sched, self.cfg.shm_sync);
    }

    fn kick(self: &Arc<Self>, sched: &Scheduler, sync: SimDuration) {
        self.kicks.fetch_add(1, Ordering::Relaxed);
        match self.cfg.method {
            DetectionMethod::IdleCorePolling => {
                // Coalesce: if a pass is already on the calendar it will
                // fire after this kick's instant and see its work; a lone
                // kick still reacts after exactly the sync cost.
                if self.pass_pending.swap(true, Ordering::AcqRel) {
                    return;
                }
                let server = Arc::clone(self);
                sched.schedule_in(sync, move |s| {
                    // Clear before running: kicks raised *by* this pass
                    // (completions cascading into new submissions) must
                    // schedule a fresh pass rather than be swallowed.
                    server.pass_pending.store(false, Ordering::Release);
                    server.run_ltasks(s);
                });
            }
            DetectionMethod::TimerDriven(_) => {
                // The periodic tick will pick the event up.
            }
        }
    }

    /// Start the periodic tick (no-op for idle-core polling). Idempotent.
    pub fn start(self: &Arc<Self>, sched: &Scheduler) {
        if let DetectionMethod::TimerDriven(period) = self.cfg.method {
            if !self.timer_running.swap(true, Ordering::AcqRel) {
                self.tick(sched, period);
            }
        }
    }

    /// The one periodic re-arm on this stack: `TimerDriven` *is* a
    /// fixed-cadence detection method.
    fn tick(self: &Arc<Self>, sched: &Scheduler, period: SimDuration) {
        if self.stopped.load(Ordering::Acquire) {
            return;
        }
        let server = Arc::clone(self);
        sched.schedule_in(period, move |s| {
            server.run_ltasks(s);
            server.tick(s, period);
        });
    }

    /// Stop all background activity (teardown).
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use simnet::SimBuilder;
    use std::collections::VecDeque;

    /// Logs each run; the n-th run answers with the n-th scripted deadline
    /// (in ns), `None` past the script's end.
    fn scripted_task(log: &Arc<PlMutex<Vec<SimTime>>>, answers: &[Option<u64>]) -> ProgressFn {
        let log = Arc::clone(log);
        let answers = PlMutex::new(VecDeque::from(answers.to_vec()));
        Arc::new(move |s: &Scheduler| {
            log.lock().push(s.now());
            answers.lock().pop_front().flatten().map(SimTime)
        })
    }

    fn counter_task(log: &Arc<PlMutex<Vec<SimTime>>>) -> ProgressFn {
        scripted_task(log, &[])
    }

    fn kick_at(sched: &Scheduler, server: &Arc<PiomServer>, ns: u64) {
        let server = Arc::clone(server);
        sched.schedule_at(SimTime(ns), move |s| server.kick_net(s));
    }

    #[test]
    fn net_kick_reacts_after_sync_cost() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime(1_000), move |s| s2.kick_net(s));
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec![SimTime(3_000)]); // 1us + 2us sync
        assert_eq!(server.kicks(), 1);
    }

    #[test]
    fn shm_kick_uses_cheaper_sync() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime::ZERO, move |s| s2.kick_shm(s));
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec![SimTime(450)]);
    }

    #[test]
    fn all_ltasks_run_in_order() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let order = Arc::new(PlMutex::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let order = Arc::clone(&order);
            server.register_fn(
                name,
                Arc::new(move |_| {
                    order.lock().push(name);
                    None
                }),
            );
        }
        server.run_ltasks(&sched);
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn timer_mode_ignores_kicks_until_tick() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(
            PiomConfig {
                method: DetectionMethod::TimerDriven(SimDuration::micros(10)),
                ..Default::default()
            },
            obs::RankRec::off(),
        );
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.start(&sched);
        let s2 = Arc::clone(&server);
        // Kick at 1us: must NOT trigger a run at 3us; first run is the
        // 10us tick.
        sched.schedule_at(SimTime(1_000), move |s| s2.kick_net(s));
        let s3 = Arc::clone(&server);
        sched.schedule_at(SimTime(25_000), move |_| s3.stop());
        sim.run().unwrap();
        let runs = log.lock();
        assert_eq!(runs.first(), Some(&SimTime(10_000)));
        assert!(runs.iter().all(|t| t.as_nanos() % 10_000 == 0));
    }

    #[test]
    fn stop_halts_timer_and_kicks() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.stop();
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime::ZERO, move |s| s2.kick_net(s));
        sim.run().unwrap();
        assert!(log.lock().is_empty(), "stopped server must not run ltasks");
    }

    #[test]
    fn a_deadline_gets_exactly_one_timed_pass_at_it() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        // The kicked pass at 3 us asks for 50 us; nothing kicks again (all
        // packets "lost"), so only the timed pass can run the ltasks.
        server.register_fn("t", scripted_task(&log, &[Some(50_000)]));
        kick_at(&sched, &server, 1_000);
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec![SimTime(3_000), SimTime(50_000)]);
        assert_eq!(server.rekicks(), 1);
    }

    #[test]
    fn a_later_deadline_keeps_the_live_pass_an_earlier_one_supersedes_it() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn(
            "t",
            scripted_task(
                &log,
                &[
                    Some(50_000), // kicked pass at 3 us: arms 50 us
                    Some(80_000), // kicked pass at 12 us: later, 50 us stays live
                    Some(80_000), // timed pass at 50 us: arms 80 us
                    Some(70_000), // kicked pass at 62 us: earlier, supersedes 80 us
                    None,         // timed pass at 70 us; the 80 us one is stale
                ],
            ),
        );
        for ns in [1_000, 10_000, 60_000] {
            kick_at(&sched, &server, ns);
        }
        sim.run().unwrap();
        let at: Vec<u64> = log.lock().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(at, [3_000, 12_000, 50_000, 62_000, 70_000]);
        assert_eq!(server.rekicks(), 2, "the superseded pass ran nothing");
    }

    #[test]
    fn no_deadline_arms_nothing_and_kicks_still_coalesce() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.arm_pass(&sched, None);
        // Three kicks inside one sync cost are one pass; a fourth after it
        // ran is another.
        for ns in [1_000, 1_500, 2_900, 3_500] {
            kick_at(&sched, &server, ns);
        }
        let outcome = sim.run().unwrap();
        assert_eq!(*log.lock(), vec![SimTime(3_000), SimTime(5_500)]);
        assert_eq!(server.kicks(), 4);
        assert_eq!(server.rekicks(), 0);
        assert_eq!(outcome.events, 6, "four kicks, two passes, no timer");
    }

    #[test]
    fn a_stopped_servers_fired_pass_runs_nothing() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.arm_pass(&sched, Some(SimTime(50_000)));
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime(20_000), move |_| s2.stop());
        sim.run().unwrap();
        assert!(log.lock().is_empty());
        assert_eq!(server.rekicks(), 0);
    }

    #[test]
    fn ltask_may_register_ltask_without_deadlock() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off());
        let s2 = Arc::clone(&server);
        let hit = Arc::new(PlMutex::new(false));
        let h2 = Arc::clone(&hit);
        server.register_fn(
            "registrar",
            Arc::new(move |_s| {
                let h3 = Arc::clone(&h2);
                s2.register_fn(
                    "child",
                    Arc::new(move |_| {
                        *h3.lock() = true;
                        None
                    }),
                );
                None
            }),
        );
        server.run_ltasks(&sched); // registers child
        server.run_ltasks(&sched); // runs child
        assert!(*hit.lock());
    }
}
