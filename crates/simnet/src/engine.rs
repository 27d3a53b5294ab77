//! The simulation engine: rank contexts, execution-token handoff, and the
//! event dispatch loop.
//!
//! ## Token protocol
//!
//! The simulation is logically single-threaded, and physically too: every
//! rank runs as a user-level context on its own stack (`simnet::fiber`),
//! all on the OS thread that called [`Sim::run`]. Exactly one context holds
//! the execution token at any moment: `Sim::run`'s own until the first
//! grant, then one rank at a time. There is no engine context. Whoever
//! holds the token and is about to give it up runs the dispatch loop
//! (`SimCore::dispatch`) itself:
//!
//! * It pops the earliest event. A `Call` event runs inline, on the
//!   holder's stack. A `Wake(rank)` event resumes `rank`: if that is the
//!   rank that just parked, the loop returns and the rank carries on with
//!   no switch; otherwise the holder switches straight into the rank's
//!   context. A wake costs one stack switch when it changes rank and none
//!   when it does not.
//! * A rank parked in [`crate::ctx::RankCtx::poll_until`] left a *poll
//!   body* in its slot. Its `Wake(rank)` ticks are then answered by the
//!   dispatching context: it takes the body out of the slot, calls it, and
//!   on `Some(d)` puts it back and pushes the next `Wake(rank)` at
//!   `now + d` — the push the rank would have made, at the same
//!   `(time, seq)`, without resuming it. Only `None` falls through to the
//!   resume.
//! * A rank runs its own code only between a grant (or a `Resume`) and its
//!   next park. Every blocking operation in rank code bottoms out in
//!   `RankCtx::park`, which dispatches and then either keeps the token or
//!   switches to the granted rank. A rank whose program returns marks
//!   itself done and dispatches once more to hand the token on.
//! * The run ends when every rank is done, on deadlock, on the event limit
//!   or on a panic. The holder that finds the end posts it and switches to
//!   `Sim::run`'s context — unless it *is* that context (a rank-less run,
//!   or a `Call` that panics before the first grant). `Sim::run` then
//!   tears the contexts down.
//!
//! Because handoffs are synchronous, no two simulation participants ever run
//! concurrently and the run is fully determined by the event order, which
//! does not depend on which context happens to run the loop.
//!
//! ## Teardown
//!
//! `Sim::run` resumes every rank context once more before unmapping its
//! stack, with the core marked torn down: a parked rank unwinds through
//! `TornDown`, a finished or failed one returns from its last switch, and
//! one that never ran drops its program unrun. Each then leaves for good, so
//! no suspended frame keeps anything — an `Arc`, a guard — alive.
//!
//! ## Scale
//!
//! A handoff allocates nothing and enters no kernel. Rank stacks are
//! explicitly small ([`SimBuilder::rank_stack_size`], default 512 KiB of
//! lazily-committed address space plus a guard page), so a 4096-rank job
//! reserves ~2 GiB of address space instead of ~32 GiB.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ctx::RankCtx;
use crate::event::{EventKind, EventQueue};
use crate::fiber::{self, Context, Fiber};
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated rank (process). Dense, starting at 0, in spawn
/// order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RankId(pub usize);

impl std::fmt::Display for RankId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// Sentinel payload used to unwind parked rank contexts silently when the
/// simulation is torn down early (deadlock/error paths).
pub(crate) struct TornDown;

/// A rank's poll body (see [`crate::ctx::RankCtx::poll_until`]).
pub(crate) type PollFn = Box<dyn FnMut(&Scheduler) -> Option<SimDuration> + Send>;

/// Where a polling rank leaves its body for the dispatch loop. Shared by
/// the rank's [`RankCtx`] and its slot in `Dispatch`, so the queue keeps
/// carrying a plain `Wake(rank)` and [`crate::event`]'s entries stay 32
/// bytes. The lock is never contended: the token protocol lets only one
/// side run.
pub(crate) type PollSlot = Arc<Mutex<Option<PollFn>>>;

/// The message of a caught panic, for [`SimError::RankPanic`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// How a run ended: its result, or the payload of a panic in the dispatch
/// loop, which [`Sim::run`] re-raises on its caller after teardown.
type End = std::thread::Result<Result<SimOutcome, SimError>>;

/// One rank as the dispatch loop sees it.
struct RankSlot {
    name: String,
    /// Where the rank is suspended while it does not hold the token.
    ctx: Arc<Context>,
    /// Holds a body exactly while the rank is parked in `poll_until`.
    poll: PollSlot,
    /// The rank's program returned, or its stack was never mapped.
    done: bool,
}

/// The dispatch loop's state. Any token holder may run the loop, so it
/// sits behind a mutex; the token makes that mutex uncontended.
struct Dispatch {
    ranks: Vec<RankSlot>,
    /// The rank whose context holds the token; `None` for `Sim::run`'s.
    running: Option<RankId>,
    done: usize,
    dispatched: u64,
    wakes: u64,
    polls: u64,
    switches: u64,
    max_events: Option<u64>,
}

/// What [`SimCore::dispatch`] tells the context that ran it.
enum Next {
    /// The loop woke the rank that ran it: it keeps the token.
    Resume,
    /// Another rank is due: switch into its context.
    Grant(Arc<Context>),
    /// The run is over: post this for [`Sim::run`].
    Finish(End),
}

/// Shared core: the event queue, the clock and the dispatch loop's state,
/// reachable from rank contexts, from [`Sim`], and from [`Scheduler`]
/// handles captured in callbacks.
pub struct SimCore {
    pub(crate) queue: Mutex<EventQueue>,
    /// Current simulated time in ns; written only by the token holder's
    /// dispatch loop, read from anywhere without locking.
    clock_ns: AtomicU64,
    /// Typed observability sink for the dispatch loop (off by default).
    rec: obs::RankRec,
    dispatch: Mutex<Dispatch>,
    /// Where [`Sim::run`]'s own stack is suspended while a rank runs.
    main: Context,
    /// The run's end, posted once by the context that found it.
    end: Mutex<Option<End>>,
    /// Set by teardown: a resumed context must leave, not carry on.
    torn_down: AtomicBool,
}

impl SimCore {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.clock_ns.load(Ordering::Acquire))
    }

    /// Run the dispatch loop in the calling context, which holds the token,
    /// until the token must go somewhere: back to `me` (the rank that just
    /// parked, if any), to another rank, or to [`Sim::run`] as the run's
    /// end. A panic anywhere in the loop — a `Call`, or the harness-bug
    /// check below — ends the run with its payload.
    fn dispatch(self: &Arc<Self>, me: Option<RankId>) -> Next {
        let mut d = self.dispatch.lock();
        // A `RankCtx` smuggled to another rank (through a thread-local,
        // say) would save the wrong stack into its context.
        if let Some(me) = me {
            assert_eq!(d.running, Some(me), "{me} parked in another rank's context");
        }
        let sched = Scheduler::new(Arc::clone(self));
        panic::catch_unwind(AssertUnwindSafe(|| self.run_events(&mut d, &sched, me)))
            .unwrap_or_else(|payload| Next::Finish(Err(payload)))
    }

    fn run_events(&self, d: &mut Dispatch, sched: &Scheduler, me: Option<RankId>) -> Next {
        loop {
            // Rank-driven simulations finish when every rank returned, even
            // if recurring background events (progress timers) are still
            // queued — nothing observable can happen anymore.
            if !d.ranks.is_empty() && d.done == d.ranks.len() {
                return Next::Finish(Ok(Ok(self.outcome(d))));
            }
            let popped = self.queue.lock().pop();
            let Some((t, kind)) = popped else {
                if d.done == d.ranks.len() {
                    return Next::Finish(Ok(Ok(self.outcome(d))));
                }
                let stuck = d
                    .ranks
                    .iter()
                    .filter(|r| !r.done)
                    // Ownership constraint: the deadlock report outlives
                    // the run, so the stuck ranks' names must be owned.
                    .map(|r| r.name.clone())
                    .collect();
                return Next::Finish(Ok(Err(SimError::Deadlock(stuck))));
            };
            d.dispatched += 1;
            debug_assert!(t >= self.now(), "event queue went backwards");
            self.clock_ns.store(t.0, Ordering::Release);
            if let Some(limit) = d.max_events {
                if d.dispatched > limit {
                    return Next::Finish(Ok(Err(SimError::EventLimit(limit))));
                }
            }
            let rank = match kind {
                EventKind::Call(f) => {
                    self.rec.engine(t.0, obs::EngineEvent::DispatchCall);
                    f(sched);
                    continue;
                }
                EventKind::Wake(rank) => rank,
            };
            let slot = &d.ranks[rank.0];
            // A wake raced with rank completion; a completed rank cannot be
            // blocked, so this indicates a harness bug (e.g. double-signal
            // of a semaphore after its waiter returned).
            assert!(
                !slot.done,
                "wake event for finished rank {} ({})",
                rank.0, slot.name
            );
            self.rec.engine(t.0, obs::EngineEvent::DispatchWake);
            // A poll tick: run the rank's body here instead of resuming the
            // rank to run it. The guard is dropped before the call, so the
            // slot is free while it runs.
            let body = slot.poll.lock().take();
            if let Some(mut body) = body {
                match panic::catch_unwind(AssertUnwindSafe(|| body(sched))) {
                    Ok(Some(step)) => {
                        *slot.poll.lock() = Some(body);
                        sched.wake_rank_at(t + step, rank);
                        d.polls += 1;
                        continue;
                    }
                    // Ready: the body is spent, the rank resumes.
                    Ok(None) => {}
                    // The body is the rank's code, so its panic is the
                    // rank's; teardown unwinds the parked context.
                    Err(payload) => {
                        let message = panic_message(&*payload);
                        return Next::Finish(Ok(Err(SimError::RankPanic { rank, message })));
                    }
                }
            }
            debug_assert!(
                slot.poll.lock().is_none(),
                "{rank} granted the token with a poll body armed"
            );
            d.wakes += 1;
            if me == Some(rank) {
                return Next::Resume;
            }
            d.switches += 1;
            d.running = Some(rank);
            return Next::Grant(Arc::clone(&slot.ctx));
        }
    }

    fn outcome(&self, d: &Dispatch) -> SimOutcome {
        SimOutcome {
            final_time: self.now(),
            events: d.dispatched,
            wakes: d.wakes,
            polls: d.polls,
            switches: d.switches,
        }
    }

    /// Dispatch from the running context `from` (rank `me`, or `Sim::run`'s
    /// own with `None`) and pass the token to whoever the loop names.
    /// Returns once the token is back in `from`, or once teardown resumes
    /// it ([`SimCore::torn_down`] then says so).
    pub(crate) fn hand_off(self: &Arc<Self>, me: Option<RankId>, from: &Context) {
        match self.dispatch(me) {
            Next::Resume => {}
            // SAFETY: single OS thread — every context of this core runs on
            // `Sim::run`'s thread and `from` is the running one; target
            // suspended — the loop grants a rank only while it is parked
            // (never `me`, which got `Resume`), and the core that holds
            // both contexts outlives the suspension.
            Next::Grant(to) => unsafe { fiber::switch(from, &to) },
            Next::Finish(end) => self.finish(end, from),
        }
    }

    /// Post the run's end and leave `from` for `Sim::run`'s context, unless
    /// the run ends on that context already.
    fn finish(&self, end: End, from: &Context) {
        let previous = self.end.lock().replace(end);
        debug_assert!(previous.is_none(), "a run ended twice");
        if !ptr::eq(from, &self.main) {
            // SAFETY: single OS thread — `from` is the running rank; target
            // suspended — `Sim::run`'s context waits in its first grant
            // until a run's end switches back to it.
            unsafe { fiber::switch(from, &self.main) };
        }
    }

    /// Whether teardown has begun: a context resumed now must leave.
    pub(crate) fn torn_down(&self) -> bool {
        self.torn_down.load(Ordering::Relaxed)
    }

    /// A rank's program returned: it will never be woken again.
    fn retire(&self, rank: RankId) {
        let mut d = self.dispatch.lock();
        d.ranks[rank.0].done = true;
        d.done += 1;
    }

    /// Everything a rank's context does, from its first grant to the last
    /// switch teardown resumes it from. Every local drops before it returns.
    fn run_rank(self: &Arc<Self>, ctx: RankCtx, f: impl FnOnce(RankCtx)) {
        if self.torn_down() {
            return; // never granted: drop the program unrun
        }
        let rank = ctx.rank();
        let me = Arc::clone(ctx.context());
        match panic::catch_unwind(AssertUnwindSafe(|| f(ctx))) {
            Ok(()) => {
                self.retire(rank);
                self.hand_off(None, &me);
            }
            // Silent unwind during teardown; do not report.
            Err(payload) if payload.is::<TornDown>() => {}
            Err(payload) => {
                let message = panic_message(&*payload);
                self.finish(Ok(Err(SimError::RankPanic { rank, message })), &me);
            }
        }
    }
}

/// Handle for scheduling events and waking ranks; cheap to clone and safe to
/// capture in event callbacks.
#[derive(Clone)]
pub struct Scheduler {
    core: Arc<SimCore>,
}

impl Scheduler {
    pub(crate) fn new(core: Arc<SimCore>) -> Self {
        Scheduler { core }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Schedule `f` to run at absolute time `t`, in whichever context holds
    /// the token then.
    ///
    /// # Panics
    /// Panics if `t` is in the past; events may not rewrite history.
    pub fn schedule_at(&self, t: SimTime, f: impl FnOnce(&Scheduler) + Send + 'static) {
        assert!(
            t >= self.now(),
            "schedule_at: {t:?} is before current time {:?}",
            self.now()
        );
        self.core
            .queue
            .lock()
            .push(t, EventKind::Call(Box::new(f)));
    }

    /// Schedule `f` to run after `d` has elapsed.
    pub fn schedule_in(&self, d: SimDuration, f: impl FnOnce(&Scheduler) + Send + 'static) {
        let t = self.now() + d;
        self.core
            .queue
            .lock()
            .push(t, EventKind::Call(Box::new(f)));
    }

    /// Schedule a token handoff to `rank` at absolute time `t`.
    pub fn wake_rank_at(&self, t: SimTime, rank: RankId) {
        assert!(
            t >= self.now(),
            "wake_rank_at: {t:?} is before current time {:?}",
            self.now()
        );
        self.core.queue.lock().push(t, EventKind::Wake(rank));
    }

    /// Schedule a token handoff to `rank` at the current time (it will run
    /// after all already-queued events for this instant).
    pub fn wake_rank_now(&self, rank: RankId) {
        self.wake_rank_at(self.now(), rank);
    }
}

/// Default rank stack size. Rank programs are shallow (the MPI stack is
/// iterative all the way down); 512 KiB leaves generous headroom for debug
/// builds while letting thousands of rank stacks coexist.
pub const DEFAULT_RANK_STACK: usize = 512 * 1024;

/// Builder for a [`Sim`].
pub struct SimBuilder {
    max_events: Option<u64>,
    recorder: Option<Arc<obs::Recorder>>,
    rank_stack: usize,
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder {
            max_events: None,
            recorder: None,
            rank_stack: DEFAULT_RANK_STACK,
        }
    }
}

impl SimBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record typed dispatch events (`dispatch_call` / `dispatch_wake`)
    /// into the given observability recorder.
    pub fn with_recorder(mut self, rec: &Arc<obs::Recorder>) -> Self {
        self.recorder = Some(Arc::clone(rec));
        self
    }

    /// Abort the run with [`SimError::EventLimit`] after this many events.
    /// Useful as a runaway guard in tests.
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    /// Stack size for rank contexts (default [`DEFAULT_RANK_STACK`]). The
    /// dispatch loop runs in whichever rank context holds the token, so
    /// `Call`s and poll bodies run on these stacks too; the debug test
    /// suite runs its whole stack on the 512 KiB default.
    pub fn rank_stack_size(mut self, bytes: usize) -> Self {
        self.rank_stack = bytes;
        self
    }

    pub fn build(self) -> Sim {
        let core = Arc::new(SimCore {
            queue: Mutex::new(EventQueue::new()),
            clock_ns: AtomicU64::new(0),
            rec: obs::RankRec::new(self.recorder.as_ref(), obs::ENGINE_RANK),
            dispatch: Mutex::new(Dispatch {
                ranks: Vec::new(),
                running: None,
                done: 0,
                dispatched: 0,
                wakes: 0,
                polls: 0,
                switches: 0,
                max_events: self.max_events,
            }),
            main: Context::default(),
            end: Mutex::new(None),
            torn_down: AtomicBool::new(false),
        });
        Sim {
            core,
            fibers: Vec::new(),
            rank_stack: self.rank_stack,
            spawn_error: None,
        }
    }
}

/// Result of a completed simulation run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Simulated time at which the last event fired.
    pub final_time: SimTime,
    /// Total number of events dispatched:
    /// `events == calls + wakes + polls`, where `calls` are the closure
    /// dispatches, run inline by whichever context holds the token.
    pub events: u64,
    /// Wake events that resumed a rank: the rank's own code ran again.
    /// Whether that cost a context switch is counted in `switches`.
    pub wakes: u64,
    /// Wake events answered inline: poll ticks of a rank parked in
    /// [`RankCtx::poll_until`] whose body asked for another tick. They
    /// cost a closure call in the dispatching context, not a resume.
    pub polls: u64,
    /// Grants that moved the token to another context: the first grant
    /// from [`Sim::run`], and every wake of a rank other than the one that
    /// parked. Each costs one stack switch; the other `wakes - switches`
    /// wakes cost none.
    pub switches: u64,
}

/// Ways a simulation can fail.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while some ranks were still parked — the
    /// simulated programs are deadlocked. Contains the names of the stuck
    /// ranks.
    Deadlock(Vec<String>),
    /// A rank program panicked.
    RankPanic { rank: RankId, message: String },
    /// The configured event budget was exhausted.
    EventLimit(u64),
    /// The OS refused to map a rank's stack (resource exhaustion at high
    /// rank counts); `reason` is the `mmap` error.
    SpawnFailed { name: String, reason: String },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(ranks) => {
                write!(f, "simulation deadlock; parked ranks: {}", ranks.join(", "))
            }
            SimError::RankPanic { rank, message } => {
                write!(f, "{rank} panicked: {message}")
            }
            SimError::EventLimit(n) => write!(f, "event budget of {n} exhausted"),
            SimError::SpawnFailed { name, reason } => {
                write!(f, "failed to map the stack of rank '{name}': {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A discrete-event simulation whose ranks are user-level contexts.
pub struct Sim {
    core: Arc<SimCore>,
    /// Every mapped rank stack, in spawn order.
    fibers: Vec<Fiber>,
    rank_stack: usize,
    /// First spawn failure, surfaced by [`Sim::run`] (see
    /// [`Sim::spawn_rank`]).
    spawn_error: Option<SimError>,
}

impl Sim {
    /// Shared core handle, for constructing [`Scheduler`]s before the run
    /// starts (e.g. to schedule initial background events).
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(Arc::clone(&self.core))
    }

    /// Spawn a rank running `f` in a context of its own. The rank starts
    /// (receives the token for the first time) at simulated time zero, in
    /// spawn order.
    ///
    /// On failure to map its stack the error is recorded and returned by
    /// [`Sim::run`] as [`SimError::SpawnFailed`] (the returned `RankId`
    /// stays dense; the dead slot never wakes). Use
    /// [`Sim::try_spawn_rank`] to handle the failure at the call site.
    pub fn spawn_rank(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(RankCtx) + Send + 'static,
    ) -> RankId {
        match self.try_spawn_rank(name, f) {
            Ok(id) => id,
            Err(e) => {
                let name = match &e {
                    SimError::SpawnFailed { name, .. } => name.clone(),
                    _ => unreachable!("try_spawn_rank only fails with SpawnFailed"),
                };
                if self.spawn_error.is_none() {
                    self.spawn_error = Some(e);
                }
                // Dense placeholder so later RankIds stay valid; marked done
                // so the dispatch loop never grants it.
                let mut d = self.core.dispatch.lock();
                d.ranks.push(RankSlot {
                    name,
                    ctx: Arc::default(),
                    poll: PollSlot::default(),
                    done: true,
                });
                d.done += 1;
                RankId(d.ranks.len() - 1)
            }
        }
    }

    /// Spawn a rank, surfacing a failure to map its stack to the caller
    /// instead of recording it for [`Sim::run`].
    pub fn try_spawn_rank(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(RankCtx) + Send + 'static,
    ) -> Result<RankId, SimError> {
        let mut d = self.core.dispatch.lock();
        let id = RankId(d.ranks.len());
        let name = name.into();
        let ctx = Arc::<Context>::default();
        let poll = PollSlot::default();
        let core = Arc::clone(&self.core);
        let (own, rank_poll) = (Arc::clone(&ctx), Arc::clone(&poll));
        let body: fiber::Body = Box::new(move || {
            let rank_ctx = RankCtx::new(Arc::clone(&core), id, own, rank_poll);
            core.run_rank(rank_ctx, f);
            // Leave for `Sim::run`'s context, which outlives this stack.
            &core.main as *const Context
        });
        let fiber = Fiber::new(self.rank_stack, Arc::clone(&ctx), body).map_err(|e| {
            SimError::SpawnFailed {
                name: name.clone(),
                reason: e.to_string(),
            }
        })?;
        d.ranks.push(RankSlot {
            name,
            ctx,
            poll,
            done: false,
        });
        self.fibers.push(fiber);
        // First activation at t=0.
        self.core
            .queue
            .lock()
            .push(SimTime::ZERO, EventKind::Wake(id));
        Ok(id)
    }

    /// Run the simulation to completion.
    ///
    /// # Panics
    /// Re-raises, after every rank context is torn down, a panic raised by
    /// an event callback (whichever context ran it).
    pub fn run(mut self) -> Result<SimOutcome, SimError> {
        let end = match self.spawn_error.take() {
            Some(e) => Ok(Err(e)),
            None => {
                self.core.hand_off(None, &self.core.main);
                self.core
                    .end
                    .lock()
                    .take()
                    .expect("the token comes back to Sim::run only at the run's end")
            }
        };
        self.teardown();
        end.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Resume every rank context once more, so that each leaves for good,
    /// and unmap its stack; then drop what the queue and the poll slots
    /// still hold.
    fn teardown(&mut self) {
        self.core.torn_down.store(true, Ordering::Relaxed);
        for fiber in self.fibers.drain(..) {
            // SAFETY: single OS thread — teardown runs in `Sim::run`'s
            // context (or in `Drop` before any context ran), the running
            // one; target suspended — every rank context is parked in a
            // switch or fresh. With `torn_down` set, the resume ends its
            // body: `park` unwinds through TornDown, `run_rank` returns.
            unsafe { fiber.close(&self.core.main) };
        }
        // Pending events and armed poll bodies may hold `Scheduler`s, and
        // with them the core itself.
        let events = std::mem::take(&mut *self.core.queue.lock());
        let polls: Vec<_> = (self.core.dispatch.lock().ranks.iter())
            .filter_map(|r| r.poll.lock().take())
            .collect();
        drop((events, polls));
    }
}

impl Drop for Sim {
    /// A `Sim` dropped unrun still owns its rank stacks and programs.
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::SimSemaphore;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_sim_completes_at_time_zero() {
        let sim = SimBuilder::new().build();
        let out = sim.run().unwrap();
        assert_eq!(out.final_time, SimTime::ZERO);
        assert_eq!(out.events, 0);
    }

    #[test]
    fn single_rank_advances_clock() {
        let mut sim = SimBuilder::new().build();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        sim.spawn_rank("r0", move |ctx| {
            seen2.lock().push(ctx.now());
            ctx.advance(SimDuration::micros(5));
            seen2.lock().push(ctx.now());
            ctx.advance(SimDuration::micros(3));
            seen2.lock().push(ctx.now());
        });
        let out = sim.run().unwrap();
        assert_eq!(out.final_time, SimTime(8_000));
        assert_eq!(
            *seen.lock(),
            vec![SimTime(0), SimTime(5_000), SimTime(8_000)]
        );
    }

    #[test]
    fn two_ranks_interleave_deterministically() {
        let mut sim = SimBuilder::new().build();
        let log = Arc::new(Mutex::new(Vec::new()));
        for r in 0..2u64 {
            let log = Arc::clone(&log);
            sim.spawn_rank(format!("r{r}"), move |ctx| {
                for step in 0..3u64 {
                    log.lock().push((r, step, ctx.now()));
                    // Rank 0 advances 10us, rank 1 advances 15us per step.
                    ctx.advance(SimDuration::micros(10 + 5 * r));
                }
            });
        }
        sim.run().unwrap();
        let log = log.lock();
        // Sorted by simulated time with rank order breaking ties.
        let expected = vec![
            (0, 0, SimTime(0)),
            (1, 0, SimTime(0)),
            (0, 1, SimTime(10_000)),
            (1, 1, SimTime(15_000)),
            (0, 2, SimTime(20_000)),
            (1, 2, SimTime(30_000)),
        ];
        assert_eq!(*log, expected);
    }

    #[test]
    fn callbacks_fire_between_rank_steps() {
        let mut sim = SimBuilder::new().build();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let sched = sim.scheduler();
        sched.schedule_at(SimTime(2_000), move |_| {
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        let hits3 = Arc::clone(&hits);
        sim.spawn_rank("r0", move |ctx| {
            ctx.advance(SimDuration::micros(1));
            assert_eq!(hits3.load(Ordering::SeqCst), 0);
            ctx.advance(SimDuration::micros(2));
            assert_eq!(hits3.load(Ordering::SeqCst), 1);
        });
        sim.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn semaphore_handoff_between_ranks() {
        let mut sim = SimBuilder::new().build();
        let sem = SimSemaphore::new("test");
        let sem2 = SimSemaphore::clone(&sem);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        sim.spawn_rank("waiter", move |ctx| {
            sem2.wait(&ctx);
            o1.lock().push(("woken", ctx.now()));
        });
        sim.spawn_rank("signaler", move |ctx| {
            ctx.advance(SimDuration::micros(7));
            o2.lock().push(("signal", ctx.now()));
            sem.signal(&ctx.scheduler());
        });
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec![("signal", SimTime(7_000)), ("woken", SimTime(7_000))]
        );
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let mut sim = SimBuilder::new().build();
        let sem = SimSemaphore::new("never");
        sim.spawn_rank("stuck-rank", move |ctx| {
            sem.wait(&ctx); // nobody signals
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["stuck-rank"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_is_reported() {
        let mut sim = SimBuilder::new().build();
        sim.spawn_rank("bad", |_ctx| panic!("boom"));
        match sim.run() {
            Err(SimError::RankPanic { message, .. }) => assert!(message.contains("boom")),
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guard() {
        let mut sim = SimBuilder::new().max_events(10).build();
        sim.spawn_rank("spinner", |ctx| loop {
            ctx.advance(SimDuration::nanos(1));
        });
        match sim.run() {
            Err(SimError::EventLimit(10)) => {}
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    /// One busy-wait, written both ways: the loop `poll_until` documents
    /// itself to be equivalent to, or `poll_until`.
    fn busy_wait(
        ctx: &RankCtx,
        inline: bool,
        first: SimDuration,
        mut body: impl FnMut(&Scheduler) -> Option<SimDuration> + Send + 'static,
    ) {
        if inline {
            return ctx.poll_until(first, body);
        }
        let sched = ctx.scheduler();
        let mut d = first;
        loop {
            ctx.advance(d);
            match body(&sched) {
                Some(next) => d = next,
                None => return,
            }
        }
    }

    /// Two ranks tick in lockstep (equal instants, so only `seq` orders
    /// them) over mixed steps including zero; each tick also schedules a
    /// `Call` for the very instant of the next tick, and a pre-scheduled
    /// `Call` at a tick instant ends rank 0's first wait. Returns every
    /// observation in dispatch order: `(time, rank)`, `Call`s as rank 9.
    fn lockstep_pollers(inline: bool) -> (Vec<(SimTime, usize)>, SimOutcome) {
        const STEPS: [u64; 5] = [50, 50, 100, 0, 70];
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicUsize::new(0));
        let mut sim = SimBuilder::new().build();
        {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            // 50 + 50 + 100 + 0 + 70 + 50: the instant of the sixth tick.
            sim.scheduler().schedule_at(SimTime(320), move |s| {
                log.lock().push((s.now(), 9));
                stop.store(1, Ordering::SeqCst);
            });
        }
        for r in 0..2usize {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            sim.spawn_rank(format!("r{r}"), move |ctx| {
                for round in 0..2usize {
                    let (tick_log, stop) = (Arc::clone(&log), Arc::clone(&stop));
                    let mut ticks = 0usize;
                    busy_wait(&ctx, inline, SimDuration::nanos(50), move |s| {
                        tick_log.lock().push((s.now(), r));
                        ticks += 1;
                        // Rank 0 waits for the Call first, rank 1 for a count.
                        let ready = if r == round {
                            stop.load(Ordering::SeqCst) == 1
                        } else {
                            ticks == 4 + 3 * round
                        };
                        if ready {
                            return None;
                        }
                        let step = SimDuration::nanos(STEPS[ticks % STEPS.len()]);
                        let log = Arc::clone(&tick_log);
                        s.schedule_in(step, move |s| log.lock().push((s.now(), 9)));
                        Some(step)
                    });
                    log.lock().push((ctx.now(), r));
                    ctx.advance(SimDuration::nanos(30));
                }
            });
        }
        let out = sim.run().unwrap();
        let log = std::mem::take(&mut *log.lock());
        (log, out)
    }

    #[test]
    fn poll_until_is_the_advance_loop_minus_the_handoffs() {
        let (loop_log, loop_out) = lockstep_pollers(false);
        let (poll_log, poll_out) = lockstep_pollers(true);
        assert_eq!(poll_log, loop_log);
        assert_eq!(poll_out.final_time, loop_out.final_time);
        assert_eq!(poll_out.events, loop_out.events);
        assert_eq!(loop_out.polls, 0);
        assert!(poll_out.polls > 10, "{poll_out:?}");
        assert_eq!(poll_out.wakes + poll_out.polls, loop_out.wakes);
        // 2 ranks x (start + 2 waits + 2 advances): the ticks cost none.
        assert_eq!(poll_out.wakes, 10);
    }

    #[test]
    fn poll_until_edge_steps() {
        let mut sim = SimBuilder::new().build();
        sim.spawn_rank("r0", |ctx| {
            // Ready on the first tick: resumes at `first`, body spent.
            ctx.poll_until(SimDuration::nanos(40), |_| None);
            assert_eq!(ctx.now(), SimTime(40));
            // Zero steps re-arm at the same instant, behind queued events.
            let fired = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&fired);
            let mut zero_ticks = 0;
            ctx.poll_until(SimDuration::ZERO, move |s| {
                zero_ticks += 1;
                if zero_ticks == 1 {
                    let fired = Arc::clone(&fired);
                    s.schedule_in(SimDuration::ZERO, move |_| {
                        fired.store(1, Ordering::SeqCst);
                    });
                }
                (zero_ticks < 3).then_some(SimDuration::ZERO)
            });
            assert_eq!(ctx.now(), SimTime(40));
            assert_eq!(seen.load(Ordering::SeqCst), 1);
            // One body, many re-arms, its state carried across them. The
            // grant that ends each wait finds the slot empty (the debug
            // assertion in the dispatch loop), so the next wait can arm it.
            let mut step = 1u64;
            ctx.poll_until(SimDuration::nanos(1), move |_| {
                step *= 2;
                (step <= 64).then_some(SimDuration::nanos(step))
            });
            assert_eq!(ctx.now(), SimTime(40 + 127));
        });
        let out = sim.run().unwrap();
        assert_eq!((out.wakes, out.polls), (4, 2 + 6));
        assert_eq!(out.events, out.wakes + out.polls + 1);
    }

    #[test]
    fn event_limit_trips_inside_a_poll_that_is_never_ready() {
        let mut sim = SimBuilder::new().max_events(10).build();
        sim.spawn_rank("spinner", |ctx| {
            ctx.poll_until(SimDuration::nanos(1), |_| Some(SimDuration::nanos(1)));
        });
        match sim.run() {
            Err(SimError::EventLimit(10)) => {}
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn panicking_poll_body_is_a_rank_panic() {
        let mut sim = SimBuilder::new().build();
        sim.spawn_rank("bystander", |ctx| ctx.advance(SimDuration::micros(1)));
        sim.spawn_rank("poller", |ctx| {
            let mut ticks = 0;
            ctx.poll_until(SimDuration::nanos(5), move |_| {
                ticks += 1;
                assert!(ticks < 3, "tick {ticks} went wrong");
                Some(SimDuration::nanos(5))
            });
        });
        match sim.run() {
            Err(SimError::RankPanic { rank, message }) => {
                assert_eq!(rank, RankId(1));
                assert!(message.contains("tick 3 went wrong"), "{message}");
            }
            other => panic!("expected the poller's panic, got {other:?}"),
        }
    }

    #[test]
    fn switches_count_grants_to_another_thread() {
        // A lone rank's advances come back to the rank that parked: its N
        // calls cost no switch, whatever N. The one switch is the grant
        // that starts it.
        for n in [0u64, 50] {
            let mut sim = SimBuilder::new().build();
            sim.spawn_rank("alone", move |ctx| {
                for _ in 0..n {
                    ctx.advance(SimDuration::nanos(10));
                }
            });
            let out = sim.run().unwrap();
            assert_eq!((out.wakes, out.switches), (n + 1, 1), "{out:?}");
        }
        // Two ranks in lockstep: every wake is the other rank's turn.
        let mut sim = SimBuilder::new().build();
        for r in 0..2 {
            sim.spawn_rank(format!("r{r}"), |ctx| {
                for _ in 0..50 {
                    ctx.advance(SimDuration::nanos(10));
                }
            });
        }
        let out = sim.run().unwrap();
        assert_eq!(out.wakes, 2 * 51);
        assert_eq!(out.switches, out.wakes);
    }

    #[test]
    fn panicking_call_unwinds_on_the_caller_after_teardown() {
        // At 0 the call runs in `Sim::run`'s context before the rank starts;
        // at 1 µs it runs on the parked rank's stack, inside its `advance`.
        for at in [SimTime::ZERO, SimTime(1_000)] {
            let held = Arc::new(());
            let mut sim = SimBuilder::new().build();
            sim.scheduler()
                .schedule_at(at, |_| panic!("the call went wrong"));
            let h = Arc::clone(&held);
            sim.spawn_rank("holder", move |ctx| {
                let _held = h;
                ctx.advance(SimDuration::micros(10));
                unreachable!("the run ends at the call");
            });
            let payload = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
                .expect_err("the call's panic reaches the caller");
            assert_eq!(panic_message(&*payload), "the call went wrong");
            assert_eq!(
                Arc::strong_count(&held),
                1,
                "a rank context outlived the run"
            );
        }
    }

    #[test]
    fn chained_callbacks_reschedule() {
        let sim = SimBuilder::new().build();
        let count = Arc::new(AtomicUsize::new(0));
        let sched = sim.scheduler();
        fn tick(s: &Scheduler, count: Arc<AtomicUsize>, left: usize) {
            if left == 0 {
                return;
            }
            count.fetch_add(1, Ordering::SeqCst);
            let c = Arc::clone(&count);
            s.schedule_in(SimDuration::micros(1), move |s| tick(s, c, left - 1));
        }
        let c = Arc::clone(&count);
        sched.schedule_at(SimTime::ZERO, move |s| tick(s, c, 5));
        // Need at least one rank so the run isn't trivially empty? No — pure
        // callback sims are fine.
        let out = sim.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 5);
        // The final (no-op) tick still fires at 5 µs.
        assert_eq!(out.final_time, SimTime(5_000));
    }

    #[test]
    fn yield_now_lets_same_time_events_run() {
        let mut sim = SimBuilder::new().build();
        let flag = Arc::new(AtomicUsize::new(0));
        let f1 = Arc::clone(&flag);
        let f2 = Arc::clone(&flag);
        sim.spawn_rank("r0", move |ctx| {
            // Schedule a same-time callback, then yield; it must have fired
            // by the time we resume.
            let f = Arc::clone(&f1);
            ctx.scheduler()
                .schedule_in(SimDuration::ZERO, move |_| {
                    f.store(1, Ordering::SeqCst);
                });
            ctx.yield_now();
            assert_eq!(f2.load(Ordering::SeqCst), 1);
        });
        sim.run().unwrap();
    }

    #[test]
    fn small_stack_threads_run_many_ranks() {
        // A thousand parked rank contexts on 128 KiB stacks: spawn, step,
        // finish. Guards the spawn_rank stack-size plumbing.
        let mut sim = SimBuilder::new().rank_stack_size(128 * 1024).build();
        let hits = Arc::new(AtomicUsize::new(0));
        for r in 0..1000 {
            let hits = Arc::clone(&hits);
            sim.spawn_rank(format!("r{r}"), move |ctx| {
                ctx.advance(SimDuration::nanos(10 * (r as u64 % 7)));
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn try_spawn_rank_surfaces_os_failure() {
        // An absurd stack size makes the stack mapping fail; the error must
        // come back as a clean SpawnFailed, not a panic.
        let mut sim = SimBuilder::new().rank_stack_size(usize::MAX / 2).build();
        match sim.try_spawn_rank("huge", |_ctx| {}) {
            Err(SimError::SpawnFailed { name, .. }) => assert_eq!(name, "huge"),
            Ok(_) => {
                // Some platforms clamp instead of failing; then the spawn
                // succeeding is fine — run must still complete.
                sim.run().unwrap();
            }
            Err(other) => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn spawn_rank_failure_fails_run_cleanly() {
        let mut sim = SimBuilder::new().rank_stack_size(usize::MAX / 2).build();
        let id = sim.spawn_rank("huge", |_ctx| {});
        assert_eq!(id, RankId(0), "placeholder keeps ids dense");
        match sim.run() {
            Err(SimError::SpawnFailed { name, .. }) => assert_eq!(name, "huge"),
            Ok(_) => {} // platform clamped the stack; acceptable
            Err(other) => panic!("wrong error {other:?}"),
        }
    }

    /// Counts its drops.
    struct DropGuard(Arc<AtomicUsize>);

    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ending {
        Finish,
        Deadlock,
        RankPanic,
        CallPanicAt(SimTime),
        EventLimit,
    }

    #[test]
    fn every_rank_frame_drops_and_the_core_is_freed_however_the_run_ends() {
        const RANKS: usize = 4;
        for ending in [
            Ending::Finish,
            Ending::Deadlock,
            Ending::RankPanic,
            Ending::CallPanicAt(SimTime::ZERO),
            Ending::CallPanicAt(SimTime(1_000)),
            Ending::EventLimit,
        ] {
            let drops = Arc::new(AtomicUsize::new(0));
            let mut sim = SimBuilder::new().max_events(200).build();
            let core = Arc::downgrade(&sim.core);
            if let Ending::CallPanicAt(t) = ending {
                sim.scheduler()
                    .schedule_at(t, |_| panic!("the call went wrong"));
            }
            let never = SimSemaphore::new("never");
            for r in 0..RANKS {
                let guard = DropGuard(Arc::clone(&drops));
                let never = SimSemaphore::clone(&never);
                sim.spawn_rank(format!("r{r}"), move |ctx| {
                    let _guard = guard;
                    ctx.advance(SimDuration::micros(2));
                    match (ending, r) {
                        (Ending::Deadlock, 0) => never.wait(&ctx),
                        (Ending::RankPanic, 1) => panic!("rank went wrong"),
                        (Ending::EventLimit, 2) => loop {
                            ctx.advance(SimDuration::nanos(1));
                        },
                        _ => {}
                    }
                    // Ranks finish at different instants, so some have
                    // returned and some are parked when the run ends.
                    ctx.advance(SimDuration::micros(r as u64));
                });
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
            match (ending, &result) {
                (Ending::Finish, Ok(Ok(_)))
                | (Ending::Deadlock, Ok(Err(SimError::Deadlock(_))))
                | (Ending::RankPanic, Ok(Err(SimError::RankPanic { .. })))
                | (Ending::CallPanicAt(_), Err(_))
                | (Ending::EventLimit, Ok(Err(SimError::EventLimit(200)))) => {}
                _ => panic!("{ending:?} ended as {result:?}"),
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                RANKS,
                "{ending:?}: a rank frame outlived the run"
            );
            assert!(
                core.upgrade().is_none(),
                "{ending:?}: something kept the core alive after the run"
            );
        }
    }

    #[test]
    fn an_unrun_sim_drops_its_rank_programs() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = SimBuilder::new().build();
        let core = Arc::downgrade(&sim.core);
        for r in 0..3 {
            let guard = DropGuard(Arc::clone(&drops));
            sim.spawn_rank(format!("r{r}"), move |_ctx| drop(guard));
        }
        drop(sim);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert!(core.upgrade().is_none());
    }

    #[test]
    fn a_rank_cannot_park_in_another_ranks_context() {
        type Stash = std::cell::RefCell<Option<RankCtx>>;
        thread_local! {
            static STASH: Stash = const { std::cell::RefCell::new(None) };
        }
        let mut sim = SimBuilder::new().build();
        sim.spawn_rank("lender", |ctx| STASH.with(|s| *s.borrow_mut() = Some(ctx)));
        sim.spawn_rank("borrower", |_ctx| {
            STASH.with(|s| s.borrow().as_ref().map(RankCtx::yield_now));
        });
        let result = sim.run();
        STASH.with(|s| s.borrow_mut().take());
        match result {
            Err(SimError::RankPanic { rank, message }) => {
                assert_eq!(rank, RankId(1));
                assert!(
                    message.contains("rank0 parked in another rank's context"),
                    "{message}"
                );
            }
            other => panic!("expected the borrower's panic, got {other:?}"),
        }
    }

    #[test]
    fn a_backtrace_stops_at_the_rank_context_entry() {
        // Re-run `rank_panic_is_reported` in a child with backtraces on: the
        // panic hook then walks the rank's whole stack, and the walk must
        // end at the context's entry frame (return address 0) instead of
        // running off the top of the mapped stack.
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "engine::tests::rank_panic_is_reported"])
            .args(["--nocapture", "--test-threads=1"])
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("the test binary re-runs itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{:?}\n{stdout}\n{stderr}",
            out.status
        );
        assert!(stderr.contains("boom"), "{stderr}");
        assert!(stderr.contains("stack backtrace:"), "{stderr}");
        assert!(stderr.contains("fiber_main"), "{stderr}");
    }
}
