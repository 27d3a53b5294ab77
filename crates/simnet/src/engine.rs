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
//! * A rank parked in [`crate::ctx::RankCtx::poll_until`] left a *poller*
//!   in its slot: its body and its [`PollSchedule`]. Its `Wake(rank)`
//!   ticks are then answered by the dispatching context: it advances the
//!   schedule, calls the body and, unless the body says `Ready`, pushes the
//!   next `Wake(rank)` one step later — the push the rank would have made,
//!   at the same `(time, seq)`, without resuming it. Only `Ready` falls
//!   through to the resume.
//! * **The clean rule.** State changes only while the loop runs a `Call`,
//!   resumes a rank, or runs a poll body that did not say `Idle`. A poller
//!   whose last body call said `Idle`, with none of those three since, is
//!   *clean*: its next tick would say `Idle` again. Its next tick then
//!   waits in `Dispatch::clean`, keyed by the `(time, seq)` the queue
//!   would have given it (the seq is drawn from the queue's counter), and
//!   the loop takes whichever head is earlier, the queue's or that heap's.
//!   A clean tick is answered by arithmetic: the schedule advances, the
//!   next key is drawn, and the tick counts as an event, a poll and an
//!   elided tick, with no queue push or pop and no body call. The first
//!   `Call`, resume or non-`Idle` tick puts every clean poller back into
//!   the queue at the key it holds, so every real event keeps its
//!   `(time, seq)`. Debug builds call an elided tick's body anyway and
//!   assert that it says `Idle`. With the queue empty and only clean
//!   ticks left, nothing can change again: the run ends in deadlock.
//! * **Standing handlers.** A callback that fires again and again (PIOMan's
//!   kick pass) is registered once with [`Scheduler::register_handler`]
//!   and kept in the loop's state, like a poll body; scheduling it pushes
//!   a `Wake` whose id carries `HANDLER_BIT`, so nothing is boxed per
//!   event and the queue entry stays 32 bytes. It dispatches exactly like
//!   a `Call`: in `(time, seq)` order, counted as one and recorded as
//!   `DispatchCall`.
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
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backoff::PollSchedule;
use crate::ctx::{PollOutcome, RankCtx};
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

/// Set in a `Wake`'s id when it names a standing handler, not a rank: rank
/// ids are dense from 0 and never reach it.
pub(crate) const HANDLER_BIT: usize = 1 << (usize::BITS - 1);

/// A callback registered once with [`Scheduler::register_handler`] and
/// scheduled by id as often as needed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HandlerId(usize);

/// A standing handler's body.
type HandlerFn = Box<dyn FnMut(&Scheduler) + Send>;

/// Sentinel payload used to unwind parked rank contexts silently when the
/// simulation is torn down early (deadlock/error paths).
pub(crate) struct TornDown;

/// A rank's poll body (see [`crate::ctx::RankCtx::poll_until`]).
type PollFn = Box<dyn FnMut(&Scheduler, u32) -> PollOutcome + Send>;

/// What a rank parked in `poll_until` leaves in its slot of the dispatch
/// loop, so the queue keeps carrying a plain `Wake(rank)` and
/// [`crate::event`]'s entries stay 32 bytes.
pub(crate) struct Poller {
    body: PollFn,
    schedule: PollSchedule,
}

impl Poller {
    pub(crate) fn new(
        schedule: PollSchedule,
        body: impl FnMut(&Scheduler, u32) -> PollOutcome + Send + 'static,
    ) -> Self {
        Poller {
            body: Box::new(body),
            schedule,
        }
    }

    /// Call the body at the tick the schedule just advanced to. The body
    /// is the rank's code, so its panic is the rank's; teardown unwinds
    /// the parked context.
    fn call(&mut self, sched: &Scheduler, rank: RankId) -> Result<PollOutcome, Next> {
        let tick = self.schedule.ticks();
        panic::catch_unwind(AssertUnwindSafe(|| (self.body)(sched, tick))).map_err(|payload| {
            let message = panic_message(&*payload);
            Next::Finish(Ok(Err(SimError::RankPanic { rank, message })))
        })
    }
}

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
    /// Set exactly while the rank is parked in `poll_until`.
    poll: Option<Poller>,
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
    /// The next tick of every clean poller, keyed by the `(time, seq)` it
    /// would hold in the queue (see the clean rule above).
    clean: BinaryHeap<Reverse<(SimTime, u64, RankId)>>,
    /// Standing handlers, indexed by [`HandlerId`].
    handlers: Vec<HandlerFn>,
    dispatched: u64,
    wakes: u64,
    polls: u64,
    elided: u64,
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
    /// end. `poller` is what `me` leaves to answer its ticks, if it parked
    /// in `poll_until`. A panic anywhere in the loop — a `Call`, or the
    /// harness-bug checks below — ends the run with its payload.
    fn dispatch(self: &Arc<Self>, me: Option<RankId>, poller: Option<Poller>) -> Next {
        let mut d = self.dispatch.lock();
        // A `RankCtx` smuggled to another rank (through a thread-local,
        // say) would save the wrong stack into its context.
        if let Some(me) = me {
            assert_eq!(d.running, Some(me), "{me} parked in another rank's context");
        }
        if let Some(poller) = poller {
            let me = me.expect("only a rank polls");
            let armed = d.ranks[me.0].poll.replace(poller);
            debug_assert!(armed.is_none(), "{me} is already polling");
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
            let popped = if d.clean.is_empty() {
                self.queue.lock().pop()
            } else {
                match self.elide_clean_ticks(d, sched) {
                    Ok(popped) => popped,
                    Err(end) => return end,
                }
            };
            let Some((t, kind)) = popped else {
                if d.done == d.ranks.len() {
                    return Next::Finish(Ok(Ok(self.outcome(d))));
                }
                return Next::Finish(Ok(Err(Self::deadlock(d))));
            };
            d.dispatched += 1;
            debug_assert!(t >= self.now(), "event queue went backwards");
            self.clock_ns.store(t.0, Ordering::Release);
            if let Some(end) = Self::over_limit(d) {
                return end;
            }
            let rank = match kind {
                EventKind::Call(f) => {
                    self.rec.engine(t.0, obs::EngineEvent::DispatchCall);
                    self.requeue_clean(d);
                    f(sched);
                    continue;
                }
                EventKind::Wake(id) if id.0 & HANDLER_BIT != 0 => {
                    self.rec.engine(t.0, obs::EngineEvent::DispatchCall);
                    self.requeue_clean(d);
                    (d.handlers[id.0 & !HANDLER_BIT])(sched);
                    continue;
                }
                EventKind::Wake(rank) => rank,
            };
            let slot = &mut d.ranks[rank.0];
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
            // rank to run it.
            if let Some(p) = slot.poll.as_mut() {
                p.schedule.tick();
                let outcome = match p.call(sched, rank) {
                    Ok(outcome) => outcome,
                    Err(end) => return end,
                };
                if outcome == PollOutcome::Ready {
                    // The body is spent; the rank resumes below.
                    slot.poll = None;
                } else {
                    let next = t + p.schedule.step();
                    d.polls += 1;
                    if outcome == PollOutcome::Worked {
                        self.requeue_clean(d);
                        self.queue.lock().push(next, EventKind::Wake(rank));
                    } else {
                        let seq = self.queue.lock().take_seq();
                        d.clean.push(Reverse((next, seq, rank)));
                    }
                    continue;
                }
            }
            self.requeue_clean(d);
            d.wakes += 1;
            if me == Some(rank) {
                return Next::Resume;
            }
            d.switches += 1;
            d.running = Some(rank);
            return Next::Grant(Arc::clone(&d.ranks[rank.0].ctx));
        }
    }

    /// Answer by arithmetic every clean tick due before the queue's head,
    /// then pop that head. Ends the run on the event limit, and in
    /// deadlock when the queue is empty: clean ticks alone change nothing.
    fn elide_clean_ticks(
        &self,
        d: &mut Dispatch,
        sched: &Scheduler,
    ) -> Result<Option<(SimTime, EventKind)>, Next> {
        let mut q = self.queue.lock();
        loop {
            let Reverse((t, seq, rank)) = *d.clean.peek().expect("a clean tick re-arms itself");
            match q.peek_key() {
                Some(head) if head < (t, seq) => return Ok(q.pop()),
                Some(_) => {}
                None => return Err(Next::Finish(Ok(Err(Self::deadlock(d))))),
            }
            d.clean.pop();
            d.dispatched += 1;
            self.clock_ns.store(t.0, Ordering::Release);
            if let Some(end) = Self::over_limit(d) {
                return Err(end);
            }
            self.rec.engine(t.0, obs::EngineEvent::DispatchWake);
            d.polls += 1;
            d.elided += 1;
            let p = (d.ranks[rank.0].poll.as_mut()).expect("a clean rank is polling");
            p.schedule.tick();
            if cfg!(debug_assertions) {
                // Re-prove the clean rule: the body, called anyway, must
                // find nothing. The queue is free while it runs.
                drop(q);
                let outcome = p.call(sched, rank)?;
                assert_eq!(
                    outcome,
                    PollOutcome::Idle,
                    "{rank}'s poll body broke its idle promise at tick {}",
                    p.schedule.ticks()
                );
                q = self.queue.lock();
            }
            let next = t + p.schedule.step();
            d.clean.push(Reverse((next, q.take_seq(), rank)));
        }
    }

    /// Something may have changed: every clean poller's next tick goes
    /// back into the queue at the `(time, seq)` it holds, to run its body.
    #[inline]
    fn requeue_clean(&self, d: &mut Dispatch) {
        if d.clean.is_empty() {
            return;
        }
        let mut q = self.queue.lock();
        for Reverse((t, seq, rank)) in d.clean.drain() {
            q.push_at(t, seq, EventKind::Wake(rank));
        }
    }

    /// The run's end once the event budget is spent.
    fn over_limit(d: &Dispatch) -> Option<Next> {
        let limit = d.max_events.filter(|&limit| d.dispatched > limit)?;
        Some(Next::Finish(Ok(Err(SimError::EventLimit(limit)))))
    }

    /// No event can wake the ranks still parked.
    fn deadlock(d: &Dispatch) -> SimError {
        let stuck = d
            .ranks
            .iter()
            .filter(|r| !r.done)
            // Ownership constraint: the deadlock report outlives the run,
            // so the stuck ranks' names must be owned.
            .map(|r| r.name.clone())
            .collect();
        SimError::Deadlock(stuck)
    }

    fn outcome(&self, d: &Dispatch) -> SimOutcome {
        SimOutcome {
            final_time: self.now(),
            events: d.dispatched,
            wakes: d.wakes,
            polls: d.polls,
            elided: d.elided,
            switches: d.switches,
        }
    }

    /// Dispatch from the running context `from` (rank `me`, or `Sim::run`'s
    /// own with `None`) and pass the token to whoever the loop names;
    /// `poller`, if any, answers `me`'s ticks meanwhile. Returns once the
    /// token is back in `from`, or once teardown resumes it
    /// ([`SimCore::torn_down`] then says so).
    pub(crate) fn hand_off(
        self: &Arc<Self>,
        me: Option<RankId>,
        from: &Context,
        poller: Option<Poller>,
    ) {
        match self.dispatch(me, poller) {
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
                self.hand_off(None, &me, None);
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
        self.core.queue.lock().push(t, EventKind::Call(Box::new(f)));
    }

    /// Schedule `f` to run after `d` has elapsed.
    pub fn schedule_in(&self, d: SimDuration, f: impl FnOnce(&Scheduler) + Send + 'static) {
        let t = self.now() + d;
        self.core.queue.lock().push(t, EventKind::Call(Box::new(f)));
    }

    /// Keep `f` in the dispatch loop for the rest of the run, to be
    /// scheduled by the returned id with [`Scheduler::schedule_handler_in`]
    /// as often as needed: one allocation now, none per event. `f` runs
    /// the way a `Call` does. Register from setup code or rank code.
    ///
    /// # Panics
    /// Panics if called while the dispatch loop runs, i.e. from inside an
    /// event callback, a standing handler or a poll body.
    pub fn register_handler(&self, f: impl FnMut(&Scheduler) + Send + 'static) -> HandlerId {
        let mut d = self.core.dispatch.try_lock().expect(
            "register_handler called from inside the dispatch loop; \
             register standing handlers before the run or from rank code",
        );
        d.handlers.push(Box::new(f));
        HandlerId(d.handlers.len() - 1)
    }

    /// Schedule standing handler `id` to run after `d` has elapsed.
    pub fn schedule_handler_in(&self, d: SimDuration, id: HandlerId) {
        let t = self.now() + d;
        self.core
            .queue
            .lock()
            .push(t, EventKind::Wake(RankId(id.0 | HANDLER_BIT)));
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
                clean: BinaryHeap::new(),
                handlers: Vec::new(),
                dispatched: 0,
                wakes: 0,
                polls: 0,
                elided: 0,
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
    /// and standing-handler dispatches, run inline by whichever context
    /// holds the token.
    pub events: u64,
    /// Wake events that resumed a rank: the rank's own code ran again.
    /// Whether that cost a context switch is counted in `switches`.
    pub wakes: u64,
    /// Wake events answered inline: poll ticks of a rank parked in
    /// [`RankCtx::poll_until`] that did not end its wait. They cost no
    /// resume: a body call in the dispatching context, or, for the
    /// `elided` ones, not even that.
    pub polls: u64,
    /// The `polls` answered by arithmetic, without their body: ticks of a
    /// clean poller, whose last body call said
    /// [`crate::PollOutcome::Idle`] with no `Call`, resume or non-idle
    /// tick since. They take their instant and sequence number, but no
    /// queue push or pop.
    pub elided: u64,
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
                    poll: None,
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
        let core = Arc::clone(&self.core);
        let own = Arc::clone(&ctx);
        let body: fiber::Body = Box::new(move || {
            let rank_ctx = RankCtx::new(Arc::clone(&core), id, own);
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
            poll: None,
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
                self.core.hand_off(None, &self.core.main, None);
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
    /// and unmap its stack; then drop what the queue, the pollers and the
    /// standing handlers still hold.
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
        // Pending events, armed poll bodies and standing handlers may hold
        // `Scheduler`s, and with them the core itself.
        let events = std::mem::take(&mut *self.core.queue.lock());
        let mut d = self.core.dispatch.lock();
        let polls: Vec<_> = (d.ranks.iter_mut()).filter_map(|r| r.poll.take()).collect();
        let handlers = std::mem::take(&mut d.handlers);
        drop(d);
        drop((events, polls, handlers));
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

    /// Everything of an outcome that elision must leave as it is.
    fn counts(o: &SimOutcome) -> (SimTime, u64, u64, u64, u64) {
        (o.final_time, o.events, o.wakes, o.polls, o.switches)
    }

    /// A schedule of `ns`-apart ticks.
    fn flat(ns: u64) -> PollSchedule {
        PollSchedule::new(SimDuration::nanos(ns), 0, SimDuration::nanos(ns))
    }

    /// One busy-wait, written both ways: the loop `poll_until` documents
    /// itself to be equivalent to, or `poll_until`.
    fn busy_wait(
        ctx: &RankCtx,
        inline: bool,
        mut schedule: PollSchedule,
        mut body: impl FnMut(&Scheduler, u32) -> PollOutcome + Send + 'static,
    ) {
        if inline {
            return ctx.poll_until(schedule, body);
        }
        let sched = ctx.scheduler();
        loop {
            ctx.advance(schedule.step());
            schedule.tick();
            if body(&sched, schedule.ticks()) == PollOutcome::Ready {
                return;
            }
        }
    }

    /// Two ranks tick in lockstep (equal instants, so only `seq` orders
    /// them) on schedules that grow, and one whose fine ticks are 0 ns
    /// apart; each tick also schedules a `Call` 50 ns on, the instant of
    /// the next fine tick, and a pre-scheduled `Call` at a tick instant
    /// ends rank 0's first wait. Returns every observation in dispatch
    /// order: `(time, rank)`, `Call`s as rank 9.
    fn lockstep_pollers(inline: bool) -> (Vec<(SimTime, usize)>, SimOutcome) {
        const SCHEDULES: [PollSchedule; 2] = [
            PollSchedule::new(SimDuration::nanos(50), 3, SimDuration::nanos(200)),
            PollSchedule::new(SimDuration::ZERO, 2, SimDuration::nanos(70)),
        ];
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicUsize::new(0));
        let mut sim = SimBuilder::new().build();
        {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            // 50 + 50 + 50 + 75: the instant of the fourth tick.
            sim.scheduler().schedule_at(SimTime(225), move |s| {
                log.lock().push((s.now(), 9));
                stop.store(1, Ordering::SeqCst);
            });
        }
        for r in 0..2usize {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            sim.spawn_rank(format!("r{r}"), move |ctx| {
                for (round, schedule) in SCHEDULES.into_iter().enumerate() {
                    let (tick_log, stop) = (Arc::clone(&log), Arc::clone(&stop));
                    busy_wait(&ctx, inline, schedule, move |s, tick| {
                        tick_log.lock().push((s.now(), r));
                        // Rank 0 waits for the Call first, rank 1 for a count.
                        let ready = if r == round {
                            stop.load(Ordering::SeqCst) == 1
                        } else {
                            tick == 5 + 3 * round as u32
                        };
                        if ready {
                            return PollOutcome::Ready;
                        }
                        let log = Arc::clone(&tick_log);
                        let call = move |s: &Scheduler| log.lock().push((s.now(), 9));
                        s.schedule_in(SimDuration::nanos(50), call);
                        PollOutcome::Worked
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
            // Ready on the first tick: resumes at the first step, body spent.
            ctx.poll_until(flat(40), |_, _| PollOutcome::Ready);
            assert_eq!(ctx.now(), SimTime(40));
            // Zero steps re-arm at the same instant, behind queued events.
            let fired = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&fired);
            ctx.poll_until(flat(0), move |s, tick| {
                if tick == 1 {
                    let fired = Arc::clone(&fired);
                    s.schedule_in(SimDuration::ZERO, move |_| {
                        fired.store(1, Ordering::SeqCst);
                    });
                }
                PollOutcome::of(tick == 3, true)
            });
            assert_eq!(ctx.now(), SimTime(40));
            assert_eq!(seen.load(Ordering::SeqCst), 1);
            // With no fine ticks the step grows from the first tick on:
            // 1, 2, 3, 4, 6, 9, 13 ns. The grant that ends each wait finds
            // the slot empty (the debug assertion in `dispatch`), so the
            // next wait can arm it.
            let growing = PollSchedule::new(SimDuration::nanos(1), 0, SimDuration::nanos(64));
            ctx.poll_until(growing, |_, tick| PollOutcome::of(tick == 7, true));
            assert_eq!(ctx.now(), SimTime(40 + 38));
        });
        let out = sim.run().unwrap();
        assert_eq!((out.wakes, out.polls, out.elided), (4, 2 + 6, 0));
        assert_eq!(out.events, out.wakes + out.polls + 1);
    }

    #[test]
    fn event_limit_trips_inside_a_poll_that_is_never_ready() {
        let mut sim = SimBuilder::new().max_events(10).build();
        sim.spawn_rank("spinner", |ctx| {
            ctx.poll_until(flat(1), |_, _| PollOutcome::Worked);
        });
        match sim.run() {
            Err(SimError::EventLimit(10)) => {}
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    /// A never-ready poller beside a rank that advances forever: the
    /// event budget runs out at the same event whether the poller's ticks
    /// run its body or are elided, so the spinner sees the same instants.
    #[test]
    fn elided_ticks_count_against_the_event_limit() {
        let run = |outcome: PollOutcome| {
            let mut sim = SimBuilder::new().max_events(500).build();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&seen);
            sim.spawn_rank("spinner", move |ctx| loop {
                log.lock().push(ctx.now());
                ctx.advance(SimDuration::nanos(170));
            });
            sim.spawn_rank("poller", move |ctx| {
                ctx.poll_until(flat(20), move |_, _| outcome);
            });
            let result = sim.run();
            let limited = matches!(result, Err(SimError::EventLimit(500)));
            assert!(limited, "{result:?}");
            let seen = std::mem::take(&mut *seen.lock());
            seen
        };
        let worked = run(PollOutcome::Worked);
        assert!(worked.len() > 50);
        assert_eq!(run(PollOutcome::Idle), worked);
    }

    #[test]
    fn a_poller_with_nothing_left_to_wait_for_is_a_deadlock() {
        let mut sim = SimBuilder::new().build();
        sim.spawn_rank("bystander", |ctx| ctx.advance(SimDuration::micros(1)));
        sim.spawn_rank("stuck-poller", |ctx| {
            ctx.poll_until(flat(50), |_, _| PollOutcome::Idle);
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["stuck-poller"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// MPI_Wait's schedule past its 100 fine ticks and 1,000 capped ones
    /// into the bulk tier, tick by tick against the loop arithmetic it
    /// encodes: once with a body that runs at every tick, once with one
    /// that says `Idle` and is woken at the last tick's instant by a
    /// `Call` queued before it. The second answers every tick in between
    /// by arithmetic, and both end at the same instant after the same
    /// events.
    #[test]
    fn elided_ticks_land_on_the_schedule_through_the_bulk_tier() {
        const LAST: u32 = 1_100;
        let mut want = Vec::new();
        let (mut t, mut step) = (0u64, 50u64);
        for tick in 1..=LAST {
            t += step;
            want.push((tick, SimTime(t)));
            if tick > 100 {
                step = (step * 3 / 2).min(if tick > 1_000 { 10_000 } else { 2_000 });
            }
        }
        let end = want[LAST as usize - 1].1;
        let run = |idle: bool| {
            let mut sim = SimBuilder::new().build();
            let go = Arc::new(AtomicUsize::new(0));
            let flip = Arc::clone(&go);
            sim.scheduler()
                .schedule_at(end, move |_| flip.store(1, Ordering::SeqCst));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&seen);
            sim.spawn_rank("waiter", move |ctx| {
                let wait = PollSchedule::new(SimDuration::nanos(50), 100, SimDuration::micros(2))
                    .with_bulk_tier(1_000, SimDuration::micros(10));
                ctx.poll_until(wait, move |s, tick| {
                    log.lock().push((tick, s.now()));
                    PollOutcome::of(go.load(Ordering::SeqCst) == 1, !idle)
                });
                assert_eq!(ctx.now(), end);
            });
            let out = sim.run().unwrap();
            let seen = std::mem::take(&mut *seen.lock());
            (seen, out)
        };
        let (every, worked) = run(false);
        assert_eq!(every, want);
        let (_, idle) = run(true);
        assert_eq!(worked.elided, 0);
        assert_eq!(idle.elided, LAST as u64 - 2, "ticks 2..LAST-1 are clean");
        assert_eq!(counts(&idle), counts(&worked));
        assert_eq!(idle.events, 1 + (LAST as u64 - 1) + 1 + 1);
    }

    /// One wait of a generated program.
    #[derive(Clone, Debug)]
    struct Wait {
        /// `(step, fine, cap)`, in ns and ticks.
        schedule: (u64, u32, u64),
        /// The rank whose flag the body bumps at its first unready tick,
        /// saying `Worked`.
        tick_bump: Option<usize>,
        /// The rank whose flag this rank bumps when the wait ends.
        resume_bump: Option<usize>,
        /// What the rank advances after the wait, in ns.
        after: u64,
    }

    /// Rank `r` runs `waits[r]`. Its `k`th wait is ready once rank `r`'s
    /// flag has been bumped more than `k` times: by a `Call` of `calls`
    /// `(instant, rank)`, by a body, or by a rank's own code right after
    /// it resumes. While not ready and with nothing to bump, `idle` bodies
    /// say `Idle` and the others `Worked`. Returns the readiness
    /// observations `(rank, instant)` in the order they were made, and the
    /// outcome.
    fn flag_pollers(
        waits: &[Vec<Wait>],
        calls: &[(u64, usize)],
        idle: bool,
    ) -> (Vec<(usize, SimTime)>, SimOutcome) {
        let flags: Arc<Vec<AtomicUsize>> =
            Arc::new(waits.iter().map(|_| AtomicUsize::new(0)).collect());
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = SimBuilder::new().build();
        for &(at, r) in calls {
            let flags = Arc::clone(&flags);
            sim.scheduler().schedule_at(SimTime(at), move |_| {
                flags[r].fetch_add(1, Ordering::SeqCst);
            });
        }
        for (r, waits) in waits.iter().enumerate() {
            let (flags, log, waits) = (Arc::clone(&flags), Arc::clone(&log), waits.clone());
            sim.spawn_rank(format!("r{r}"), move |ctx| {
                for (k, wait) in waits.into_iter().enumerate() {
                    let (step, fine, cap) = wait.schedule;
                    let (step, cap) = (SimDuration::nanos(step), SimDuration::nanos(cap));
                    let schedule = PollSchedule::new(step, fine, cap);
                    let (seen, log) = (Arc::clone(&flags), Arc::clone(&log));
                    let mut tick_bump = wait.tick_bump;
                    ctx.poll_until(schedule, move |s, _| {
                        if seen[r].load(Ordering::SeqCst) > k {
                            log.lock().push((r, s.now()));
                            return PollOutcome::Ready;
                        }
                        if let Some(j) = tick_bump.take() {
                            seen[j].fetch_add(1, Ordering::SeqCst);
                            return PollOutcome::Worked;
                        }
                        PollOutcome::of(false, !idle)
                    });
                    if let Some(j) = wait.resume_bump {
                        flags[j].fetch_add(1, Ordering::SeqCst);
                    }
                    ctx.advance(SimDuration::nanos(wait.after));
                }
            });
        }
        let out = sim.run().unwrap();
        let log = std::mem::take(&mut *log.lock());
        (log, out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Idle bodies woken by `Call`s on a 25 ns grid — the grid of the
        /// schedules' fine ticks, several `Call`s to an instant — by other
        /// bodies and by other ranks' code see what bodies that never say
        /// `Idle` see, when they see it, and the run counts the same
        /// events.
        #[test]
        fn elided_ticks_change_no_observation(
            waits in proptest::collection::vec(
                proptest::collection::vec(
                    ((0u64..4, 0u32..4, 0u64..4), (0usize..6, 0usize..6), 0u64..4),
                    1..4,
                ),
                1..5,
            ),
            bursts in proptest::collection::vec((0u64..40, 0usize..4, 1usize..4), 0..12),
        ) {
            let nranks = waits.len();
            let waits: Vec<Vec<Wait>> = (waits.into_iter())
                .map(|w| {
                    (w.into_iter())
                        .map(|((step, fine, extra), (tick_bump, resume_bump), after)| {
                            let step = 25 * step;
                            Wait {
                                schedule: (step, fine, step.max(25) + 25 * extra),
                                tick_bump: Some(tick_bump).filter(|&j| j < nranks),
                                resume_bump: Some(resume_bump).filter(|&j| j < nranks),
                                after: 25 * after,
                            }
                        })
                        .collect()
                })
                .collect();
            let mut calls: Vec<(u64, usize)> = Vec::new();
            for (slot, r, n) in bursts {
                calls.extend(std::iter::repeat_n((25 * slot, r % waits.len()), n));
            }
            // Every wait gets its bump, the late ones after every burst.
            for (r, w) in waits.iter().enumerate() {
                for k in 0..w.len() {
                    calls.push((1_000 + 25 * (r + k) as u64, r));
                }
            }
            let (worked_log, worked) = flag_pollers(&waits, &calls, false);
            let (idle_log, idle) = flag_pollers(&waits, &calls, true);
            proptest::prop_assert_eq!(&idle_log, &worked_log);
            proptest::prop_assert_eq!(counts(&idle), counts(&worked));
            proptest::prop_assert_eq!(worked.elided, 0);
        }
    }

    #[test]
    fn panicking_poll_body_is_a_rank_panic() {
        let mut sim = SimBuilder::new().build();
        sim.spawn_rank("bystander", |ctx| ctx.advance(SimDuration::micros(1)));
        sim.spawn_rank("poller", |ctx| {
            ctx.poll_until(flat(5), move |_, tick| {
                assert!(tick < 3, "tick {tick} went wrong");
                PollOutcome::Worked
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

    type Log = Arc<Mutex<Vec<&'static str>>>;

    /// Two ranks at 0 each schedule, for 1 µs, a `Call` and the standing
    /// handler `H` (in opposite orders), then park until 1 µs. With
    /// `handler` false a `Call` logging "H" takes the handler's place.
    /// Returns the log, the outcome and the `DispatchCall`s recorded.
    fn same_instant_mix(handler: bool) -> (Vec<&'static str>, SimOutcome, usize) {
        let rec = obs::Recorder::new(obs::ObsConfig {
            spans: true,
            ..Default::default()
        });
        let mut sim = SimBuilder::new().with_recorder(&rec).build();
        let log: Log = Arc::default();
        let l = Arc::clone(&log);
        let h = sim
            .scheduler()
            .register_handler(move |_| l.lock().push("H"));
        let at = SimDuration::micros(1);
        let schedule_h = move |s: &Scheduler, log: &Log| {
            if handler {
                s.schedule_handler_in(at, h);
            } else {
                let l = Arc::clone(log);
                s.schedule_in(at, move |_| l.lock().push("H"));
            }
        };
        let call = move |s: &Scheduler, log: &Log, what: &'static str| {
            let l = Arc::clone(log);
            s.schedule_in(at, move |_| l.lock().push(what));
        };
        let l = Arc::clone(&log);
        sim.spawn_rank("r0", move |ctx| {
            call(&ctx.scheduler(), &l, "A");
            schedule_h(&ctx.scheduler(), &l);
            ctx.advance(at);
            l.lock().push("r0");
        });
        let l = Arc::clone(&log);
        sim.spawn_rank("r1", move |ctx| {
            schedule_h(&ctx.scheduler(), &l);
            call(&ctx.scheduler(), &l, "B");
            ctx.advance(at);
            l.lock().push("r1");
        });
        let out = sim.run().unwrap();
        let calls = (rec.events().iter())
            .filter(|e| {
                matches!(
                    e.scope,
                    obs::Scope::Engine {
                        ev: obs::EngineEvent::DispatchCall
                    }
                )
            })
            .count();
        let order = log.lock().clone();
        (order, out, calls)
    }

    #[test]
    fn a_standing_handler_dispatches_like_a_call() {
        let (order, out, calls) = same_instant_mix(true);
        assert_eq!(order, ["A", "H", "r0", "H", "B", "r1"], "(time, seq) order");
        let (boxed_order, boxed, boxed_calls) = same_instant_mix(false);
        assert_eq!(order, boxed_order);
        assert_eq!(
            counts(&out),
            counts(&boxed),
            "counted in events as a call is"
        );
        assert_eq!(calls, boxed_calls);
        assert_eq!(calls, 4, "A, B and two handler runs are DispatchCalls");
    }

    #[test]
    fn a_handler_scheduled_twice_runs_twice() {
        let mut sim = SimBuilder::new().build();
        let runs = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&runs);
        sim.spawn_rank("registrar", move |ctx| {
            let sched = ctx.scheduler();
            let h = sched.register_handler(move |s| r.lock().push(s.now()));
            sched.schedule_handler_in(SimDuration::nanos(500), h);
            sched.schedule_handler_in(SimDuration::nanos(500), h);
            ctx.advance(SimDuration::micros(1));
            sched.schedule_handler_in(SimDuration::ZERO, h);
            ctx.yield_now();
        });
        sim.run().unwrap();
        assert_eq!(*runs.lock(), [SimTime(500), SimTime(500), SimTime(1_000)]);
    }

    #[test]
    fn registering_a_handler_inside_the_loop_panics_instead_of_deadlocking() {
        let sim = SimBuilder::new().build();
        sim.scheduler().schedule_at(SimTime::ZERO, |s| {
            s.register_handler(|_| {});
        });
        let payload = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("the registration's panic reaches the caller");
        assert!(
            panic_message(&*payload).starts_with("register_handler called from inside"),
            "{}",
            panic_message(&*payload)
        );
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
            ctx.scheduler().schedule_in(SimDuration::ZERO, move |_| {
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
            // A standing handler that owns a handle on the core.
            let held = sim.scheduler();
            sim.scheduler().register_handler(move |_| {
                let _ = held.now();
            });
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
