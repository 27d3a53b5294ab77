//! The handle a rank program uses to interact with the simulation.

use std::panic;
use std::rc::Rc;

use crate::backoff::PollSchedule;
use crate::engine::{Poller, RankId, Scheduler, SimCore, TornDown};
use crate::fiber::Context;
use crate::time::{SimDuration, SimTime};

/// What a poll body found at its tick (see [`RankCtx::poll_until`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// The wait is over: the rank resumes at this tick's instant.
    Ready,
    /// The body read state and changed nothing, so every later tick would
    /// say the same until something else runs.
    Idle,
    /// The body may have changed state.
    Worked,
}

impl PollOutcome {
    /// `Ready` if `ready`, otherwise `Worked` or `Idle` as `worked` says.
    #[inline]
    pub fn of(ready: bool, worked: bool) -> Self {
        match (ready, worked) {
            (true, _) => PollOutcome::Ready,
            (false, true) => PollOutcome::Worked,
            (false, false) => PollOutcome::Idle,
        }
    }
}

/// Per-rank simulation context, passed by value to the rank's program
/// closure. Not `Clone`: the token protocol requires a single blocking
/// entry point per rank.
///
/// Not `Send` either: a rank is a user-level context on the OS thread
/// running the simulation, and parking it anywhere else would switch
/// stacks under another thread's feet.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<simnet::RankCtx>();
/// ```
pub struct RankCtx {
    core: Rc<SimCore>,
    rank: RankId,
    ctx: Rc<Context>,
}

impl RankCtx {
    pub(crate) fn new(core: Rc<SimCore>, rank: RankId, ctx: Rc<Context>) -> Self {
        RankCtx { core, rank, ctx }
    }

    /// This rank's identifier.
    #[inline]
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// A scheduler handle for posting events from rank code.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(Rc::clone(&self.core))
    }

    /// Advance this rank's local time by `d` — models computation (or any
    /// fixed software cost) taking `d` of CPU time. Other ranks and
    /// background events run in the meantime.
    pub fn advance(&self, d: SimDuration) {
        let sched = self.scheduler();
        sched.wake_rank_at(self.now() + d, self.rank);
        self.park();
    }

    /// Alias for [`RankCtx::advance`] that reads naturally in application
    /// kernels ("compute for 20 µs, then wait", §4.1.2).
    #[inline]
    pub fn compute(&self, d: SimDuration) {
        self.advance(d);
    }

    /// Busy-wait without the host paying for it: block this rank and have
    /// `body` called at the ticks of `schedule` — the first one
    /// `schedule.step()` from now — until it says [`PollOutcome::Ready`],
    /// which resumes the rank at that tick's instant. The body's second
    /// argument is the tick's number, from 1, in [`PollSchedule::ticks`].
    ///
    /// Simulated behaviour is exactly that of the loop
    /// `loop { self.advance(s.step()); s.tick(); if body(.., s.ticks()) == Ready { break } }`
    /// — the same events at the same `(time, seq)` — but the ticks run in
    /// the dispatch loop, in whichever context holds the token, so the
    /// whole wait resumes the rank once instead of once per tick.
    ///
    /// A body that says [`PollOutcome::Idle`] promises that it changed
    /// nothing and that it would say so again until the dispatch loop runs
    /// a `Call`, resumes a rank or runs a body that did not say `Idle`.
    /// Until then the loop answers this rank's ticks by arithmetic, without
    /// calling the body: each still takes its instant and sequence number,
    /// counts in [`crate::SimOutcome::events`] and `polls`, and counts in
    /// [`crate::SimOutcome::elided`]. Debug builds call the body anyway and
    /// assert that it says `Idle`. A body whose verdict could change with
    /// the tick number alone must never say `Idle`: once it has, the loop
    /// stops calling it. When nothing but such elided ticks is left, the
    /// run ends in [`crate::SimError::Deadlock`].
    ///
    /// `body` must own what it touches (hence `'static`) and cannot block;
    /// if it panics, the run fails with [`crate::SimError::RankPanic`]
    /// naming this rank.
    pub fn poll_until(
        &self,
        schedule: PollSchedule,
        body: impl FnMut(&Scheduler, u32) -> PollOutcome + 'static,
    ) {
        self.scheduler()
            .wake_rank_at(self.now() + schedule.step(), self.rank);
        self.park_with(Some(Poller::new(schedule, body)));
    }

    /// Give other same-instant events a chance to run, then resume.
    pub fn yield_now(&self) {
        self.advance(SimDuration::ZERO);
    }

    /// Block until some event wakes this rank. Used by blocking primitives
    /// ([`crate::sem::SimSemaphore`]); the waker must have arranged for
    /// exactly one wake event targeting this rank.
    ///
    /// The rank runs the dispatch loop itself: when the next wake is its
    /// own it returns without a switch, otherwise it switches into the
    /// rank that is due and returns when some context switches back.
    pub(crate) fn park(&self) {
        self.park_with(None);
    }

    /// [`RankCtx::park`], leaving `poller` to answer this rank's ticks.
    fn park_with(&self, poller: Option<Poller>) {
        if !self.core.torn_down() {
            self.core.hand_off(Some(self.rank), &self.ctx, poller);
        }
        if self.core.torn_down() {
            // `Sim::run` is tearing the simulation down (deadlock/panic
            // path): unwind this context silently, past the panic hook.
            panic::resume_unwind(Box::new(TornDown));
        }
    }

    /// Where this rank is suspended while it does not hold the token.
    pub(crate) fn context(&self) -> &Rc<Context> {
        &self.ctx
    }
}
