//! The handle a rank program uses to interact with the simulation.

use std::marker::PhantomData;
use std::panic;
use std::sync::Arc;

use crate::engine::{PollSlot, RankId, Scheduler, SimCore, TornDown};
use crate::fiber::Context;
use crate::time::{SimDuration, SimTime};

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
    core: Arc<SimCore>,
    rank: RankId,
    ctx: Arc<Context>,
    poll: PollSlot,
    /// `!Send` and `!Sync`: the context belongs to the simulation's thread.
    _thread_bound: PhantomData<*const ()>,
}

impl RankCtx {
    pub(crate) fn new(core: Arc<SimCore>, rank: RankId, ctx: Arc<Context>, poll: PollSlot) -> Self {
        RankCtx {
            core,
            rank,
            ctx,
            poll,
            _thread_bound: PhantomData,
        }
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
        Scheduler::new(Arc::clone(&self.core))
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
    /// `body` called once per poll tick — first at `now + first` — until it
    /// returns `None`, which resumes the rank at that tick's instant.
    /// `Some(d)` asks for the next tick `d` later.
    ///
    /// Simulated behaviour is exactly that of the loop
    /// `let mut d = first; loop { self.advance(d); match body(..) { Some(n) => d = n, None => break } }`
    /// — the same events at the same `(time, seq)` — but the ticks run in
    /// the dispatch loop, in whichever context holds the token, so the
    /// whole wait resumes the rank once instead of once per tick. `body`
    /// must therefore own what it touches (hence `Send + 'static`) and
    /// cannot block; if it panics, the run fails with
    /// [`crate::SimError::RankPanic`] naming this rank.
    pub fn poll_until(
        &self,
        first: SimDuration,
        body: impl FnMut(&Scheduler) -> Option<SimDuration> + Send + 'static,
    ) {
        let armed = self.poll.lock().replace(Box::new(body));
        debug_assert!(armed.is_none(), "{} is already polling", self.rank);
        self.advance(first);
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
        if !self.core.torn_down() {
            self.core.hand_off(Some(self.rank), &self.ctx);
        }
        if self.core.torn_down() {
            // `Sim::run` is tearing the simulation down (deadlock/panic
            // path): unwind this context silently, past the panic hook.
            panic::resume_unwind(Box::new(TornDown));
        }
    }

    /// Where this rank is suspended while it does not hold the token.
    pub(crate) fn context(&self) -> &Arc<Context> {
        &self.ctx
    }
}
