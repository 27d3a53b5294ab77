//! The cadence of an app-polling wait.
//!
//! A rank that waits without PIOMan busy-polls: one progress cycle per
//! tick of a [`PollBackoff`], on the rank's simulated clock. The ticks
//! run where events are dispatched ([`RankCtx::poll_until`]), so a
//! wait costs the simulator one event per tick and no thread switch.

use simnet::{RankCtx, Scheduler, SimDuration};

/// Number of fine-grained polls before a waiting rank starts backing off.
/// Covers ~5 µs at the default 50 ns granularity — several times any
/// calibrated small-message latency.
const FINE_POLLS: u32 = 100;

/// Ceiling on the poll back-off step. Bounds the timing error of long
/// waits to ~2 µs (negligible against the millisecond transfers that
/// reach it) while keeping event counts tractable.
const MAX_POLL_BACKOFF: SimDuration = SimDuration::micros(2);

/// Waits that survive this many polls (≈ 2 ms of simulated spinning) are
/// bulk transfers; their step may grow to [`BULK_POLL_BACKOFF`] (0.1 %
/// error on a 10 ms transfer) so NAS-scale volumes stay cheap to simulate.
const BULK_POLLS: u32 = 1_000;
const BULK_POLL_BACKOFF: SimDuration = SimDuration::micros(10);

/// The cadence of one app-polling wait: `fine` ticks at the initial step
/// (so small-message latencies resolve at full precision), then ×3/2 per
/// tick up to `cap` — long waits would otherwise drown the simulator in
/// poll events. The back-off only starts well past any calibrated latency,
/// so it never perturbs the Netpipe figures.
pub(crate) struct PollBackoff {
    polls: u32,
    step: SimDuration,
    fine: u32,
    cap: SimDuration,
    /// `(ticks, cap)`: past this many ticks the cap rises to the second.
    bulk: Option<(u32, SimDuration)>,
}

impl PollBackoff {
    /// The schedule of every wait that is not a bulk transfer: back off
    /// after [`FINE_POLLS`] ticks, up to [`MAX_POLL_BACKOFF`].
    pub(crate) fn new(step: SimDuration) -> Self {
        PollBackoff {
            polls: 0,
            step,
            fine: FINE_POLLS,
            cap: MAX_POLL_BACKOFF,
            bulk: None,
        }
    }

    /// `MPI_Wait`'s schedule: waits that survive [`BULK_POLLS`] ticks may
    /// grow on to [`BULK_POLL_BACKOFF`].
    pub(crate) fn with_bulk_tier(step: SimDuration) -> Self {
        PollBackoff {
            bulk: Some((BULK_POLLS, BULK_POLL_BACKOFF)),
            ..Self::new(step)
        }
    }

    /// `MPI_Finalize`'s schedule: its loop gated growth on the index
    /// *before* the increment, so it starts one tick later.
    pub(crate) fn late_by_one(step: SimDuration) -> Self {
        PollBackoff {
            fine: FINE_POLLS + 1,
            ..Self::new(step)
        }
    }

    /// A fixed cadence.
    pub(crate) fn flat(step: SimDuration) -> Self {
        PollBackoff {
            cap: step,
            ..Self::new(step)
        }
    }

    /// Account one elapsed tick and grow the step if it is due: by half,
    /// and by at least a nanosecond, so a 0 or 1 ns cadence backs off too
    /// instead of re-ticking one instant forever.
    fn tick(&mut self) {
        self.polls = self.polls.saturating_add(1);
        if self.polls > self.fine {
            let cap = match self.bulk {
                Some((after, cap)) if self.polls > after => cap,
                _ => self.cap,
            };
            let step = self.step.as_nanos();
            self.step = SimDuration::nanos((step * 3 / 2).max(step + 1).min(cap.as_nanos()));
        }
    }

    /// Busy-wait on this schedule: check `ready` now, then once per tick,
    /// until it holds. Only the first check runs on the calling rank's
    /// thread; the ticks run where events are dispatched
    /// ([`RankCtx::poll_until`]), so `ready` owns what it needs.
    pub(crate) fn poll(
        mut self,
        ctx: &RankCtx,
        mut ready: impl FnMut(&Scheduler) -> bool + Send + 'static,
    ) {
        if ready(&ctx.scheduler()) {
            return;
        }
        ctx.poll_until(self.step, move |s| {
            self.tick();
            if ready(s) {
                None
            } else {
                Some(self.step)
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each schedule against the arithmetic of the loop it replaced, tick
    /// by tick (`polls` is that loop's counter after its increment).
    #[test]
    fn backoff_schedules_are_the_replaced_loops() {
        let gran = SimDuration::nanos(50);
        let grow = |step: &mut u64, cap: u64| *step = (*step * 3 / 2).min(cap);
        let mut wait = PollBackoff::with_bulk_tier(gran);
        let mut probe = PollBackoff::new(gran);
        let mut finalize = PollBackoff::late_by_one(gran);
        let mut flat = PollBackoff::flat(SimDuration::nanos(500));
        let (mut w, mut p, mut f) = (50u64, 50u64, 50u64);
        for polls in 1..=1_200u32 {
            if polls > 100 {
                grow(&mut w, if polls > 1_000 { 10_000 } else { 2_000 });
                grow(&mut p, 2_000);
            }
            if polls - 1 > 100 {
                grow(&mut f, 2_000);
            }
            for (b, want) in [
                (&mut wait, w),
                (&mut probe, p),
                (&mut finalize, f),
                (&mut flat, 500),
            ] {
                b.tick();
                assert_eq!(b.step, SimDuration::nanos(want), "tick {polls}");
            }
        }
        assert_eq!((w, p, f), (10_000, 2_000, 2_000));
    }

    /// Below 2 ns, `step * 3 / 2` is the step itself: the growth floor of
    /// one nanosecond is what lets a 0 or 1 ns cadence back off at all.
    #[test]
    fn sub_two_nanosecond_steps_still_grow() {
        for gran in [0, 1] {
            let mut b = PollBackoff::new(SimDuration::nanos(gran));
            let mut steps = Vec::new();
            for _ in 0..FINE_POLLS + 6 {
                b.tick();
                steps.push(b.step.as_nanos());
            }
            let grown = &steps[FINE_POLLS as usize..];
            let want: &[u64] = if gran == 0 {
                &[1, 2, 3, 4, 6, 9]
            } else {
                &[2, 3, 4, 6, 9, 13]
            };
            assert_eq!(grown, want, "gran {gran}");
            assert!(steps[..FINE_POLLS as usize].iter().all(|&s| s == gran));
        }
    }
}
