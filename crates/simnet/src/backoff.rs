//! The cadence of a polling wait.
//!
//! A rank parked in [`crate::RankCtx::poll_until`] is ticked on a
//! [`PollSchedule`]. The dispatch loop owns the schedule, not the poll
//! body, so it can advance a tick by arithmetic alone: a tick whose body
//! is known to find nothing (`engine`'s clean rule) costs no call, no
//! queue push and no pop, and lands at the instant and sequence number it
//! would have had.

use crate::time::SimDuration;

/// When the ticks of one polling wait fall: `fine` ticks at the first
/// step (so short waits resolve at full precision), then ×3/2 per tick,
/// and by at least a nanosecond, up to `cap`. A bulk tier lets waits that
/// survive long enough grow on to a second, higher cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollSchedule {
    step: SimDuration,
    ticks: u32,
    fine: u32,
    cap: SimDuration,
    /// `(ticks, cap)`: past this many ticks the cap rises to the second.
    bulk: Option<(u32, SimDuration)>,
}

impl PollSchedule {
    /// `fine` ticks `step` apart, then growth up to `cap`.
    pub const fn new(step: SimDuration, fine: u32, cap: SimDuration) -> Self {
        PollSchedule {
            step,
            ticks: 0,
            fine,
            cap,
            bulk: None,
        }
    }

    /// Past `after` ticks the step may grow on to `cap`.
    pub const fn with_bulk_tier(self, after: u32, cap: SimDuration) -> Self {
        PollSchedule {
            bulk: Some((after, cap)),
            ..self
        }
    }

    /// The gap from the last tick (or from the park, before the first) to
    /// the next.
    #[inline]
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Ticks elapsed so far, answered with or without their body.
    #[inline]
    pub fn ticks(&self) -> u32 {
        self.ticks
    }

    /// Account one elapsed tick and grow the step if it is due: by half,
    /// and by at least a nanosecond, so a 0 or 1 ns cadence backs off too
    /// instead of re-ticking one instant forever.
    #[inline]
    pub(crate) fn tick(&mut self) {
        self.ticks = self.ticks.saturating_add(1);
        if self.ticks > self.fine {
            let cap = match self.bulk {
                Some((after, cap)) if self.ticks > after => cap,
                _ => self.cap,
            };
            let step = self.step.as_nanos();
            self.step = SimDuration::nanos((step * 3 / 2).max(step + 1).min(cap.as_nanos()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRAN: SimDuration = SimDuration::nanos(50);
    const CAP: SimDuration = SimDuration::micros(2);

    /// The four schedules the MPI layer builds (`MPI_Wait`'s with the bulk
    /// tier, probe's, `MPI_Finalize`'s one tick late, a flat one) against
    /// the arithmetic of the loops they replaced, tick by tick (`ticks` is
    /// that loop's counter after its increment).
    #[test]
    fn backoff_schedules_are_the_replaced_loops() {
        let grow = |step: &mut u64, cap: u64| *step = (*step * 3 / 2).min(cap);
        let bulk = SimDuration::micros(10);
        let mut wait = PollSchedule::new(GRAN, 100, CAP).with_bulk_tier(1_000, bulk);
        let mut probe = PollSchedule::new(GRAN, 100, CAP);
        let mut finalize = PollSchedule::new(GRAN, 101, CAP);
        let flat_step = SimDuration::nanos(500);
        let mut flat = PollSchedule::new(flat_step, 100, flat_step);
        let (mut w, mut p, mut f) = (50u64, 50u64, 50u64);
        for ticks in 1..=1_200u32 {
            if ticks > 100 {
                grow(&mut w, if ticks > 1_000 { 10_000 } else { 2_000 });
                grow(&mut p, 2_000);
            }
            if ticks - 1 > 100 {
                grow(&mut f, 2_000);
            }
            for (b, want) in [
                (&mut wait, w),
                (&mut probe, p),
                (&mut finalize, f),
                (&mut flat, 500),
            ] {
                b.tick();
                assert_eq!(b.step(), SimDuration::nanos(want), "tick {ticks}");
                assert_eq!(b.ticks(), ticks);
            }
        }
        assert_eq!((w, p, f), (10_000, 2_000, 2_000));
    }

    /// Below 2 ns, `step * 3 / 2` is the step itself: the growth floor of
    /// one nanosecond is what lets a 0 or 1 ns cadence back off at all.
    #[test]
    fn sub_two_nanosecond_steps_still_grow() {
        const FINE: u32 = 100;
        for gran in [0, 1] {
            let mut b = PollSchedule::new(SimDuration::nanos(gran), FINE, CAP);
            let mut steps = Vec::new();
            for _ in 0..FINE + 6 {
                b.tick();
                steps.push(b.step().as_nanos());
            }
            let grown = &steps[FINE as usize..];
            let want: &[u64] = if gran == 0 {
                &[1, 2, 3, 4, 6, 9]
            } else {
                &[2, 3, 4, 6, 9, 13]
            };
            assert_eq!(grown, want, "gran {gran}");
            assert!(steps[..FINE as usize].iter().all(|&s| s == gran));
        }
    }
}
