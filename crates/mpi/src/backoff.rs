//! The cadence of an app-polling wait.
//!
//! A rank that waits without PIOMan busy-polls: one progress cycle per
//! tick of a [`PollSchedule`], on the rank's simulated clock. The
//! schedule's arithmetic lives in simnet, whose dispatch loop ticks it
//! ([`simnet::RankCtx::poll_until`]); this module only picks the MPI
//! layer's parameters.

use simnet::{PollSchedule, SimDuration};

/// Number of fine-grained polls before a waiting rank starts backing off.
/// Covers ~5 µs at the default 50 ns granularity — several times any
/// calibrated small-message latency.
const FINE_POLLS: u32 = 100;

/// Ceiling on the poll back-off step. Bounds the timing error of long
/// waits to ~2 µs (negligible against the millisecond transfers that
/// reach it) while keeping event counts tractable. The back-off only
/// starts well past any calibrated latency, so it never perturbs the
/// Netpipe figures.
const MAX_POLL_BACKOFF: SimDuration = SimDuration::micros(2);

/// Waits that survive this many polls (≈ 2 ms of simulated spinning) are
/// bulk transfers; their step may grow to [`BULK_POLL_BACKOFF`] (0.1 %
/// error on a 10 ms transfer) so NAS-scale volumes stay cheap to simulate.
const BULK_POLLS: u32 = 1_000;
const BULK_POLL_BACKOFF: SimDuration = SimDuration::micros(10);

/// The schedule of every wait that is not a bulk transfer: back off
/// after [`FINE_POLLS`] ticks, up to [`MAX_POLL_BACKOFF`].
pub(crate) fn standard(step: SimDuration) -> PollSchedule {
    PollSchedule::new(step, FINE_POLLS, MAX_POLL_BACKOFF)
}

/// `MPI_Wait`'s schedule: waits that survive [`BULK_POLLS`] ticks may
/// grow on to [`BULK_POLL_BACKOFF`].
pub(crate) fn with_bulk_tier(step: SimDuration) -> PollSchedule {
    standard(step).with_bulk_tier(BULK_POLLS, BULK_POLL_BACKOFF)
}

/// `MPI_Finalize`'s schedule: its loop gated growth on the index
/// *before* the increment, so it starts one tick later.
pub(crate) fn late_by_one(step: SimDuration) -> PollSchedule {
    PollSchedule::new(step, FINE_POLLS + 1, MAX_POLL_BACKOFF)
}

/// A fixed cadence.
pub(crate) fn flat(step: SimDuration) -> PollSchedule {
    PollSchedule::new(step, FINE_POLLS, step)
}
