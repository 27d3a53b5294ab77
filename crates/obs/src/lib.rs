//! # obs — structured message-lifecycle observability
//!
//! The observability substrate of the stack: typed per-message lifecycle
//! **spans** and **exporters** (JSONL, Chrome trace-event format, a
//! per-phase latency breakdown) — typed events that trace-driven
//! invariant tests can assert on. Counts live beside them, typed too: each
//! layer's own counter struct (`NmStats`, the fault and copy counters),
//! gathered on `RunOutcome`. There is no string-keyed registry.
//!
//! ## Span model
//!
//! Every MPI message on the NewMadeleine bypass path is identified by a
//! [`MsgKey`] — `(src, dst, tag, seq)`, where `seq` is the sender-assigned
//! per-`(dst, tag)` sequence number (the same number the reorder buffer
//! matches on, so both ends agree on it). A message's *span* is the set of
//! [`Event`]s carrying its key, ordered by simulated time:
//!
//! ```text
//! posted → matched → eager_tx → eager_rx → completed            (eager)
//! posted → matched → rts_tx → rts_rx → cts_tx → cts_rx
//!        → chunk_tx[rail]* → chunk_rx* → fin_tx → fin_rx → completed  (rdv)
//! ```
//!
//! plus retry / reroute / credit-stall annotations. Events that belong to
//! the machinery rather than one message — NIC transfers, PIOMan kicks,
//! shared-memory fragment copies, credit debits/refills, engine dispatch —
//! are [`EngineEvent`]s in the same stream.
//!
//! ## Determinism rules
//!
//! The simulation is logically single-threaded (one execution token), so
//! the recorder's append order is itself deterministic: the same seed must
//! produce a bit-identical event stream. Exporters additionally sort
//! canonically (by `(time, rank, scope)`) before hashing so the golden-
//! trace tests do not depend on incidental append order. Recording is
//! strictly observational: enabling or disabling the recorder must never
//! change protocol behaviour, and every instrumentation site is guarded so
//! the disabled path allocates nothing.
//!
//! This crate sits at the bottom of the dependency stack (below `simnet`)
//! and therefore speaks raw `u64` nanoseconds rather than `SimTime`.

pub mod export;
pub mod span;

pub use export::{trace_hash, PhaseBreakdown, Report};
pub use span::{
    EngineEvent, Event, MsgKey, Phase, RankRec, Recorder, RetryKind, Scope, Side, Validator,
    ENGINE_RANK,
};

/// Observability configuration — off by default, zero-allocation when off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-message lifecycle spans and engine events.
    pub spans: bool,
    /// Conformance mode: feed every recorded span event through an
    /// installed validator (see [`Recorder::set_validator`]) that checks
    /// the transition against the protocol state table. Requires `spans`.
    /// Validation is strictly observational — it never changes protocol
    /// behaviour — but a violation is collected and surfaced at the end
    /// of the run, so every traced seed sweep doubles as a conformance
    /// test of the table the model explorer proves.
    pub conformance: bool,
}

impl ObsConfig {
    /// Everything on, including table-conformance validation.
    pub fn full() -> ObsConfig {
        ObsConfig {
            spans: true,
            conformance: true,
        }
    }

    /// Spans without conformance validation.
    pub fn recording_only() -> ObsConfig {
        ObsConfig {
            spans: true,
            conformance: false,
        }
    }

    /// Is any recording requested at all?
    pub fn enabled(&self) -> bool {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_event(cfg: ObsConfig) -> usize {
        let rec = Recorder::new(cfg);
        RankRec::new(Some(&rec), 0).engine(1, EngineEvent::PiomRekick);
        rec.events().len()
    }

    #[test]
    fn presets_are_off_spans_and_spans_with_conformance() {
        let off = ObsConfig::default();
        assert!(!off.enabled());
        assert_eq!(one_event(off), 0);

        let rec = ObsConfig::recording_only();
        assert!(rec.enabled() && rec.spans && !rec.conformance);
        assert_eq!(one_event(rec), 1);

        let full = ObsConfig::full();
        assert!(full.spans && full.conformance);
        assert_eq!(one_event(full), 1);
    }
}
