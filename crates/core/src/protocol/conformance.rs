//! # Trace conformance against the protocol table
//!
//! Replays a recorded obs span stream through [`super::TABLE`], turning
//! every traced run into a conformance test: each rendezvous-phase event
//! must correspond to a legal transition (or declared ignore) of the
//! table. Installed as the
//! [`obs::Validator`] hook when [`obs::ObsConfig::conformance`] is set,
//! so every seed-sweep suite that runs with `ObsConfig::full()` checks
//! conformance incrementally as events are recorded; [`check_events`] is
//! the post-hoc form for trace-driven invariant tests.
//!
//! ## What the trace shows (and what it hides)
//!
//! The simulation is logically single-threaded, so the recorder's append
//! order respects global simulated time and events of one message arrive
//! in causal order. Core traces speak the *pipelined* dialect only
//! (`buffered`/`ack_mode` never hold — CH3's buffered rendezvous is
//! exercised by `mpi-ch3`'s `ch3::explore` and CH3's own unit tests, not
//! by obs spans). One protocol event is locally invisible: the final DATA
//! chunk's NIC completion ([`super::Event::LastChunkSent`]) records no
//! phase. The checker infers it at its observable successors — a
//! `Retry { Data }` implies the sender reached `SWaitFin`, and a
//! no-retry `Completed { Send }` implies `sent/complete` fired — so a
//! sender FIN may legally validate against `fin/early` where the runtime
//! took `fin/confirmed`; both are table rows, and which one a trace
//! proves is irrelevant to conformance.
//!
//! Replayed wire events are tied 1:1 to their announcing `Retry` span
//! events with pending counters: a replayed `RtsTx`/`CtsTx`/
//! `DataChunkTx` without a preceding `Retry { Rts|Cts|Data }` on the
//! same key is a violation — exactly the duplicate-RTS replay invariant
//! the trace suite asserts.

use std::collections::HashMap;
use std::sync::Arc;

use obs::{Event as ObsEvent, MsgKey, Phase, RetryKind, Scope, Side};

use super::{step, Action, Ctx, Event, State, Verdict, IGNORES};

/// Checker view of one message's rendezvous flow.
#[derive(Clone, Debug, Default)]
struct Flow {
    s: Option<State>,
    r: Option<State>,
    /// Announced payload length (from `RtsTx`).
    total: Option<u64>,
    /// Merged receiver coverage intervals.
    ranges: Vec<(u64, u64)>,
    /// The send stalled on eager credits before entering rendezvous.
    credit_stalled: bool,
    /// Outstanding announced replays awaiting their wire event.
    pending_rts_replay: u32,
    pending_cts_replay: u32,
    pending_data_replay: u32,
    /// The initial CTS wire event was consumed (replays need an
    /// announcement; the original does not).
    cts_sent: bool,
    /// The table emitted the completion action for this side.
    s_done: bool,
    r_done: bool,
    /// `Completed` phases consumed (exactly one per side).
    s_completed: bool,
    r_completed: bool,
}

impl Flow {
    fn sender(&self) -> State {
        self.s.unwrap_or(State::Gone)
    }
    fn receiver(&self) -> State {
        self.r.unwrap_or(State::Gone)
    }
    /// Did this flow take the rendezvous path at all?
    fn is_rdv(&self) -> bool {
        self.s.is_some() || self.r.is_some()
    }
}

/// Incremental trace-conformance checker for core (pipelined) traces.
/// `Clone`, so an explorer can carry one along each path it forks.
#[derive(Clone)]
pub struct TraceChecker {
    retry: bool,
    flows: HashMap<MsgKey, Flow>,
}

fn merge(ranges: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    ranges.push((start, end));
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for &(s, e) in ranges.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    *ranges = out;
}

fn covered(ranges: &[(u64, u64)], total: u64) -> bool {
    ranges.len() == 1 && ranges[0] == (0, total)
}

impl TraceChecker {
    pub fn new(retry: bool) -> TraceChecker {
        TraceChecker {
            retry,
            flows: HashMap::new(),
        }
    }

    fn ctx(retry: bool, flow: &Flow, in_range: bool, last: bool) -> Ctx {
        Ctx {
            retry,
            ack_mode: false,
            buffered: false,
            in_range,
            last,
            credit_fallback: flow.credit_stalled,
        }
    }

    /// Run one table lookup for `key`, apply it to the tracked side, and
    /// report a violation on `Error` or on a defensive ignore.
    fn apply(
        flow: &mut Flow,
        key: MsgKey,
        state: State,
        event: Event,
        ctx: Ctx,
        sender_side: bool,
    ) -> Result<(), String> {
        match step(state, event, ctx) {
            Verdict::Step { actions, next, .. } => {
                if actions.contains(&Action::CompleteSend) || actions.contains(&Action::AbortSend) {
                    flow.s_done = true;
                }
                if actions.contains(&Action::CompleteRecv) || actions.contains(&Action::AbortRecv) {
                    flow.r_done = true;
                }
                if sender_side {
                    flow.s = Some(next);
                } else {
                    flow.r = Some(next);
                }
                Ok(())
            }
            Verdict::Ignore { index, defensive } => {
                if defensive {
                    Err(format!(
                        "{key:?}: defensive ignore `{}` fired in a real trace ({state:?} × {event:?})",
                        IGNORES[index].name
                    ))
                } else {
                    Ok(())
                }
            }
            Verdict::Error => Err(format!(
                "{key:?}: no transition for {state:?} × {event:?} × {ctx:?}"
            )),
        }
    }

    /// Validate one recorded event. Engine events and eager-path phases
    /// pass through untouched.
    pub fn check(&mut self, ev: &ObsEvent) -> Result<(), String> {
        let Scope::Msg { key, phase } = ev.scope else {
            return Ok(());
        };
        let retry = self.retry;
        let flow = self.flows.entry(key).or_default();
        match phase {
            // Eager-path and bookkeeping phases carry no rendezvous
            // transition.
            Phase::SendPosted { .. }
            | Phase::RecvPosted
            | Phase::Matched { .. }
            | Phase::EagerTx { .. }
            | Phase::EagerRx
            | Phase::Reroute { .. }
            | Phase::Retry {
                kind: RetryKind::Eager,
            } => Ok(()),
            Phase::RtsRx => {
                // The receiver's protocol entry happens at match time,
                // which can precede the CTS's wire transmission (the CTS
                // queues behind other traffic while the progress timer is
                // already armed and may fire) — so `RWaitData` entry is
                // anchored at the RTS's arrival, the earliest event that
                // can precede any receiver-side activity.
                if flow.r.is_none() {
                    let ctx = Self::ctx(retry, flow, false, false);
                    Self::apply(flow, key, State::Gone, Event::RtsMatched, ctx, false)
                } else {
                    Ok(())
                }
            }
            Phase::CreditStall => {
                flow.credit_stalled = true;
                Ok(())
            }
            Phase::RtsTx { len, .. } => match flow.sender() {
                State::Gone if flow.s.is_none() => {
                    flow.total = Some(len);
                    let ctx = Self::ctx(retry, flow, false, false);
                    Self::apply(flow, key, State::Gone, Event::SendRdv, ctx, true)
                }
                State::SWaitCts if flow.pending_rts_replay > 0 => {
                    flow.pending_rts_replay -= 1;
                    Ok(())
                }
                s => Err(format!(
                    "{key:?}: RtsTx with sender in {s:?} and no announced RTS replay"
                )),
            },
            Phase::Retry {
                kind: RetryKind::Rts,
            } => {
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, flow.sender(), Event::SendTimeout, ctx, true)?;
                flow.pending_rts_replay += 1;
                Ok(())
            }
            Phase::Retry {
                kind: RetryKind::Data,
            } => {
                // The FIN-wait timer can only be armed after the final
                // chunk cleared the NIC — infer the invisible
                // LastChunkSent if the trace hasn't shown it.
                if flow.sender() == State::SStreaming {
                    let ctx = Self::ctx(retry, flow, false, false);
                    Self::apply(
                        flow,
                        key,
                        State::SStreaming,
                        Event::LastChunkSent,
                        ctx,
                        true,
                    )?;
                }
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, flow.sender(), Event::SendTimeout, ctx, true)?;
                flow.pending_data_replay += 1;
                Ok(())
            }
            Phase::Retry {
                kind: RetryKind::Cts,
            } => {
                // A CTS replay is announced both by the receiver's
                // progress timer and by a duplicate RTS on a live
                // rendezvous; the trace does not distinguish them, and
                // both are rows replaying from `RWaitData`.
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, flow.receiver(), Event::RecvTimeout, ctx, false)?;
                flow.pending_cts_replay += 1;
                Ok(())
            }
            Phase::CtsTx { .. } => {
                if !flow.cts_sent {
                    // The original CTS (the `SendCts` action's wire
                    // realization, however late it transmits).
                    flow.cts_sent = true;
                    if flow.r.is_none() {
                        let ctx = Self::ctx(retry, flow, false, false);
                        return Self::apply(flow, key, State::Gone, Event::RtsMatched, ctx, false);
                    }
                    return Ok(());
                }
                match flow.receiver() {
                    State::RWaitData if flow.pending_cts_replay > 0 => {
                        flow.pending_cts_replay -= 1;
                        Ok(())
                    }
                    r => Err(format!(
                        "{key:?}: CtsTx with receiver in {r:?} and no announced CTS replay"
                    )),
                }
            }
            Phase::CtsRx => {
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, flow.sender(), Event::CtsRx, ctx, true)
            }
            Phase::DataChunkTx { .. } => match flow.sender() {
                State::SStreaming => Ok(()),
                State::SWaitFin if flow.pending_data_replay > 0 => {
                    flow.pending_data_replay -= 1;
                    Ok(())
                }
                s => Err(format!(
                    "{key:?}: DataChunkTx with sender in {s:?} and no announced DATA replay"
                )),
            },
            Phase::DataChunkRx { offset, len } => {
                let state = flow.receiver();
                if state == State::RWaitData {
                    let total = flow.total;
                    let end = offset.checked_add(len);
                    let in_range = match (total, end) {
                        (Some(t), Some(e)) => e <= t,
                        _ => false,
                    };
                    let last = if in_range {
                        let mut probe = flow.ranges.clone();
                        merge(&mut probe, offset, end.unwrap_or(u64::MAX));
                        total.is_some_and(|t| covered(&probe, t))
                    } else {
                        false
                    };
                    let ctx = Self::ctx(retry, flow, in_range, last);
                    Self::apply(flow, key, state, Event::DataRx, ctx, false)?;
                    if in_range {
                        merge(&mut flow.ranges, offset, end.unwrap_or(u64::MAX));
                    }
                    Ok(())
                } else {
                    let ctx = Self::ctx(retry, flow, true, false);
                    Self::apply(flow, key, state, Event::DataRx, ctx, false)
                }
            }
            Phase::FinTx => {
                if retry && flow.receiver() == State::RDone {
                    Ok(())
                } else {
                    Err(format!(
                        "{key:?}: FinTx with receiver in {:?} (retry = {retry})",
                        flow.receiver()
                    ))
                }
            }
            Phase::FinRx => {
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, flow.sender(), Event::FinRx, ctx, true)
            }
            Phase::Completed { side: Side::Send } => {
                if !flow.is_rdv() {
                    return Ok(()); // eager completion
                }
                if flow.s_completed {
                    return Err(format!("{key:?}: send completed twice"));
                }
                if !retry && flow.sender() == State::SStreaming {
                    // Invisible NIC completion of the last chunk.
                    let ctx = Self::ctx(retry, flow, false, false);
                    Self::apply(
                        flow,
                        key,
                        State::SStreaming,
                        Event::LastChunkSent,
                        ctx,
                        true,
                    )?;
                }
                if !flow.s_done {
                    return Err(format!(
                        "{key:?}: send completed with sender in {:?} and no completing transition",
                        flow.sender()
                    ));
                }
                flow.s_completed = true;
                Ok(())
            }
            Phase::Aborted { side } => {
                // The drain protocol completed this request with an error
                // (its peer was declared dead). An eager-path abort has no
                // rendezvous machine to check; a rendezvous abort must be
                // a legal `PeerDead` transition of the surviving side.
                if !flow.is_rdv() {
                    return Ok(());
                }
                // A side whose machine already wound down (e.g. the
                // posted receive's RTS never arrived) finds `Gone`: the
                // table's `ignore/dead-gone`.
                let sender_side = side == Side::Send;
                let state = if sender_side {
                    flow.sender()
                } else {
                    flow.receiver()
                };
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, state, Event::PeerDead, ctx, sender_side)
            }
            Phase::Revoked { side } => {
                // An epoch quiesce completed this request with an error.
                // Unlike a peer-death abort the receiver tombstones
                // (`revoked/rwaitdata` → RDone), so a straggling DATA
                // chunk still validates against the FIN-replay row.
                if !flow.is_rdv() {
                    return Ok(());
                }
                // A side with no machine (the machine already wound down)
                // finds `Gone`: the table's `ignore/revoked-gone`.
                let sender_side = side == Side::Send;
                let state = if sender_side {
                    flow.sender()
                } else {
                    flow.receiver()
                };
                let ctx = Self::ctx(retry, flow, false, false);
                Self::apply(flow, key, state, Event::Revoked, ctx, sender_side)
            }
            Phase::Completed { side: Side::Recv } => {
                if !flow.is_rdv() {
                    return Ok(());
                }
                if flow.r_completed {
                    return Err(format!("{key:?}: recv completed twice"));
                }
                if !flow.r_done {
                    return Err(format!(
                        "{key:?}: recv completed with receiver in {:?} and no completing transition",
                        flow.receiver()
                    ));
                }
                flow.r_completed = true;
                Ok(())
            }
        }
    }
}

/// Install a [`TraceChecker`] as `rec`'s conformance validator. A no-op
/// unless the recorder was configured with `conformance` — callers need
/// not branch.
pub fn install(rec: &Arc<obs::Recorder>, retry: bool) {
    if !rec.cfg().conformance {
        return;
    }
    let mut checker = TraceChecker::new(retry);
    rec.set_validator(Box::new(move |ev| checker.check(ev)));
}

/// Post-hoc conformance check of a full event stream (append order —
/// causal per message). Returns every violation, uncapped.
pub fn check_events(events: &[ObsEvent], retry: bool) -> Vec<String> {
    let mut checker = TraceChecker::new(retry);
    events
        .iter()
        .filter_map(|ev| checker.check(ev).err())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MsgKey {
        MsgKey {
            src: 0,
            dst: 1,
            tag: 9,
            seq: 0,
        }
    }

    fn msg(t_ns: u64, phase: Phase) -> ObsEvent {
        ObsEvent {
            t_ns,
            rank: 0,
            scope: Scope::Msg { key: key(), phase },
        }
    }

    #[test]
    fn happy_rendezvous_trace_conforms() {
        let events = [
            msg(0, Phase::SendPosted { len: 64 }),
            msg(1, Phase::RtsTx { rail: 0, len: 64 }),
            msg(2, Phase::RtsRx),
            msg(3, Phase::Matched { unexpected: true }),
            msg(4, Phase::CtsTx { rail: 0 }),
            msg(5, Phase::CtsRx),
            msg(
                6,
                Phase::DataChunkTx {
                    rail: 0,
                    offset: 0,
                    len: 32,
                },
            ),
            msg(
                7,
                Phase::DataChunkTx {
                    rail: 1,
                    offset: 32,
                    len: 32,
                },
            ),
            msg(8, Phase::DataChunkRx { offset: 0, len: 32 }),
            msg(
                9,
                Phase::DataChunkRx {
                    offset: 32,
                    len: 32,
                },
            ),
            msg(10, Phase::Completed { side: Side::Recv }),
            msg(11, Phase::Completed { side: Side::Send }),
        ];
        assert_eq!(check_events(&events, false), Vec::<String>::new());
    }

    #[test]
    fn retry_trace_with_fin_and_replay_conforms() {
        let events = [
            msg(1, Phase::RtsTx { rail: 0, len: 16 }),
            msg(
                2,
                Phase::Retry {
                    kind: RetryKind::Rts,
                },
            ),
            msg(3, Phase::RtsTx { rail: 0, len: 16 }),
            msg(4, Phase::CtsTx { rail: 0 }),
            msg(
                5,
                Phase::Retry {
                    kind: RetryKind::Cts,
                },
            ),
            msg(6, Phase::CtsTx { rail: 0 }),
            msg(7, Phase::CtsRx),
            msg(
                8,
                Phase::DataChunkTx {
                    rail: 0,
                    offset: 0,
                    len: 16,
                },
            ),
            msg(
                9,
                Phase::Retry {
                    kind: RetryKind::Data,
                },
            ),
            msg(
                10,
                Phase::DataChunkTx {
                    rail: 0,
                    offset: 0,
                    len: 16,
                },
            ),
            msg(11, Phase::DataChunkRx { offset: 0, len: 16 }),
            msg(12, Phase::FinTx),
            msg(13, Phase::Completed { side: Side::Recv }),
            // Replayed DATA arrives at the tombstone, FIN is replayed.
            msg(14, Phase::DataChunkRx { offset: 0, len: 16 }),
            msg(15, Phase::FinTx),
            msg(16, Phase::FinRx),
            msg(17, Phase::Completed { side: Side::Send }),
            msg(18, Phase::FinRx), // duplicate FIN → declared ignore
        ];
        assert_eq!(check_events(&events, true), Vec::<String>::new());
    }

    #[test]
    fn unannounced_rts_replay_is_a_violation() {
        let events = [
            msg(1, Phase::RtsTx { rail: 0, len: 16 }),
            msg(2, Phase::RtsTx { rail: 0, len: 16 }), // no Retry{Rts} before it
        ];
        let v = check_events(&events, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no announced RTS replay"), "{v:?}");
    }

    #[test]
    fn out_of_range_chunk_is_a_violation() {
        let events = [
            msg(1, Phase::RtsTx { rail: 0, len: 16 }),
            msg(2, Phase::CtsTx { rail: 0 }),
            msg(3, Phase::CtsRx),
            msg(
                4,
                Phase::DataChunkTx {
                    rail: 0,
                    offset: 0,
                    len: 32,
                },
            ),
            msg(5, Phase::DataChunkRx { offset: 0, len: 32 }),
        ];
        let v = check_events(&events, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no transition"), "{v:?}");
    }

    #[test]
    fn stray_cts_without_retry_is_a_violation() {
        let events = [msg(1, Phase::CtsRx)];
        let v = check_events(&events, false);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn revoked_quiesce_tombstone_trace_conforms() {
        let events = [
            msg(1, Phase::RtsTx { rail: 0, len: 16 }),
            msg(2, Phase::RtsRx),
            msg(3, Phase::CtsTx { rail: 0 }),
            msg(4, Phase::CtsRx),
            msg(
                5,
                Phase::DataChunkTx {
                    rail: 0,
                    offset: 0,
                    len: 16,
                },
            ),
            // The epoch is revoked with the payload in flight: both sides
            // quiesce — the receiver tombstones (RDone), the sender winds
            // down (Gone).
            msg(6, Phase::Revoked { side: Side::Recv }),
            msg(7, Phase::Revoked { side: Side::Send }),
            // The in-flight chunk straggles in at the tombstone and earns
            // a FIN replay; the FIN finds the quiesced sender in Gone —
            // a declared ignore, not a violation.
            msg(8, Phase::DataChunkRx { offset: 0, len: 16 }),
            msg(9, Phase::FinTx),
            msg(10, Phase::FinRx),
        ];
        assert_eq!(check_events(&events, true), Vec::<String>::new());
    }

    #[test]
    fn eager_traffic_passes_untouched() {
        let events = [
            msg(0, Phase::SendPosted { len: 8 }),
            msg(1, Phase::EagerTx { rail: 0 }),
            msg(2, Phase::EagerRx),
            msg(3, Phase::Matched { unexpected: false }),
            msg(4, Phase::Completed { side: Side::Recv }),
            msg(5, Phase::Completed { side: Side::Send }),
        ];
        assert_eq!(check_events(&events, false), Vec::<String>::new());
    }
}
