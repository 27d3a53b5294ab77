//! Exporters over the recorded event stream: JSONL, Chrome trace-event
//! format (loadable in Perfetto / `about://tracing`), the canonical trace
//! hash the golden-replay tests compare, and the per-phase latency
//! breakdown surfaced on `RunOutcome`.
//!
//! All JSON is hand-rolled: the build container vendors no serde, and the
//! emitted values are integers and fixed label strings only.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::span::{EngineEvent, Event, MsgKey, Phase, Scope};

/// Everything one run recorded, frozen.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Event stream in append order (deterministic per seed).
    pub events: Vec<Event>,
}

impl Report {
    /// One JSON object per line, append order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            event_json(&mut out, e);
            out.push('\n');
        }
        out
    }

    /// A Chrome trace-event file: open in Perfetto (`ui.perfetto.dev`) or
    /// `about://tracing`. Each message gets its own lane (pid = source
    /// rank, tid = per-message lane) whose slices are the lifecycle
    /// phases; machinery events appear as instants on lane 0.
    pub fn to_chrome_trace(&self) -> String {
        to_chrome_trace(&self.events)
    }

    /// Canonical FNV-1a hash of the (sorted) event stream.
    pub fn hash(&self) -> u64 {
        trace_hash(&self.events)
    }

    /// Per-phase latency attribution.
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown::from_events(&self.events)
    }
}

fn push_key(out: &mut String, key: &MsgKey) {
    let _ = write!(
        out,
        r#""src":{},"dst":{},"tag":{},"seq":{}"#,
        key.src, key.dst, key.tag, key.seq
    );
}

/// Append one event as a JSON object (no trailing newline).
fn event_json(out: &mut String, e: &Event) {
    let _ = write!(out, r#"{{"t":{},"rank":{}"#, e.t_ns, e.rank);
    match &e.scope {
        Scope::Msg { key, phase } => {
            let _ = write!(out, r#","kind":"msg","phase":"{}","#, phase.label());
            push_key(out, key);
            match phase {
                Phase::SendPosted { len } => {
                    let _ = write!(out, r#","len":{len}"#);
                }
                Phase::Matched { unexpected } => {
                    let _ = write!(out, r#","unexpected":{unexpected}"#);
                }
                Phase::EagerTx { rail } | Phase::CtsTx { rail } => {
                    let _ = write!(out, r#","rail":{rail}"#);
                }
                Phase::RtsTx { rail, len } => {
                    let _ = write!(out, r#","rail":{rail},"len":{len}"#);
                }
                Phase::DataChunkTx { rail, offset, len } => {
                    let _ = write!(out, r#","rail":{rail},"offset":{offset},"len":{len}"#);
                }
                Phase::DataChunkRx { offset, len } => {
                    let _ = write!(out, r#","offset":{offset},"len":{len}"#);
                }
                Phase::Retry { kind } => {
                    let _ = write!(out, r#","leg":"{kind:?}""#);
                }
                Phase::Reroute { to_rail, bytes } => {
                    let _ = write!(out, r#","to_rail":{to_rail},"bytes":{bytes}"#);
                }
                Phase::RecvPosted
                | Phase::EagerRx
                | Phase::RtsRx
                | Phase::CtsRx
                | Phase::FinTx
                | Phase::FinRx
                | Phase::Completed { .. }
                | Phase::Aborted { .. }
                | Phase::Revoked { .. }
                | Phase::CreditStall => {}
            }
        }
        Scope::Engine { ev } => {
            let _ = write!(out, r#","kind":"engine","ev":"{}""#, ev.label());
            match ev {
                EngineEvent::NicTx {
                    rail,
                    bytes,
                    occupancy_ns,
                } => {
                    let _ = write!(
                        out,
                        r#","rail":{rail},"bytes":{bytes},"occupancy_ns":{occupancy_ns}"#
                    );
                }
                EngineEvent::ShmFragCopy { bytes } => {
                    let _ = write!(out, r#","bytes":{bytes}"#);
                }
                EngineEvent::ShmDeliver { src_local } => {
                    let _ = write!(out, r#","src_local":{src_local}"#);
                }
                EngineEvent::PiomKick { net } => {
                    let _ = write!(out, r#","net":{net}"#);
                }
                EngineEvent::PiomLtaskPass { tasks } => {
                    let _ = write!(out, r#","tasks":{tasks}"#);
                }
                EngineEvent::CreditDebit { peer } => {
                    let _ = write!(out, r#","peer":{peer}"#);
                }
                EngineEvent::CreditRefill { peer, credits } => {
                    let _ = write!(out, r#","peer":{peer},"credits":{credits}"#);
                }
                EngineEvent::MemberState { peer, state } => {
                    let _ = write!(out, r#","peer":{peer},"state":{state}"#);
                }
                EngineEvent::MemberDrain { peer, entries } => {
                    let _ = write!(out, r#","peer":{peer},"entries":{entries}"#);
                }
                EngineEvent::Revoke { epoch } | EngineEvent::EpochCommit { epoch } => {
                    let _ = write!(out, r#","epoch":{epoch}"#);
                }
                EngineEvent::DispatchCall | EngineEvent::DispatchWake | EngineEvent::PiomRekick => {
                }
            }
        }
    }
    out.push('}');
}

/// Canonical FNV-1a hash of an event stream. The events are sorted by
/// `(time, rank, scope)` first, so the hash is a function of *what*
/// happened *when*, not of incidental append interleaving — two replays
/// of one seed must produce equal hashes, and any protocol divergence
/// (one extra retry, one rerouted chunk) changes it.
pub fn trace_hash(events: &[Event]) -> u64 {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for e in sorted {
        line.clear();
        event_json(&mut line, e);
        for b in line.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Chrome trace-event JSON for an event stream.
pub fn to_chrome_trace(events: &[Event]) -> String {
    // Assign each message a lane in first-appearance order.
    let mut lanes: BTreeMap<MsgKey, u64> = BTreeMap::new();
    let mut per_msg: BTreeMap<MsgKey, Vec<(u64, Phase)>> = BTreeMap::new();
    for e in events {
        if let Scope::Msg { key, phase } = &e.scope {
            let next = lanes.len() as u64 + 1;
            lanes.entry(*key).or_insert(next);
            per_msg.entry(*key).or_default().push((e.t_ns, *phase));
        }
    }
    let us = |t_ns: u64| t_ns as f64 / 1000.0;
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool, obj: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(obj);
    };
    let mut obj = String::new();
    // Lane names.
    for (key, lane) in &lanes {
        obj.clear();
        let _ = write!(
            obj,
            r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{lane},"args":{{"name":"msg dst={} tag={} seq={}"}}}}"#,
            key.src, key.dst, key.tag, key.seq
        );
        emit(&mut out, &mut first, &obj);
    }
    // Per-message phase slices + instants.
    for (key, evs) in &per_msg {
        let lane = lanes[key];
        let mut evs = evs.clone();
        evs.sort_by_key(|(t, _)| *t);
        for (i, (t, phase)) in evs.iter().enumerate() {
            obj.clear();
            let _ = write!(
                obj,
                r#"{{"name":"{}","cat":"msg","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":{lane}}}"#,
                phase.label(),
                us(*t),
                key.src
            );
            emit(&mut out, &mut first, &obj);
            if i + 1 < evs.len() {
                let (t2, phase2) = evs[i + 1];
                obj.clear();
                let _ = write!(
                    obj,
                    r#"{{"name":"→{}","cat":"msg","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":{lane}}}"#,
                    phase2.label(),
                    us(*t),
                    us(t2 - t),
                    key.src
                );
                emit(&mut out, &mut first, &obj);
            }
        }
    }
    // Machinery instants on lane 0 of the recording rank.
    for e in events {
        if let Scope::Engine { ev } = &e.scope {
            obj.clear();
            let _ = write!(
                obj,
                r#"{{"name":"{}","cat":"engine","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":0}}"#,
                ev.label(),
                us(e.t_ns),
                e.rank
            );
            emit(&mut out, &mut first, &obj);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One row of the per-phase latency breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    pub label: &'static str,
    /// Total nanoseconds attributed to intervals *ending* in this phase.
    pub total_ns: u64,
    /// Number of such intervals.
    pub intervals: u64,
}

/// Latency attribution over message spans: each interval between two
/// consecutive events of one message is attributed to the phase the
/// interval *leads to*, so the rows partition every message's end-to-end
/// latency exactly (coverage is 1.0 by construction — the acceptance
/// check asserts ≥ 0.95 to leave room for future sampling exporters).
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    pub phases: Vec<PhaseRow>,
    /// Messages with at least one recorded event.
    pub messages: u64,
    /// Σ per message of (last event time − first event time).
    pub end_to_end_ns: u64,
    /// Σ of all attributed intervals.
    pub attributed_ns: u64,
}

impl PhaseBreakdown {
    pub fn from_events(events: &[Event]) -> PhaseBreakdown {
        let mut per_msg: BTreeMap<MsgKey, Vec<(u64, Phase)>> = BTreeMap::new();
        for e in events {
            if let Scope::Msg { key, phase } = &e.scope {
                per_msg.entry(*key).or_default().push((e.t_ns, *phase));
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut end_to_end = 0u64;
        let mut attributed = 0u64;
        for evs in per_msg.values_mut() {
            evs.sort_by_key(|(t, _)| *t);
            end_to_end += evs.last().unwrap().0 - evs.first().unwrap().0;
            for w in evs.windows(2) {
                let dt = w[1].0 - w[0].0;
                let row = rows.entry(w[1].1.label()).or_insert((0, 0));
                row.0 += dt;
                row.1 += 1;
                attributed += dt;
            }
        }
        let mut phases: Vec<PhaseRow> = rows
            .into_iter()
            .map(|(label, (total_ns, intervals))| PhaseRow {
                label,
                total_ns,
                intervals,
            })
            .collect();
        phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(b.label)));
        PhaseBreakdown {
            phases,
            messages: per_msg.len() as u64,
            end_to_end_ns: end_to_end,
            attributed_ns: attributed,
        }
    }

    /// Fraction of end-to-end message latency the phase rows account for.
    pub fn coverage(&self) -> f64 {
        if self.end_to_end_ns == 0 {
            1.0
        } else {
            self.attributed_ns as f64 / self.end_to_end_ns as f64
        }
    }

    /// Nanoseconds attributed to one phase label.
    pub fn total_for(&self, label: &str) -> u64 {
        self.phases
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.total_ns)
            .unwrap_or(0)
    }
}

impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "phase breakdown: {} messages, {} ns end-to-end, {:.1}% attributed",
            self.messages,
            self.end_to_end_ns,
            self.coverage() * 100.0
        )?;
        writeln!(
            f,
            "{:<16} {:>14} {:>10} {:>6}",
            "phase", "total ns", "ivals", "%"
        )?;
        for r in &self.phases {
            let pct = if self.end_to_end_ns == 0 {
                0.0
            } else {
                r.total_ns as f64 * 100.0 / self.end_to_end_ns as f64
            };
            writeln!(
                f,
                "{:<16} {:>14} {:>10} {:>5.1}%",
                r.label, r.total_ns, r.intervals, pct
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{RetryKind, Side};

    fn key(seq: u64) -> MsgKey {
        MsgKey {
            src: 0,
            dst: 1,
            tag: 7,
            seq,
        }
    }

    fn msg(t: u64, rank: u32, k: MsgKey, phase: Phase) -> Event {
        Event {
            t_ns: t,
            rank,
            scope: Scope::Msg { key: k, phase },
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            msg(100, 0, key(0), Phase::SendPosted { len: 4 }),
            msg(110, 0, key(0), Phase::EagerTx { rail: 0 }),
            Event {
                t_ns: 115,
                rank: 0,
                scope: Scope::Engine {
                    ev: EngineEvent::NicTx {
                        rail: 0,
                        bytes: 36,
                        occupancy_ns: 29,
                    },
                },
            },
            msg(1400, 1, key(0), Phase::EagerRx),
            msg(1450, 1, key(0), Phase::Matched { unexpected: true }),
            msg(1500, 1, key(0), Phase::Completed { side: Side::Recv }),
        ]
    }

    #[test]
    fn jsonl_emits_one_line_per_event() {
        let r = Report { events: sample() };
        let j = r.to_jsonl();
        assert_eq!(j.lines().count(), 6);
        assert!(j.contains(r#""phase":"eager_tx","src":0,"dst":1,"tag":7,"seq":0,"rail":0"#));
        assert!(j.contains(r#""ev":"nic_tx","rail":0,"bytes":36,"occupancy_ns":29"#));
        for line in j.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn hash_is_order_insensitive_but_content_sensitive() {
        let evs = sample();
        let mut shuffled = evs.clone();
        shuffled.reverse();
        assert_eq!(trace_hash(&evs), trace_hash(&shuffled));
        let mut tweaked = evs.clone();
        tweaked[0].t_ns += 1;
        assert_ne!(trace_hash(&evs), trace_hash(&tweaked));
        let mut extra = evs.clone();
        extra.push(msg(
            2000,
            0,
            key(0),
            Phase::Retry {
                kind: RetryKind::Eager,
            },
        ));
        assert_ne!(trace_hash(&evs), trace_hash(&extra));
    }

    #[test]
    fn chrome_trace_is_wellformed_enough() {
        let r = Report { events: sample() };
        let c = r.to_chrome_trace();
        assert!(c.starts_with("{\"traceEvents\":["));
        assert!(c.trim_end().ends_with("]}"));
        assert!(c.contains(r#""ph":"M""#), "lane metadata present");
        assert!(c.contains(r#""ph":"X""#), "phase slices present");
        assert!(c.contains(r#""name":"→completed_recv""#));
        // Balanced braces (cheap well-formedness proxy without a parser).
        let open = c.matches('{').count();
        let close = c.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn breakdown_partitions_end_to_end_exactly() {
        let mut evs = sample();
        // Second message to exercise aggregation.
        evs.push(msg(200, 0, key(1), Phase::SendPosted { len: 4 }));
        evs.push(msg(260, 0, key(1), Phase::EagerTx { rail: 0 }));
        evs.push(msg(900, 1, key(1), Phase::Completed { side: Side::Recv }));
        let b = PhaseBreakdown::from_events(&evs);
        assert_eq!(b.messages, 2);
        assert_eq!(b.end_to_end_ns, (1500 - 100) + (900 - 200));
        assert_eq!(b.attributed_ns, b.end_to_end_ns);
        assert!((b.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(b.total_for("eager_tx"), 10 + 60);
        let shown = format!("{b}");
        assert!(shown.contains("eager_tx"));
        assert!(shown.contains("100.0% attributed"));
    }

    #[test]
    fn empty_breakdown_is_fully_covered() {
        let b = PhaseBreakdown::from_events(&[]);
        assert_eq!(b.messages, 0);
        assert_eq!(b.coverage(), 1.0);
    }
}
