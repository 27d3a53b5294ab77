//! `perf-ledger compare <a.json> <b.json>`: is `b` worse than `a`?
//!
//! For every workload × end-to-end metric both files hold: both medians with
//! quartiles, the ratio with its base, the bound, and a verdict —
//!
//! * `worse`: `b`'s median is worse than `a`'s by more than the bound, and
//!   either both spreads are within the bound or the quartile ranges do not
//!   even overlap;
//! * `unresolved`: a spread (quartile distance over median) is wider than
//!   the bound, so a difference of the bound's size cannot be told from
//!   noise — not the same as unchanged;
//! * `ok` otherwise.

use crate::json::Value;
use crate::ledger::{end_to_end, Better, Bound, EndToEnd};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// One side's median and quartiles.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn verdict(def: &EndToEnd, a: Side, b: Side) -> Verdict {
    // How much worse b is, in the bound's terms, and the bound itself.
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let (worsening, bound, spread) = match def.bound {
        Bound::Share(share) => {
            let base = a.median.abs();
            let delta = if base == 0.0 {
                0.0
            } else {
                sign * (b.median - a.median) / base
            };
            (delta, share, a.spread().max(b.spread()))
        }
        // In points the spread is the quartile distance itself.
        Bound::Points(points) => (
            sign * (b.median - a.median),
            points,
            (a.q3 - a.q1).max(b.q3 - b.q1),
        ),
    };
    let noisy = spread > bound;
    let disjoint = match def.better {
        Better::Lower => b.q1 > a.q3,
        Better::Higher => b.q3 < a.q1,
    };
    if worsening > bound && (!noisy || disjoint) {
        Verdict::Worse
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compare two `results.json` documents; prints one row per workload ×
/// metric and returns whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let (wa, wb) = (
        object(a, "workloads").ok_or("first file has no \"workloads\" object")?,
        object(b, "workloads").ok_or("second file has no \"workloads\" object")?,
    );
    println!(
        "{:<20} {:<16} {:>30} {:>30} {:>14} {:>8}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a", "bound"
    );
    let mut any_worse = false;
    for (workload, record_a) in wa {
        let Some((_, record_b)) = wb.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<20} only in the first file");
            continue;
        };
        let metrics_b = object(record_b, "end_to_end").unwrap_or_default();
        for (name, ma) in object(record_a, "end_to_end").unwrap_or_default() {
            let (Some(def), Some((_, mb))) =
                (end_to_end(name), metrics_b.iter().find(|(n, _)| n == name))
            else {
                continue;
            };
            let side = |m: &Value| -> Option<Side> {
                Some(Side {
                    q1: m.get("q1")?.as_f64()?,
                    median: m.get("value")?.as_f64()?,
                    q3: m.get("q3")?.as_f64()?,
                })
            };
            let (sa, sb) = (
                side(ma)
                    .ok_or_else(|| format!("{workload}/{name}: malformed in the first file"))?,
                side(mb)
                    .ok_or_else(|| format!("{workload}/{name}: malformed in the second file"))?,
            );
            let v = verdict(def, sa, sb);
            any_worse |= v == Verdict::Worse;
            let show = |s: Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            let ratio = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}x of {:.4}", sb.median / sa.median, sa.median)
            };
            let bound = match def.bound {
                Bound::Share(s) => format!("{}%", s * 100.0),
                Bound::Points(p) => format!("+{p} pt"),
            };
            let word = match v {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload:<20} {name:<16} {:>30} {:>30} {ratio:>14} {bound:>8}  {word}",
                show(sa),
                show(sb)
            );
        }
    }
    Ok(any_worse)
}

/// The fields of the object under `key`.
fn object<'a>(v: &'a Value, key: &str) -> Option<&'a [(String, Value)]> {
    v.get(key).and_then(Value::as_obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Side {
        Side {
            q1: v,
            median: v,
            q3: v,
        }
    }

    fn around(v: f64, half_iqr: f64) -> Side {
        Side {
            q1: v - half_iqr,
            median: v,
            q3: v + half_iqr,
        }
    }

    #[test]
    fn relative_bound_on_a_lower_is_better_metric() {
        let host = EndToEnd {
            bound: Bound::Share(0.10),
            ..*end_to_end("host_us_per_op").unwrap()
        };
        let host = &host;
        assert_eq!(verdict(host, flat(100.0), flat(109.0)), Verdict::Ok);
        assert_eq!(verdict(host, flat(100.0), flat(111.0)), Verdict::Worse);
        assert_eq!(verdict(host, flat(100.0), flat(50.0)), Verdict::Ok);
        // 12 % spread on one side: an 8 % difference cannot be resolved …
        assert_eq!(
            verdict(host, around(100.0, 6.0), flat(108.0)),
            Verdict::Unresolved
        );
        // … nor an 11 % one while the ranges overlap …
        assert_eq!(
            verdict(host, around(100.0, 6.0), around(111.0, 6.0)),
            Verdict::Unresolved
        );
        // … but a 40 % one with disjoint ranges is worse all the same.
        assert_eq!(
            verdict(host, around(100.0, 6.0), around(140.0, 6.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn higher_is_better_and_point_bounds() {
        let mb = end_to_end("sim_mb_per_s").unwrap();
        assert_eq!(verdict(mb, flat(2000.0), flat(1990.0)), Verdict::Ok);
        assert_eq!(verdict(mb, flat(2000.0), flat(1970.0)), Verdict::Worse);
        assert_eq!(verdict(mb, flat(2000.0), flat(2500.0)), Verdict::Ok);
        let paper = end_to_end("paper_err_pct").unwrap();
        assert_eq!(verdict(paper, flat(0.5), flat(0.9)), Verdict::Ok);
        assert_eq!(verdict(paper, flat(0.5), flat(1.1)), Verdict::Worse);
        // Any failed operation at all is worse than none.
        let failed = end_to_end("ops_failed_pct").unwrap();
        assert_eq!(verdict(failed, flat(0.0), flat(0.0)), Verdict::Ok);
        assert_eq!(verdict(failed, flat(0.0), flat(0.001)), Verdict::Worse);
    }

    #[test]
    fn documents_are_compared_row_by_row() {
        let doc = |host: f64| {
            crate::json::parse(&format!(
                r#"{{"workloads":{{"w":{{"end_to_end":{{
                    "sim_us_per_op":{{"value":{host},"q1":{host},"q3":{host}}},
                    "not_a_metric":{{"value":1,"q1":1,"q3":1}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&doc(10.0), &doc(10.05)), Ok(false));
        assert_eq!(compare(&doc(10.0), &doc(10.2)), Ok(true));
        assert!(compare(&crate::json::Value::Null, &doc(1.0)).is_err());
    }
}
