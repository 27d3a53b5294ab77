//! Text rendering of experiment results, in the shape of the paper's
//! figures.

use nasbench::NasResult;

use crate::experiments::{BreakdownRow, HandshakeRow, OverlapPoint};

/// Render Fig. 7-style overlap points as a table: rows = sizes, columns =
/// stacks.
pub fn overlap_table(points: &[OverlapPoint], caption: &str) -> String {
    let mut stacks: Vec<String> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for p in points {
        if !stacks.contains(&p.stack) {
            stacks.push(p.stack.clone());
        }
        if !sizes.contains(&p.bytes) {
            sizes.push(p.bytes);
        }
    }
    sizes.sort_unstable();
    let mut out = format!("# {caption}\n");
    out.push_str(&format!("{:>10}", "size"));
    for s in &stacks {
        out.push_str(&format!("  {s:>28}"));
    }
    out.push('\n');
    for &size in &sizes {
        out.push_str(&format!("{:>10}", simnet::stats::human_bytes(size)));
        for s in &stacks {
            match points.iter().find(|p| p.bytes == size && &p.stack == s) {
                Some(p) => out.push_str(&format!("  {:>26.1}us", p.sending_time_us)),
                None => out.push_str(&format!("  {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render one Fig. 8 panel: rows = kernels, columns = stacks; unpublished
/// cells marked.
pub fn nas_table(results: &[(NasResult, bool)], caption: &str) -> String {
    let mut stacks: Vec<String> = Vec::new();
    let mut kernels: Vec<&'static str> = Vec::new();
    for (r, _) in results {
        if !stacks.contains(&r.stack) {
            stacks.push(r.stack.clone());
        }
        if !kernels.contains(&r.kernel.name()) {
            kernels.push(r.kernel.name());
        }
    }
    let mut out = format!("# {caption} (execution time, seconds)\n");
    out.push_str(&format!("{:>8}", "kernel"));
    for s in &stacks {
        out.push_str(&format!("  {s:>26}"));
    }
    out.push('\n');
    for k in &kernels {
        out.push_str(&format!("{k:>8}"));
        for s in &stacks {
            match results
                .iter()
                .find(|(r, _)| r.kernel.name() == *k && &r.stack == s)
            {
                Some((r, published)) => {
                    let mark = if *published { "" } else { "*" };
                    out.push_str(&format!("  {:>25.1}{}", r.time_s, mark));
                }
                None => out.push_str(&format!("  {:>26}", "n/a")),
            }
        }
        out.push('\n');
    }
    out.push_str("(* = cell absent from the published figure — the paper's\n");
    out.push_str("   PIOMan build deadlocked there; ours runs it.)\n");
    out
}

/// Render the Fig. 2 ablation rows.
pub fn handshake_table(rows: &[HandshakeRow]) -> String {
    let mut out =
        String::from("# E10 (Fig. 2 ablation): one large transfer, bypass vs nested netmod\n");
    out.push_str(&format!(
        "{:>10}  {:>16}  {:>16}  {:>10}\n",
        "size", "bypass (us)", "netmod (us)", "penalty"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10}  {:>16.1}  {:>16.1}  {:>9.1}%\n",
            simnet::stats::human_bytes(r.bytes),
            r.direct_us,
            r.netmod_us,
            (r.netmod_us / r.direct_us - 1.0) * 100.0
        ));
    }
    out
}

/// Render the §4.1.1 latency-breakdown table.
pub fn breakdown_table(rows: &[BreakdownRow]) -> String {
    let mut out = String::from("# E11: one-way small-message latency breakdown over IB\n");
    out.push_str(&format!(
        "{:<40}  {:>10}  {:>12}\n",
        "layer", "paper (us)", "measured (us)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<40}  {:>10.1}  {:>12.2}\n",
            r.layer, r.paper_us, r.measured_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_table_renders_grid() {
        let pts = vec![
            OverlapPoint {
                stack: "A".into(),
                bytes: 4096,
                sending_time_us: 25.0,
            },
            OverlapPoint {
                stack: "B".into(),
                bytes: 4096,
                sending_time_us: 21.0,
            },
        ];
        let t = overlap_table(&pts, "test");
        assert!(t.contains("4K"));
        assert!(t.contains("25.0us"));
        assert!(t.contains("21.0us"));
    }

    #[test]
    fn handshake_table_shows_penalty() {
        let rows = vec![HandshakeRow {
            bytes: 1 << 20,
            direct_us: 100.0,
            netmod_us: 110.0,
        }];
        let t = handshake_table(&rows);
        assert!(t.contains("10.0%"));
    }

    #[test]
    fn breakdown_table_lists_layers() {
        let rows = vec![BreakdownRow {
            layer: "x",
            paper_us: 1.2,
            measured_us: 1.21,
        }];
        let t = breakdown_table(&rows);
        assert!(t.contains("1.2"));
        assert!(t.contains("1.21"));
    }
}
