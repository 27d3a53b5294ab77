//! trace_diff — compare two span streams (JSONL dumps of `obs::Report`)
//! for replay debugging.
//!
//! ```text
//! trace_diff a.jsonl b.jsonl [--context N]
//! ```
//!
//! Exit code 0 when the traces are identical, 1 on divergence (the first
//! diverging event is printed with surrounding context), 2 on usage or
//! I/O errors. Because replays of one seed are bit-identical in append
//! order, a plain positional comparison pinpoints the first simulated
//! event where two runs disagree — usually far upstream of the final
//! state divergence one would otherwise debug from.

use std::process::ExitCode;

/// Pull the integer value of `"key":<n>` out of one JSONL line.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn show(idx: usize, line: &str) {
    let t = int_field(line, "t")
        .map(|t| format!("{t} ns"))
        .unwrap_or_else(|| "?".into());
    eprintln!("  [{idx}] t={t}  {line}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut context = 3usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--context" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => context = n,
                None => {
                    eprintln!("--context needs a number");
                    return ExitCode::from(2);
                }
            },
            _ => files.push(a.clone()),
        }
    }
    if files.len() != 2 {
        eprintln!("usage: trace_diff <a.jsonl> <b.jsonl> [--context N]");
        return ExitCode::from(2);
    }
    let read = |p: &str| -> Result<Vec<String>, String> {
        std::fs::read_to_string(p)
            .map(|s| s.lines().map(str::to_owned).collect())
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (read(&files[0]), read(&files[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("trace_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            eprintln!(
                "traces diverge at event {i} ({} vs {} events total)",
                a.len(),
                b.len()
            );
            let from = i.saturating_sub(context);
            eprintln!("--- {} (context)", files[0]);
            for (j, line) in a.iter().enumerate().take(i).skip(from) {
                show(j, line);
            }
            eprintln!("--- {} first divergence", files[0]);
            show(i, &a[i]);
            eprintln!("--- {} first divergence", files[1]);
            show(i, &b[i]);
            return ExitCode::from(1);
        }
    }
    if a.len() != b.len() {
        eprintln!(
            "traces agree on the first {common} events but lengths differ: {} vs {}",
            a.len(),
            b.len()
        );
        let longer = if a.len() > b.len() { &a } else { &b };
        let name = if a.len() > b.len() {
            &files[0]
        } else {
            &files[1]
        };
        eprintln!("--- first extra event in {name}");
        show(common, &longer[common]);
        return ExitCode::from(1);
    }
    println!("traces identical: {} events", a.len());
    ExitCode::SUCCESS
}
