//! perf-ledger: the two-clock, layer-attributed performance ledger of the
//! MPICH2-NewMadeleine reproduction. See README.md.
//!
//! ```text
//! perf-ledger run [--seed <u64>] [--seconds <n>]
//!     every workload, each in a child process of its own; prints every
//!     metric as `workload metric value unit`, writes benchmark/out/results.json
//!     and one trace file per workload; exits non-zero if any operation failed
//! perf-ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!     one workload in this process (what `run` starts, and what an outside
//!     harness calls); the last line printed is one JSON result object;
//!     `--record <file>` also writes the full record `run` merges
//! perf-ledger compare <a.json> <b.json>
//!     is b worse than a? exits non-zero on a `worse` row
//! ```

mod adapter;
mod compare;
mod json;
mod ledger;
mod probes;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::{obj, Value};
use workloads::{Workload, ALL, FULL};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Where result and trace files go, relative to the working directory (the
/// root of the checkout).
const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => run_one(&args, process_start),
        _ => Err("usage: perf-ledger run [--seed N] [--seconds N] | --workload NAME --seed N --seconds N --trace 0|1 | compare A.json B.json".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf-ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; every key must be one of `known`.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("flag {} has no value", args[args.len() - 1]));
    }
    args.chunks(2)
        .map(|pair| match pair[0].strip_prefix("--") {
            Some(key) if known.contains(&key) => Ok((key, pair[1].as_str())),
            _ => Err(format!("unknown flag {}", pair[0])),
        })
        .collect()
}

fn number(flags: &[(&str, &str)], key: &str) -> Result<Option<u64>, String> {
    flags
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| {
            v.parse::<u64>()
                .map_err(|_| format!("--{key} takes a whole number, not {v:?}"))
        })
        .transpose()
}

/// One workload in this process.
fn run_one(args: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let flags = flags(args, &["workload", "seed", "seconds", "trace", "record"])?;
    let text = |key: &str| flags.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let name = text("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = number(&flags, "seed")?.ok_or("--seed is required")?;
    let seconds = number(&flags, "seconds")?.unwrap_or(ledger::DEFAULT_SECONDS);
    let trace = match number(&flags, "trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(n) => return Err(format!("--trace takes 0 or 1, not {n}")),
    };

    let m = ledger::measure(
        workload,
        FULL,
        seed,
        seconds,
        trace,
        Path::new(OUT_DIR),
        process_start,
    );
    m.print();
    if let Some(path) = text("record") {
        std::fs::write(path, m.to_json().to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", m.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in its own child process, so that peak RSS,
/// allocator counts and CPU affinity are per workload.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["seed", "seconds"])?;
    let seed = number(&flags, "seed")?.unwrap_or(1);
    let seconds = number(&flags, "seconds")?.unwrap_or(ledger::DEFAULT_SECONDS);
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    let mut records = Vec::new();
    let mut all_correct = true;
    for w in ALL {
        println!("# {}: {}", w.name(), w.why());
        let part = out.join(format!("part-{}.json", w.name()));
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--trace", "1"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .arg("--record")
            .arg(&part)
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("the {} child ended with {status}", w.name()));
        }
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("cannot read {}: {e}", part.display()))?;
        let record = json::parse(&text)?;
        std::fs::remove_file(&part)
            .map_err(|e| format!("cannot remove {}: {e}", part.display()))?;
        all_correct &= record.get("failed").and_then(Value::as_f64) == Some(0.0);
        records.push((w.name().to_string(), record));
    }

    let host = sys::Host::read();
    let results = obj([
        ("schema", 1u64.into()),
        (
            "host",
            obj([
                ("nproc", (host.nproc as u64).into()),
                ("cpu_model", host.cpu_model.into()),
                ("kernel", host.kernel.into()),
                ("git_commit", host.git_commit.into()),
            ]),
        ),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("workloads", Value::Obj(records)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("perf-ledger: some operations failed (see ops_failed_pct above)");
        Ok(ExitCode::FAILURE)
    }
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let any_worse = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
