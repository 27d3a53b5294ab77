//! E9 — regenerate Fig. 8: NAS parallel benchmarks for the four stacks at
//! 8/9, 16, 32/36 and 64 processes.
//!
//! Usage: `fig8_nas [--class A|B|C] [--procs N] [--kernel NAME] [--full]`
//!
//! * default class: C (the published panel)
//! * default procs: all four panels
//! * `--full`: also run the cells the published figure omits (the paper's
//!   PIOMan build deadlocked on 64 procs and on MG/LU; ours doesn't).

use bench_harness::fig8_panel;
use bench_harness::render::nas_table;
use nasbench::{Class, Kernel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut class = Class::C;
    let mut procs_list = vec![8usize, 16, 32, 64];
    let mut kernels: Vec<Kernel> = Kernel::ALL.to_vec();
    let mut full = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--class" => {
                i += 1;
                class = match args[i].as_str() {
                    "A" => Class::A,
                    "B" => Class::B,
                    "C" => Class::C,
                    other => panic!("unknown class {other}"),
                };
            }
            "--procs" => {
                i += 1;
                procs_list = vec![args[i].parse().expect("procs must be a number")];
            }
            "--kernel" => {
                i += 1;
                let want = args[i].to_uppercase();
                kernels = Kernel::ALL
                    .into_iter()
                    .filter(|k| k.name() == want)
                    .collect();
                assert!(!kernels.is_empty(), "unknown kernel {want}");
            }
            "--full" => full = true,
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    for &procs in &procs_list {
        let results = fig8_panel(class, procs, &kernels, full);
        // BT/SP substitute square counts (8→9, 32→36), as in the paper's
        // panel titles.
        let label = match procs {
            8 => "8/9".to_string(),
            32 => "32/36".to_string(),
            other => other.to_string(),
        };
        let caption = format!("Fig. 8: NAS class {} at {} processes", class.name(), label);
        println!("{}", nas_table(&results, &caption));
    }
}
