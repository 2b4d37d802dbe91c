//! Chaos-soak driver: run a seeded multi-fault campaign over thousands
//! of launches and fail loudly on any integrity violation.
//!
//! ```text
//! cargo run --release -p pim-bench --bin chaos_soak -- --launches 10000
//! ```
//!
//! Exits 0 only when the campaign is clean: zero silent corruption,
//! zero retries consumed by flip-only launches, zero unexplained
//! unserved items. `--json` emits the machine-readable report (the CI
//! `chaos-soak` job archives it).

#![forbid(unsafe_code)]

use pim_bench::chaos::{run_chaos, ChaosConfig};

fn usage() -> ! {
    eprintln!(
        "usage: chaos_soak [--launches N] [--seed S] [--dpus D] [--tasklets T] [--json]\n\
         defaults: --launches 10000 --seed {} --dpus 8 --tasklets 2",
        ChaosConfig::default().seed
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ChaosConfig::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--{what} needs a number");
                usage()
            })
        };
        match arg.as_str() {
            "--launches" => cfg.launches = num("launches"),
            "--seed" => cfg.seed = num("seed"),
            "--dpus" => cfg.dpus = num("dpus").max(2) as usize,
            "--tasklets" => cfg.tasklets = num("tasklets").max(1) as usize,
            "--json" => json = true,
            _ => usage(),
        }
    }

    let report = run_chaos(&cfg);
    // A closed pipe must not turn a failed campaign into a pass.
    let status = i32::from(!report.clean());
    if json {
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        pim_serve::write_stdout(&(text + "\n"), status);
    } else {
        pim_serve::write_stdout(&report.render(), status);
    }
    if !report.clean() {
        eprintln!("chaos soak FAILED: integrity violations detected");
        std::process::exit(1);
    }
}
