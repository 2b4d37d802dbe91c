//! `pim-e2e` command line: one workload in this process (the form the
//! benchmark driver calls), every workload in child processes, or
//! `--check-repeat`.

use pim_e2e::probes::{pool_workers, probe};
use pim_e2e::report::{self, Metric, END_TO_END};
use pim_e2e::run::{end_to_end, traced, Round};
use pim_e2e::workload::{find, EbnnKernel, Kernel, Model, Spec, YoloKernel, WORKLOADS};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: pim-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]
       pim-e2e --check-repeat [--seed N] [--seconds S]

  --workload NAME   run one workload in this process (default: every workload, each in a
                    child process, untraced then traced)
  --seed N          the only input to model, pool, traffic and fault generation (default 1)
  --seconds S       how long the measured phase serves rounds (default 27)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: spans, oracle on every output,
                    probes, per-layer metrics and the budget checks (--traced = --trace 1)
  --spans-out FILE  with --trace 1: write the recorded spans as JSON lines
  --check-repeat    run the whole set twice and require exact metrics byte-identical and
                    host metrics within their bounds";

/// Knobs of the crates that arrive through the environment; the harness
/// removes them so a stray export cannot change what is measured.
const SCRUBBED_ENV: [&str; 4] = [
    "PIM_SIM_ENGINE",
    "PIM_HOST_PARALLEL_THRESHOLD",
    "PIM_SERVE_MAX_BATCH_DELAY",
    "PIM_SERVE_QUEUE_DEPTH",
];

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 27.0,
        trace: false,
        spans_out: None,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.trace = true,
            "--spans-out" => a.spans_out = Some(value()?),
            "--check-repeat" => a.check_repeat = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    if cfg!(debug_assertions) {
        eprintln!("pim-e2e refuses a debug build: run it with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("pim-e2e: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every launch runs on this thread: two busy worker threads on a shared
    // two-core host measure the host's scheduler (see the README). The
    // knob is the environment's because `YoloServeEngine` gives no mutable
    // access to its set.
    std::env::set_var(pim_host::DpuSet::PARALLEL_THRESHOLD_ENV, usize::MAX.to_string());
    let outcome = if args.check_repeat {
        check_repeat(&args)
    } else if let Some(spec) = args.workload {
        match spec.model {
            Model::Ebnn { .. } => run_one::<EbnnKernel>(spec, &args),
            Model::Yolo { .. } => run_one::<YoloKernel>(spec, &args),
        }
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pim-e2e: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn print_header(spec: &Spec, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "pim-e2e workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", spec.why);
    println!(
        "env: nproc={nproc} launches=sequential pool_workers={} profile=release rustc={:?} git={}",
        pool_workers(spec.dpus),
        command_output("rustc", &["--version"]),
        // Only in a checkout that is itself a repository: git would
        // otherwise search the parent directories.
        if std::path::Path::new(".git").exists() {
            command_output("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_owned()
        },
    );
    println!(
        "note: all time inside serve is virtual (simulated cycles at 350 MHz), so open-loop \
         latency is measured from the scheduled arrival and generator lateness is 0 by \
         construction; load is generated by the single harness thread."
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let kind = if m.exact { "exact" } else { "host" };
        println!("metric {:<40} {:>18.6} {:<9} {kind}", m.name, m.value, m.unit);
    }
}

/// Requests attempted and failed over `rounds`.
fn attempts(rounds: &[Round]) -> (u64, u64) {
    rounds.iter().fold((0, 0), |(a, f), r| (a + r.requests, f + r.failed))
}

fn run_one<K: Kernel>(spec: &Spec, args: &Args) -> Result<(), String> {
    print_header(spec, args);
    let (metrics, rounds_checked, (attempted, failed), wrong) = if args.trace {
        let run = traced::<K>(spec, args.seed, args.seconds);
        let fill = &run.rounds[0].engine.fill;
        let typical = fill.iter().sum::<usize>() / fill.len().max(1);
        let probed = probe(spec, &run.built.kernel, args.seed, typical);
        if let Some(path) = &args.spans_out {
            write_spans(path, &run.rounds).map_err(|e| format!("{path}: {e}"))?;
        }
        let checked: u64 = run.rounds.iter().map(|r| r.checked).sum();
        let wrong = run.warmup_checked.1 + run.rounds.iter().map(|r| r.wrong).sum::<u64>();
        println!(
            "traced rounds={} pairs={} spans={} oracle: checked={} wrong={wrong}",
            run.rounds.len(),
            run.period_ratios.len(),
            run.rounds.iter().map(|r| r.spans.len()).sum::<usize>(),
            checked + run.warmup_checked.0,
        );
        let (metrics, budget_failures) = report::per_layer(spec, &run, &probed);
        if !budget_failures.is_empty() {
            print_metrics(&metrics);
            return Err(budget_failures.join("; "));
        }
        (metrics, checked, attempts(&run.rounds), wrong)
    } else {
        let run = end_to_end::<K>(spec, args.seed, args.seconds);
        let (metrics, p50, p90) = report::end_to_end(&run);
        println!(
            "rounds={} setups={:?} oracle (warm-up rounds): checked={} wrong={}",
            run.rounds.len(),
            run.setups_s,
            run.warmup_checked.0,
            run.warmup_checked.1,
        );
        let per_round: Vec<String> = run
            .rounds
            .iter()
            .map(|r| format!("{:.1}", r.wall_s * 1e6 / r.served_items.max(1) as f64))
            .collect();
        println!("host_us_per_item by round: {}", per_round.join(" "));
        println!(
            "host_batch_ms: samples={} beyond_p50={} beyond_p90={} p90_supported={}",
            p50.samples,
            p50.beyond,
            p90.beyond,
            p90.supported()
        );
        if !p90.supported() {
            eprintln!(
                "pim-e2e: warning: only {} batch periods beyond p90 (want 10): raise --seconds",
                p90.beyond
            );
        }
        (metrics, run.warmup_checked.0, attempts(&run.rounds), run.warmup_checked.1)
    };
    print_metrics(&metrics);
    // Degraded completions are allowed only where faults are injected; a
    // served-but-wrong output is silent corruption everywhere.
    let correct = wrong == 0 && rounds_checked > 0 && (spec.chaos.is_some() || failed == 0);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    println!("{}", report::result_line(correct, attempted, failed, &metrics));
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{}: {wrong} wrong outputs, {failed} of {attempted} requests failed",
            spec.name
        ))
    }
}

fn write_spans(path: &str, rounds: &[Round]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (round, r) in rounds.iter().enumerate() {
        for (id, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let batch = if s.batch == pim_e2e::spans::NO_BATCH {
                "null".to_owned()
            } else {
                s.batch.to_string()
            };
            writeln!(
                out,
                "{{\"round\": {round}, \"id\": {id}, \"parent\": {parent}, \"layer\": {:?}, \
                 \"name\": {:?}, \"batch\": {batch}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// This binary, set to run one workload in a child process (so that peak
/// RSS is per workload).
fn child(spec: &Spec, args: &Args, trace: bool) -> Result<Command, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    Ok(cmd)
}

fn run_all(args: &Args) -> Result<(), String> {
    for spec in &WORKLOADS {
        for trace in [false, true] {
            let status = child(spec, args, trace)?.status().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("{} (trace {}): {status}", spec.name, u8::from(trace)));
            }
            println!();
        }
    }
    Ok(())
}

/// The metrics of the result line a child run prints.
fn child_metrics(spec: &Spec, args: &Args, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let out =
        child(spec, args, trace)?.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} (trace {}): {}", spec.name, u8::from(trace), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    let result: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("child result line: {e}"))?;
    let Some(serde_json::Value::Object(metrics)) = result.get("metrics") else {
        return Err("result line without metrics".to_owned());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(serde_json::Value::as_f64);
            value.map(|v| (name.clone(), v)).ok_or_else(|| format!("{name}: no value"))
        })
        .collect()
}

/// Run the whole set twice; exact metrics must repeat to the last digit,
/// host metrics must agree within their bound.
fn check_repeat(args: &Args) -> Result<(), String> {
    let mut problems = Vec::new();
    for spec in &WORKLOADS {
        for trace in [false, true] {
            let first = child_metrics(spec, args, trace)?;
            let second = child_metrics(spec, args, trace)?;
            if first.len() != second.len() {
                return Err(format!("{}: the two runs print different metrics", spec.name));
            }
            for ((name, a), (_, b)) in first.iter().zip(&second) {
                let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
                let verdict = if report::is_exact(name) {
                    // The shortest round-trip digits are printed, so equal
                    // numbers are byte-identical text.
                    (a == b).then_some("identical")
                } else if let Some(bound) = bound {
                    ((b / a - 1.0).abs() <= bound).then_some("within bound")
                } else {
                    Some("host time, no bound")
                };
                match verdict {
                    Some(v) => println!("{:<22} {name:<40} {v}", spec.name),
                    None => problems.push(format!("{} {name}: {a} vs {b}", spec.name)),
                }
            }
        }
    }
    if problems.is_empty() {
        println!("check-repeat: two sets of runs agree");
        Ok(())
    } else {
        Err(format!(
            "check-repeat: {} metrics disagree:\n  {}",
            problems.len(),
            problems.join("\n  ")
        ))
    }
}
