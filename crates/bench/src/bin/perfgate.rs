//! Perf-regression gate over the deterministic observability snapshot.
//!
//! ```text
//! perfgate [--baseline <path>] [--tolerance <rel>] [--current <path>]
//! perfgate --write-baseline [--baseline <path>]
//! ```
//!
//! Regenerates the snapshot (`pim_bench::snapshot::snapshot`, simulated
//! figures only — no wall clock) and diffs it against the committed
//! baseline:
//!
//! * integer leaves (counters, cycle counts, instruction counts) must
//!   match **exactly** — the workload is deterministic, so any drift is
//!   a real behavior change;
//! * float leaves (gauges, histogram sums/quantiles) must stay within
//!   `--tolerance` relative error (default 2%), absorbing benign
//!   float-summation reassociation;
//! * keys under `obs.steal.` and `obs.pool.` are ignored
//!   (host-scheduling dependent), as are keys under `obs.engine.`
//!   (which simulator mode retired each slot: engine-tier dependent);
//! * added or removed keys fail the gate, so intentional metric changes
//!   are re-blessed explicitly with `--write-baseline`.
//!
//! Exit status: 0 clean, 1 regression (differences listed on stderr),
//! 2 usage error.

#![forbid(unsafe_code)]

use serde_json::Value;

const DEFAULT_BASELINE: &str = "baselines/metrics_baseline.json";
const DEFAULT_TOLERANCE: f64 = 0.02;

/// Key fragments whose leaves depend on host scheduling or on the engine
/// tier executing the launch, and are never gated.
const IGNORED_FRAGMENTS: &[&str] = &["obs.steal.", "obs.pool.", "obs.engine."];

#[derive(Debug, PartialEq)]
enum Leaf {
    Int(i128),
    Float(f64),
    Text(String),
    Bool(bool),
    Null,
}

/// Flatten a JSON tree into `path -> leaf` pairs, path segments joined
/// with `/` (metric names already contain dots).
fn flatten(value: &Value, path: &str, out: &mut Vec<(String, Leaf)>) {
    match value {
        Value::Object(fields) => {
            for (k, v) in fields {
                let sub = if path.is_empty() { k.clone() } else { format!("{path}/{k}") };
                flatten(v, &sub, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{path}/{i}"), out);
            }
        }
        Value::Null => out.push((path.to_owned(), Leaf::Null)),
        Value::Bool(b) => out.push((path.to_owned(), Leaf::Bool(*b))),
        Value::String(s) => out.push((path.to_owned(), Leaf::Text(s.clone()))),
        Value::Number(n) => {
            let leaf = match n {
                serde_json::Number::U64(u) => Leaf::Int(i128::from(*u)),
                serde_json::Number::I64(i) => Leaf::Int(i128::from(*i)),
                serde_json::Number::F64(f) => Leaf::Float(*f),
            };
            out.push((path.to_owned(), leaf));
        }
    }
}

fn ignored(path: &str) -> bool {
    IGNORED_FRAGMENTS.iter().any(|frag| path.contains(frag))
}

/// Compare two leaves under the gate's rules; `None` means acceptable,
/// `Some(reason)` is a violation.
#[allow(clippy::cast_precision_loss)]
fn violation(baseline: &Leaf, current: &Leaf, tolerance: f64) -> Option<String> {
    match (baseline, current) {
        (Leaf::Int(b), Leaf::Int(c)) => {
            (b != c).then(|| format!("expected {b}, got {c} (integers gate exactly)"))
        }
        (Leaf::Int(b), Leaf::Float(c)) => relative_violation(*b as f64, *c, tolerance),
        (Leaf::Float(b), Leaf::Float(c)) => relative_violation(*b, *c, tolerance),
        (Leaf::Float(b), Leaf::Int(c)) => relative_violation(*b, *c as f64, tolerance),
        (Leaf::Text(b), Leaf::Text(c)) => (b != c).then(|| format!("expected {b:?}, got {c:?}")),
        (Leaf::Bool(b), Leaf::Bool(c)) => (b != c).then(|| format!("expected {b}, got {c}")),
        (Leaf::Null, Leaf::Null) => None,
        (b, c) => Some(format!("type changed: {b:?} -> {c:?}")),
    }
}

fn relative_violation(b: f64, c: f64, tolerance: f64) -> Option<String> {
    let scale = b.abs().max(1e-12);
    let rel = (c - b).abs() / scale;
    (rel > tolerance).then(|| {
        format!("expected {b}, got {c} ({:.2}% > {:.2}% tolerance)", rel * 100.0, tolerance * 100.0)
    })
}

fn gate(baseline: &Value, current: &Value, tolerance: f64) -> Vec<String> {
    let mut base_leaves = Vec::new();
    let mut cur_leaves = Vec::new();
    flatten(baseline, "", &mut base_leaves);
    flatten(current, "", &mut cur_leaves);
    let mut failures = Vec::new();
    let cur_map: std::collections::BTreeMap<&str, &Leaf> =
        cur_leaves.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let base_keys: std::collections::BTreeSet<&str> =
        base_leaves.iter().map(|(k, _)| k.as_str()).collect();
    for (path, base) in &base_leaves {
        if ignored(path) {
            continue;
        }
        match cur_map.get(path.as_str()) {
            None => failures.push(format!("{path}: removed from snapshot")),
            Some(cur) => {
                if let Some(reason) = violation(base, cur, tolerance) {
                    failures.push(format!("{path}: {reason}"));
                }
            }
        }
    }
    for (path, _) in &cur_leaves {
        if !ignored(path) && !base_keys.contains(path.as_str()) {
            failures
                .push(format!("{path}: new key not in baseline (re-bless with --write-baseline)"));
        }
    }
    failures
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("perfgate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = DEFAULT_BASELINE.to_owned();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut write_baseline = false;
    let mut current_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2);
                });
            }
            "--tolerance" => {
                i += 1;
                tolerance = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a number (relative, e.g. 0.02)");
                    std::process::exit(2);
                });
            }
            "--current" => {
                i += 1;
                current_path = args.get(i).cloned();
                if current_path.is_none() {
                    eprintln!("--current needs a path");
                    std::process::exit(2);
                }
            }
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!("perfgate: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let current = match &current_path {
        Some(path) => read_json(path),
        None => pim_bench::snapshot::snapshot(),
    };

    if write_baseline {
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            std::fs::create_dir_all(dir).expect("create baseline directory");
        }
        let text = serde_json::to_string_pretty(&current).expect("serializable");
        std::fs::write(&baseline_path, text + "\n").expect("write baseline");
        eprintln!("perfgate: wrote {baseline_path}");
        return;
    }

    let baseline = read_json(&baseline_path);
    let failures = gate(&baseline, &current, tolerance);
    if failures.is_empty() {
        eprintln!("perfgate: OK ({baseline_path}, tolerance {:.2}%)", tolerance * 100.0);
    } else {
        eprintln!(
            "perfgate: {} regression(s) vs {baseline_path} (tolerance {:.2}%):",
            failures.len(),
            tolerance * 100.0
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
