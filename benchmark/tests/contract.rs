//! `BENCHMARK.json` and the tables in `report.rs` / `workload.rs` say the
//! same thing, and the result line has the shape the driver parses.

use pim_e2e::report::{result_line, Metric, END_TO_END, PER_LAYER};
use pim_e2e::workload::WORKLOADS;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} must be an array, found {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} in {entry:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn workloads_match_the_code() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> =
        entries(&doc, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, coded);
    assert!((2..=8).contains(&coded.len()));
    for (name, why) in coded {
        assert!(valid_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is one line of <= 200");
    }
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let coded: Vec<(&str, &str, &str, f64)> =
        END_TO_END.iter().map(|m| (m.name, m.unit, m.better, m.bound)).collect();
    assert_eq!(listed, coded);
    for m in &END_TO_END {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher");
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    // Set-up time gets the largest bound.
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match_the_code() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let coded: Vec<(&str, &str, &str)> =
        PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(listed, coded);
    assert!((1..=128).contains(&coded.len()));
    let layers = ["loadgen", "pim-serve", "ebnn", "yolo-pim", "pim-host", "dpu-sim", "pim-trace"];
    for m in &PER_LAYER {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        let layer = m.name.split('.').next().unwrap();
        assert!(layers.contains(&layer) || layer == "model", "{}: unknown layer", m.name);
    }
    // Every name is used once across both lists.
    let mut names: Vec<&str> =
        PER_LAYER.iter().map(|m| m.name).chain(END_TO_END.iter().map(|m| m.name)).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before);
}

#[test]
fn command_stays_inside_the_benchmark_directory() {
    let doc = benchmark_json();
    let paths: Vec<&str> = entries(&doc, "paths").iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&doc, "command").iter().filter_map(Value::as_str).collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"--release"), "never measure a debug build");
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command.iter().all(|a| !a.starts_with('/') && !a.contains("..")));
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn result_line_is_one_json_object_with_exactly_four_keys() {
    let metrics = [
        Metric { name: "host_us_per_item", unit: "us", value: 367.580_778_255_264_3, exact: false },
        Metric { name: "served_share", unit: "ratio", value: 1.0, exact: true },
        Metric { name: "pim-trace.residual_pct", unit: "%", value: 1.8e-14, exact: false },
        Metric { name: "model.error_pct", unit: "%", value: f64::NAN, exact: false },
    ];
    let line = result_line(true, 2700, 0, &metrics);
    assert!(!line.contains('\n'));
    let v: Value = serde_json::from_str(&line).expect("the result line is JSON");
    let Value::Object(fields) = &v else { panic!("an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(2700.0));
    let m = v.get("metrics").expect("metrics");
    let first = m.get("host_us_per_item").expect("first metric");
    // All digits survive.
    assert_eq!(first.get("value").and_then(Value::as_f64), Some(367.580_778_255_264_3));
    assert_eq!(first.get("unit").and_then(Value::as_str), Some("us"));
    assert_eq!(
        m.get("pim-trace.residual_pct").and_then(|x| x.get("value")).and_then(Value::as_f64),
        Some(1.8e-14)
    );
    // JSON has no NaN.
    assert_eq!(
        m.get("model.error_pct").and_then(|x| x.get("value")).and_then(Value::as_f64),
        Some(0.0)
    );
}
