//! The `report` binary's argument handling: a typo must not look like an
//! experiment that printed nothing.

use std::process::Command;

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("report runs")
}

#[test]
fn unknown_experiment_lists_the_valid_ones_and_exits_2() {
    for args in [&["--exp", "fig4_7"][..], &["--exp"]] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        for id in ["eq3_4", "fig4_7a", "engine_residency"] {
            assert!(stderr.split_whitespace().any(|word| word == id), "{id} not in: {stderr}");
        }
    }
}

#[test]
fn known_experiment_still_runs() {
    let out = report(&["--exp", "eq3_4", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("{\"experiment\":\"eq3_4\""), "{stdout}");
}
