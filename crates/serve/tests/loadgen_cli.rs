//! The `loadgen` binary's argument handling: a bad flag prints the usage
//! text and exits 2; it never panics and never runs on a guess.

use std::process::Command;

fn loadgen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args).output().expect("loadgen runs")
}

#[test]
fn bad_flags_print_usage_and_exit_2() {
    let cases: [&[&str]; 13] = [
        &["--gap", "18446744073709551615", "--requests", "3", "--dpus", "2"],
        &["--gap", "9223372036854775808", "--requests", "3", "--dpus", "2"],
        &["--mode", "closed", "--think", "18446744073709551615", "--requests", "3"],
        &["--seed", "x"],
        &["--items", "3..x"],
        &["--requests"],
        &["--dpus", "0"],
        &["--dpus", "2561"],
        &["--filters", "0"],
        &["--filters", "9"],
        &["--mode", "foo"],
        &["--mode", "closed", "--clients", "0"],
        &["--pgo-warmup", "1"],
    ];
    for args in cases {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran a serve");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn good_flags_still_serve() {
    let out = loadgen(&["--requests", "4", "--dpus", "2", "--items", "1..2", "--mode", "closed"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("[serve] requests=4"), "{stdout}");
}

/// Flags are the only serving knobs: `PIM_SERVE_QUEUE_DEPTH` and
/// `PIM_SERVE_MAX_BATCH_DELAY` in the environment override neither
/// `--queue-depth` nor `--delay`, and change nothing.
#[test]
fn serving_env_vars_do_not_override_flags() {
    let args = ["--requests", "12", "--dpus", "2", "--items", "1..4", "--gap", "1", "--json"];
    let run = |env: &[(&str, &str)]| {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .envs(env.iter().copied())
            .output()
            .expect("loadgen runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let plain = run(&[]);
    let with_env = run(&[("PIM_SERVE_QUEUE_DEPTH", "1"), ("PIM_SERVE_MAX_BATCH_DELAY", "1")]);
    assert_eq!(String::from_utf8_lossy(&with_env), String::from_utf8_lossy(&plain));
}
