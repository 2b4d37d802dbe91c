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

/// A bad command line is one line on stderr and exit 2: an output path
/// that cannot be created (checked before any work, so `--bench-json`
/// does not sample for a minute first) and a sample count of zero.
#[test]
fn unwritable_outputs_and_zero_samples_exit_2_with_one_line() {
    for args in [
        &["--obs-snapshot", "/nonexistent/x.json"][..],
        &["--folded", "/nonexistent/x.folded"],
        &["--bench-json", "/nonexistent/x.json", "--samples", "1"],
        &["--samples", "0", "--exp", "eq3_4"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

/// An output file is replaced whole: nothing of a longer old one survives.
#[test]
fn an_existing_output_is_replaced_whole() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("report_cli.folded");
    std::fs::write(&path, "stale\n".repeat(1 << 12)).expect("seed the old file");
    let out = report(&["--folded", path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("the new file");
    assert!(!text.is_empty() && !text.contains("stale"), "{text}");
}

/// A reader that stops early (`report --json | head -c 300`) closes the
/// pipe while experiments are still to come: the next write meets a
/// closed pipe, and `report` exits 0 without a panic message.
#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit() {
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--json")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("report starts");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 16];
    stdout.read_exact(&mut head).expect("the first experiment's line");
    drop(stdout);
    let out = child.wait_with_output().expect("report exits");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
