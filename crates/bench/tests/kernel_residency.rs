//! Every steady state a served paper kernel can be in must have a batched
//! mode: at most 1 % of the issue slots may go pick by pick on the fast
//! engine. For eBNN that is each chunk size 1..=16 (a batch ends in a
//! remainder chunk of `len % 16` images), launched on as many tasklets as
//! images or on all 16; for YOLO it is the GEMM row on 11 tasklets, whose
//! three `__mulsi3` calls per multiply must retire inside the rotations. A
//! rotation shape no schedule probe covers runs ~9× slower and would
//! otherwise only show as a p90 of the serving benchmark.
//!
//! `cargo test --release -p pim-bench --test kernel_residency -- --nocapture`
//! prints the sweep with the mean lane width of its chunks (tasklets per
//! shared decode) and host time per instruction.

use dpu_sim::{Engine, RunSpec};
use pim_bench::kernels::{ebnn_tier1_launched, yolo_row, KernelShape};
use std::time::Instant;

/// What one shape's sweep row reports.
struct Row {
    slots: u64,
    per_slot: u64,
    /// Mean tasklets per lane-group decode (0 without chunks).
    lane_width: f64,
    /// Host nanoseconds per instruction, best of three runs.
    ns: f64,
}

/// `shape`'s row on the superblock engine.
#[allow(clippy::cast_precision_loss)]
fn run(shape: &KernelShape) -> Row {
    let mut row = Row { slots: 0, per_slot: 0, lane_width: 0.0, ns: f64::INFINITY };
    for _ in 0..3 {
        let mut m = shape.staged.clone();
        let before = m.engine_stats();
        let spec = RunSpec { engine: Some(Engine::Superblock), ..RunSpec::new(shape.tasklets) };
        let start = Instant::now();
        let result = m.execute(&shape.exec, spec).expect("kernel runs");
        row.ns = row.ns.min(start.elapsed().as_nanos() as f64 / result.instructions as f64);
        let stats = m.engine_stats().since(&before);
        assert_eq!(stats.slots(), result.instructions, "{}: modes partition the slots", shape.name);
        (row.slots, row.per_slot) = (result.instructions, stats.reference_slots);
        row.lane_width = stats.chunk_lane_slots as f64 / stats.chunk_lane_steps.max(1) as f64;
    }
    row
}

fn print_header() {
    println!("{:<24} {:>9} {:>12} {:>6} {:>9}", "shape", "slots", "per-slot", "lanes", "ns/instr");
}

/// Print `shape`'s row of the sweep and fail above 1 % per-slot picks.
fn assert_runs_batched(shape: &KernelShape) {
    let Row { slots, per_slot, lane_width, ns } = run(shape);
    println!("{:<24} {slots:>9} {per_slot:>12} {lane_width:>6.1} {ns:>9.2}", shape.name);
    assert!(
        per_slot * 100 <= slots,
        "{}: {per_slot} of {slots} slots went pick by pick",
        shape.name
    );
}

#[test]
fn every_ebnn_chunk_size_runs_batched() {
    print_header();
    for images in 1..=16 {
        for tasklets in if images == 16 { vec![16] } else { vec![images, 16] } {
            assert_runs_batched(&ebnn_tier1_launched(images, tasklets));
        }
    }
}

#[test]
fn yolo_gemm_row_runs_batched() {
    print_header();
    assert_runs_batched(&yolo_row(11));
}
