//! Every steady state a served eBNN DPU can be in must have a batched
//! mode: for each chunk size 1..=16 (a batch ends in a remainder chunk of
//! `len % 16` images), launched on as many tasklets as images or on all
//! 16, at most 1 % of the issue slots may go pick by pick on the fast
//! engine. A rotation shape no schedule probe covers runs ~9× slower and
//! would otherwise only show as a p90 of the serving benchmark.
//!
//! `cargo test --release -p pim-bench --test kernel_residency -- --nocapture`
//! prints the sweep with host time per instruction.

use dpu_sim::Engine;
use pim_bench::kernels::{ebnn_tier1_launched, KernelShape};
use std::time::Instant;

/// Slots, per-slot picks and host nanoseconds per instruction (best of
/// three runs) of `shape` on the superblock engine.
fn run(shape: &KernelShape) -> (u64, u64, f64) {
    let mut best = f64::INFINITY;
    let mut counts = (0, 0);
    for _ in 0..3 {
        let mut m = shape.staged.clone();
        let before = m.engine_stats();
        let start = Instant::now();
        let result = m
            .run_exec_engine(&shape.exec, shape.tasklets, Engine::Superblock)
            .expect("kernel runs");
        best = best.min(start.elapsed().as_nanos() as f64 / result.instructions as f64);
        let stats = m.engine_stats().since(&before);
        assert_eq!(stats.slots(), result.instructions, "{}: modes partition the slots", shape.name);
        counts = (result.instructions, stats.reference_slots);
    }
    (counts.0, counts.1, best)
}

#[test]
fn every_ebnn_chunk_size_runs_batched() {
    println!("{:<24} {:>9} {:>12} {:>9}", "shape", "slots", "per-slot", "ns/instr");
    for images in 1..=16 {
        for tasklets in if images == 16 { vec![16] } else { vec![images, 16] } {
            let shape = ebnn_tier1_launched(images, tasklets);
            let (slots, per_slot, ns) = run(&shape);
            println!("{:<24} {slots:>9} {per_slot:>12} {ns:>9.2}", shape.name);
            assert!(
                per_slot * 100 <= slots,
                "{}: {per_slot} of {slots} slots went pick by pick",
                shape.name
            );
        }
    }
}
