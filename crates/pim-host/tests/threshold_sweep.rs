//! Parallel-threshold sweep: re-derive `DEFAULT_PARALLEL_THRESHOLD`.
//!
//! Run with `cargo test --release -p pim-host --test threshold_sweep --
//! --ignored --nocapture` to print sequential vs pooled (forked) launch
//! wall-clock at each set size. The default threshold should sit at the
//! crossover: below it spawning the workers outweighs the parallelism. The
//! sweep backing the current default (4) is recorded in
//! docs/PERFORMANCE.md.

use dpu_sim::asm::assemble;
use pim_host::DpuSet;
use std::time::{Duration, Instant};

fn work_program() -> dpu_sim::Program {
    assemble(
        "movi r4, 20000\n\
         top:\n\
         addi r4, r4, -1\n\
         bne r4, r0, top\n\
         halt\n",
    )
    .unwrap()
}

fn min_launch_time(set: &mut DpuSet, rounds: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        set.launch_loaded(1).expect("launch");
        best = best.min(start.elapsed());
    }
    best
}

#[test]
#[ignore = "diagnostic sweep: run with --release -- --ignored --nocapture"]
fn sweep_sequential_vs_pooled() {
    let program = work_program();
    println!("dpus  sequential    pooled      winner");
    for n in [1usize, 2, 3, 4, 6, 8, 16, 32] {
        let mut seq = DpuSet::allocate(n).unwrap();
        seq.set_parallel_threshold(Some(usize::MAX));
        seq.load(&program).unwrap();
        let t_seq = min_launch_time(&mut seq, 20);

        let mut par = DpuSet::allocate(n).unwrap();
        par.set_parallel_threshold(Some(1));
        par.load(&program).unwrap();
        let t_par = min_launch_time(&mut par, 20);

        let winner = if t_seq <= t_par { "sequential" } else { "pooled" };
        println!("{n:>4}  {t_seq:>10.1?}  {t_par:>10.1?}  {winner}");
    }
}
