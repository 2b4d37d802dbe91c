//! The execution-tier ladder, measured side by side: the per-instruction
//! reference loop and the superblock engine run the same kernels from
//! identical machines, so one criterion report shows what the fast tier
//! buys on each shape.
//!
//! Three synthetic shapes bracket the tier's reach:
//!
//! * `alu_loop` — one short loop block; with 11 tasklets at the same pc
//!   the fast tier runs it as tasklet-major chunks of memoized blocks;
//! * `sync_heavy` — mutex/barrier bound: every lock is a boundary
//!   instruction, so the tiers should be close;
//! * `divergent` — a `tasklet_id`-seeded loop where register files differ
//!   per tasklet while the pcs stay together: the same chunks.
//!
//! The paper's own kernels sit next to them (`pim_bench::kernels`):
//! `ebnn_tier1_{1,6,11,16}t`, the generated eBNN conv-pool program with
//! one image per tasklet — divergent pcs and register files, WRAM loads
//! in the inner loop, so the fast tier lives off tasklet-major chunks —
//! and `yolo_row_11t`, the Algorithm-2 GEMM row with a DMA per multiply
//! (chunks stand off; burst batching carries it). The ratio gates on
//! these shapes are in `profiler_overhead.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpu_sim::asm::assemble;
use dpu_sim::{Engine, ExecProgram, Machine, Program};
use pim_bench::kernels::paper_kernel_shapes;
use pim_bench::snapshot::alu_program;

fn sync_heavy_program() -> Program {
    assemble(
        "movi r2, 500\n\
         loop:\n\
         mutex.lock 1\n\
         lw r3, r0, 0x40\n\
         addi r3, r3, 1\n\
         sw r0, 0x40, r3\n\
         mutex.unlock 1\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         barrier\n\
         halt\n",
    )
    .expect("sync program assembles")
}

fn divergent_program() -> Program {
    assemble(
        "movi r1, 2000\n\
         me r3\n\
         addi r3, r3, 1\n\
         loop: add r2, r2, r3\n\
         addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         sw r0, 0, r2\n\
         halt\n",
    )
    .expect("divergent program assembles")
}

fn bench_tiers(c: &mut Criterion) {
    let shapes: [(&str, Program, usize); 4] = [
        ("alu_loop_1t", alu_program(), 1),
        ("alu_loop_11t", alu_program(), 11),
        ("sync_heavy_16t", sync_heavy_program(), 16),
        ("divergent_11t", divergent_program(), 11),
    ];
    for (name, program, tasklets) in shapes {
        let exec = ExecProgram::compile(&program).expect("bench program compiles");
        let mut g = c.benchmark_group(format!("engine_tiers/{name}"));
        g.sample_size(10);
        for engine in [Engine::Reference, Engine::Superblock] {
            g.bench_function(engine.name(), |b| {
                let mut m = Machine::default();
                b.iter(|| black_box(m.run_exec_engine(&exec, tasklets, engine).unwrap().cycles));
            });
        }
        g.finish();
    }
    for shape in paper_kernel_shapes() {
        let mut g = c.benchmark_group(format!("engine_tiers/{}", shape.name));
        g.sample_size(10);
        for engine in [Engine::Reference, Engine::Superblock] {
            g.bench_function(engine.name(), |b| {
                b.iter(|| {
                    let mut m = shape.staged.clone();
                    let run = m.run_exec_engine(&shape.exec, shape.tasklets, engine);
                    black_box(run.unwrap().cycles)
                });
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_tiers);
criterion_main!(benches);
