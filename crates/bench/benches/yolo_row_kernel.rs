//! Criterion bench for the Algorithm-2 GEMM row kernel — the paper's
//! headline YOLO workload on the perf dashboard alongside the synthetic
//! interpreter loops.
//!
//! Two shapes bracket the mapping: a single DPU computing one output row
//! (the per-row inner loop in isolation — tasklet-strided columns, one
//! 2-byte `B`-element DMA per multiply, the §4.3.3 memory-bound pattern)
//! and a small multi-row layer under the full Fig. 4.6 orchestration
//! (`A`-row scatter, `B` broadcast, `C`-row gather).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use yolo_pim::codegen::{run_tier1_layer, LayerRunSpec};
use yolo_pim::gemm::GemmDims;

/// Deterministic small-magnitude test matrices (values in -8..8 keep the
/// i16 accumulator comfortably in range at these shapes).
fn matrix(len: usize, seed: u32) -> Vec<i16> {
    let mut state = seed.wrapping_mul(2_654_435_761).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state % 16) as i16 - 8
        })
        .collect()
}

fn bench_yolo_row_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("yolo_row_kernel");
    g.sample_size(10);

    for (name, dims, tasklets) in [
        // One DPU = one output row: the Algorithm-2 inner loop alone.
        ("single_row/n64_k32_8t", GemmDims { m: 1, n: 64, k: 32 }, 8usize),
        // A small layer across 8 DPUs under the full mapping.
        ("layer/m8_n32_k32_8t", GemmDims { m: 8, n: 32, k: 32 }, 8),
    ] {
        let a = matrix(dims.m * dims.k, 7);
        let b = matrix(dims.k * dims.n, 11);
        let spec = LayerRunSpec::new(tasklets);
        let run = run_tier1_layer(dims, 1, &a, &b, spec).expect("row kernel runs");
        let launch = run.report;
        println!(
            "{name}: {} instructions, {} cycles (max DPU) per run",
            launch.total_instructions(),
            launch.makespan_cycles()
        );
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let run = run_tier1_layer(dims, 1, &a, &b, spec).expect("row kernel runs");
                black_box((run.c, run.report.makespan_cycles()))
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_yolo_row_kernel);
criterion_main!(benches);
