//! Fault-tolerance cost: zero-fault resilient launch vs the plain launch
//! path, plus a seeded campaign for context.
//!
//! The key contract here is the **zero-fault tax guard**: with no fault
//! plan the resilient path takes no MRAM snapshots, arms nothing, and runs
//! the same interpreter under the same default budget — so its wall-clock
//! must stay within 2% (plus scheduling noise) of `launch_loaded`. The
//! guard is asserted at the end of the run, making `cargo bench
//! --bench resilient_launch` a pass/fail gate, not just a report.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpu_sim::faults::{FaultConfig, FaultPlan};
use dpu_sim::DpuId;
use pim_host::{DpuSet, ResilientLaunchPolicy};
use std::time::{Duration, Instant};

const DPUS: usize = 8;
const TASKLETS: usize = 4;

/// An eBNN-scale per-DPU kernel: DMA in, ~100k-cycle compute loop per
/// tasklet, DMA out. Heavy enough that per-launch fixed costs are honest
/// noise, light enough to iterate.
fn staged_set() -> DpuSet {
    let program = dpu_sim::asm::assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         top:\n\
         addi r4, r4, -1\n\
         bne r4, r0, top\n\
         barrier\n\
         mram.write r1, r2, r3\n\
         halt\n",
    )
    .unwrap();
    let mut set = DpuSet::allocate(DPUS).unwrap();
    set.define_symbol("n", 8).unwrap();
    for i in 0..DPUS {
        set.copy_to_dpu(DpuId(i as u32), "n", 0, &(100_000 + i as u64 * 1_000).to_le_bytes())
            .unwrap();
    }
    set.load(&program).unwrap();
    set
}

/// Minimum wall-clock of two alternately-run launches of one staged
/// set: side `false` and side `true` of `launch`, each after an untimed
/// `prepare` for its side. Interleaving the pairs (and swapping which
/// goes first each round) means slow drift in machine load hits both mins
/// equally instead of biasing whichever loop happened to run during the
/// noisy stretch; one set for both sides means both launch the same
/// memory placement, so the gap between them is the tax, not where two
/// sets' pages happened to land.
fn paired_min_time(
    n: usize,
    set: &mut DpuSet,
    mut prepare: impl FnMut(&mut DpuSet, bool),
    mut launch: impl FnMut(&mut DpuSet, bool),
) -> (Duration, Duration) {
    let mut time = |set: &mut DpuSet, side: bool| {
        prepare(set, side);
        let start = Instant::now();
        launch(set, side);
        start.elapsed()
    };
    time(set, false); // warm-up
    time(set, true);
    let (mut min_a, mut min_b) = (Duration::MAX, Duration::MAX);
    for round in 0..n {
        for side in [round % 2 == 1, round % 2 == 0] {
            let t = time(set, side);
            if side {
                min_b = min_b.min(t);
            } else {
                min_a = min_a.min(t);
            }
        }
    }
    (min_a, min_b)
}

fn bench_resilient_launch(c: &mut Criterion) {
    let mut g = c.benchmark_group("resilient_launch");
    g.sample_size(10);

    g.bench_function("plain_launch_loaded", |b| {
        let mut set = staged_set();
        b.iter(|| black_box(set.launch_loaded(TASKLETS).unwrap().makespan_cycles()));
    });
    g.bench_function("zero_fault_resilient", |b| {
        let mut set = staged_set();
        let policy = ResilientLaunchPolicy::default();
        b.iter(|| {
            black_box(set.launch_loaded_resilient(TASKLETS, &policy).unwrap().makespan_cycles())
        });
    });
    g.bench_function("campaign_dma_fail_10pct", |b| {
        let mut set = staged_set();
        let policy = ResilientLaunchPolicy::with_faults(FaultPlan::new(FaultConfig {
            seed: 42,
            dma_fail_prob: 0.10,
            ..FaultConfig::default()
        }));
        b.iter(|| {
            black_box(set.launch_loaded_resilient(TASKLETS, &policy).unwrap().makespan_cycles())
        });
    });
    g.bench_function("campaign_one_dpu_offline", |b| {
        let mut set = staged_set();
        let policy = ResilientLaunchPolicy {
            max_retries: 0,
            ..ResilientLaunchPolicy::with_faults(FaultPlan::new(FaultConfig {
                forced_offline: vec![3],
                ..FaultConfig::default()
            }))
        };
        b.iter(|| {
            black_box(set.launch_loaded_resilient(TASKLETS, &policy).unwrap().makespan_cycles())
        });
    });
    g.finish();

    // --- The zero-fault tax guard -------------------------------------
    // Paired, interleaved min-of-N; 2% relative budget plus a small
    // absolute epsilon so scheduler jitter can't flake the gate. Both
    // gates launch on the calling thread: a forked launch adds the
    // workers' wake-up and scheduling to each side's time, noise of the
    // same order as the budget on a small machine.
    const RUNS: usize = 12;
    let mut set = staged_set();
    set.set_parallel_threshold(Some(usize::MAX));
    let policy = ResilientLaunchPolicy::default();
    let (min_plain, min_resilient) = paired_min_time(
        RUNS,
        &mut set,
        |_, _| {},
        |set, resilient| {
            let report = if resilient {
                set.launch_loaded_resilient(TASKLETS, &policy)
            } else {
                set.launch_loaded(TASKLETS)
            };
            black_box(report.unwrap().makespan_cycles());
        },
    );
    let budget = min_plain.mul_f64(1.02) + Duration::from_micros(500);
    println!(
        "zero-fault tax: plain min {min_plain:?}, resilient min {min_resilient:?}, budget {budget:?}"
    );
    assert!(
        min_resilient <= budget,
        "zero-fault resilient launch exceeded the 2% overhead budget: \
         plain {min_plain:?} vs resilient {min_resilient:?}"
    );

    // --- The ECC tax guard --------------------------------------------
    // Arming the SEC-DED sidecar on a zero-fault run touches only the
    // DMA edges (encode-on-write, verify-on-read) plus one lazy page
    // encode when it is armed (untimed: `enable_ecc` toggles between the
    // timed launches); the interpreter itself is untouched. So ECC-on
    // must stay within 2% of ECC-off wall-clock — and produce
    // bit-identical results, checked first so a correctness bug can't
    // hide behind a perf assertion.
    let mut set = staged_set();
    set.set_parallel_threshold(Some(usize::MAX));
    let mut run = |ecc| {
        set.enable_ecc(ecc);
        let makespan = set.launch_loaded_resilient(TASKLETS, &policy).unwrap().makespan_cycles();
        let out: Vec<u64> =
            (0..DPUS).map(|i| set.copy_scalar_from(DpuId(i as u32), "n").unwrap()).collect();
        (makespan, out)
    };
    let (off, on) = (run(false), run(true));
    assert_eq!(off.0, on.0, "ECC must be invisible to simulated time on a clean run");
    assert_eq!(off.1, on.1, "ECC-on output diverged from ECC-off");
    let (min_off, min_on) = paired_min_time(
        RUNS,
        &mut set,
        |set, ecc| set.enable_ecc(ecc),
        |set, _| {
            black_box(set.launch_loaded_resilient(TASKLETS, &policy).unwrap().makespan_cycles());
        },
    );
    let budget = min_off.mul_f64(1.02) + Duration::from_micros(500);
    println!("ecc tax: off min {min_off:?}, on min {min_on:?}, budget {budget:?}");
    assert!(
        min_on <= budget,
        "ECC-on zero-fault launch exceeded the 2% overhead budget: \
         off {min_off:?} vs on {min_on:?}"
    );
}

criterion_group!(benches, bench_resilient_launch);
criterion_main!(benches);
