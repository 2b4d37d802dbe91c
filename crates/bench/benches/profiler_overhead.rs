//! Profiler cost: the pay-for-what-you-use gate, plus the attribution
//! tax on the path profiling rides.
//!
//! Profiling promises two things. First — and what the gate enforces —
//! unprofiled runs pay nothing for the profiler's existence: they keep
//! the superblock fast path and share none of the attribution
//! bookkeeping (`run_reference` is one loop generic over a per-slot
//! observer, and its `()` instantiation must compile to the loop with
//! none; the identity tests pin bit-identical results). The
//! gate runs the ALU loop at 11 tasklets profiler-off (`run_exec`, the
//! path every normal launch takes) paired against the profiler-free
//! reference interpreter (`Engine::Reference`, unobserved) and asserts
//! the profiler-off time stays within 3% of that floor. In practice it
//! sits far *below* the floor (the superblock engine is ~2.5x faster),
//! so the gate trips exactly when profiling support leaks cost into —
//! or reroutes — the unprofiled path.
//!
//! Second, when profiling is on it forces the reference path and adds a
//! per-issue-slot delta record. That tax is real (~25-30% on this
//! worst-case two-instruction loop body, where there is no work to
//! amortize it against) and is *contained*, not hidden: a second
//! assertion bounds profiled time at 1.5x the unprofiled reference so a
//! pathological regression in the profiled loop still fails the bench.
//!
//! The same bench carries the engine-tier ratio gates: on the paper's
//! eBNN kernel the default tier must beat the reference loop by 2x with 16
//! images on a DPU (tasklet-major chunks) and with 6 (the under-saturated
//! last chunk of a served batch) and with 12, 13 or 14 (a permuted
//! rotation on a verified orbit), and must not fall behind it at 3, 10
//! (>= 1x) and the 11-tasklet Fig. 4.7(a) knee (>= 0.95x). Last, the
//! recorded-launch gate: on a 256-DPU eBNN set an all-idle launch (every
//! DPU replays one recording) must cost at most a quarter, per DPU, of
//! the same launch with a distinct `img_base` in every DPU's params
//! (every read set differs, so every DPU is interpreted).
//!
//! `cargo bench --bench profiler_overhead` is therefore a pass/fail
//! gate; the criterion group reports all three timings for context.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpu_sim::{CycleAttribution, DpuId, Engine, ExecProgram, Machine, Observe, RunSpec};
use pim_bench::kernels::{ebnn_tier1, KernelShape};
use pim_bench::snapshot::alu_program;
use std::time::{Duration, Instant};

const TASKLETS: usize = 11;

fn exec() -> ExecProgram {
    ExecProgram::compile(&alu_program()).expect("alu program compiles")
}

/// Minimum wall-clock of two alternately-run workloads (see
/// `resilient_launch.rs` for the rationale: interleaving and swapping
/// order each round cancels slow machine-load drift).
fn paired_min_time(n: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    a(); // warm-up
    b();
    let (mut min_a, mut min_b) = (Duration::MAX, Duration::MAX);
    for round in 0..n {
        if round % 2 == 0 {
            min_a = min_a.min(time(&mut a));
            min_b = min_b.min(time(&mut b));
        } else {
            min_b = min_b.min(time(&mut b));
            min_a = min_a.min(time(&mut a));
        }
    }
    (min_a, min_b)
}

fn bench_profiler_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("profiler_overhead");
    g.sample_size(10);

    g.bench_function("alu_loop_11t_plain", |b| {
        let exec = exec();
        let mut m = Machine::default();
        b.iter(|| black_box(m.run_exec(&exec, TASKLETS).unwrap().cycles));
    });
    g.bench_function("alu_loop_11t_reference", |b| {
        let exec = exec();
        let mut m = Machine::default();
        b.iter(|| {
            black_box(
                m.execute(
                    &exec,
                    RunSpec {
                        budget: BUDGET,
                        engine: Some(Engine::Reference),
                        ..RunSpec::new(TASKLETS)
                    },
                )
                .unwrap()
                .cycles,
            )
        });
    });
    g.bench_function("alu_loop_11t_superblock", |b| {
        let exec = exec();
        let mut m = Machine::default();
        b.iter(|| {
            black_box(
                m.run_exec_engine(&exec, TASKLETS, dpu_sim::Engine::Superblock).unwrap().cycles,
            )
        });
    });
    g.bench_function("alu_loop_11t_profiled", |b| {
        let exec = exec();
        let mut m = Machine::default();
        let mut attr = CycleAttribution::new();
        b.iter(|| {
            black_box(
                m.execute(
                    &exec,
                    RunSpec { observe: Observe::Profile(&mut attr), ..RunSpec::new(TASKLETS) },
                )
                .unwrap()
                .cycles,
            )
        });
    });
    g.finish();

    const RUNS: usize = 14;
    let exec_off = exec();
    let exec_ref = exec();
    let mut off = Machine::default();
    let mut reference = Machine::default();

    // --- Gate 1: profiler-off tax --------------------------------------
    // Unprofiled `run_exec` (profiler-aware dispatch, superblock engine)
    // vs the profiler-free reference loop. Profiler-off runs must stay
    // within 3% of the reference floor; they normally sit far below it.
    let (min_off, min_reference) = paired_min_time(
        RUNS,
        || {
            black_box(off.run_exec(&exec_off, TASKLETS).unwrap().cycles);
        },
        || {
            black_box(
                reference
                    .execute(
                        &exec_ref,
                        RunSpec {
                            budget: BUDGET,
                            engine: Some(Engine::Reference),
                            ..RunSpec::new(TASKLETS)
                        },
                    )
                    .unwrap()
                    .cycles,
            );
        },
    );
    let off_tax = min_off.as_secs_f64() / min_reference.as_secs_f64() - 1.0;
    let off_budget = min_reference.mul_f64(1.03) + Duration::from_micros(50);
    println!(
        "profiler-off tax on alu_loop_11t: {:.1}% (gate <3%): off {min_off:?}, reference floor {min_reference:?}",
        off_tax * 100.0
    );
    assert!(
        min_off <= off_budget,
        "profiler-off alu_loop_11t exceeded the 3% budget over the reference floor: \
         off {min_off:?} vs reference {min_reference:?} — profiling support leaked \
         cost into (or rerouted) the unprofiled path"
    );

    // --- Gate 2: attribution tax is contained --------------------------
    // Profiled runs ride the reference path plus a per-slot record; keep
    // that within 1.5x the unprofiled reference so regressions in the
    // profiled loop cannot hide behind "profiling is expected to cost".
    let exec_ref2 = exec();
    let exec_prof = exec();
    let mut reference2 = Machine::default();
    let mut profiled = Machine::default();
    let mut attr = CycleAttribution::new();
    let (min_reference2, min_profiled) = paired_min_time(
        RUNS,
        || {
            black_box(
                reference2
                    .execute(
                        &exec_ref2,
                        RunSpec {
                            budget: BUDGET,
                            engine: Some(Engine::Reference),
                            ..RunSpec::new(TASKLETS)
                        },
                    )
                    .unwrap()
                    .cycles,
            );
        },
        || {
            black_box(
                profiled
                    .execute(
                        &exec_prof,
                        RunSpec { observe: Observe::Profile(&mut attr), ..RunSpec::new(TASKLETS) },
                    )
                    .unwrap()
                    .cycles,
            );
        },
    );
    let on_budget = min_reference2.mul_f64(1.5) + Duration::from_micros(50);
    println!(
        "attribution tax: reference min {min_reference2:?}, profiled min {min_profiled:?}, budget {on_budget:?}"
    );
    assert!(
        min_profiled <= on_budget,
        "profiled alu_loop_11t exceeded the 1.5x attribution containment budget: \
         reference {min_reference2:?} vs profiled {min_profiled:?}"
    );
    // `Observe::Profile` forces the reference loop regardless of the
    // ambient engine (attribution needs per-slot dispatch), so Gate 2's
    // bound *is* the profiled containment guarantee.

    // --- Gates 3 to 7: the fast tier pays on the paper's kernel ---------
    // The default tier against the reference loop on the generated eBNN
    // program, one image per tasklet. A full DPU (16 tasklets) runs in
    // tasklet-major chunks and must be at least twice as fast, and so
    // must 6 tasklets — the partial chunk every served batch ends in,
    // which shipped at 0.88x before under-saturated rotations had a
    // closed form; at 3 and 10 tasklets (the rest of Fig. 4.7(a)'s left
    // half) and at the 11-tasklet knee — exactly `stages` tasklets, which
    // DMA stalls knock out of round-robin order for good — the fast
    // engine must at least not lose to the loop it replaces. Gate 7 is
    // the remainder chunks of 12, 13 and 14 images: one to three tasklets
    // more than stages, left by the image DMAs in a permuted rotation that
    // ran pick by pick at 0.8x the reference until verified orbits
    // scheduled it.
    let gates =
        [(16, 2.0), (6, 2.0), (3, 1.0), (10, 1.0), (11, 0.95), (12, 2.0), (13, 2.0), (14, 2.0)];
    for (images, min_speedup) in gates {
        let shape = ebnn_tier1(images);
        let run = |shape: &KernelShape, engine: Engine| {
            let mut m = shape.staged.clone();
            black_box(m.run_exec_engine(&shape.exec, shape.tasklets, engine).unwrap().cycles);
        };
        let (min_fast, min_ref) = paired_min_time(
            RUNS,
            || run(&shape, Engine::default()),
            || run(&shape, Engine::Reference),
        );
        let speedup = min_ref.as_secs_f64() / min_fast.as_secs_f64();
        println!(
            "{}: default tier {min_fast:?}, reference {min_ref:?}: {speedup:.2}x (gate >= {min_speedup}x)",
            shape.name
        );
        assert!(
            speedup >= min_speedup,
            "{}: the default tier ran at {speedup:.2}x the reference loop \
             (gate >= {min_speedup}x): default {min_fast:?} vs reference {min_ref:?}",
            shape.name
        );
    }

    // --- Gate 8: idle DPUs replay instead of being interpreted ----------
    // A sparse served batch launches the whole set and almost every DPU
    // finds `n_images = 0`. Those runs are bit-identical, so all but the
    // first two replay a recorded launch; with a distinct (unused)
    // `img_base` per DPU no read set matches and every DPU runs its 16
    // tasklets through boot, three DMAs, barrier and halt. A ratio, not a
    // wall-clock bound: the container drifts by several percent.
    let (mut idle, mut distinct) = (idle_ebnn_engine(false), idle_ebnn_engine(true));
    let launch = |engine: &mut ebnn::codegen::Tier1Engine| {
        black_box(engine.set_mut().launch_loaded(IDLE_TASKLETS).unwrap().makespan_cycles());
    };
    let (min_idle, min_distinct) =
        paired_min_time(RUNS, || launch(&mut idle), || launch(&mut distinct));
    let per_dpu = |d: Duration| d.as_secs_f64() * 1e6 / IDLE_DPUS as f64;
    let ratio = min_idle.as_secs_f64() / min_distinct.as_secs_f64();
    println!(
        "idle eBNN launch, {IDLE_DPUS} DPUs x {IDLE_TASKLETS} tasklets: replayed {:.2} us/DPU, \
         interpreted {:.2} us/DPU: {ratio:.3}x (gate <= 0.25x)",
        per_dpu(min_idle),
        per_dpu(min_distinct),
    );
    assert!(
        ratio <= 0.25,
        "an all-idle launch cost {ratio:.3}x the launch whose DPUs are all interpreted \
         (gate <= 0.25x): replayed {min_idle:?} vs interpreted {min_distinct:?}"
    );
}

const IDLE_DPUS: usize = 256;
/// A full served chunk's tasklet count: what the idle DPUs of a batch
/// with one full DPU launch with.
const IDLE_TASKLETS: usize = 16;

/// A 256-DPU eBNN engine (weights broadcast, program loaded, launches on
/// the calling thread) with `n_images = 0` staged on every DPU — and,
/// with `distinct_bases`, a different image base in every DPU's params.
fn idle_ebnn_engine(distinct_bases: bool) -> ebnn::codegen::Tier1Engine {
    use ebnn::codegen::{mram, params_wire, Tier1Engine};
    let model = ebnn::EbnnModel::generate(ebnn::ModelConfig { filters: 1, ..Default::default() });
    let mut engine = Tier1Engine::new(&model, IDLE_DPUS).expect("eBNN engine");
    let set = engine.set_mut();
    set.set_parallel_threshold(Some(usize::MAX));
    for d in 0..IDLE_DPUS {
        let skew = if distinct_bases { 8 * d as u32 } else { 0 };
        let params = params_wire(0, 1, mram::IMAGES + skew, mram::FEATURES);
        set.copy_to_dpu(DpuId(d as u32), "params", 0, &params).expect("stage idle params");
    }
    engine
}

const BUDGET: u64 = dpu_sim::machine::DEFAULT_CYCLE_BUDGET;

criterion_group!(benches, bench_profiler_overhead);
criterion_main!(benches);
