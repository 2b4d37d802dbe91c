//! Per-layer probes: direct calls into each crate's public functions on
//! the workload's shapes, timed from outside.
//!
//! The decorators see nothing below the `BatchEngine` boundary, so what
//! `pim-host` and `dpu-sim` cost is measured here, on a bare engine (a
//! [`Rig`]) of the workload's size loaded with the workload's program
//! and data. To add a probe: measure it here on the rig, add a field to
//! [`Probed`], emit it in `report::per_layer`, and list it in
//! `BENCHMARK.json` and the README table.

use crate::stats::median;
use crate::workload::{Kernel, Spec};
use dpu_sim::{DpuId, Engine, ExecProgram, FaultConfig, FaultPlan, Machine};
use pim_host::{DpuSet, LinkPolicy, ResilientLaunchPolicy};
use pim_serve::splitmix64;
use std::time::Instant;

/// Repetitions of a probe that costs about one launch.
const LAUNCH_REPS: usize = 3;
/// Repetitions of the pooled launch, the one probe that runs two busy
/// threads and so sees what the host does to either core.
const POOLED_REPS: usize = 5;
/// Repetitions of a cheap probe (a transfer, a snapshot, one DPU's run).
const CHEAP_REPS: usize = 9;
/// Resilient launches of the guarded-path retry count.
const CHAOS_LAUNCHES: u64 = 16;

/// What the probes measured; field names are the metric names without
/// their layer prefix.
#[derive(Debug, Clone, Default)]
pub struct Probed {
    // pim-host
    /// `DpuSet::allocate`, per DPU.
    pub alloc_us_per_dpu: f64,
    /// `DpuSet::load` of the workload's program.
    pub load_ms: f64,
    /// `DpuSet::snapshot` of the staged set.
    pub snapshot_us: f64,
    /// `DpuSet::restore` of that snapshot.
    pub restore_us: f64,
    /// Steady staging bandwidth, plain transfers.
    pub copy_to_mib_per_s: f64,
    /// Same with CRC-checked transfers armed, no faults.
    pub copy_to_crc_mib_per_s: f64,
    /// Same with the MRAM ECC sidecar on.
    pub copy_to_ecc_mib_per_s: f64,
    /// Steady gather bandwidth.
    pub copy_from_mib_per_s: f64,
    /// The first staging on a fresh set (copy-on-write first touch).
    pub first_touch_stage_ms: f64,
    /// `launch_loaded` with no work on any DPU, per DPU.
    pub idle_launch_us_per_dpu: f64,
    /// Worker threads a pooled launch of this set runs on.
    pub pool_workers: usize,
    /// Sequential launch wall ÷ (workers × pooled launch wall).
    pub pool_efficiency: f64,
    /// Zero-fault `launch_loaded_resilient` against `launch_loaded`.
    pub resilient_tax_pct: f64,
    /// `scrub_all` with ECC on.
    pub scrub_ms: f64,
    /// Retries over [`CHAOS_LAUNCHES`] launches under the workload's
    /// fault plan (0 without one).
    pub retries: u64,

    // dpu-sim
    /// `ExecProgram::compile` of the workload's program.
    pub compile_ms: f64,
    /// Instructions in the program.
    pub program_instrs: usize,
    /// One DPU's busy run, ambient engine, in M instr/s.
    pub minstr_per_s_default: f64,
    /// Same pinned to each tier.
    pub minstr_per_s_reference: f64,
    /// See [`Probed::minstr_per_s_reference`].
    pub minstr_per_s_superblock: f64,
    /// See [`Probed::minstr_per_s_reference`].
    pub minstr_per_s_compiled: f64,
    /// Ambient engine with a zero fault plan armed (engine downgrade).
    pub minstr_per_s_fault_armed: f64,
    /// Instructions of one busy launch, all DPUs.
    pub instructions_total: u64,
    /// Items of that launch.
    pub busy_items: usize,
    /// Its makespan in cycles.
    pub makespan_cycles: u64,
    /// Instructions of the DPUs that had work.
    pub busy_instructions: u64,
    /// Their DMA transfers.
    pub dma_transfers: u64,
    /// Their DMA bytes.
    pub dma_bytes: u64,
    /// Their idle issue slots ÷ their cycles.
    pub idle_slot_share: f64,

    // pim-trace
    /// `launch_loaded_traced` against `launch_loaded`.
    pub launch_traced_overhead_pct: f64,
}

fn ms_of(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| ms_of(&mut f)).collect();
    median(&samples).expect("at least one repetition")
}

fn mib_per_s(bytes: u64, ms: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (ms / 1e3)
}

fn pct_over(base: f64, other: f64) -> f64 {
    (other / base - 1.0) * 100.0
}

/// Pinned threshold under which every launch runs on the worker pool.
const POOLED: Option<usize> = Some(1);
/// Pinned threshold under which every launch runs on the calling thread,
/// as the serving run's launches do.
const SEQUENTIAL: Option<usize> = Some(usize::MAX);

/// Worker threads `pim-host` gives a pooled launch of `dpus` DPUs: one
/// per available core, capped at the set size (its pool module is
/// private, so the rule is restated here).
#[must_use]
pub fn pool_workers(dpus: usize) -> usize {
    std::thread::available_parallelism().map_or(4, usize::from).min(dpus)
}

/// Run every probe for `spec` on a fresh rig; `typical_fill` is the
/// serving run's mean batch size, the batch the first-touch probe
/// stages. Every launch but the pool probe's own runs on the calling
/// thread, as the serving run's launches do.
pub fn probe<K: Kernel>(spec: &Spec, kernel: &K, seed: u64, typical_fill: usize) -> Probed {
    let mut p = Probed::default();
    let dpus = spec.dpus;

    let alloc_ms = ms_of(|| {
        std::hint::black_box(DpuSet::allocate(dpus).expect("allocate probe set"));
    });
    p.alloc_us_per_dpu = alloc_ms * 1e3 / dpus as f64;

    let buffers = match spec.pipeline {
        pim_serve::PipelineMode::Double => 2,
        pim_serve::PipelineMode::Serial => 1,
    };
    let mut rig = kernel.rig(dpus, buffers);
    rig.set_mut().set_parallel_threshold(SEQUENTIAL);
    let program = kernel.program();
    p.load_ms = median_ms(CHEAP_REPS, || rig.set_mut().load(&program).expect("load program"));
    p.compile_ms = median_ms(CHEAP_REPS, || {
        std::hint::black_box(ExecProgram::compile(&program).expect("compile program"));
    });
    let exec = ExecProgram::compile(&program).expect("compile program");
    p.program_instrs = exec.len();

    // Transfers: first touch, then steady state, on the busy batch.
    p.first_touch_stage_ms = ms_of(|| {
        rig.stage(typical_fill.max(1));
    });
    let busy = rig.busy_items();
    p.busy_items = busy;
    let mut bytes = 0;
    let stage_ms = median_ms(CHEAP_REPS, || bytes = rig.stage(busy));
    p.copy_to_mib_per_s = mib_per_s(bytes, stage_ms);

    // One DPU's share of the busy batch on one thread, per tier.
    let tasklets = rig.tasklets();
    let staged: Machine = rig.set().system().dpu(DpuId(0)).clone();
    let rate = |run: &dyn Fn(&mut Machine) -> dpu_sim::RunResult| {
        // One untimed run first: the first pass pays cold caches.
        run(&mut staged.clone());
        let samples: Vec<f64> = (0..CHEAP_REPS)
            .map(|_| {
                let mut m = staged.clone();
                let t = Instant::now();
                let r = run(&mut m);
                r.instructions as f64 / t.elapsed().as_secs_f64() / 1e6
            })
            .collect();
        median(&samples).expect("at least one repetition")
    };
    let pinned = |engine: Engine| {
        rate(&|m| m.run_exec_engine(&exec, tasklets, engine).expect("probe run completes"))
    };
    p.minstr_per_s_default = rate(&|m| m.run_exec(&exec, tasklets).expect("probe run completes"));
    p.minstr_per_s_reference = pinned(Engine::Reference);
    p.minstr_per_s_superblock = pinned(Engine::Superblock);
    p.minstr_per_s_compiled = pinned(Engine::Compiled);
    p.minstr_per_s_fault_armed = rate(&|m| {
        m.arm_faults(FaultPlan::none().attempt(0, 0));
        m.run_exec(&exec, tasklets).expect("probe run completes")
    });

    // Launches of the busy batch: pooled, then sequential, resilient, traced.
    rig.set_mut().set_parallel_threshold(POOLED);
    // One untimed launch first: it starts the pool's threads, and after a
    // single-threaded serving run the host takes a launch or two to give
    // the second of them a core of its own.
    rig.set_mut().launch_loaded(tasklets).expect("pool warm-up launch");
    let mut launch = None;
    let pooled_ms = median_ms(POOLED_REPS, || {
        launch = Some(rig.set_mut().launch_loaded(tasklets).expect("probe launch"));
    });
    let launch = launch.expect("launched at least once");
    p.instructions_total = launch.total_instructions();
    p.makespan_cycles = launch.makespan_cycles();
    // Staging fills DPUs in index order, so the busy ones come first.
    let worked = &launch.per_dpu[..rig.busy_dpus()];
    p.busy_instructions = worked.iter().map(|r| r.instructions).sum();
    p.dma_transfers = worked.iter().map(|r| r.dma_transfers).sum();
    p.dma_bytes = worked.iter().map(|r| r.dma_bytes).sum();
    let (idle, cycles) = worked.iter().fold((0, 0), |(i, c), r| (i + r.idle_cycles, c + r.cycles));
    p.idle_slot_share = idle as f64 / cycles.max(1) as f64;

    p.pool_workers = pool_workers(dpus);
    rig.set_mut().set_parallel_threshold(SEQUENTIAL);
    let sequential_ms = median_ms(LAUNCH_REPS, || {
        rig.set_mut().launch_loaded(tasklets).expect("sequential probe launch");
    });
    p.pool_efficiency = sequential_ms / (p.pool_workers as f64 * pooled_ms);

    let zero_fault = ResilientLaunchPolicy::default();
    let resilient_ms = median_ms(LAUNCH_REPS, || {
        rig.set_mut().launch_loaded_resilient(tasklets, &zero_fault).expect("resilient launch");
    });
    p.resilient_tax_pct = pct_over(sequential_ms, resilient_ms);
    let traced_ms = median_ms(LAUNCH_REPS, || {
        rig.set_mut().launch_loaded_traced(tasklets).expect("traced launch");
    });
    p.launch_traced_overhead_pct = pct_over(sequential_ms, traced_ms);

    let mut gathered = 0;
    let gather_ms = median_ms(CHEAP_REPS, || gathered = rig.gather());
    p.copy_from_mib_per_s = mib_per_s(gathered, gather_ms);

    if rig.stage_idle() {
        // Idle DPUs of a serving batch launch with the batch's tasklet
        // count, not with one tasklet.
        let idle_ms = median_ms(CHEAP_REPS, || {
            rig.set_mut().launch_loaded(tasklets).expect("idle launch");
        });
        p.idle_launch_us_per_dpu = idle_ms * 1e3 / dpus as f64;
        rig.stage(busy);
    }

    let mut snapshot = None;
    p.snapshot_us = 1e3 * median_ms(CHEAP_REPS, || snapshot = Some(rig.set().snapshot()));
    let snapshot = snapshot.expect("snapshot taken");
    p.restore_us =
        1e3 * median_ms(CHEAP_REPS, || rig.set_mut().restore(&snapshot).expect("restore"));

    // The guarded path's retry count, with the seeds `pim-serve` derives.
    if let Some(policy) = spec.launch_policy(seed) {
        let base = policy.faults.as_ref().expect("chaos policy carries a plan").config().clone();
        for seq in 0..CHAOS_LAUNCHES {
            let faults = FaultConfig { seed: splitmix64(base.seed ^ seq), ..base.clone() };
            let policy =
                ResilientLaunchPolicy { faults: Some(FaultPlan::new(faults)), ..policy.clone() };
            let report =
                rig.set_mut().launch_loaded_resilient(tasklets, &policy).expect("chaos launch");
            p.retries += report.retries();
            // Quarantined DPUs keep their failed attempt's MRAM.
            rig.set_mut().restore(&snapshot).expect("restore after chaos launch");
        }
    }

    // Integrity taxes last: they change how the set stores data.
    rig.set_mut().set_link_policy(Some(LinkPolicy::default()));
    let crc_ms = median_ms(CHEAP_REPS, || bytes = rig.stage(busy));
    p.copy_to_crc_mib_per_s = mib_per_s(bytes, crc_ms);
    rig.set_mut().set_link_policy(None);
    rig.set_mut().enable_ecc(true);
    let ecc_ms = median_ms(CHEAP_REPS, || bytes = rig.stage(busy));
    p.copy_to_ecc_mib_per_s = mib_per_s(bytes, ecc_ms);
    p.scrub_ms = median_ms(LAUNCH_REPS, || {
        std::hint::black_box(rig.set_mut().scrub_all());
    });
    p
}
