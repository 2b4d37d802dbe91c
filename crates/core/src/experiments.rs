//! One driver per experiment of the paper.
//!
//! Each function regenerates the data behind a table or figure and returns
//! it as a structured value; the `pim-bench` crate renders them and
//! `EXPERIMENTS.md` records paper-vs-measured. The drivers accept the
//! model/size knobs they need so tests can run scaled-down instances while
//! the report binary runs the paper's configuration.

use cpu_baseline::XeonModel;
use dpu_sim::asm::{assemble, profile_harness, HarnessOp};
use dpu_sim::cost::OpCounts;
use dpu_sim::{Machine, Profiler, Program};
use ebnn::mapping::BnPlacement;
use ebnn::{BnLut, EbnnModel, EbnnPipeline};
use pim_host::OptLevel;
use pim_model::report::BenchRow;
use pim_model::ModelReport;
use serde::{Deserialize, Serialize};
use yolo_pim::{darknet53_yolov3, GemmDims, GemmMapping, YoloPipeline};

/// One row of Table 3.1: paper vs simulator cycles for an operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table31Row {
    /// Operation label.
    pub op: String,
    /// The paper's measured cycles.
    pub paper_cycles: u64,
    /// Cycles measured on the simulated DPU with the Fig. 3.1 harness.
    pub measured_cycles: u64,
}

impl Table31Row {
    /// Relative error against the paper.
    #[must_use]
    pub fn rel_error(&self) -> f64 {
        (self.measured_cycles as f64 - self.paper_cycles as f64).abs() / self.paper_cycles as f64
    }
}

/// Table 3.1: run the Fig. 3.1 profiling harness for every operation on a
/// single-tasklet DPU.
#[must_use]
pub fn table_3_1() -> Vec<Table31Row> {
    HarnessOp::ALL
        .iter()
        .map(|&op| {
            let mut m = Machine::default();
            let res = m.run(&profile_harness(op), 1).expect("harness runs");
            Table31Row {
                op: op.label().to_owned(),
                paper_cycles: op.paper_cycles(),
                measured_cycles: res.perf_reads[0],
            }
        })
        .collect()
}

/// The Eq. 3.4 kernel: one `mram.read` of `bytes` bytes into WRAM.
///
/// # Panics
/// When `bytes` is not a legal transfer size (a multiple of 8 up to
/// 2,048).
#[must_use]
pub fn eq_3_4_program(bytes: usize) -> Program {
    assemble(&format!("movi r1, 0\nmovi r2, 0\nmovi r3, {bytes}\nmram.read r1, r2, r3\nhalt\n"))
        .expect("Eq. 3.4 kernel assembles")
}

/// Eq. 3.4: MRAM→WRAM DMA cycle cost per transfer size, measured by
/// executing [`eq_3_4_program`] on one tasklet of the simulated engine.
///
/// # Panics
/// When a size is not a legal transfer size.
#[must_use]
pub fn eq_3_4(byte_sizes: &[usize]) -> Vec<(usize, u64)> {
    let run = |b| Machine::default().run(&eq_3_4_program(b), 1).expect("Eq. 3.4 kernel runs");
    byte_sizes.iter().map(|&b| (b, run(b).dma_cycles)).collect()
}

/// The Fig. 3.2 kernel: a float harmonic sum touching the same routines
/// the paper's screenshot lists (`__ltsf2`, `__divsf3`, `__floatsisf`,
/// `__addsf3`, `__muldi3`).
#[must_use]
pub fn fig_3_2_program() -> Program {
    let src = "\
        movi r1, 1          ; i\n\
        movi r2, 0          ; sum (f32 bits)\n\
        movi r3, 1065353216 ; 1.0f\n\
        movi r4, 20         ; iterations\n\
        loop:\n\
        call __floatsisf r5, r1, r0   ; (float)i\n\
        call __divsf3 r6, r3, r5      ; 1.0 / i\n\
        call __addsf3 r2, r2, r6      ; sum += ...\n\
        call __ltsf2 r7, r6, r3       ; convergence check\n\
        call __muldi3 r8, r1, r1      ; 64-bit index square (bookkeeping)\n\
        addi r1, r1, 1\n\
        bne r1, r4, loop\n\
        sw r0, 0, r2\n\
        halt\n";
    assemble(src).expect("fig 3.2 kernel assembles")
}

/// Fig. 3.2: subroutine occurrence profile of a DPU program with
/// high-precision computations, [`fig_3_2_program`] on one tasklet.
#[must_use]
pub fn fig_3_2() -> Profiler {
    let mut m = Machine::default();
    m.run(&fig_3_2_program(), 1).expect("fig 3.2 kernel runs").profile
}

/// Fig. 4.3: distinct float subroutines with and without the LUT rewrite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig43 {
    /// Profile of the float-BN kernel (11+ routines).
    pub float_profile: ProfilerSummary,
    /// Profile of the LUT kernel (2 routines).
    pub lut_profile: ProfilerSummary,
}

/// Serializable subset of a [`Profiler`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfilerSummary {
    /// `(symbol, occurrences)` pairs.
    pub occ: Vec<(String, u64)>,
    /// Number of distinct routines.
    pub distinct: usize,
}

impl From<&Profiler> for ProfilerSummary {
    fn from(p: &Profiler) -> Self {
        Self {
            occ: p.iter().map(|(s, c)| (s.to_owned(), c)).collect(),
            distinct: p.distinct_subroutines(),
        }
    }
}

/// Fig. 4.3: run one image through the eBNN conv-pool kernel under both BN
/// back-ends and compare subroutine profiles.
#[must_use]
pub fn fig_4_3(model: &EbnnModel) -> Fig43 {
    let img = model.binarize(&ebnn::mnist::synth_digit(7, 0).pixels);
    let lut = BnLut::for_conv3x3(&model.bn);
    let mut t = OpCounts::default();
    let mut float_p = Profiler::new();
    let _ = ebnn::conv_pool_block(
        &img,
        &model.filters,
        ebnn::BnMode::Float(&model.bn),
        &mut t,
        &mut float_p,
    );
    let mut t2 = OpCounts::default();
    let mut lut_p = Profiler::new();
    let _ =
        ebnn::conv_pool_block(&img, &model.filters, ebnn::BnMode::Lut(&lut), &mut t2, &mut lut_p);
    Fig43 { float_profile: (&float_p).into(), lut_profile: (&lut_p).into() }
}

/// Fig. 4.4: 16-image completion time with and without the LUT rewrite.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig44 {
    /// DPU seconds with float BN inside the DPU.
    pub float_seconds: f64,
    /// DPU seconds with the host-built LUT.
    pub lut_seconds: f64,
}

impl Fig44 {
    /// Speedup from the LUT rewrite (the paper reports ≈1.4×).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.float_seconds / self.lut_seconds
    }
}

/// Fig. 4.4 driver: 16 images, 16 tasklets, `-O0` (the paper's comparison
/// configuration).
///
/// # Panics
/// On host-runtime failures (which well-formed models never trigger).
#[must_use]
pub fn fig_4_4(model: &EbnnModel) -> Fig44 {
    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let lut = EbnnPipeline::new(model.clone()).infer(&images).expect("lut run");
    let float = EbnnPipeline::new(model.clone())
        .with_placement(BnPlacement::DpuFloat)
        .infer(&images)
        .expect("float run");
    Fig44 { float_seconds: float.dpu_seconds, lut_seconds: lut.dpu_seconds }
}

/// One point of Fig. 4.7(a).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TaskletPoint {
    /// Tasklets per DPU.
    pub tasklets: usize,
    /// eBNN speedup vs one tasklet (16 images per DPU).
    pub ebnn_speedup: f64,
    /// YOLOv3 speedup vs one tasklet (one GEMM row).
    pub yolo_speedup: f64,
}

/// Fig. 4.7(a): thread-level speedup for both CNNs across tasklet counts.
///
/// # Panics
/// On host-runtime failures.
#[must_use]
pub fn fig_4_7a(model: &EbnnModel, tasklet_counts: &[usize]) -> Vec<TaskletPoint> {
    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let ebnn_time = |t: usize| {
        EbnnPipeline::new(model.clone())
            .with_tasklets(t)
            .infer(&images)
            .expect("ebnn run")
            .dpu_seconds
    };
    // A mid-network YOLO layer: 52×52 spatial, K = 128·9.
    let dims = GemmDims { m: 1, n: 52 * 52, k: 128 * 9 };
    let yolo_time = |t: usize| {
        GemmMapping { tasklets: t, ..GemmMapping::default() }.estimate_layer(dims).dpu_seconds
    };
    let (e1, y1) = (ebnn_time(1), yolo_time(1));
    tasklet_counts
        .iter()
        .map(|&t| TaskletPoint {
            tasklets: t,
            ebnn_speedup: e1 / ebnn_time(t),
            yolo_speedup: y1 / yolo_time(t),
        })
        .collect()
}

/// One configuration of Fig. 4.7(b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig47bRow {
    /// Optimization level.
    pub opt: String,
    /// Tasklets.
    pub tasklets: usize,
    /// Seconds for the representative layer set.
    pub seconds: f64,
}

/// Fig. 4.7(b): YOLOv3 DPU-kernel time under {O0, O3} × {no threading,
/// full threading} for a representative layer.
#[must_use]
pub fn fig_4_7b() -> Vec<Fig47bRow> {
    let dims = GemmDims { m: 64, n: 26 * 26, k: 512 * 9 };
    let mut rows = Vec::new();
    for (opt, label) in [(OptLevel::O0, "O0"), (OptLevel::O3, "O3")] {
        for tasklets in [1usize, 11] {
            let m = GemmMapping { opt, tasklets, ..GemmMapping::default() };
            rows.push(Fig47bRow {
                opt: label.to_owned(),
                tasklets,
                seconds: m.estimate_layer(dims).dpu_seconds,
            });
        }
    }
    rows
}

/// Fig. 4.7(c): eBNN speedup over one Xeon core as the DPU count grows
/// (weak scaling: each DPU carries a 16-image batch).
///
/// # Panics
/// On host-runtime failures.
#[must_use]
pub fn fig_4_7c(model: &EbnnModel, cpu: &XeonModel, dpu_counts: &[usize]) -> Vec<(usize, f64)> {
    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let batch = EbnnPipeline::new(model.clone()).infer(&images).expect("ebnn run");
    cpu_baseline::speedup_series(cpu, batch.dpu_seconds, images.len(), dpu_counts)
}

/// The paper's §4.3.1 headline latencies, measured on the simulator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MeasuredLatencies {
    /// eBNN: a 1-image launch on one DPU (only one tasklet busy).
    pub ebnn_single_image: f64,
    /// eBNN: 16-image batch on one DPU.
    pub ebnn_batch16: f64,
    /// eBNN: per-image time inside a full 16-tasklet batch — the quantity
    /// the paper's 1.48 ms corresponds to.
    pub ebnn_per_image: f64,
    /// YOLOv3: one 416×416 frame (paper: 65 s).
    pub yolo_frame: f64,
    /// YOLOv3: mean conv-layer seconds (paper: ≈0.9 s).
    pub yolo_mean_layer: f64,
    /// YOLOv3: slowest conv layer (paper: ≈6 s).
    pub yolo_max_layer: f64,
}

/// Measure the headline latencies (full-size eBNN model, full Darknet-53
/// table).
///
/// # Panics
/// On host-runtime failures.
#[must_use]
pub fn measured_latencies(model: &EbnnModel) -> MeasuredLatencies {
    let one = vec![ebnn::mnist::synth_digit(3, 0)];
    let single = EbnnPipeline::new(model.clone()).infer(&one).expect("single image");
    let batch: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let batch16 = EbnnPipeline::new(model.clone()).infer(&batch).expect("batch");
    let yolo = YoloPipeline::new(darknet53_yolov3()).estimate();
    MeasuredLatencies {
        ebnn_single_image: single.dpu_seconds,
        ebnn_batch16: batch16.dpu_seconds,
        ebnn_per_image: batch16.dpu_seconds / batch.len() as f64,
        yolo_frame: yolo.total_seconds(),
        yolo_mean_layer: yolo.mean_layer_seconds(),
        yolo_max_layer: yolo.max_layer_seconds(),
    }
}

/// Table 5.4 with the UPMEM row replaced by latencies measured on this
/// repository's simulated implementations (closing the loop between
/// Chapters 4 and 5).
///
/// # Panics
/// On host-runtime failures.
#[must_use]
pub fn table_5_4_with_measured(model: &EbnnModel) -> Vec<BenchRow> {
    let lat = measured_latencies(model);
    ModelReport::table_5_4(Some(pim_model::arch::upmem_measured(
        lat.ebnn_per_image,
        lat.yolo_frame,
    )))
}

/// The two-tier validation summary: the generated Tier-1 eBNN program vs
/// the Tier-2 estimates for the same 16-image batch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TierValidation {
    /// Measured cycles of the generated DPU program (interpreter).
    pub tier1_cycles: u64,
    /// Tier-2 estimate at `-O0`.
    pub tier2_o0_cycles: u64,
    /// Tier-2 estimate at `-O3`.
    pub tier2_o3_cycles: u64,
    /// Whether every feature bit matched the host reference.
    pub bit_exact: bool,
}

impl TierValidation {
    /// Tier-2 `-O3` estimate relative to the measured Tier-1 program.
    #[must_use]
    pub fn o3_ratio(&self) -> f64 {
        self.tier2_o3_cycles as f64 / self.tier1_cycles as f64
    }

    /// Tier-2 `-O0` estimate relative to the measured Tier-1 program.
    #[must_use]
    pub fn o0_ratio(&self) -> f64 {
        self.tier2_o0_cycles as f64 / self.tier1_cycles as f64
    }
}

/// Run the two-tier validation (16 images, the default 8-filter model).
///
/// # Panics
/// On host-runtime failures.
#[must_use]
pub fn tier_validation(model: &EbnnModel) -> TierValidation {
    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let tier1 = ebnn::codegen::run_tier1_batch(model, &images, ebnn::BatchSpec::default())
        .expect("tier1 run");
    let bit_exact = images
        .iter()
        .zip(&tier1.features)
        .all(|(img, f)| *f == model.features(&model.binarize(&img.pixels)));
    let o0 = EbnnPipeline::new(model.clone()).infer(&images).expect("o0").makespan_cycles;
    let o3 = EbnnPipeline::new(model.clone())
        .with_opt(OptLevel::O3)
        .infer(&images)
        .expect("o3")
        .makespan_cycles;
    TierValidation {
        tier1_cycles: tier1.report.makespan_cycles(),
        tier2_o0_cycles: o0,
        tier2_o3_cycles: o3,
        bit_exact,
    }
}

/// Fig. 4.7(a) at instruction level: the generated Tier-1 eBNN program
/// across tasklet counts (measured, not modelled).
///
/// # Panics
/// On host-runtime failures.
#[must_use]
pub fn fig_4_7a_tier1(model: &EbnnModel, tasklet_counts: &[usize]) -> Vec<(usize, f64)> {
    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let cycles = |t: usize| {
        let spec = ebnn::BatchSpec { tasklets: Some(t), ..ebnn::BatchSpec::default() };
        ebnn::codegen::run_tier1_batch(model, &images, spec)
            .expect("tier1 run")
            .report
            .makespan_cycles()
    };
    let base = cycles(1) as f64;
    tasklet_counts.iter().map(|&t| (t, base / cycles(t) as f64)).collect()
}
