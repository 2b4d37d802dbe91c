//! The paper's own DPU kernels as ready-to-run single-DPU shapes: a
//! staged [`Machine`] plus the decoded program, so the engine-tier
//! benches, the `profiler_overhead` ratio gates, `report --bench-json`
//! and the `engine_residency` experiment all time exactly the same work.
//!
//! Each run must start from a clone of [`KernelShape::staged`] (the eBNN
//! kernel consumes its image slots' feature buffer; cloning is a 64 KiB
//! WRAM copy plus an O(pages) MRAM page-table clone).

use dpu_sim::{DpuId, ExecProgram, Machine};
use ebnn::{EbnnModel, ModelConfig};
use yolo_pim::gemm::GemmDims;

/// One DPU's worth of a paper kernel, inputs staged in MRAM.
#[derive(Debug, Clone)]
pub struct KernelShape {
    /// Key used in bench ids and `BENCH_N.json` rows.
    pub name: String,
    /// The DPU with its inputs staged; clone it for every run.
    pub staged: Machine,
    /// The decoded kernel.
    pub exec: ExecProgram,
    /// Tasklets the kernel runs on.
    pub tasklets: usize,
}

/// The generated eBNN conv-pool program (one filter) over `images`
/// images on `images` tasklets — the §4.1 multi-image mapping, one image
/// per tasklet. 16 fills a DPU; 11 is the Fig. 4.7(a) knee; fewer leave
/// the pipeline under-saturated, as the last chunk of a served batch does.
///
/// # Panics
/// When `images` is outside `1..=16`.
#[must_use]
pub fn ebnn_tier1(images: usize) -> KernelShape {
    ebnn_tier1_launched(images, images)
}

/// [`ebnn_tier1`] launched on `tasklets >= images` tasklets, as a served
/// remainder chunk is when the launch keeps the full DPU's tasklet count:
/// the surplus tasklets find no image and halt at once. Named
/// `ebnn_tier1_<images>t-of-<tasklets>` when the two differ.
///
/// # Panics
/// When `images` is outside `1..=16` or exceeds `tasklets`.
#[must_use]
pub fn ebnn_tier1_launched(images: usize, tasklets: usize) -> KernelShape {
    assert!(images <= tasklets, "{images} images need at least as many tasklets");
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let mut engine = ebnn::codegen::Tier1Engine::new(&model, 1).expect("one-DPU eBNN engine");
    let batch: Vec<_> = (0..images).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    engine.stage(&model, &batch, 0).expect("stage eBNN images");
    let suffix = if tasklets == images { String::new() } else { format!("-of-{tasklets}") };
    KernelShape {
        name: format!("ebnn_tier1_{images}t{suffix}"),
        staged: engine.set().system().dpu(DpuId(0)).clone(),
        exec: ExecProgram::compile(&ebnn::codegen::tier1_program(1)).expect("eBNN program"),
        tasklets,
    }
}

/// One Algorithm-2 GEMM output row (`n = 169`, `k = 144`: a 13×13 YOLO
/// feature map, 3×3×16 patch) on `tasklets` tasklets — one 2-byte `B`
/// DMA and three `__mulsi3` calls per multiply-accumulate.
///
/// # Panics
/// When `tasklets` is outside `1..=24`.
#[must_use]
pub fn yolo_row(tasklets: usize) -> KernelShape {
    let dims = GemmDims { m: 1, n: 169, k: 144 };
    let a: Vec<i16> = (0..dims.k).map(|i| ((i * 7 % 13) as i16) - 6).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| ((i * 5 % 11) as i16) - 5).collect();
    let mut engine =
        yolo_pim::codegen::RowEngine::new(dims, 1, &b, 1, tasklets).expect("one-DPU row engine");
    engine.stage(&a).expect("stage the A row");
    KernelShape {
        name: format!("yolo_row_{tasklets}t"),
        staged: engine.set().system().dpu(DpuId(0)).clone(),
        exec: ExecProgram::compile(&yolo_pim::codegen::gemm_row_program(dims))
            .expect("GEMM row program"),
        tasklets,
    }
}

/// The shapes `BENCH_9.json` and the `engine_tiers` bench report per
/// tier: the left half of Fig. 4.7(a) up to the knee, the three chunk
/// sizes just past it (permuted rotations on a verified orbit), a full
/// DPU, and the GEMM row.
#[must_use]
pub fn paper_kernel_shapes() -> Vec<KernelShape> {
    let mut shapes: Vec<KernelShape> =
        [1, 3, 6, 10, 11, 12, 13, 14, 16].into_iter().map(ebnn_tier1).collect();
    shapes.push(yolo_row(11));
    shapes
}
