//! The fixed inputs: the paper's kernels at the shapes a served DPU runs
//! them, staged by the same engines that serve them, and the chaos soak's
//! kernel as its campaign stages it.

use crate::machine::Input;
use crate::set::SetInput;
use dpu_sim::{DpuId, Machine};
use ebnn::codegen::{Tier1Engine, WramLayout};
use ebnn::{EbnnModel, ModelConfig};
use pim_bench::chaos;
use pim_host::{DpuSet, LinkPolicy, LinkStats};
use yolo_pim::codegen::RowEngine;
use yolo_pim::gemm::GemmDims;

/// One-filter eBNN model and 18 synthetic digits.
pub fn ebnn_batch() -> (EbnnModel, Vec<ebnn::mnist::GrayImage>) {
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let images = (0..18).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    (model, images)
}

/// An eBNN engine over `dpus` DPUs with `images` staged, ECC armed first
/// when asked, through checked transfers under `link` if given.
fn ebnn_engine(dpus: usize, images: usize, ecc: bool, link: Option<LinkPolicy>) -> Tier1Engine {
    let (model, batch) = ebnn_batch();
    let mut engine = Tier1Engine::new(&model, dpus).expect("eBNN engine");
    engine.enable_ecc(ecc);
    engine.set_mut().set_link_policy(link);
    engine.stage(&model, &batch[..images], 0).expect("stage images");
    engine
}

/// A GEMM row engine over `dpus` DPUs for `tasklets`, `rows` rows of a
/// 24 × 40 `A` staged, ECC armed first when asked, through checked
/// transfers under `link` if given.
fn row_engine(
    dpus: usize,
    rows: usize,
    tasklets: usize,
    ecc: bool,
    link: Option<LinkPolicy>,
) -> RowEngine {
    let dims = GemmDims { m: rows, n: 40, k: 24 };
    let a: Vec<i16> = (0..rows * dims.k).map(|i| ((i * 7 % 13) as i16) - 6).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| ((i * 5 % 11) as i16) - 5).collect();
    let mut engine = RowEngine::new(dims, 1, &b, dpus, tasklets).expect("row engine");
    engine.set_mut().enable_ecc(ecc);
    engine.set_mut().set_link_policy(link);
    engine.stage(&a).expect("stage A rows");
    engine
}

/// The MRAM span of the first image slot / `A` row: the bytes the
/// changed-input sighting flips.
const FIRST_INPUT: std::ops::Range<usize> = 16..24;

/// The shapes the fast engine's batched modes were built for: a full eBNN
/// DPU (16 images on 16 tasklets: tasklet-major chunks); the last chunk of
/// a served batch — 6 images on 6 tasklets, and 6 staged under 16
/// launched of which 10 halt at once (under-saturated rotations); 12, 13
/// of 16 and 14 images (a permuted rotation only a verified orbit
/// schedules); and a GEMM row on 11 tasklets (exactly the pipeline's
/// stages, DMA-skewed out of round-robin order, `call __mulsi3` retired
/// inside rotations). Each is cut somewhere else mid-run.
pub fn paper_kernels() -> Vec<Input> {
    let ebnn = ebnn::codegen::tier1_program(1);
    let mut inputs: Vec<Input> = [
        ("eBNN x16", 16, 16, 500),
        ("eBNN x6", 6, 6, 271),
        ("eBNN x6 of 16 launched", 6, 16, 613),
        ("eBNN x12", 12, 12, 377),
        ("eBNN x13 of 16 launched", 13, 16, 433),
        ("eBNN x14", 14, 14, 547),
    ]
    .into_iter()
    .map(|(name, images, tasklets, cut)| {
        let staged = [false, true]
            .map(|ecc| ebnn_engine(1, images, ecc, None).set().system().dpu(DpuId(0)).clone());
        Input::staged(name, ebnn.clone(), tasklets, staged, FIRST_INPUT, cut)
    })
    .collect();
    let row = |ecc| row_engine(1, 1, 11, ecc, None);
    let staged = [false, true].map(|ecc| row(ecc).set().system().dpu(DpuId(0)).clone());
    let program = row(false).set().loaded_program().expect("loaded").clone();
    inputs.push(Input::staged("GEMM row x11", program, 11, staged, FIRST_INPUT, 557));
    inputs
}

/// A multi-DPU eBNN batch whose last chunk is partial: 16 + 2 images on 5
/// DPUs, three of them idle (the serving shape whose idle DPUs replay).
pub fn ebnn_set() -> SetInput {
    let ebnn = [false, true].map(|ecc| ebnn_engine(5, 18, ecc, None));
    // Each DPU's feature records, padding included.
    let base = ebnn[0].set().symbols().get("features").unwrap().offset;
    let record = (WramLayout::new(1).features_per_image() as usize).div_ceil(8) * 8;
    let chunks = ebnn[0].staged_chunks(0).expect("a staged batch");
    let records = |&n| std::iter::once(base..base + n * record).collect();
    let outputs = chunks.iter().map(records).collect();
    let sets = [ebnn[0].set(), ebnn[1].set()];
    SetInput::staged("eBNN 16 + 2 images on 5 DPUs", 16, sets, 11, outputs)
}

/// Four GEMM rows on 5 DPUs at 11 tasklets, the fifth DPU's row all
/// zeros.
pub fn gemm_set() -> SetInput {
    let rows = [false, true].map(|ecc| row_engine(5, 4, 11, ecc, None));
    let sets = [rows[0].set(), rows[1].set()];
    SetInput::staged("GEMM 4 rows on 5 DPUs", 11, sets, 12, answers(sets[0], "c_row", 2 * 40))
}

/// The DPUs of [`ebnn_set`] and [`gemm_set`], staged with ECC `ecc`
/// through checked transfers under `link` if given, with the link's
/// statistics.
pub fn kernel_sets_through(ecc: bool, link: Option<LinkPolicy>) -> [(Vec<Machine>, LinkStats); 2] {
    let take =
        |set: &DpuSet| (set.system().iter().map(|(_, m)| m.clone()).collect(), set.link_stats());
    [take(ebnn_engine(5, 18, ecc, link).set()), take(row_engine(5, 4, 11, ecc, link).set())]
}

/// The chaos soak's kernel on 8 DPUs at its 2 tasklets, staged with the
/// counters of the campaign's first launch.
pub fn soak_set() -> SetInput {
    let cfg = chaos::ChaosConfig::default();
    let sets = [false, true].map(|ecc| {
        let mut set = chaos::soak_set(cfg.dpus, ecc);
        chaos::stage_soak_inputs(&mut set, &mut pim_serve::Rng64::new(cfg.seed));
        set
    });
    let outputs = answers(&sets[0], "x", 8);
    SetInput::staged("chaos soak kernel on 8 DPUs", cfg.tasklets, [&sets[0], &sets[1]], 13, outputs)
}

/// The first `len` bytes of `symbol` as every DPU's answer.
fn answers(set: &DpuSet, symbol: &str, len: usize) -> Vec<Vec<std::ops::Range<usize>>> {
    let at = set.symbols().get(symbol).expect("an output symbol").offset;
    vec![vec![at..at + len]; set.len()]
}
