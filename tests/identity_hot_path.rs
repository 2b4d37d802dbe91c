//! Identity tests for the interpreter hot-path overhaul: the pre-decoded
//! execution form, the array-indexed opcode histogram, the incremental
//! barrier accounting and the work-stealing launch path must all be
//! *observationally invisible*. These tests pin exact `RunResult` and
//! trace-buffer figures from the eBNN and YOLO Tier-1 pipelines (recorded
//! on the pre-overhaul interpreter) and cross-check every way of running
//! them against every other. Cell-by-cell identity of the paper's kernels
//! on every engine, observer, fault, ECC and dispatch path is the
//! differential oracle's (`tests/oracle/`).

use dpu_sim::Engine;
use ebnn::codegen::{run_tier1_batch, BatchSpec, Tier1Engine};
use ebnn::{EbnnModel, ModelConfig};
use pim_host::{LaunchReport, ResilientLaunchPolicy};
use pim_trace::{HostDirection, TraceBuffer, TraceEvent};
use yolo_pim::codegen::{run_tier1_layer, LayerRunSpec, RowEngine};
use yolo_pim::gemm::GemmDims;

/// A compact, order-sensitive fingerprint of a trace buffer.
fn fingerprint(buf: &TraceBuffer) -> (usize, u64, u64) {
    (buf.events().len(), buf.dma_bytes(), buf.max_end_cycle())
}

// Golden figures for the current Tier-1 kernel; any drift means an
// engine overhaul changed observable behaviour. Re-recorded when the
// kernel ABI itself changes (last: the params record grew to 16 bytes
// carrying the image/feature MRAM bases for double buffering, +8 DMA
// bytes and +4 cycles per DPU).
const GOLDEN_EBNN_CYCLES: [u64; 3] = [993_098, 993_643, 682_723];
const GOLDEN_EBNN_INSTRS: [u64; 3] = [990_629, 990_777, 495_365];
const GOLDEN_EBNN_HIST_TOTAL: u64 = 989_093;
const GOLDEN_EBNN_TRACE: [(usize, u64, u64); 3] =
    [(85, 8_408, 993_098), (85, 8_408, 993_643), (53, 4_248, 682_723)];

/// One way of running a Tier-1 batch: the one-shot runner plain, traced
/// or under a zero-fault policy, or a persistent engine pinned to one
/// execution tier.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Plain,
    Traced,
    ZeroFault,
    Pinned(Engine),
}

const PATHS: [Path; 5] = [
    Path::Plain,
    Path::Traced,
    Path::ZeroFault,
    Path::Pinned(Engine::Reference),
    Path::Pinned(Engine::Superblock),
];

impl Path {
    /// The one-shot's `(trace, policy)` for this path.
    fn choices(self, policy: &ResilientLaunchPolicy) -> (bool, Option<&ResilientLaunchPolicy>) {
        (self == Path::Traced, (self == Path::ZeroFault).then_some(policy))
    }
}

/// Every path of the golden eBNN batch — 40 images over 3 DPUs (16 + 16 +
/// 8: unequal chunks exercise the skew the work-stealing scheduler must
/// keep invisible) — computes the model's features with the golden
/// per-DPU figures, and the traced path records the golden traces.
#[test]
fn ebnn_tier1_batch_is_bit_identical_on_every_path() {
    let model = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
    let images: Vec<_> = (0..40).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let policy = ResilientLaunchPolicy::default();
    let mut first = None;
    for path in PATHS {
        let (features, report, traces): (_, LaunchReport, _) = if let Path::Pinned(tier) = path {
            let mut engine = Tier1Engine::new(&model, 3).expect("eBNN engine");
            engine.set_mut().set_engine(Some(tier));
            engine.stage(&model, &images, 0).expect("stage images");
            let (report, _) = engine.launch(false, None).expect("launch");
            (engine.gather(0).expect("gather").0, report, Vec::new())
        } else {
            let (trace, policy) = path.choices(&policy);
            let spec = BatchSpec { trace, policy, ..BatchSpec::default() };
            let run = run_tier1_batch(&model, &images, spec).expect("one-shot run");
            assert!(run.redispatched.is_empty(), "{path:?}");
            (run.features, run.report, run.dpu_traces)
        };
        for (i, image) in images.iter().enumerate() {
            assert_eq!(features[i], model.features(&model.binarize(&image.pixels)), "{path:?} {i}");
        }
        assert!(report.incidents.is_empty(), "{path:?}: {report:?}");
        assert_eq!(report.makespan_cycles(), 993_643, "{path:?}: makespan drifted");
        let launch = report;
        let cycles: Vec<u64> = launch.per_dpu.iter().map(|r| r.cycles).collect();
        let instrs: Vec<u64> = launch.per_dpu.iter().map(|r| r.instructions).collect();
        assert_eq!(cycles, GOLDEN_EBNN_CYCLES, "{path:?}: per-DPU cycles drifted");
        assert_eq!(instrs, GOLDEN_EBNN_INSTRS, "{path:?}: per-DPU instructions drifted");
        // The histogram fold must reproduce the exact per-mnemonic counts.
        let h = &launch.per_dpu[0].op_histogram;
        assert_eq!(h.values().sum::<u64>(), GOLDEN_EBNN_HIST_TOTAL, "{path:?}");
        let prints: Vec<(usize, u64, u64)> = traces.iter().map(fingerprint).collect();
        if path == Path::Traced {
            assert_eq!(prints, GOLDEN_EBNN_TRACE, "trace buffers drifted");
        } else {
            assert!(prints.is_empty(), "{path:?} traced nothing");
        }
        assert_eq!(first.get_or_insert_with(|| launch.clone()), &launch, "{path:?} diverged");
    }
}

/// Every path of the golden YOLO layer — 6 DPUs (>= the parallel
/// threshold), 3 tasklets, deterministic data — computes Algorithm 2's
/// `C` with the figures recorded from the seed interpreter (PR 1 state),
/// whichever tier retired the instructions.
#[test]
fn yolo_tier1_layer_is_bit_identical_on_every_path() {
    let dims = GemmDims { m: 6, n: 24, k: 18 };
    let a: Vec<i16> = (0..dims.m * dims.k).map(|i| ((i * 7 % 13) as i16) - 6).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| ((i * 5 % 11) as i16) - 5).collect();
    let mut expect = vec![0i16; dims.m * dims.n];
    yolo_pim::gemm::gemm(dims, 1, &a, &b, &mut expect);
    let policy = ResilientLaunchPolicy::default();
    let mut first = None;
    for path in PATHS {
        let (c, report, traces) = if let Path::Pinned(tier) = path {
            let mut engine = RowEngine::new(dims, 1, &b, dims.m, 3).expect("row engine");
            engine.set_mut().set_engine(Some(tier));
            engine.stage(&a).expect("stage A rows");
            let (report, _) = engine.launch(false, None).expect("launch");
            (engine.gather().expect("gather").0, report, Vec::new())
        } else {
            let (trace, policy) = path.choices(&policy);
            let spec = LayerRunSpec { trace, policy, ..LayerRunSpec::new(3) };
            let run = run_tier1_layer(dims, 1, &a, &b, spec).expect("one-shot run");
            assert!(run.redispatched.is_empty(), "{path:?}");
            (run.c, run.report, run.dpu_traces)
        };
        assert_eq!(c, expect, "{path:?}: C differs from the host GEMM");
        assert!(report.incidents.is_empty(), "{path:?}: {report:?}");
        let launch = report;
        let cycles: Vec<u64> = launch.per_dpu.iter().map(|r| r.cycles).collect();
        assert_eq!(cycles, vec![264_648; 6], "{path:?}: per-DPU cycles drifted");
        assert_eq!(launch.total_instructions(), 428_988, "{path:?}: instructions drifted");
        let prints: Vec<(usize, u64, u64)> = traces.iter().map(fingerprint).collect();
        if path == Path::Traced {
            assert_eq!(prints, vec![(1_763, 968, 264_648); 6], "trace buffers drifted");
        } else {
            assert!(prints.is_empty(), "{path:?} traced nothing");
        }
        assert_eq!(first.get_or_insert_with(|| launch.clone()), &launch, "{path:?} diverged");
    }
}

/// The instruction-level Fig. 4.7(a) path: 16 images on one DPU, tasklet
/// `t` taking images `t, t+T, …`, at the golden cycle and instruction
/// counts for each tasklet count.
#[test]
fn strided_fig_4_7a_batches_hold_their_golden_figures() {
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    for (tasklets, cycles, instructions) in [
        (1, 5_460_836, 496_154),
        (4, 1_366_281, 496_190),
        (11, 684_080, 496_274),
        (16, 497_719, 496_334),
    ] {
        let spec = BatchSpec { tasklets: Some(tasklets), ..BatchSpec::default() };
        let run = run_tier1_batch(&model, &images, spec).expect("strided run");
        for (i, image) in images.iter().enumerate() {
            let want = model.features(&model.binarize(&image.pixels));
            assert_eq!(run.features[i], want, "{tasklets} tasklets, image {i}");
        }
        let launch = run.report.served().expect("fully served");
        assert_eq!(launch.tasklets, tasklets);
        assert_eq!(launch.makespan_cycles(), cycles, "{tasklets} tasklets: cycles drifted");
        assert_eq!(launch.total_instructions(), instructions, "{tasklets} tasklets");
    }
}

/// A traced one-shot's host log in order: direction, symbol and target
/// DPU (`None` for a broadcast) of every host↔MRAM transfer.
fn host_log(buf: &TraceBuffer) -> Vec<(HostDirection, String, Option<u32>)> {
    let transfer = |event: &TraceEvent| match event {
        TraceEvent::HostTransfer { direction, symbol, dpu, .. } => {
            Some((*direction, symbol.clone(), *dpu))
        }
        _ => None,
    };
    buf.events().iter().filter_map(transfer).collect()
}

/// `n` transfers of `symbol` to (or from) each of `dpus`.
fn transfers(
    direction: HostDirection,
    symbol: &str,
    dpus: impl IntoIterator<Item = Option<u32>>,
    n: usize,
) -> Vec<(HostDirection, String, Option<u32>)> {
    dpus.into_iter().flat_map(|d| vec![(direction, symbol.to_owned(), d); n]).collect()
}

/// Both models' traced one-shots follow the paper's host program: the
/// shared operands are broadcast once (eBNN weights and LUT, YOLO params
/// and `B`), then each DPU's own inputs are scattered, then the outputs
/// are gathered DPU by DPU — the single-DPU eBNN batch included.
#[test]
fn traced_host_logs_broadcast_before_they_scatter_and_gather() {
    use HostDirection::{HostToMram as To, MramToHost as From};
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let images: Vec<_> = (0..5).map(|i| ebnn::mnist::synth_digit(i, 1)).collect();
    let spec = BatchSpec { tasklets: Some(2), trace: true, ..BatchSpec::default() };
    let run = run_tier1_batch(&model, &images, spec).expect("traced batch");
    let want = [
        transfers(To, "filters", [None], 1),
        transfers(To, "lut", [None], 1),
        transfers(To, "params", [Some(0)], 1),
        transfers(To, "images", [Some(0)], 5),
        transfers(From, "features", [Some(0)], 5),
    ];
    assert_eq!(host_log(&run.host_trace), want.concat());

    let dims = GemmDims { m: 3, n: 8, k: 6 };
    let a: Vec<i16> = (0..dims.m * dims.k).map(|i| i as i16 - 9).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| 5 - i as i16).collect();
    let spec = LayerRunSpec { trace: true, ..LayerRunSpec::new(2) };
    let run = run_tier1_layer(dims, 1, &a, &b, spec).expect("traced layer");
    let rows = || (0..3).map(Some);
    let want = [
        transfers(To, "params", [None], 1),
        transfers(To, "b", [None], 1),
        transfers(To, "a_row", rows(), 1),
        transfers(From, "c_row", rows(), 1),
    ];
    assert_eq!(host_log(&run.host_trace), want.concat());
}
