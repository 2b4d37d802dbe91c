//! The paper layer: every figure of the paper, checked once.
//!
//! An **input** is one of the paper's shapes. The executed ones run
//! generated kernels on the simulator:
//! - Chapter 3: the ten Fig. 3.1 harness rows (Table 3.1), one `mram.read`
//!   each of 8, 64 and 2,048 bytes (Eq. 3.4), the Fig. 3.2 float kernel,
//!   and ALU, subroutine, interleaved-DMA, bulk-phase and straggler
//!   microkernels, each with its matched Tier-2 [`OpCounts`];
//! - eBNN: the default 8-filter model's 16-digit batch through
//!   [`Tier1Engine`] at 1 to 24 tasklets (Fig. 4.7(a) executed), and 17
//!   distinct digits staged over two DPUs;
//! - YOLO: [`RowEngine`] rows at 1 and 11 tasklets — saturating rows, the
//!   −33 truncation row, seeded rows at alpha {1, 2, −3, 40}, a clamp row
//!   at alpha {1, 40}, and the 4-channel 10×10 conv as im2col rows.
//!
//! Each runs in two **cells**, engine {Reference, Superblock}, pinned
//! through `RunSpec::engine` or `DpuSet::set_engine`. The **tally**
//! figures — the Tier-2 closed form, the Chapter 5 model and the
//! pipelines end to end — are one cell each, as are the checks that are
//! not figures: the 8-byte transfer rule, the 16-slot DMA cap, the shipped
//! `.cfg` files, determinism and accuracy.
//!
//! Every figure is a test of its own (a Table 3.1 row, an Eq. 3.4 size, a
//! microkernel, an alpha of the GEMM rows, a tally), so a failing figure
//! names itself and the figures share the test threads.
//!
//! The **laws**:
//! - (a) an executed figure is identical on both engines: every run's
//!   result (cycles, perf reads, DMA totals, profile) and every output;
//! - (b) every output is its host reference's ([`EbnnModel::features`],
//!   [`gemm_row`]);
//! - (c) every figure lies within a named tolerance of the paper, each
//!   constant beside the EXPERIMENTS.md row it guards;
//! - (d) the Tier-2 closed form agrees with the microkernels;
//! - (e) the executed Fig. 4.7(a) keeps its shape: 8 and 11 tasklets tie,
//!   12 drops below 11, and 16 jumps;
//! - (f) the generated kernels clamp and truncate as Algorithm 2 does,
//!   keep each DPU's data its own, take their DMA cycles from Eq. 3.4, and
//!   a lone tasklet issues one instruction every 11 cycles.

use cpu_baseline::XeonModel;
use dpu_sim::asm::{assemble, profile_harness, HarnessOp};
use dpu_sim::cost::{CycleModel, KernelEstimate, OpCounts, OptLevel};
use dpu_sim::{DpuId, DpuParams, Engine, ExecProgram, Machine, Program, RunResult, RunSpec};
use ebnn::codegen::{mram, params_wire, Tier1Engine};
use ebnn::mapping::BnPlacement;
use ebnn::mnist::GrayImage;
use ebnn::{EbnnModel, EbnnPipeline, ModelConfig, SynthMnist};
use pim_core::experiments as exp;
use pim_host::{DpuSet, HostError, LaunchSpec};
use pim_model::{ModelReport, OperandBits, Workload};
use pim_serve::Rng64;
use std::fmt::Debug;
use yolo_pim::codegen::RowEngine;
use yolo_pim::darknet::darknet53_yolov3_scaled;
use yolo_pim::gemm::{gemm_row, GemmDims};
use yolo_pim::im2col::Im2colDims;
use yolo_pim::{darknet53_yolov3, decode_and_nms, im2col, tiny_config, GemmMapping, YoloPipeline};

/// Seeded GEMM rows per alpha: a few in debug builds, more in release.
const ROW_CASES: u64 = if cfg!(debug_assertions) { 2 } else { 8 };

// (c): the tolerances, each against the paper's figure.

/// Table 3.1, every row (EXPERIMENTS.md "Table 3.1": worst 1.6 %, fixed
/// div 374 against 368).
const TABLE_3_1: f64 = 0.017;
/// §3.3.1's ×2.9, ×3.3 and ×3.2 (EXPERIMENTS.md "Table 3.1": "all
/// reproduce").
const TABLE_3_1_RATIOS: f64 = 0.05;
/// §3.3.1's "float mul about ×2.3 slower than float add" (2,530 ÷ 891).
const FLOAT_MUL_OVER_ADD: f64 = 0.25;
/// Fig. 4.4's LUT speedup against the paper's 1.4× (EXPERIMENTS.md "Fig.
/// 4.4": 1.54×).
const FIG_4_4: f64 = 0.12;
/// §4.3.1's eBNN per image against 1.48 ms (EXPERIMENTS.md "§4.3.1": 1.53
/// ms, 3.2 %).
const EBNN_PER_IMAGE: f64 = 0.05;
/// §4.3.1's YOLOv3 frame against 65 s (EXPERIMENTS.md "§4.3.1": 77.5 s,
/// 19 %).
const YOLO_FRAME: f64 = 0.25;
/// §4.3.1's YOLOv3 mean layer against ≈ 0.9 s (EXPERIMENTS.md "§4.3.1":
/// 1.03 s, 14 %).
const YOLO_MEAN_LAYER: f64 = 0.20;
/// The Tier-2 eBNN estimate ÷ the executed 16-digit batch at `-O3` and
/// `-O0`, and how far each may move (EXPERIMENTS.md "Validation of the
/// simulator itself": 0.84× and 2.16×).
const TIER2_O3_OVER_EXECUTED: f64 = 0.84;
const TIER2_O0_OVER_EXECUTED: f64 = 2.16;
const TIER2_OVER_EXECUTED: f64 = 0.10;
/// Chapter 5's model rows (EXPERIMENTS.md "Chapter 5": exact to the
/// paper's printed digits).
const MODEL: f64 = 0.01;
/// Chapter 5 rows the paper prints to two digits or stars.
const MODEL_2: f64 = 0.02;
/// Table 5.4's UPMEM YOLO throughput per area.
const MODEL_5: f64 = 0.05;

// (e): the executed Fig. 4.7(a) shape (EXPERIMENTS.md "Validation of the
// simulator itself": 7.99× at 8 and 11 tasklets, 7.64× at 12, 10.98× at
// 16).

/// How far the 8- and 11-tasklet speedups may differ.
const PLATEAU: f64 = 0.01;
/// The least 16-tasklet jump over 11.
const JUMP: f64 = 1.3;

/// The engine cells of every executed figure.
const ENGINES: [Engine; 2] = [Engine::Reference, Engine::Superblock];

/// What an executed figure leaves on one engine: each run's result, in
/// order, and the outputs the host read back.
#[derive(Debug, PartialEq)]
struct Executed<O> {
    runs: Vec<RunResult>,
    outputs: O,
}

/// Laws on what a figure executed.
type Laws<O> = Box<dyn Fn(&Executed<O>)>;

/// An executed figure: how it runs on one engine, its outputs' host
/// reference, and its laws beyond (a) and (b).
struct Figure<O> {
    name: String,
    execute: Box<dyn Fn(Engine) -> Executed<O>>,
    reference: O,
    laws: Laws<O>,
}

impl<O> Figure<O> {
    fn new(
        name: impl Into<String>,
        execute: impl Fn(Engine) -> Executed<O> + 'static,
        reference: O,
        laws: impl Fn(&Executed<O>) + 'static,
    ) -> Self {
        Self { name: name.into(), execute: Box::new(execute), reference, laws: Box::new(laws) }
    }
}

/// Run `figure` in both engine cells and keep its laws.
fn check<O: PartialEq + Debug>(figure: &Figure<O>) {
    let [reference, superblock] = ENGINES.map(|engine| {
        in_cell(&format!("{} on {}", figure.name, engine.name()), || (figure.execute)(engine))
    });
    in_cell(&figure.name, || {
        assert_eq!(superblock.runs, reference.runs, "(a) the engines' runs differ");
        assert_eq!(superblock.outputs, reference.outputs, "(a) the engines' outputs differ");
        assert_eq!(reference.outputs, figure.reference, "(b) not the host reference");
        (figure.laws)(&reference);
    });
}

/// Run `f`, naming `cell` on stderr if it panics.
fn in_cell<T>(cell: &str, f: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        eprintln!("paper cell failed: {cell}");
        std::panic::resume_unwind(panic)
    })
}

/// Whether `measured` is within `tol` of `paper`, relatively.
fn close(measured: f64, paper: f64, tol: f64) -> bool {
    (measured - paper).abs() / paper.abs() < tol
}

/// (f) Eq. 3.4 summed over a run's transfers, every one an even number of
/// bytes: `25 + bytes / 2` cycles each.
#[track_caller]
fn dma_cycles_follow_eq_3_4(r: &RunResult) {
    let p = DpuParams::default();
    let eq_3_4 = p.dma_setup_cycles * r.dma_transfers + r.dma_bytes / p.dma_bytes_per_cycle;
    assert_eq!(r.dma_cycles, eq_3_4, "(f) DMA cycles of {} transfers", r.dma_transfers);
}

// ---- Chapter 3 -------------------------------------------------------

/// `program` on `tasklets` tasklets of a fresh DPU, on `engine`.
fn execute(program: &Program, tasklets: usize, engine: Engine) -> RunResult {
    let exec = ExecProgram::compile(program).expect("the kernel compiles");
    let spec = RunSpec { engine: Some(engine), ..RunSpec::new(tasklets) };
    RunResult::clone(&Machine::default().execute(&exec, spec).expect("the kernel runs"))
}

/// Kernels run on fresh DPUs, one run each.
fn kernels(
    name: &str,
    kernels: Vec<(Program, usize)>,
    laws: impl Fn(&Executed<()>) + 'static,
) -> Figure<()> {
    let execute = move |engine| Executed {
        runs: kernels
            .iter()
            .map(|(program, tasklets)| execute(program, *tasklets, engine))
            .collect(),
        outputs: (),
    };
    Figure::new(name, execute, (), laws)
}

/// Runs Table 3.1's `op` row and keeps it within [`TABLE_3_1`] of the
/// paper.
fn table_3_1_row(op: HarnessOp) -> Figure<()> {
    let name = format!("Table 3.1, {}", op.label());
    kernels(&name, vec![(profile_harness(op), 1)], move |e| {
        let cycles = e.runs[0].perf_reads[0];
        let driver = exp::table_3_1();
        let row = driver.iter().find(|row| row.op == op.label()).expect("a row");
        assert_eq!(row.measured_cycles, cycles, "the report's figure");
        let paper = row.paper_cycles as f64;
        assert!(close(cycles as f64, paper, TABLE_3_1), "paper {paper}, {cycles}");
    })
}

/// One test per Table 3.1 row.
macro_rules! table_3_1 {
    ($($test:ident: $op:ident,)*) => {$(
        #[test]
        fn $test() {
            check(&table_3_1_row(HarnessOp::$op));
        }
    )*};
}

table_3_1! {
    table_3_1_fixed_add: Add,
    table_3_1_fixed_sub: Sub,
    table_3_1_8_bit_mul: Mul8,
    table_3_1_16_bit_mul: Mul16,
    table_3_1_32_bit_mul: Mul32,
    table_3_1_fixed_div: Div,
    table_3_1_float_add: FAdd,
    table_3_1_float_sub: FSub,
    table_3_1_float_mul: FMul,
    table_3_1_float_div: FDiv,
}

/// §3.3.1's statements about Table 3.1's rows.
#[test]
fn table_3_1_ratios() {
    let harness = HarnessOp::ALL.iter().map(|&op| (profile_harness(op), 1)).collect();
    check(&kernels("Table 3.1 ratios", harness, |e| {
        let measured: Vec<u64> = e.runs.iter().map(|r| r.perf_reads[0]).collect();
        let get = |label: &str| {
            let i = HarnessOp::ALL.iter().position(|op| op.label() == label).expect("a row");
            measured[i] as f64
        };
        // "32-bit fixed multiplication is about ×2.9 slower than addition".
        assert!(close(get("32-bit mul") / get("fixed add"), 2.9, TABLE_3_1_RATIOS));
        // "32-bit float addition is about ×3.3 slower than fixed addition".
        assert!(close(get("float add") / get("fixed add"), 3.3, TABLE_3_1_RATIOS));
        // "float multiplication about ×3.2 slower than fixed multiplication".
        assert!(close(get("float mul") / get("32-bit mul"), 3.2, TABLE_3_1_RATIOS));
        assert!(close(get("float mul") / get("float add"), 2.3, FLOAT_MUL_OVER_ADD));
        // Float division is the worst of everything.
        assert!(measured.iter().all(|&c| get("float div") >= c as f64));
    }));
}

/// One `mram.read` of `bytes`, which Eq. 3.4 prices at `cycles`
/// (EXPERIMENTS.md "Eq. 3.4": exact).
fn eq_3_4(bytes: usize, cycles: u64) -> Figure<()> {
    let name = format!("Eq. 3.4, {bytes} bytes");
    kernels(&name, vec![(exp::eq_3_4_program(bytes), 1)], move |e| {
        assert_eq!((e.runs[0].dma_transfers, e.runs[0].dma_cycles), (1, cycles));
        assert_eq!(exp::eq_3_4(&[bytes]), [(bytes, cycles)], "the report's row");
    })
}

#[test]
fn eq_3_4_8_bytes() {
    check(&eq_3_4(8, 29));
}

#[test]
fn eq_3_4_64_bytes() {
    check(&eq_3_4(64, 57));
}

#[test]
fn eq_3_4_2048_bytes() {
    check(&eq_3_4(2048, 1049));
}

#[test]
fn fig_3_2_float_kernel() {
    check(&kernels("Fig. 3.2", vec![(exp::fig_3_2_program(), 1)], |e| {
        // EXPERIMENTS.md "Fig. 3.2": the paper's five routines, 19
        // occurrences each over the 20-iteration loop.
        let profile = &e.runs[0].profile;
        for routine in ["__ltsf2", "__divsf3", "__floatsisf", "__addsf3", "__muldi3"] {
            let occ = profile.iter().find(|&(s, _)| s == routine).map(|(_, c)| c);
            assert_eq!(occ, Some(19), "{routine} in\n{profile}");
        }
        assert_eq!(profile, &exp::fig_3_2(), "the report's profile");
    }));
}

/// A pure-ALU loop of `iters` iterations of 3 ALU ops and a branch, and
/// its Tier-2 tally: 2 setup ALU slots, the body, and the halt.
fn alu_loop(iters: u64) -> (String, OpCounts) {
    let source = format!(
        "movi r1, {iters}\nmovi r2, 0\nloop: add r2, r2, r1\nxor r3, r2, r1\naddi r1, r1, -1\n\
         bne r1, r0, loop\nhalt\n"
    );
    (source, OpCounts { alu: 2 + 3 * iters + 1, loops: iters, ..OpCounts::default() })
}

/// A microkernel on each tasklet count, with the Tier-2 tally of one
/// tasklet (`counts(tasklet id)`) and the law (d) relating each run to
/// the closed form's estimate.
fn microkernel(
    name: &str,
    source: &str,
    tasklets: &[usize],
    counts: impl Fn(usize) -> OpCounts + 'static,
    law: impl Fn(&RunResult, &KernelEstimate) + 'static,
) -> Figure<()> {
    let program = assemble(source).expect("the microkernel assembles");
    let runs = tasklets.iter().map(|&t| (program.clone(), t)).collect();
    let tasklets = tasklets.to_vec();
    kernels(name, runs, move |e| {
        let model = CycleModel::new(DpuParams::default(), OptLevel::O3);
        for (r, &t) in e.runs.iter().zip(&tasklets) {
            in_cell(&format!("{t} tasklets"), || {
                law(r, &model.estimate(&(0..t).map(&counts).collect::<Vec<_>>()));
            });
        }
    })
}

/// (d) The estimate is within `bound` of the executed cycles.
fn within(bound: f64) -> impl Fn(&RunResult, &KernelEstimate) {
    move |r, est| {
        let err = r.cycles.abs_diff(est.cycles) as f64 / r.cycles as f64;
        assert!(
            err < bound,
            "executed {} vs Tier-2 {} ({:.2} %)",
            r.cycles,
            est.cycles,
            100. * err
        );
    }
}

// The Tier-2 closed form against the interpreter on matched workloads
// (EXPERIMENTS.md "Validation of the simulator itself": within 2 % on
// ALU, subroutine and interleaved-DMA kernels, a lower bound on
// bulk-phase ones).

#[test]
fn tier2_alu_loop_one_tasklet() {
    let (source, counts) = alu_loop(500);
    check(&microkernel(
        "ALU loop, one tasklet",
        &source,
        &[1],
        move |_| counts,
        |r, est| {
            within(0.01)(r, est);
            // (f) One instruction per 11-stage revolution, plus the drain.
            let issue = 11 * r.instructions;
            assert!((issue..=issue + 11).contains(&r.cycles), "{} cycles, {issue}", r.cycles);
        },
    ));
}

#[test]
fn tier2_alu_loop_across_tasklets() {
    let (source, counts) = alu_loop(300);
    let tasklets = [1, 2, 4, 8, 11, 16, 24];
    check(&microkernel("ALU loop", &source, &tasklets, move |_| counts, within(0.02)));
}

#[test]
fn tier2_subroutine_loop() {
    let counts = OpCounts { alu: 2 + 50 + 1, mul32: 50, loops: 50, ..OpCounts::default() };
    let source = "movi r1, 50\nmovi r2, 3\nloop: call __mulsi3 r3, r2, r1\naddi r1, r1, -1\n\
                  bne r1, r0, loop\nhalt\n";
    check(&microkernel("subroutine loop", source, &[4], move |_| counts, within(0.03)));
}

#[test]
fn tier2_interleaved_dma() {
    let counts = OpCounts {
        alu: 5 + 50 * (1 + 2 * 10) + 1,
        loops: 50 * 10 + 50,
        mram_transfers: 50,
        mram_bytes: 50 * 64,
        ..OpCounts::default()
    };
    // Per iteration a 64-byte DMA and a 10-step inner loop: streams from
    // different tasklets interleave.
    let source = "me r1\nlsli r2, r1, 10\nmovi r3, 64\nmovi r4, 0\nmovi r5, 50\n\
                  loop: mram.read r4, r2, r3\nmovi r6, 10\ninner: add r7, r7, r6\n\
                  addi r6, r6, -1\nbne r6, r0, inner\naddi r5, r5, -1\nbne r5, r0, loop\nhalt\n";
    check(&microkernel("interleaved DMA", source, &[1, 4, 11], move |_| counts, within(0.10)));
}

#[test]
fn tier2_bulk_phase_lower_bound() {
    let counts = OpCounts {
        alu: 5 + 100 + 1,
        loops: 100,
        mram_transfers: 1,
        mram_bytes: 2048,
        ..OpCounts::default()
    };
    // One 2,048-byte DMA, then a long compute phase: the serialized stream
    // delays the last tasklet's compute, which a roofline cannot see.
    let source = "me r1\nlsli r2, r1, 11\nmovi r3, 2048\nmovi r4, 0\nmram.read r4, r2, r3\n\
                  movi r5, 100\nloop: addi r5, r5, -1\nbne r5, r0, loop\nhalt\n";
    check(&microkernel(
        "bulk phase",
        source,
        &[1, 4, 11],
        move |_| counts,
        move |r, est| {
            assert!(est.cycles <= r.cycles + r.cycles / 20, "a lower bound: {est:?}, {r:?}");
            // The gap is at most one serialized stream and the last tasklet's
            // compute phase.
            let tasklets = r.issue_per_tasklet.len() as u64;
            let slack = est.cycles + 2048 / 2 * tasklets + 11 * counts.alu;
            assert!(r.cycles <= slack, "{} cycles beyond the slack {slack}", r.cycles);
        },
    ));
}

#[test]
fn tier2_straggler() {
    let counts = |id| {
        let iters = if id == 0 { 1000 } else { 100 };
        OpCounts { alu: 4 + iters + 1, loops: iters, ..OpCounts::default() }
    };
    // Tasklet 0 loops ten times longer than the rest.
    let source = "me r1\nmovi r2, 100\nbeq r1, r0, straggler\njmp loop\n\
                  straggler: movi r2, 1000\nloop: addi r2, r2, -1\nbne r2, r0, loop\nhalt\n";
    check(&microkernel("straggler", source, &[8], counts, |r, est| {
        within(0.03)(r, est);
        assert!(est.latency_bound > est.issue_bound, "the straggler sets the bound");
    }));
}

// ---- eBNN ------------------------------------------------------------

/// Tasklet counts of the executed Fig. 4.7(a).
const EBNN_TASKLETS: [usize; 8] = [1, 2, 4, 8, 11, 12, 16, 24];

/// The default 8-filter model and `n` synthetic digits, as
/// `pim_core::experiments` draws its 16-digit batch.
fn ebnn_digits(n: usize) -> (EbnnModel, Vec<GrayImage>) {
    let images = (0..n).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    (EbnnModel::generate(ModelConfig::default()), images)
}

fn features(model: &EbnnModel, images: &[GrayImage]) -> Vec<Vec<u8>> {
    images.iter().map(|g| model.features(&model.binarize(&g.pixels))).collect()
}

/// The default model's 16-digit batch on one DPU at each of
/// [`EBNN_TASKLETS`].
#[test]
fn fig_4_7a_executed() {
    let (model, images) = ebnn_digits(16);
    let reference = vec![features(&model, &images); EBNN_TASKLETS.len()].concat();
    let sweep = {
        let model = model.clone();
        move |engine| {
            let mut tier1 = Tier1Engine::new(&model, 1).expect("an eBNN engine");
            tier1.set_mut().set_engine(Some(engine));
            let mut e = Executed { runs: Vec::new(), outputs: Vec::new() };
            for t in EBNN_TASKLETS {
                tier1.restore_golden().expect("restore");
                tier1.stage(&model, &images, 0).expect("stage");
                // Stride the DPU's 16 images over `t` tasklets.
                let params = params_wire(16, t as u32, mram::IMAGES, mram::FEATURES);
                tier1.set_mut().copy_to("params", 0, &params).expect("params");
                let (report, _) = tier1.set_mut().launch_with(LaunchSpec::loaded(t)).expect("run");
                e.runs.push(RunResult::clone(&report.per_dpu[0]));
                e.outputs.extend(tier1.gather(0).expect("gather").0);
            }
            e
        }
    };
    check(&Figure::new("Fig. 4.7(a) executed", sweep, reference, move |e| {
        fig_4_7a_executed_laws(&model, e);
    }));
}

/// 17 distinct digits staged over two DPUs.
#[test]
fn ebnn_17_digits_over_2_dpus() {
    let (model, digits) = ebnn_digits(17);
    let reference = features(&model, &digits);
    let staging = move |engine| {
        let mut tier1 = Tier1Engine::new(&model, 2).expect("an eBNN engine");
        tier1.set_mut().set_engine(Some(engine));
        tier1.stage(&model, &digits, 0).expect("stage");
        let (report, _) = tier1.launch(false, None).expect("launch");
        assert!(report.incidents.is_empty(), "a clean launch: {:?}", report.incidents);
        let runs = report.per_dpu.iter().map(|r| RunResult::clone(r)).collect();
        Executed { runs, outputs: tier1.gather(0).expect("gather").0 }
    };
    check(&Figure::new("eBNN: 17 digits over 2 DPUs", staging, reference, |e| {
        e.runs.iter().for_each(dma_cycles_follow_eq_3_4);
        // (f) DPU 1 read and wrote its one digit, DPU 0 its sixteen.
        let images = |r: &RunResult| r.dma_transfers;
        assert!(images(&e.runs[1]) < images(&e.runs[0]), "{:?}", e.runs);
    }));
}

fn fig_4_7a_executed_laws(model: &EbnnModel, e: &Executed<Vec<Vec<u8>>>) {
    e.runs.iter().for_each(dma_cycles_follow_eq_3_4);
    let cycles = |t| e.runs[EBNN_TASKLETS.iter().position(|&x| x == t).expect("a count")].cycles;
    let speedup = |t| cycles(1) as f64 / cycles(t) as f64;
    let (s8, s11, s12, s16) = (speedup(8), speedup(11), speedup(12), speedup(16));
    // (e) Two 8-image waves at 8 and 11 tasklets, an uneven split at 12,
    // one image per tasklet at 16.
    assert!(close(s11, s8, PLATEAU), "plateau: {s8:.3} at 8, {s11:.3} at 11");
    assert!(s12 < s11, "drop: {s12:.3} at 12, {s11:.3} at 11");
    assert!(s16 >= JUMP * s11, "jump: {s16:.3} at 16, {s11:.3} at 11");
    // (f) A lone tasklet issues every 11 cycles; it stalls only on its DMAs.
    let one = &e.runs[0];
    let issue = 11 * one.instructions;
    assert!((issue..=issue + one.dma_cycles + 11).contains(&one.cycles), "{one:?}");
    // (c) The Tier-2 estimates bracket the executed batch as compiler
    // levels should.
    let tiers = exp::tier_validation(model);
    assert_eq!(tiers.tier1_cycles, cycles(16), "the report's executed batch");
    assert!(tiers.bit_exact);
    let o3 = tiers.o3_ratio();
    assert!(close(o3, TIER2_O3_OVER_EXECUTED, TIER2_OVER_EXECUTED), "O3 ÷ executed {o3:.3}");
    let o0 = tiers.o0_ratio();
    assert!(close(o0, TIER2_O0_OVER_EXECUTED, TIER2_OVER_EXECUTED), "O0 ÷ executed {o0:.3}");
}

// ---- YOLO ------------------------------------------------------------

/// Tasklet counts every GEMM row input runs at: one, and the pipeline's
/// 11 stages.
const ROW_TASKLETS: [usize; 2] = [1, 11];

/// `A`'s rows through a [`RowEngine`], one row per DPU, at each of
/// [`ROW_TASKLETS`]; `laws` beyond (f)'s DMA cycles see the `C` rows.
fn rows(
    name: String,
    dims: GemmDims,
    alpha: i32,
    a: Vec<i16>,
    b: Vec<i16>,
    laws: impl Fn(&[Vec<i16>]) + 'static,
) -> Figure<Vec<Vec<i16>>> {
    let host = a.chunks(dims.k).map(|row| {
        let mut c = vec![0; dims.n];
        gemm_row(dims, alpha, row, &b, &mut c);
        c
    });
    let reference = vec![host.collect::<Vec<_>>(); ROW_TASKLETS.len()].concat();
    let execute = move |engine| {
        let mut e = Executed { runs: Vec::new(), outputs: Vec::new() };
        for tasklets in ROW_TASKLETS {
            let mut rows = RowEngine::new(dims, alpha, &b, dims.m, tasklets).expect("a row engine");
            rows.set_mut().set_engine(Some(engine));
            rows.stage(&a).expect("stage");
            let (report, _) = rows.launch(false, None).expect("launch");
            e.runs.extend(report.per_dpu.iter().map(|r| RunResult::clone(r)));
            e.outputs.extend(rows.gather().expect("gather").0.chunks(dims.n).map(<[i16]>::to_vec));
        }
        e
    };
    Figure::new(name, execute, reference, move |e| {
        e.runs.iter().for_each(dma_cycles_follow_eq_3_4);
        laws(&e.outputs);
    })
}

// (f) Saturation in both directions.
#[test]
fn gemm_row_saturates() {
    let b = vec![30000, -30000, 1, -1, 30000, -30000, 1, -1];
    let one = GemmDims { m: 1, n: 4, k: 2 };
    check(&rows("saturating row".into(), one, 1, vec![30000, 30000], b, |c| {
        assert!(c.iter().all(|c| c[..2] == [32767, -32767]), "{c:?}");
    }));
}

// (f) acc = −33 rescales to −1 (truncation toward zero), not −2 (floor):
// what `__divsi3` gets right and an `asr` would not.
#[test]
fn gemm_row_truncates_toward_zero() {
    let one = GemmDims { m: 1, n: 1, k: 1 };
    check(&rows("−33 truncation row".into(), one, 1, vec![-33], vec![1], |c| {
        assert!(c.iter().all(|c| c == &[-1]), "{c:?}");
    }));
}

/// (f) Alpha scales linearly, and the /32 clamp saturates at 40×.
fn clamp_rows(alpha: i32, want: [i16; 4]) -> Figure<Vec<Vec<i16>>> {
    let clamp = GemmDims { m: 2, n: 4, k: 2 };
    let b = vec![1000, -1000, 30000, -30000, 0, 0, 0, 0];
    let name = format!("clamp rows, alpha {alpha}");
    rows(name, clamp, alpha, vec![32, 0, 0, 32], b, move |c| {
        assert!(c.iter().step_by(clamp.m).all(|c| c[..] == want), "{c:?}");
    })
}

#[test]
fn gemm_rows_scale_at_alpha_1() {
    check(&clamp_rows(1, [1000, -1000, 30000, -30000]));
}

#[test]
fn gemm_rows_clamp_at_alpha_40() {
    check(&clamp_rows(40, [32767, -32767, 32767, -32767]));
}

/// [`ROW_CASES`] seeded pairs of rows at `alpha`.
fn seeded_rows(alpha: i32) {
    let seeded = GemmDims { m: 2, n: 12, k: 7 };
    for seed in 0..ROW_CASES {
        let mut rng = Rng64::new(seed);
        let mut draw = |len| (0..len).map(|_| rng.range(0, 2000) as i16 - 1000).collect::<Vec<_>>();
        let (a, b) = (draw(seeded.m * seeded.k), draw(seeded.k * seeded.n));
        let name = format!("seeded rows {seed}, alpha {alpha}");
        check(&rows(name, seeded, alpha, a, b, |_| {}));
    }
}

#[test]
fn gemm_rows_seeded_at_alpha_1() {
    seeded_rows(1);
}

#[test]
fn gemm_rows_seeded_at_alpha_2() {
    seeded_rows(2);
}

#[test]
fn gemm_rows_seeded_at_alpha_minus_3() {
    seeded_rows(-3);
}

#[test]
fn gemm_rows_seeded_at_alpha_40() {
    seeded_rows(40);
}

/// A small conv layer as im2col rows, one weight row per DPU; the host's
/// layer mapping leaves the same `C` in MRAM.
#[test]
fn conv_as_im2col_rows() {
    let d = Im2colDims { channels: 4, height: 10, width: 10, kernel: 3, stride: 1, pad: 1 };
    let input: Vec<i16> = (0..4 * 100).map(|i| ((i * 37) % 41) as i16 - 20).collect();
    let weights: Vec<i16> = (0..8 * d.rows()).map(|i| ((i * 13) % 31) as i16 - 15).collect();
    let b = im2col(&input, d);
    let dims = GemmDims { m: 8, n: d.cols(), k: d.rows() };
    let (mapped, report) = GemmMapping::default().run_layer(dims, 1, &weights, &b).expect("map");
    assert_eq!((report.dpus, report.memory_bound), (8, true), "{report:?}");
    check(&rows("4-channel 10×10 conv rows".into(), dims, 1, weights, b, move |c| {
        assert!(c.chunks(dims.m).all(|c| c.concat() == mapped), "the host mapping's C");
    }));
}

// ---- Tally figures ---------------------------------------------------

// The figures with no engine axis, one test each.

fn model() -> EbnnModel {
    EbnnModel::generate(ModelConfig::default())
}

#[test]
fn fig_4_3() {
    // "reduced from 11+ subroutines to 2 subroutines"; "only the mulsi3
    // subroutine is left" of the float ones.
    let f = exp::fig_4_3(&model());
    assert!(f.float_profile.distinct >= 11, "{:?}", f.float_profile);
    assert_eq!(f.lut_profile.distinct, 2, "{:?}", f.lut_profile);
    assert!(f.lut_profile.occ.iter().any(|(s, _)| s == "__mulsi3"));
    assert!(f.lut_profile.occ.iter().all(|(s, _)| !s.contains("sf") && !s.contains("df")));
}

#[test]
fn fig_4_4() {
    let s = exp::fig_4_4(&model()).speedup();
    assert!(close(s, 1.4, FIG_4_4), "LUT speedup {s:.3} (paper 1.4)");
}

#[test]
fn fig_4_7a_tally() {
    let pts = exp::fig_4_7a(&model(), &[1, 2, 4, 8, 10, 11, 12, 16, 24]);
    let by = |t: usize| pts.iter().find(|p| p.tasklets == t).expect("a point");
    // eBNN: monotone to 8, a plateau to 11 (two waves of 8 images), a
    // jump at 16 ("the number of threads match the number of images").
    assert!(by(2).ebnn_speedup > 1.5 && by(4).ebnn_speedup > 3.0, "{pts:?}");
    assert!(close(by(11).ebnn_speedup, by(8).ebnn_speedup, 0.05), "{pts:?}");
    assert!(by(16).ebnn_speedup > by(11).ebnn_speedup * 1.2, "{pts:?}");
    // YOLO: "saturates at 11 tasklets because there are 11 stages".
    assert!(by(11).yolo_speedup > 6.0, "{pts:?}");
    assert!(by(16).yolo_speedup < by(11).yolo_speedup * 1.3, "{pts:?}");
    assert!(by(24).yolo_speedup < by(11).yolo_speedup * 1.35, "{pts:?}");
}

#[test]
fn fig_4_7b() {
    let rows = exp::fig_4_7b();
    let get = |opt: &str, t: usize| {
        rows.iter().find(|r| r.opt == opt && r.tasklets == t).expect("a row").seconds
    };
    // Worst: O0 unthreaded; best: O3 threaded; "the biggest jump is seen
    // when multi-threading is used but using compiler optimization helps
    // as well" (EXPERIMENTS.md "Fig. 4.7(b)": 10.8× against 4.0×).
    let (worst, best) = (get("O0", 1), get("O3", 11));
    assert!(worst > get("O0", 11) && worst > get("O3", 1), "{rows:?}");
    assert!(best < get("O0", 11) && best < get("O3", 1), "{rows:?}");
    assert!(worst > 3.0 * best, "{rows:?}");
    assert!(worst / get("O0", 11) > worst / get("O3", 1), "threading is the bigger jump");
}

#[test]
fn fig_4_7c() {
    let pts = exp::fig_4_7c(&model(), &XeonModel::default(), &[1, 4, 16, 64, 256, 2560]);
    let s1 = pts[0].1;
    for &(d, s) in &pts {
        assert!(close(s, s1 * d as f64, 1e-9), "nonlinear at {d} DPUs");
    }
    // "maximum speedup at the maximum number of DPUs".
    assert_eq!(pts.last().map(|p| p.0), Some(2560));
    assert!(pts.last().expect("a point").1 > s1 * 2000.0);
}

#[test]
fn section_4_3_1_headline_latencies() {
    let l = exp::measured_latencies(&model());
    assert!(close(l.ebnn_per_image, 1.48e-3, EBNN_PER_IMAGE), "eBNN per image {l:?}");
    assert!(l.ebnn_single_image > l.ebnn_per_image, "a 1-image launch wastes tasklets");
    assert!(close(l.yolo_frame, 65.0, YOLO_FRAME), "YOLO frame {l:?}");
    assert!(close(l.yolo_mean_layer, 0.9, YOLO_MEAN_LAYER), "mean layer {l:?}");
    assert!(l.yolo_max_layer > l.yolo_mean_layer * 2.0, "{l:?}");
    // The structural contrast: YOLO per frame is >1000× eBNN per frame.
    assert!(l.yolo_frame / l.ebnn_single_image > 1000.0, "{l:?}");
    // The frame is transfer-dominated (EXPERIMENTS.md "§4.3.1": 66.1 s of
    // host transfers, 11.4 s of DPU compute).
    let report = YoloPipeline::new(darknet53_yolov3()).estimate();
    assert!(report.host_transfer_seconds() > report.dpu_seconds());
}

#[test]
fn table_5_1() {
    let t = ModelReport::table_5_1();
    assert_eq!([t[0].cop, t[1].cop, t[2].cop], [8, 211, 88]); // pPIM, DRISA, UPMEM
    assert!(close(t[0].tcomp_tops, 6.48e-2, MODEL));
    assert!(close(t[1].tcomp_tops, 1.40e-1, MODEL));
    assert!(close(t[2].tcomp_tops, 2.54e-1, MODEL));
}

#[test]
fn table_5_2() {
    let t = ModelReport::table_5_2();
    assert_eq!(t[0].1, [1, 6, 124, 1016]);
    assert_eq!(t[1].1, [110, 200, 380, 740]);
    // UPMEM: the paper stars 370 / 570; these derive from the calibrated
    // subroutines.
    assert_eq!(t[2].1[..2], [44, 44]);
    assert!(close(t[2].1[2] as f64, 370.0, MODEL_2));
    assert!(close(t[2].1[3] as f64, 570.0, MODEL));
}

#[test]
fn table_5_3() {
    let rows = ModelReport::table_5_3();
    let get = |n: &str| rows.iter().find(|r| r.0 == n).expect("a row");
    let p = get("pPIM");
    assert_eq!((p.2, p.3), (16, 4096));
    assert!(close(p.4, 4.24e-3, MODEL));
    let d = get("DRISA-3T1C");
    assert_eq!((d.2, d.3), (65536, 2_147_483_648));
    assert!(close(d.4, 1.8e-7, MODEL));
    let u = get("UPMEM");
    assert_eq!((u.2, u.3), (32000, 81_920_000));
    assert!(close(u.4, 3.07e-3, MODEL));
}

#[test]
fn section_5_3_1_totals() {
    let totals = ModelReport::alexnet_totals();
    let get = |n: &str| totals.iter().find(|r| r.0 == n).expect("a row").1;
    assert!(close(get("pPIM"), 6.90e-2, MODEL));
    assert!(close(get("DRISA-3T1C"), 1.40e-1, MODEL));
    assert!(close(get("UPMEM"), 2.57e-1, MODEL));
}

#[test]
fn table_5_4() {
    let rows = ModelReport::table_5_4(None);
    let get = |n: &str| rows.iter().find(|r| r.name == n).expect("a row");
    assert!(close(get("pPIM").ebnn_latency, 3.80e-7, MODEL));
    assert!(close(get("DRISA-3T1C").yolo_latency, 1.47, MODEL));
    assert!(close(get("SCOPE-H2d").ebnn_latency, 4.64e-8, MODEL));
    assert!(close(get("UPMEM").ebnn_tp_power, 5.63e3, MODEL));
    assert!(close(get("pPIM").ebnn_tp_power, 7.52e5, MODEL_2));
    assert!(close(get("LACC").yolo_tp_power, 4.91e-1, MODEL_2));
    assert!(close(get("UPMEM").ebnn_tp_area, 1.80e2, MODEL));
    assert!(close(get("SCOPE-Vanilla").yolo_tp_area, 1.57e-1, MODEL_2));
    assert!(close(get("UPMEM").yolo_tp_power, 1.25e-4, MODEL_2));
    assert!(close(get("UPMEM").yolo_tp_area, 1.10e-5, MODEL_5));
}

#[test]
fn table_5_4_with_the_measured_upmem_row() {
    // The UPMEM row replaced by this repository's measured latencies: the
    // other rows stay, and Fig. 5.7's conclusions survive (UPMEM is the
    // lowest-power chip, its throughput per power and per area far below
    // the analytic PIMs').
    let rows = exp::table_5_4_with_measured(&model());
    assert_eq!(rows.len(), 7);
    let u = &rows[0];
    assert_eq!(u.name, "UPMEM");
    assert!(u.ebnn_latency > 0.0);
    for r in &rows[1..] {
        assert!(u.power_w < r.power_w, "vs {}", r.name);
        assert!(u.yolo_tp_power < r.yolo_tp_power, "vs {}", r.name);
        assert!(u.yolo_tp_area < r.yolo_tp_area, "vs {}", r.name);
    }
    let ppim = rows.iter().find(|r| r.name == "pPIM").expect("a row");
    assert!(close(ppim.ebnn_latency, 3.8e-7, MODEL));
}

#[test]
fn fig_5_6() {
    // "as input precision increases ... bitwise and pipelined-CPU designs
    // overtake LUT designs" (§6): pPIM best at 8 and 16 bits, UPMEM at 32.
    let rows = ModelReport::fig_5_6();
    let get = |n: &str| rows.iter().find(|r| r.0 == n).expect("a row").1;
    let (p, d, u) = (get("pPIM"), get("DRISA-3T1C"), get("UPMEM"));
    assert!(p[1] < d[1].min(u[1]));
    assert!(p[2] < d[2].min(u[2]));
    assert!(u[3] < p[3].min(d[3]));
}

#[test]
fn ebnn_workload_constant() {
    // The back-solved eBNN op count reproduces the YOLO / eBNN latency
    // ratio of every analytic Table 5.4 row.
    let ratio = Workload::yolov3().ops / Workload::ebnn().ops;
    for a in pim_model::arch::table_5_4_lineup().iter().filter(|a| a.name != "UPMEM") {
        let r = a.latency_nominal(&Workload::yolov3(), OperandBits::B8)
            / a.latency_nominal(&Workload::ebnn(), OperandBits::B8);
        assert!(close(r, ratio, MODEL_2), "{}: ratio {r}", a.name);
    }
}

#[test]
fn ebnn_pipeline_end_to_end() {
    let m = model();
    // 40 digits over 3 DPUs agree with the host model.
    let ds = SynthMnist::generate(4);
    let report = EbnnPipeline::new(m.clone()).infer(&ds.images).expect("inference");
    assert_eq!(report.dpus_used, 3);
    for (img, &pred) in ds.images.iter().zip(&report.predictions) {
        assert_eq!(pred, m.predict(&m.binarize(&img.pixels)), "label {}", img.label);
    }
    // The LUT rewrite and float BN agree bit for bit; float costs more.
    let ds = SynthMnist::generate(2);
    let lut = EbnnPipeline::new(m.clone()).infer(&ds.images).expect("LUT");
    let float = EbnnPipeline::new(m.clone()).with_placement(BnPlacement::DpuFloat);
    let float = float.infer(&ds.images).expect("float");
    assert_eq!(lut.predictions, float.predictions);
    assert!(float.makespan_cycles > lut.makespan_cycles);
    // 16 images per DPU.
    for (n, dpus) in [(1usize, 1usize), (16, 1), (17, 2), (64, 4)] {
        let ds = SynthMnist::generate(n.div_ceil(10));
        let report = EbnnPipeline::new(m.clone()).infer(&ds.images[..n]).expect("inference");
        assert_eq!(report.dpus_used, dpus, "{n} images");
    }
    // §4.3.1's order of magnitude for one image on one DPU.
    let one = [ebnn::mnist::synth_digit(3, 0)];
    let report = EbnnPipeline::new(m).infer(&one).expect("one image");
    assert!((1.0e-4..1.0e-1).contains(&report.dpu_seconds), "{} s", report.dpu_seconds);
}

#[test]
fn ebnn_pipeline_accuracy_above_half() {
    let ds = SynthMnist::generate(10);
    let report = EbnnPipeline::new(model()).infer(&ds.images).expect("inference");
    let correct = ds.images.iter().zip(&report.predictions).filter(|(i, &p)| i.label == p).count();
    assert!(correct * 100 / ds.len() >= 50, "{correct} of {} correct", ds.len());
}

#[test]
fn ebnn_pipeline_determinism() {
    let ds = SynthMnist::generate(2);
    let [a, b] = [(); 2].map(|()| EbnnPipeline::new(model()).infer(&ds.images).expect("run"));
    assert_eq!((a.predictions, a.makespan_cycles), (b.predictions, b.makespan_cycles));
}

#[test]
fn yolo_pipeline_end_to_end() {
    // The tiny network's two heads decode, and the thresholds hold.
    let net = tiny_config();
    let input: Vec<f32> =
        (0..net.input.len()).map(|i| ((i * 97) % 200) as f32 / 100.0 - 1.0).collect();
    let pipe = YoloPipeline::new(net);
    let (heads, report) = pipe.run(&input).expect("the tiny network runs");
    assert_eq!(heads.len(), 2, "two YOLO heads");
    let strict = decode_and_nms(&heads, 32, 0.99, 0.45);
    let loose = decode_and_nms(&heads, 32, 0.01, 0.45);
    assert!(strict.len() <= loose.len());
    assert!(loose.iter().all(|d| d.confidence >= 0.01 && d.w > 0.0 && d.h > 0.0));
    assert_eq!(report.layers.len(), pipe.network.conv_count());
    assert!(report.layers.iter().all(|l| l.memory_bound), "every conv layer is MRAM-bound");
    // The scaled Darknet-53 keeps the topology and runs through MRAM.
    let full = darknet53_yolov3();
    let scaled = darknet53_yolov3_scaled(16, 96);
    assert_eq!(scaled.layers.len(), full.layers.len());
    assert_eq!(scaled.conv_count(), full.conv_count());
    let input = vec![0.5; scaled.input.len()];
    let (heads, _) = YoloPipeline::new(scaled).run(&input).expect("the scaled network runs");
    assert_eq!(heads.len(), 3, "all three detection scales");
    // One DPU per filter, at most 1,024 in a layer.
    let pipe = YoloPipeline::new(full);
    let report = pipe.estimate();
    for ((_, spec, _, _), layer) in pipe.network.conv_layers().iter().zip(&report.layers) {
        assert_eq!(layer.dpus, spec.filters);
    }
    assert_eq!(report.layers.iter().map(|l| l.dpus).max(), Some(1024));
}

#[test]
fn shipped_cfg_files() {
    // `configs/` is generated by `to_cfg`; parsed from disk, each file is
    // its built-in table.
    let cases = [
        ("configs/yolov3-416.cfg", darknet53_yolov3()),
        ("configs/yolov3-tiny-416.cfg", yolo_pim::darknet::yolov3_tiny()),
        ("configs/alexnet-227.cfg", yolo_pim::darknet::alexnet_config()),
        ("configs/yolo-tiny-test.cfg", tiny_config()),
    ];
    for (path, builtin) in cases {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let parsed = yolo_pim::parse_cfg(path, &text).expect("parses");
        assert_eq!(parsed.layers, builtin.layers, "{path}");
        assert_eq!(parsed.input, builtin.input, "{path}");
        assert_eq!(parsed.total_macs(), builtin.total_macs(), "{path}");
    }
}

#[test]
fn transfer_rule_8_bytes() {
    // An unaligned buffer is refused; padded, it arrives with zeroed
    // padding.
    let mut set = DpuSet::allocate(1).expect("alloc");
    set.define_symbol("x", 16).expect("symbol");
    let err = set.copy_to("x", 0, &[0u8; 10]).unwrap_err();
    assert!(matches!(err, HostError::Alignment { .. }), "{err:?}");
    let padded = pim_host::PaddedBuf::new(&[7u8; 10]);
    set.copy_to("x", 0, &padded.data).expect("padded transfer");
    let mut back = [0u8; 16];
    set.copy_from_dpu(DpuId(0), "x", 0, &mut back).expect("read");
    assert_eq!(back, [7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0]);
}

#[test]
fn dma_cap_16_slots() {
    // 16 image slots of 128 bytes fill one 2,048-byte DMA exactly: the
    // constraint the paper derives the batch size from.
    let bytes = ebnn::IMAGES_PER_DPU * ebnn::IMAGE_SLOT_BYTES;
    assert_eq!(bytes, dpu_sim::params::DMA_MAX_TRANSFER_BYTES);
    let packed_image = ebnn::IMAGE_DIM * 4;
    assert!(ebnn::IMAGE_SLOT_BYTES >= packed_image, "a slot holds a packed image");
}
