//! Fault injection: every failure mode the runtime can hit must surface as
//! a typed error — never a panic, never silent corruption.

use dpu_sim::asm::assemble;
use dpu_sim::{DpuId, Error as DpuError, ExecProgram, FaultConfig, FaultPlan, Machine, RunSpec};
use pim_host::{DpuSet, HostError, ResilientLaunchPolicy};
use proptest::prelude::*;

#[test]
fn division_by_zero_on_one_dpu_fails_the_launch() {
    // The same program on every DPU; the divisor comes from MRAM and one
    // DPU is seeded with zero.
    let program = assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         movi r5, 100\n\
         call __divsi3 r6, r5, r4\n\
         halt\n",
    )
    .unwrap();
    let mut set = DpuSet::allocate(3).unwrap();
    set.define_symbol("divisor", 8).unwrap();
    set.copy_scalar_to("divisor", 4).unwrap();
    set.copy_to_dpu(DpuId(1), "divisor", 0, &0u64.to_le_bytes()).unwrap();
    let err = set.launch(&program, 1).unwrap_err();
    assert!(matches!(err, HostError::Dpu(DpuError::DivisionByZero { .. })));
}

#[test]
fn runaway_program_hits_the_cycle_budget() {
    let program = assemble("loop: jmp loop\n").unwrap();
    let mut m = Machine::default();
    let err = m
        .execute(&ExecProgram::decode(&program), RunSpec { budget: 100_000, ..RunSpec::new(4) })
        .unwrap_err();
    assert!(matches!(err, DpuError::CycleBudgetExceeded { budget: 100_000 }));
}

#[test]
fn wild_wram_store_is_caught() {
    let program = assemble(
        "movi r1, 0x7fffff00\n\
         sw r1, 0, r1\n\
         halt\n",
    )
    .unwrap();
    let mut m = Machine::default();
    let err = m.run(&program, 1).unwrap_err();
    assert!(matches!(err, DpuError::OutOfBounds { kind: "WRAM", .. }));
}

#[test]
fn dma_beyond_mram_is_caught() {
    let program = assemble(
        "movi r1, 0\n\
         movi r2, 0x7ffffff8   ; near the 64 MB MRAM end... far beyond it\n\
         movi r3, 64\n\
         mram.read r1, r2, r3\n\
         halt\n",
    )
    .unwrap();
    let mut m = Machine::default();
    let err = m.run(&program, 1).unwrap_err();
    assert!(matches!(err, DpuError::OutOfBounds { kind: "MRAM", .. }));
}

#[test]
fn oversized_dma_is_caught() {
    let program = assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 4096        ; above the 2048-byte transfer cap\n\
         mram.read r1, r2, r3\n\
         halt\n",
    )
    .unwrap();
    let mut m = Machine::default();
    let err = m.run(&program, 1).unwrap_err();
    assert!(matches!(err, DpuError::DmaTooLarge { requested: 4096, limit: 2048 }));
}

#[test]
fn launch_rejects_invalid_control_flow_before_running() {
    let mut set = DpuSet::allocate(2).unwrap();
    let bad = dpu_sim::Program::new(vec![dpu_sim::Instr::Jump { target: 42 }]);
    let err = set.launch(&bad, 1).unwrap_err();
    assert!(matches!(err, HostError::Dpu(DpuError::PcOutOfRange { pc: 42, .. })));
}

#[test]
fn symbol_overflow_reports_the_symbol() {
    let mut set = DpuSet::allocate(1).unwrap();
    set.define_symbol("small", 16).unwrap();
    let err = set.copy_to("small", 8, &[0u8; 16]).unwrap_err();
    match err {
        HostError::SymbolOverflow { name, requested, capacity } => {
            assert_eq!(name, "small");
            assert_eq!((requested, capacity), (24, 16));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn errors_carry_displayable_context_end_to_end() {
    // Every error in the chain renders with enough context to debug.
    let mut set = DpuSet::allocate(1).unwrap();
    set.define_symbol("x", 8).unwrap();
    let e = set.copy_to("x", 0, &[0u8; 3]).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("8-byte"), "{msg}");
    let e2 = set.copy_to("nope", 0, &[0u8; 8]).unwrap_err();
    assert!(e2.to_string().contains("nope"));
}

/// The ISSUE acceptance scenario: a seeded plan knocks a whole DPU offline
/// in a multi-image eBNN run; the launch must complete with correct
/// features for *every* image (the dead DPU's 16-image chunk recomputed on
/// a survivor) and report the quarantined DPU.
#[test]
fn ebnn_batch_survives_a_whole_dpu_fault_via_redispatch() {
    let m =
        ebnn::EbnnModel::generate(ebnn::ModelConfig { filters: 2, ..ebnn::ModelConfig::default() });
    let imgs: Vec<_> = (0..40).map(|i| ebnn::synth_digit(i % 10, (i / 10) as u64)).collect();
    let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..FaultConfig::default() });
    let policy =
        ResilientLaunchPolicy { max_retries: 1, ..ResilientLaunchPolicy::with_faults(plan) };
    let spec = ebnn::BatchSpec { policy: Some(&policy), ..ebnn::BatchSpec::default() };
    let batch = ebnn::run_tier1_batch(&m, &imgs, spec).unwrap();

    assert_eq!(batch.report.quarantined(), vec![DpuId(1)]);
    assert!(batch.report.fully_served());
    assert_eq!(batch.report.degraded().count(), 1);
    assert_eq!(batch.redispatched, (16..32).collect::<Vec<_>>());
    // Every image classifies from the correct features — including the 16
    // that lived on the dead DPU.
    for (i, img) in imgs.iter().enumerate() {
        assert_eq!(batch.features[i], m.features(&m.binarize(&img.pixels)), "image {i}");
    }
    let metrics = batch.report.resilient_metrics();
    assert_eq!(metrics.counter("resilient.quarantined"), 1);
    assert_eq!(metrics.counter("faults.dpu_offline"), 2); // both attempts
}

/// Zero-fault resilient eBNN batch is observationally identical to the
/// plain multi-DPU path.
#[test]
fn ebnn_resilient_batch_with_no_faults_matches_plain_batch() {
    let m =
        ebnn::EbnnModel::generate(ebnn::ModelConfig { filters: 2, ..ebnn::ModelConfig::default() });
    let imgs: Vec<_> = (0..24).map(|i| ebnn::synth_digit(i % 10, (i / 10) as u64)).collect();
    let plain = ebnn::run_tier1_batch(&m, &imgs, ebnn::BatchSpec::default()).unwrap();
    let policy = ResilientLaunchPolicy::default();
    let spec = ebnn::BatchSpec { policy: Some(&policy), ..ebnn::BatchSpec::default() };
    let batch = ebnn::run_tier1_batch(&m, &imgs, spec).unwrap();
    assert_eq!(batch.features, plain.features);
    assert!(batch.redispatched.is_empty());
    assert_eq!(batch.report, plain.report);
}

/// YOLO row-per-DPU GEMM survives multiple simultaneous whole-DPU faults.
#[test]
fn yolo_layer_survives_dpu_faults_with_redispatch() {
    let dims = yolo_pim::GemmDims { m: 6, n: 10, k: 8 };
    let mut seed = 11u64;
    let mut pseudo = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 33) % 401) as i16 - 200
    };
    let a: Vec<i16> = (0..dims.m * dims.k).map(|_| pseudo()).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|_| pseudo()).collect();
    let mut want = vec![0i16; dims.m * dims.n];
    yolo_pim::gemm(dims, 2, &a, &b, &mut want);

    let plan = FaultPlan::new(FaultConfig { forced_offline: vec![0, 3], ..FaultConfig::default() });
    let policy =
        ResilientLaunchPolicy { max_retries: 0, ..ResilientLaunchPolicy::with_faults(plan) };
    let spec = yolo_pim::LayerRunSpec { policy: Some(&policy), ..yolo_pim::LayerRunSpec::new(3) };
    let layer = yolo_pim::run_tier1_layer(dims, 2, &a, &b, spec).unwrap();
    assert_eq!(layer.c, want, "every output row correct despite two dead DPUs");
    assert_eq!(layer.redispatched, vec![0, 3]);
    assert_eq!(layer.report.quarantined(), vec![DpuId(0), DpuId(3)], "{:?}", layer.report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary garbage read back from MRAM never panics the eBNN feature
    /// decode + classifier path (robust gather).
    #[test]
    fn garbage_feature_wire_never_panics(bytes in proptest::collection::vec(any::<u8>(), 200)) {
        let features = 8 * 14 * 14;
        let wire_len = ebnn::KernelOutput::wire_bytes(features);
        let mut wire = bytes;
        wire.resize(wire_len, 0);
        let out = ebnn::KernelOutput::from_wire(&wire, features);
        let model = ebnn::EbnnModel::generate(ebnn::ModelConfig::default());
        let pred = model.classifier.predict(&out.features);
        prop_assert!(pred < ebnn::CLASSES);
    }

    /// Random (valid-register) branchless instruction sequences never panic
    /// the interpreter — they either halt or exhaust the budget with a
    /// typed error.
    #[test]
    fn random_straightline_programs_never_panic(
        ops in proptest::collection::vec((0u8..8, 0u8..16, 0u8..16, 0u8..16), 1..64),
    ) {
        use dpu_sim::{Instr, Reg};
        let mut instrs: Vec<Instr> = ops
            .into_iter()
            .map(|(op, a, b, c)| {
                let (rd, ra, rb) = (Reg(a), Reg(b), Reg(c));
                match op {
                    0 => Instr::Add { rd, ra, rb },
                    1 => Instr::Sub { rd, ra, rb },
                    2 => Instr::Xor { rd, ra, rb },
                    3 => Instr::Mul8 { rd, ra, rb },
                    4 => Instr::Popcount { rd, ra },
                    5 => Instr::Movi { rd, imm: i32::from(b) * 7 - 50 },
                    6 => Instr::Lsl { rd, ra, rb },
                    _ => Instr::Mov { rd, ra },
                }
            })
            .collect();
        instrs.push(Instr::Halt);
        let program = dpu_sim::Program::new(instrs);
        let mut m = Machine::default();
        let res = m.execute(&ExecProgram::decode(&program), RunSpec { budget: 1_000_000, ..RunSpec::new(3) });
        prop_assert!(res.is_ok());
    }
}
