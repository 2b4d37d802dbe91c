//! Identity tests dedicated to the compiled threaded-code tier: compiled
//! execution interleaved with forced deoptimization at arbitrary block
//! boundaries (`ExecProgram::recompile_filtered`) must stay bit-identical
//! to the per-instruction reference loop — same `RunResult` (instructions,
//! cycles, perf counter reads, DPU trace log, histograms), same WRAM/MRAM
//! image, same error at the same point — on random programs, on the bench
//! kernels the tier is meant to accelerate, across budget cutoffs that
//! exhaust mid-chain, under armed fault injection (where the tier
//! deoptimizes wholesale to the superblock engine), and on loops of 2 to 24
//! tasklets that race on WRAM, where compiled chains run inside
//! tasklet-major chunks — of saturated and under-saturated rotations —
//! that commit or roll back. Short runs are additionally recorded and
//! replayed under the same compile masks.

mod common;

use common::{assert_replay_invisible, racy_op_strategy, racy_program, Event};
use dpu_sim::exec::ExecProgram;
use dpu_sim::isa::{Cond, Instr, Program, Reg, Width};
use dpu_sim::{Engine, FaultConfig, FaultPlan, Machine, Observe, RunResult, RunSpec};
use proptest::prelude::*;

const TEST_BUDGET: u64 = 300_000;

fn r(i: u8) -> Reg {
    Reg(i)
}

/// A fresh machine with deterministic non-zero MRAM so loads observe real
/// data.
fn seeded_machine() -> Machine {
    let mut m = Machine::default();
    for (i, b) in (0..4096u32).enumerate() {
        m.mram.write_u8(i, b.wrapping_mul(53) & 0xff).unwrap();
    }
    m
}

/// Run `exec` on the compiled tier and assert complete observable equality
/// with the reference loop on the same program.
fn assert_compiled_matches_reference(
    exec: &ExecProgram,
    tasklets: usize,
    budget: u64,
    label: &str,
) -> Result<RunResult, dpu_sim::Error> {
    let mut ref_machine = seeded_machine();
    let reference = ref_machine.execute(
        exec,
        RunSpec { budget, engine: Some(Engine::Reference), ..RunSpec::new(tasklets) },
    );
    let mut machine = seeded_machine();
    let outcome = machine.execute(
        exec,
        RunSpec { budget, engine: Some(Engine::Compiled), ..RunSpec::new(tasklets) },
    );
    assert_eq!(outcome, reference, "{label}: compiled tier diverged");
    let wram_len = machine.params.wram_bytes;
    assert_eq!(
        machine.wram.slice(0, wram_len).unwrap(),
        ref_machine.wram.slice(0, wram_len).unwrap(),
        "{label}: WRAM images diverged"
    );
    assert_eq!(machine.mram, ref_machine.mram, "{label}: MRAM images diverged");
    reference
}

/// [`assert_compiled_matches_reference`] on `program` compiled under the
/// block mask `mask` and in full, each to completion (or `TEST_BUDGET`) and
/// again under `permille` thousandths of that run's cycles.
fn assert_masked_matches_reference_whole_and_cut(
    program: &Program,
    tasklets: usize,
    mask: u64,
    permille: u64,
) {
    let mut exec = ExecProgram::decode(program);
    for keep in [mask, u64::MAX] {
        exec.recompile_filtered(|start| (keep >> (start % 64)) & 1 == 1);
        let label = format!("racy, mask {keep:#x}");
        let full = assert_compiled_matches_reference(&exec, tasklets, TEST_BUDGET, &label);
        let cycles = full.map_or(TEST_BUDGET, |r| r.cycles);
        let _cut =
            assert_compiled_matches_reference(&exec, tasklets, cycles * permille / 1000, &label);
    }
}

/// Instruction mix biased toward compilable ALU runs with register-visible
/// effects (`trace` emits register values into the RunResult, stores pin
/// them into WRAM) plus the control flow, sync and DMA that force deopts.
fn instr_strategy(len: u32) -> impl Strategy<Value = Instr> {
    let reg = || (0u8..8).prop_map(Reg);
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        (0u8..8, -100i32..100).prop_map(|(rd, imm)| Instr::Movi { rd: Reg(rd), imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
        (reg(), reg(), -50i32..50).prop_map(|(rd, ra, imm)| Instr::Addi { rd, ra, imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Sub { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Xor { rd, ra, rb }),
        (reg(), reg(), 0u8..31).prop_map(|(rd, ra, sh)| Instr::Lsli { rd, ra, sh }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Mul8 { rd, ra, rb }),
        reg().prop_map(|rd| Instr::TaskletId { rd }),
        (reg(), reg(), 0i32..128).prop_map(|(rd, ra, off)| Instr::Load {
            width: Width::W,
            rd,
            ra,
            off: off * 4,
        }),
        (reg(), 0i32..128, reg()).prop_map(|(ra, off, rs)| Instr::Store {
            width: Width::W,
            ra,
            off: off * 4,
            rs,
        }),
        (reg(), reg(), 0u32..len).prop_map(|(ra, rb, target)| Instr::Branch {
            cond: Cond::Ne,
            ra,
            rb,
            target,
        }),
        (0u32..len).prop_map(|target| Instr::Jump { target }),
        (reg(), 0u32..len).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        reg().prop_map(|ra| Instr::Trace { ra }),
        Just(Instr::Barrier),
        (0u8..2).prop_map(|id| Instr::MutexLock { id }),
        (0u8..2).prop_map(|id| Instr::MutexUnlock { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole identity with deopt interleaving: a random subset of
    /// blocks stays compiled while the rest force a deopt onto the
    /// superblock engine at the block boundary — every mask (including
    /// keep-none = full deopt and keep-all = full compilation) must be
    /// bit-identical to the reference loop.
    #[test]
    fn forced_deopt_interleavings_match_reference(
        instrs in prop::collection::vec(instr_strategy(32), 1..32),
        tasklets in 1usize..17,
        mask in any::<u64>(),
    ) {
        let program = Program::new(instrs);
        for keep in [0u64, mask, u64::MAX] {
            let mut exec = ExecProgram::decode(&program);
            exec.recompile_filtered(|start| (keep >> (start % 64)) & 1 == 1);
            let label = format!("mask {keep:#x}");
            let _outcome =
                assert_compiled_matches_reference(&exec, tasklets, TEST_BUDGET, &label);
        }
    }

    /// Fault-armed compiled runs deoptimize wholesale; the injected faults
    /// and everything downstream of them must match a reference run armed
    /// with the identical per-attempt plan.
    #[test]
    fn fault_armed_compiled_runs_match_fault_armed_reference(
        instrs in prop::collection::vec(instr_strategy(24), 1..24),
        tasklets in 1usize..9,
        seed in 0u64..64,
    ) {
        let program = Program::new(instrs);
        let exec = ExecProgram::decode(&program);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            dma_fail_prob: 0.3,
            bit_flip_prob: 0.3,
            hang_prob: 0.2,
            ..FaultConfig::default()
        });
        let run = |engine: Engine| {
            let mut m = seeded_machine();
            m.arm_faults(plan.attempt(0, 0));
            let outcome = m.execute(&exec, RunSpec { budget: TEST_BUDGET, engine: Some(engine), ..RunSpec::new(tasklets) });
            let log = m.disarm_faults().expect("armed");
            let wram = m.params.wram_bytes;
            let image = m.wram.slice(0, wram).unwrap().to_vec();
            (outcome, log.injected().to_vec(), image)
        };
        let reference = run(Engine::Reference);
        let compiled = run(Engine::Compiled);
        prop_assert_eq!(compiled, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compiled chains inside tasklet-major chunks: racy multi-tasklet
    /// loops (see `common`) under a random compile mask, so chunks mix
    /// threaded-code chains, memoized blocks and single ops, and roll
    /// back from inside any of them — to completion and under a budget
    /// that cuts the run mid-way.
    #[test]
    fn racy_wram_programs_match_reference_under_deopt_masks(
        body in prop::collection::vec(racy_op_strategy(), 3..14),
        tasklets in 2usize..=24,
        iters in 24i32..96,
        event in (0i32..96, 0i32..24, 1i32..24),
        mask in any::<u64>(),
        budget_permille in 0u64..1100,
    ) {
        let event = Event::from_draws(event, tasklets, iters);
        let program = racy_program(&body, iters, event);
        assert_masked_matches_reference_whole_and_cut(&program, tasklets, mask, budget_permille);
    }

    /// The same under a DMA skew at 12 to 14 working tasklets (launched
    /// alone or as part of a full DPU's 16): chains and chunks on the
    /// permuted rotations a verified orbit schedules.
    #[test]
    fn dma_skewed_racy_programs_match_reference_under_deopt_masks(
        body in prop::collection::vec(racy_op_strategy(), 3..14),
        working in 12usize..=14,
        full_dpu in any::<bool>(),
        iters in 24i32..96,
        event in (0i32..96, 0i32..24, 1i32..24),
        mask in any::<u64>(),
        budget_permille in 0u64..1100,
    ) {
        let event = Event::from_draws(event, working, iters).skewed();
        let program = racy_program(&body, iters, event);
        let tasklets = if full_dpu { 16 } else { working };
        assert_masked_matches_reference_whole_and_cut(&program, tasklets, mask, budget_permille);
    }

    /// Recorded launches under compile masks: short racy programs run
    /// plain, recorded and replayed on both fast tiers (an empty
    /// compilation resolves to the superblock tier and shares its
    /// recordings) and match the reference every time — whole, and under
    /// a budget that may cut the run, with the table as the whole runs
    /// left it.
    #[test]
    fn short_racy_programs_replay_identically_under_deopt_masks(
        body in prop::collection::vec(racy_op_strategy(), 2..9),
        tasklets in 1usize..=6,
        iters in 1i32..4,
        event in (0i32..96, 0i32..24, 1i32..24),
        mask in any::<u64>(),
        budget_permille in 0u64..1100,
    ) {
        let event = Event::from_draws(event, tasklets, iters);
        let program = racy_program(&body, iters, event);
        for keep in [0, mask, u64::MAX] {
            let mut exec = ExecProgram::decode(&program);
            exec.recompile_filtered(|start| (keep >> (start % 64)) & 1 == 1);
            let (whole, _) =
                assert_replay_invisible(&exec, tasklets, TEST_BUDGET, &seeded_machine);
            let cycles = whole.outcome.map_or(TEST_BUDGET, |r| r.cycles);
            let budget = cycles * budget_permille / 1000;
            assert_replay_invisible(&exec, tasklets, budget, &seeded_machine);
        }
    }

    /// Fault-armed runs take the same chunked `run_fast` (downgraded to
    /// the superblock engine); every injection site is a boundary op, so
    /// a chunk can never swallow one. Fault log, outcome and WRAM must
    /// match a reference run armed with the identical plan.
    #[test]
    fn fault_armed_racy_programs_match_fault_armed_reference(
        body in prop::collection::vec(racy_op_strategy(), 3..14),
        tasklets in 2usize..=24,
        iters in 24i32..64,
        event in (0i32..64, 0i32..24, 1i32..24),
        seed in 0u64..64,
    ) {
        let event = Event::from_draws(event, tasklets, iters);
        let exec = ExecProgram::decode(&racy_program(&body, iters, event));
        let plan = FaultPlan::new(FaultConfig {
            seed,
            dma_fail_prob: 0.05,
            bit_flip_prob: 0.3,
            hang_prob: 0.1,
            ..FaultConfig::default()
        });
        let run = |engine: Engine| {
            let mut m = seeded_machine();
            m.arm_faults(plan.attempt(0, 0));
            let outcome = m.execute(&exec, RunSpec { budget: TEST_BUDGET, engine: Some(engine), ..RunSpec::new(tasklets) });
            let log = m.disarm_faults().expect("armed");
            let wram = m.params.wram_bytes;
            let image = m.wram.slice(0, wram).unwrap().to_vec();
            (outcome, log.injected().to_vec(), image)
        };
        let reference = run(Engine::Reference);
        prop_assert_eq!(run(Engine::Superblock), reference.clone());
        prop_assert_eq!(run(Engine::Compiled), reference);
    }
}

/// The `alu_loop` bench kernel — the shape the compiled tier exists to
/// accelerate (one self-chaining branch block covering the whole run) —
/// at the bench tasklet counts plus the divergence-prone 16.
#[test]
fn alu_loop_matches_reference_at_bench_shapes() {
    let program = Program::new(vec![
        Instr::Movi { rd: r(1), imm: 30_000 },
        Instr::Movi { rd: r(2), imm: 0 },
        Instr::Addi { rd: r(2), ra: r(2), imm: 3 },
        Instr::Addi { rd: r(1), ra: r(1), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 2 },
        Instr::Trace { ra: r(2) },
        Instr::Halt,
    ]);
    let exec = ExecProgram::decode(&program);
    for tasklets in [1usize, 11, 16] {
        let result =
            assert_compiled_matches_reference(&exec, tasklets, u64::MAX, "alu_loop").unwrap();
        assert_eq!(result.trace.len(), tasklets);
        assert!(result.trace.iter().all(|&(_, v)| v == 90_000));
    }
}

/// TaskletId inside the hot loop: lockstep replication must stop at the
/// tasklet-sensitive block and still agree with the reference, with each
/// tasklet retiring its own divergent value.
#[test]
fn tasklet_divergent_loops_match_reference() {
    let program = Program::new(vec![
        Instr::Movi { rd: r(1), imm: 500 },
        Instr::Movi { rd: r(2), imm: 0 },
        Instr::TaskletId { rd: r(3) },
        Instr::Add { rd: r(2), ra: r(2), rb: r(3) },
        Instr::Addi { rd: r(2), ra: r(2), imm: 1 },
        Instr::Addi { rd: r(1), ra: r(1), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 2 },
        Instr::Trace { ra: r(2) },
        Instr::Halt,
    ]);
    let exec = ExecProgram::decode(&program);
    for tasklets in [2usize, 11] {
        let result =
            assert_compiled_matches_reference(&exec, tasklets, u64::MAX, "divergent").unwrap();
        for &(t, v) in &result.trace {
            assert_eq!(v, 500 * (t as u32) + 500, "tasklet {t} retired the wrong sum");
        }
    }
}

/// Computed control flow: `jal` records the return pc and `jr` re-enters
/// compiled chains at a register-carried target, which the compiled tier
/// resolves through `link_of` at run time.
#[test]
fn jal_jr_computed_jumps_match_reference() {
    let program = Program::new(vec![
        Instr::Movi { rd: r(5), imm: 10 },
        // call the "subroutine" at 6; it returns via jr r7.
        Instr::Jal { rd: r(7), target: 6 },
        Instr::Addi { rd: r(5), ra: r(5), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(5), rb: r(0), target: 1 },
        Instr::Trace { ra: r(6) },
        Instr::Halt,
        // subroutine body: a compilable block ending in a computed return.
        Instr::Addi { rd: r(6), ra: r(6), imm: 7 },
        Instr::Xor { rd: r(6), ra: r(6), rb: r(5) },
        Instr::Jr { ra: r(7) },
    ]);
    let exec = ExecProgram::decode(&program);
    for tasklets in [1usize, 3, 11] {
        let _ = assert_compiled_matches_reference(&exec, tasklets, u64::MAX, "jal/jr").unwrap();
    }
}

/// Budget sweeps crossing mid-chain exhaustion: every cutoff from "fails
/// at the first pick" to "completes" must surface at the identical pick,
/// including cutoffs landing inside a compiled chain (the chain caps its
/// slot count before running, so exhaustion happens at block granularity
/// exactly where the reference loop stops).
#[test]
fn budget_exhaustion_inside_chains_matches_reference() {
    let program = Program::new(vec![
        Instr::Movi { rd: r(1), imm: 40 },
        Instr::Addi { rd: r(2), ra: r(2), imm: 3 },
        Instr::Xor { rd: r(3), ra: r(3), rb: r(2) },
        Instr::Addi { rd: r(1), ra: r(1), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 1 },
        Instr::Store { width: Width::W, ra: r(0), off: 64, rs: r(3) },
        Instr::Halt,
    ]);
    let exec = ExecProgram::decode(&program);
    for tasklets in [1usize, 11] {
        let full = assert_compiled_matches_reference(&exec, tasklets, u64::MAX, "full")
            .expect("completes");
        for budget in (0..full.cycles + 12).step_by(11) {
            let label = format!("budget {budget}");
            let _outcome = assert_compiled_matches_reference(&exec, tasklets, budget, &label);
        }
    }
}

/// Profile-guided recompilation: `recompile_hot` keeps only blocks whose
/// profiled entry count meets the threshold, and the resulting partial
/// compilation stays bit-identical to the reference.
#[test]
fn hot_recompilation_from_attribution_matches_reference() {
    let program = Program::new(vec![
        Instr::Movi { rd: r(1), imm: 100 },
        Instr::Addi { rd: r(2), ra: r(2), imm: 1 },
        Instr::Addi { rd: r(1), ra: r(1), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 1 },
        Instr::Trace { ra: r(2) },
        Instr::Halt,
    ]);
    let mut exec = ExecProgram::decode(&program);
    let mut attr = dpu_sim::CycleAttribution::new();
    let mut profiling = seeded_machine();
    profiling
        .execute(&exec, RunSpec { observe: Observe::Profile(&mut attr), ..RunSpec::new(2) })
        .expect("profiled run completes");
    for threshold in [1u64, 50, 1_000_000] {
        exec.recompile_hot(&attr, threshold);
        let label = format!("hot threshold {threshold}");
        let result =
            assert_compiled_matches_reference(&exec, 2, u64::MAX, &label).expect("completes");
        assert_eq!(result.trace, vec![(0, 100), (1, 100)]);
    }
    // An over-threshold recompile keeps nothing compiled.
    assert!(exec.compiled().is_empty(), "1M entries should exceed every counter");
}
