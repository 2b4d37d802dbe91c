//! Identity tests for the fast engine: the superblock engine (and
//! whatever the ambient `Machine::run_exec` selection resolves to,
//! including a `PIM_SIM_ENGINE` override) must match the per-instruction
//! reference loop (`Machine::execute` pinned to `Engine::Reference`)
//! bit-for-bit — same `RunResult`, same error at the same point, same
//! final memory image — on random programs (fault-armed too), on
//! DMA-stall-heavy kernels, on lockstep ALU loops and computed jumps, on
//! the mutex/barrier-heavy shape the `sync_heavy_16t` bench measures, and
//! on multi-tasklet loops that race on WRAM (the tasklet-major chunks'
//! commit and rollback paths) at every tasklet count from 2 up: saturated
//! rotations, under-saturated ones, and the serving shape where most of
//! the launched tasklets halt at once. Runs short enough to be recorded
//! for replay must also match it on their second (recorded) and third
//! (replayed) sighting, and a replay must fire exactly when every byte
//! the recorded run read first is still there.

mod common;

use common::{
    aftermath, assert_replay_invisible, racy_op_strategy, racy_program, Aftermath, Disruption,
    Event, Gate, RacyOp,
};
use dpu_sim::exec::{is_superblock_op, ExecProgram};
use dpu_sim::isa::{Cond, Instr, Program, Reg, Width};
use dpu_sim::subroutines::Subroutine;
use dpu_sim::{
    Engine, FaultConfig, FaultPlan, InjectedFault, Machine, Observe, RunResult, RunSpec,
};
use proptest::prelude::*;

/// Budget small enough to terminate the infinite loops random control flow
/// produces, large enough that most random programs complete.
const TEST_BUDGET: u64 = 300_000;

/// A fresh machine with deterministic non-zero MRAM so loads observe real
/// data.
fn seeded_machine() -> Machine {
    let mut m = Machine::default();
    for (i, b) in (0..4096u32).enumerate() {
        m.mram.write_u8(i, b.wrapping_mul(37) & 0xff).unwrap();
    }
    m
}

/// [`seeded_machine`] with WRAM a previous launch has left non-zero, so
/// loads of never-written WRAM observe real data too.
fn lived_in_machine() -> Machine {
    let mut m = seeded_machine();
    for i in 0..0x1000u32 {
        m.wram.write_u8(i as usize, (i.wrapping_mul(29) >> 2) & 0xff).unwrap();
    }
    m
}

/// Run `program` on the fast engine, pinned and ambient, from identical
/// fresh machines and assert complete observable equality with the
/// reference loop.
fn assert_engines_agree(
    program: &Program,
    tasklets: usize,
    budget: u64,
) -> Result<RunResult, dpu_sim::Error> {
    let exec = ExecProgram::decode(program);
    let mut ref_machine = seeded_machine();
    let reference = ref_machine.execute(
        &exec,
        RunSpec { budget, engine: Some(Engine::Reference), ..RunSpec::new(tasklets) },
    );
    let check =
        |label: &str, f: &mut dyn FnMut(&mut Machine) -> Result<RunResult, dpu_sim::Error>| {
            let mut machine = seeded_machine();
            let outcome = f(&mut machine);
            assert_eq!(outcome, reference, "{label} diverged on {program:?}");
            let wram_len = machine.params.wram_bytes;
            assert_eq!(
                machine.wram.slice(0, wram_len).unwrap(),
                ref_machine.wram.slice(0, wram_len).unwrap(),
                "{label}: WRAM images diverged"
            );
            assert_eq!(machine.mram, ref_machine.mram, "{label}: MRAM images diverged");
        };
    check("superblock engine", &mut |m| {
        m.execute(
            &exec,
            RunSpec { budget, engine: Some(Engine::Superblock), ..RunSpec::new(tasklets) },
        )
    });
    // The ambient selection (`PIM_SIM_ENGINE` or the default): what every
    // normal launch runs, and what the CI engine matrix forces per tier.
    check("ambient engine", &mut |m| {
        m.execute(&exec, RunSpec { budget, ..RunSpec::new(tasklets) })
    });
    reference
}

/// [`assert_engines_agree`] to completion (or `TEST_BUDGET`), then again
/// under a budget of `permille` thousandths of that run's cycles. Both
/// budgets are traced too: the superblock engine must record the reference
/// loop's event list, and tracing must not change the outcome.
fn assert_engines_agree_whole_and_cut(program: &Program, tasklets: usize, permille: u64) {
    let full = assert_engines_agree(program, tasklets, TEST_BUDGET);
    let cut_budget = full.as_ref().map_or(TEST_BUDGET, |r| r.cycles) * permille / 1000;
    let cut = assert_engines_agree(program, tasklets, cut_budget);
    let exec = ExecProgram::decode(program);
    for (budget, untraced) in [(TEST_BUDGET, full), (cut_budget, cut)] {
        let reference = traced_run(&exec, tasklets, budget, Engine::Reference);
        assert_eq!(reference.0, untraced, "tracing changed the outcome of {program:?}");
        let fast = traced_run(&exec, tasklets, budget, Engine::Superblock);
        assert_eq!(fast, reference, "traced superblock run diverged on {program:?}");
    }
}

/// A traced run of `exec` on a fresh [`seeded_machine`]: the outcome and
/// the recorded events.
fn traced_run(
    exec: &ExecProgram,
    tasklets: usize,
    budget: u64,
    engine: Engine,
) -> (Result<RunResult, dpu_sim::Error>, pim_trace::TraceBuffer) {
    let mut events = pim_trace::TraceBuffer::new();
    let outcome = seeded_machine().execute(
        exec,
        RunSpec {
            budget,
            engine: Some(engine),
            observe: Observe::Trace(&mut events),
            ..RunSpec::new(tasklets)
        },
    );
    (outcome, events)
}

/// A strategy over instructions, weighted toward superblock ALU runs with
/// enough control flow, memory traffic, sync and DMA mixed in to exercise
/// every fast-path bailout. Branch targets land in `0..len` (valid) so
/// random programs loop and re-enter blocks mid-way.
fn instr_strategy(len: u32) -> impl Strategy<Value = Instr> {
    let reg = || (0u8..8).prop_map(Reg);
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        (0u8..8, -100i32..100).prop_map(|(r, imm)| Instr::Movi { rd: Reg(r), imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
        (reg(), reg(), -50i32..50).prop_map(|(rd, ra, imm)| Instr::Addi { rd, ra, imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Sub { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Xor { rd, ra, rb }),
        (reg(), reg(), 0u8..31).prop_map(|(rd, ra, sh)| Instr::Lsri { rd, ra, sh }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Mul8 { rd, ra, rb }),
        (reg(), reg()).prop_map(|(rd, ra)| Instr::Popcount { rd, ra }),
        reg().prop_map(|rd| Instr::TaskletId { rd }),
        (reg(), reg(), 0i32..256).prop_map(|(rd, ra, off)| Instr::Load {
            width: Width::W,
            rd,
            ra,
            off: off * 4,
        }),
        (reg(), 0i32..256, reg()).prop_map(|(ra, off, rs)| Instr::Store {
            width: Width::W,
            ra,
            off: off * 4,
            rs,
        }),
        (reg(), reg(), reg(), 0u32..len).prop_map(|(ra, rb, _rd, target)| Instr::Branch {
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

    /// The tentpole identity: superblock execution matches per-instruction
    /// `run_exec` bit-for-bit on random programs — results, errors,
    /// partial memory state at an error, everything.
    #[test]
    fn fast_engine_matches_reference_on_random_programs(
        instrs in prop::collection::vec(instr_strategy(40), 1..40),
        tasklets in 1usize..17,
    ) {
        let program = Program::new(instrs);
        let _outcome = assert_engines_agree(&program, tasklets, TEST_BUDGET);
    }

    /// Superblock partitioning round-trips: the partition pieces are
    /// contiguous, cover the instruction stream exactly, pure pieces
    /// contain only superblock ops, and every memoized head matches its
    /// piece.
    #[test]
    fn superblock_partition_round_trips(
        instrs in prop::collection::vec(instr_strategy(40), 1..60),
    ) {
        let program = Program::new(instrs.clone());
        let exec = ExecProgram::decode(&program);
        let sb = exec.superblocks();
        let parts = sb.partition();
        let mut next = 0u32;
        for &(start, len) in &parts {
            prop_assert_eq!(start, next, "pieces must be contiguous");
            prop_assert!(len >= 1);
            let all_pure =
                instrs[start as usize..(start + len) as usize].iter().all(is_superblock_op);
            if len > 1 {
                prop_assert!(all_pure, "multi-instruction pieces are superblocks");
            }
            prop_assert_eq!(all_pure, sb.len_at(start as usize) > 0);
            next = start + len;
        }
        prop_assert_eq!(next as usize, instrs.len(), "pieces must cover the stream");
        for meta in sb.blocks() {
            let total: u32 = meta.op_counts.iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(total, meta.len, "memoized histogram covers the block");
        }
    }

    /// Fault-armed random programs: the injected faults and everything
    /// downstream of them match a reference run armed with the identical
    /// per-attempt plan.
    #[test]
    fn fault_armed_random_programs_match_fault_armed_reference(
        instrs in prop::collection::vec(instr_strategy(24), 1..24),
        tasklets in 1usize..9,
        seed in 0u64..64,
    ) {
        let exec = ExecProgram::decode(&Program::new(instrs));
        let plan = FaultPlan::new(FaultConfig {
            seed,
            dma_fail_prob: 0.3,
            bit_flip_prob: 0.3,
            hang_prob: 0.2,
            ..FaultConfig::default()
        });
        prop_assert_eq!(
            armed_run(&exec, tasklets, &plan, Engine::Superblock),
            armed_run(&exec, tasklets, &plan, Engine::Reference)
        );
    }
}

/// A run of `exec` armed with `plan`'s first attempt: the outcome, the
/// faults injected and the WRAM image left behind.
fn armed_run(
    exec: &ExecProgram,
    tasklets: usize,
    plan: &FaultPlan,
    engine: Engine,
) -> (Result<RunResult, dpu_sim::Error>, Vec<InjectedFault>, Vec<u8>) {
    let mut m = seeded_machine();
    m.arm_faults(plan.attempt(0, 0));
    let outcome = m.execute(
        exec,
        RunSpec { budget: TEST_BUDGET, engine: Some(engine), ..RunSpec::new(tasklets) },
    );
    let log = m.disarm_faults().expect("armed");
    let wram = m.params.wram_bytes;
    (outcome, log.injected().to_vec(), m.wram.slice(0, wram).unwrap().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Rotation batches and tasklet-major chunks are invisible: loops on
    /// 2 to 24 tasklets — under-saturated below the pipeline depth,
    /// saturated above — with every flavour of cross-tasklet WRAM overlap,
    /// `trace` ops, and boundary ops / faults / halts gated onto one
    /// iteration (so they land mid-chunk after conflict-free stretches
    /// have committed; a DMA gated onto one tasklet leaves it stalled
    /// outside the others' rotation) match the reference — to completion
    /// and under a budget that cuts the run somewhere in the middle,
    /// traced and untraced.
    #[test]
    fn racy_wram_programs_match_reference(
        body in prop::collection::vec(racy_op_strategy(), 3..14),
        tasklets in 2usize..=24,
        iters in 24i32..96,
        event in (0i32..96, 0i32..24, 1i32..24),
        budget_permille in 0u64..1100,
    ) {
        let program = racy_program(&body, iters, Event::from_draws(event, tasklets, iters));
        assert_engines_agree_whole_and_cut(&program, tasklets, budget_permille);
    }

    /// The serving shape: a full DPU's 16 tasklets launched, 1 to 15 of
    /// them with work, the rest halting on their second instruction.
    #[test]
    fn racy_wram_programs_match_reference_when_most_tasklets_halt_at_once(
        body in prop::collection::vec(racy_op_strategy(), 3..14),
        working in 1usize..=15,
        iters in 24i32..96,
        event in (0i32..96, 0i32..24, 1i32..24),
        budget_permille in 0u64..1100,
    ) {
        let program = racy_program(&body, iters, Event::from_draws(event, working, iters));
        assert_engines_agree_whole_and_cut(&program, 16, budget_permille);
    }

    /// Twelve to fourteen working tasklets entering the loop a DMA apart:
    /// more than the pipeline has stages, in the permuted rotation only a
    /// verified orbit batches — racing, diverging, cut short and traced
    /// like the rest.
    #[test]
    fn racy_wram_programs_match_reference_on_dma_skewed_rotations(
        body in prop::collection::vec(racy_op_strategy(), 3..14),
        working in 12usize..=14,
        full_dpu in any::<bool>(),
        iters in 24i32..96,
        event in (0i32..96, 0i32..24, 1i32..24),
        budget_permille in 0u64..1100,
    ) {
        let event = Event::from_draws(event, working, iters).skewed();
        let program = racy_program(&body, iters, event);
        let launched = if full_dpu { 16 } else { working };
        assert_engines_agree_whole_and_cut(&program, launched, budget_permille);
    }

    /// Fault-armed racy programs take the same chunked `run_fast`; every
    /// injection site is a boundary op, so a chunk can never swallow one.
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
        prop_assert_eq!(
            armed_run(&exec, tasklets, &plan, Engine::Superblock),
            armed_run(&exec, tasklets, &plan, Engine::Reference)
        );
    }
}

/// Lockstep ALU loops — uniform, and diverging through `TaskletId` — and
/// `jal`/`jr` computed jumps at the bench tasklet counts.
#[test]
fn lockstep_loops_and_computed_jumps_match_reference() {
    let r = Reg;
    let alu_loop = Program::new(vec![
        Instr::Movi { rd: r(1), imm: 30_000 },
        Instr::Movi { rd: r(2), imm: 0 },
        Instr::Addi { rd: r(2), ra: r(2), imm: 3 },
        Instr::Addi { rd: r(1), ra: r(1), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 2 },
        Instr::Trace { ra: r(2) },
        Instr::Halt,
    ]);
    for tasklets in [1usize, 11, 16] {
        let result = assert_engines_agree(&alu_loop, tasklets, u64::MAX).expect("completes");
        assert_eq!(result.trace.len(), tasklets);
        assert!(result.trace.iter().all(|&(_, v)| v == 90_000));
    }
    let divergent = Program::new(vec![
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
    for tasklets in [2usize, 11] {
        let result = assert_engines_agree(&divergent, tasklets, u64::MAX).expect("completes");
        for &(t, v) in &result.trace {
            assert_eq!(v, 500 * (t as u32) + 500, "tasklet {t} retired the wrong sum");
        }
    }
    // Ten calls of the "subroutine" at 6, which returns through `jr r7`.
    let jal_jr = Program::new(vec![
        Instr::Movi { rd: r(5), imm: 10 },
        Instr::Jal { rd: r(7), target: 6 },
        Instr::Addi { rd: r(5), ra: r(5), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(5), rb: r(0), target: 1 },
        Instr::Trace { ra: r(6) },
        Instr::Halt,
        Instr::Addi { rd: r(6), ra: r(6), imm: 7 },
        Instr::Xor { rd: r(6), ra: r(6), rb: r(5) },
        Instr::Jr { ra: r(7) },
    ]);
    for tasklets in [1usize, 3, 11] {
        let result = assert_engines_agree(&jal_jr, tasklets, u64::MAX).expect("completes");
        assert_eq!(result.trace.len(), tasklets);
    }
}

/// DMA-stall-heavy kernel: every tasklet streams 1 KiB MRAM chunks
/// back-to-back, serializing on the shared streaming port, with an ALU
/// block between transfers. Cycle skipping must preserve exact
/// `idle_cycles` and DMA statistics.
#[test]
fn cycle_skipping_preserves_idle_cycles_and_dma_stats() {
    let chunk: i32 = 1024;
    let iters: i32 = 20;
    let mut instrs = vec![
        // r1 = wram base (tasklet id * chunk), r2 = mram addr, r3 = len.
        Instr::TaskletId { rd: Reg(1) },
        Instr::Lsli { rd: Reg(1), ra: Reg(1), sh: 10 },
        Instr::Movi { rd: Reg(2), imm: 0 },
        Instr::Movi { rd: Reg(3), imm: chunk },
        Instr::Movi { rd: Reg(5), imm: iters },
    ];
    let loop_head = instrs.len() as u32;
    instrs.extend([
        Instr::MramRead { wram: Reg(1), mram: Reg(2), len: Reg(3) },
        // A small superblock between transfers.
        Instr::Addi { rd: Reg(2), ra: Reg(2), imm: chunk },
        Instr::Addi { rd: Reg(5), ra: Reg(5), imm: -1 },
        Instr::Xor { rd: Reg(6), ra: Reg(6), rb: Reg(5) },
        Instr::Branch { cond: Cond::Ne, ra: Reg(5), rb: Reg(0), target: loop_head },
        Instr::MramWrite { wram: Reg(1), mram: Reg(2), len: Reg(3) },
        Instr::Halt,
    ]);
    let program = Program::new(instrs);

    for tasklets in [1usize, 2, 4, 8] {
        let result = assert_engines_agree(&program, tasklets, u64::MAX).expect("run completes");
        // Sanity: the run is genuinely DMA-heavy and leaves the pipeline
        // idle waiting on the streaming port.
        let transfers = tasklets as u64 * (iters as u64 + 1);
        assert_eq!(result.dma_transfers, transfers);
        assert_eq!(result.dma_bytes, transfers * chunk as u64);
        assert!(result.dma_cycles > result.instructions, "DMA dominates");
        assert!(result.idle_cycles > 0, "stalls must leave idle issue slots");
    }
}

/// The `sync_heavy_16t` bench shape: a mutex-guarded WRAM counter bumped
/// in a loop by 16 tasklets, then a barrier. Sole-runnable fast-forwarding
/// (most of this kernel's life has exactly one unblocked tasklet) must be
/// invisible.
#[test]
fn sync_heavy_16_tasklets_matches_reference() {
    let iters: i32 = 200;
    let mut instrs = vec![Instr::Movi { rd: Reg(5), imm: iters }];
    let loop_head = instrs.len() as u32;
    instrs.extend([
        Instr::MutexLock { id: 1 },
        Instr::Load { width: Width::W, rd: Reg(2), ra: Reg(0), off: 64 },
        Instr::Addi { rd: Reg(2), ra: Reg(2), imm: 1 },
        Instr::Store { width: Width::W, ra: Reg(0), off: 64, rs: Reg(2) },
        Instr::MutexUnlock { id: 1 },
        Instr::Addi { rd: Reg(5), ra: Reg(5), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: Reg(5), rb: Reg(0), target: loop_head },
        Instr::Barrier,
        Instr::Halt,
    ]);
    let program = Program::new(instrs);
    let tasklets = 16;
    let result = assert_engines_agree(&program, tasklets, u64::MAX).expect("run completes");
    assert_eq!(result.trace, vec![]);
    // The counter saw every increment exactly once.
    let mut machine = Machine::default();
    let exec = ExecProgram::decode(&program);
    machine.run_exec(&exec, tasklets).unwrap();
    assert_eq!(
        machine.wram.read_u32(64).unwrap(),
        (iters as u32) * tasklets as u32,
        "mutex must serialize the read-modify-write"
    );
}

/// Subroutine bursts fast-forward in sole mode; budget exhaustion inside
/// a burst must surface at the identical pick on both engines.
#[test]
fn subroutine_bursts_and_budget_exhaustion_match_reference() {
    use dpu_sim::subroutines::Subroutine;
    let program = Program::new(vec![
        Instr::Movi { rd: Reg(1), imm: 1000 },
        Instr::Movi { rd: Reg(2), imm: 37 },
        Instr::CallSub { sub: Subroutine::Divsi3, rd: Reg(3), ra: Reg(1), rb: Reg(2) },
        Instr::CallSub { sub: Subroutine::Mulsi3, rd: Reg(4), ra: Reg(3), rb: Reg(2) },
        Instr::Trace { ra: Reg(4) },
        Instr::Halt,
    ]);
    // Exercise every budget from "fails at the first pick" to "completes":
    // the two engines must agree at each cutoff.
    let full = assert_engines_agree(&program, 1, u64::MAX).expect("run completes");
    for budget in (0..full.cycles + 12).step_by(7) {
        let _outcome = assert_engines_agree(&program, 1, budget);
    }
    assert_eq!(full.trace, vec![(0, (1000 / 37) * 37)]);
}

/// Deadlock accounting (at_barrier / on_mutex populations) is identical
/// when the fast engine detects the deadlock after fast-forwarded work.
#[test]
fn deadlock_accounting_matches_reference() {
    // Tasklet 0 takes the mutex and parks at a barrier still holding it;
    // the others run an ALU block then try to lock: classic deadlock.
    let program = Program::new(vec![
        Instr::TaskletId { rd: Reg(1) },
        Instr::Branch { cond: Cond::Ne, ra: Reg(1), rb: Reg(0), target: 4 },
        Instr::MutexLock { id: 0 },
        Instr::Barrier,
        // others: a superblock, then block on the mutex.
        Instr::Addi { rd: Reg(2), ra: Reg(2), imm: 5 },
        Instr::Xor { rd: Reg(3), ra: Reg(3), rb: Reg(2) },
        Instr::MutexLock { id: 0 },
        Instr::Barrier,
        Instr::Halt,
    ]);
    for tasklets in [2usize, 5, 12] {
        let err = assert_engines_agree(&program, tasklets, u64::MAX)
            .expect_err("mutex held across barrier deadlocks");
        assert_eq!(
            err,
            dpu_sim::Error::Deadlock { at_barrier: 1, on_mutex: tasklets - 1 },
            "tasklets={tasklets}"
        );
    }
}

/// A chunk-friendly loop body: private loads and stores, shared reads,
/// ALU work and a data-dependent skip — no boundary op, no race.
fn quiet_body() -> Vec<RacyOp> {
    vec![
        RacyOp::PrivateLoad(Width::W, 0, 3),
        RacyOp::Alu(Instr::Addi { rd: Reg(6), ra: Reg(6), imm: 5 }),
        RacyOp::SharedLoad(1, 7),
        RacyOp::SkipIfLess(1, 0),
        RacyOp::Alu(Instr::Xor { rd: Reg(7), ra: Reg(7), rb: Reg(1) }),
        RacyOp::PrivateStore(Width::H, 1, 7),
        RacyOp::PrivateStore(Width::W, 0, 3),
    ]
}

/// Residency counters of a superblock-engine run of `program`.
fn superblock_stats(program: &Program, tasklets: usize) -> dpu_sim::EngineStats {
    let mut m = seeded_machine();
    let _ = m.run_exec_engine(&ExecProgram::decode(program), tasklets, Engine::Superblock);
    m.engine_stats()
}

/// Fewer runnable tasklets than pipeline stages rotate in closed form too
/// (idle cycles every round), launched on their own or as the working few
/// of a full DPU's 16 — checked through the residency counters, so the
/// racy proptests above cannot silently stop reaching the mode.
#[test]
fn undersaturated_rotations_occur_and_are_invisible() {
    for (launched, working) in [(2, 2), (3, 3), (6, 6), (10, 10), (16, 1), (16, 6), (16, 15)] {
        let event = Event { iter: 150, tasklet: 0, stride: 1, working, skewed: false };
        let program = racy_program(&quiet_body(), 400, event);
        let result = assert_engines_agree(&program, launched, u64::MAX).expect("completes");
        assert!(result.idle_cycles > 0 || working >= 11, "{working} tasklets leave idle slots");
        let s = superblock_stats(&program, launched);
        assert_eq!(s.slots(), result.instructions, "modes partition the issued slots");
        if working == 1 {
            assert!(s.sole_slots * 10 > result.instructions * 9, "{s:?}");
            continue;
        }
        assert!(s.chunk_slots * 10 > result.instructions * 8, "{working}: {s:?}");
        if working < 11 {
            assert!(s.undersaturated_slots * 10 > result.instructions * 9, "{working}: {s:?}");
        }
    }
}

/// One tasklet streams DMAs while the others compute: the stalled tasklet
/// is runnable but outside the others' rotation, which must stop short of
/// its ready time — never run through it, never fall back to pick-by-pick.
#[test]
fn dma_stalled_tasklet_bounds_the_rotation_of_the_others() {
    let mut body = quiet_body();
    body.push(RacyOp::Gated {
        when: Gate::Always,
        only_event_tasklet: true,
        op: Disruption::MramRead,
    });
    for (launched, working, streamer) in [(2, 2, 1), (4, 4, 0), (7, 7, 3), (12, 12, 5), (16, 6, 2)]
    {
        let event = Event { iter: 1, tasklet: streamer, stride: 1, working, skewed: false };
        let program = racy_program(&body, 300, event);
        let result = assert_engines_agree(&program, launched, u64::MAX).expect("completes");
        assert!(result.dma_transfers >= 300);
        let s = superblock_stats(&program, launched);
        assert_eq!(s.slots(), result.instructions);
        // (Eleven computing tasklets are an exact fit, not under-saturated.)
        if working < 12 {
            assert!(s.undersaturated_slots * 2 > result.instructions, "{working} tasklets: {s:?}");
        }
        assert!(s.reference_slots * 4 < result.instructions, "{working} tasklets: {s:?}");
    }
}

/// A budget that runs out on every slot — and in every idle gap — of an
/// under-saturated round leaves the identical `CycleBudgetExceeded`
/// partial state on both tiers, fault-armed runs included.
#[test]
fn budget_cut_on_every_slot_of_an_undersaturated_round_matches_reference() {
    for (launched, working) in [(5, 5), (16, 6)] {
        let event = Event { iter: 40, tasklet: 1, stride: 2, working, skewed: false };
        let program = racy_program(&quiet_body(), 120, event);
        let full = assert_engines_agree(&program, launched, u64::MAX).expect("completes");
        let s = superblock_stats(&program, launched);
        assert!(s.undersaturated_slots * 10 > full.instructions * 9, "{s:?}");

        // Three whole rounds' worth of consecutive budgets, mid-run.
        let budgets = full.cycles / 2..full.cycles / 2 + 3 * 11 + 1;
        assert_every_budget_cuts_identically(&program, launched, budgets);
    }
}

/// What a fault-armed run of `exec` leaves behind, and the faults injected.
fn armed_aftermath(
    exec: &ExecProgram,
    tasklets: usize,
    budget: u64,
    engine: Engine,
) -> (Aftermath, Vec<InjectedFault>) {
    let plan = FaultPlan::new(FaultConfig { seed: 7, bit_flip_prob: 0.5, ..Default::default() });
    let mut machine = seeded_machine();
    machine.arm_faults(plan.attempt(0, 0));
    let mut injected = Vec::new();
    let (after, _) = aftermath(machine, |m| {
        let outcome =
            m.execute(exec, RunSpec { budget, engine: Some(engine), ..RunSpec::new(tasklets) });
        injected = m.disarm_faults().expect("armed").injected().to_vec();
        outcome
    });
    (after, injected)
}

/// Under every budget of `budgets` — all of which must cut the run short —
/// both tiers stop in the identical partial state, fault-armed runs
/// included.
fn assert_every_budget_cuts_identically(
    program: &Program,
    tasklets: usize,
    budgets: std::ops::Range<u64>,
) {
    let exec = ExecProgram::decode(program);
    for budget in budgets {
        let cut = assert_engines_agree(program, tasklets, budget);
        assert_eq!(cut, Err(dpu_sim::Error::CycleBudgetExceeded { budget }));
        let reference = armed_aftermath(&exec, tasklets, budget, Engine::Reference);
        assert!(reference.0.outcome.is_err());
        let armed = armed_aftermath(&exec, tasklets, budget, Engine::Superblock);
        assert!(armed == reference, "armed, budget {budget}");
    }
}

/// Every steady state a served DPU can be in has a batched mode: 1 to 16
/// working tasklets, launched on their own or as part of a full DPU's 16,
/// entering the loop a DMA apart. Twelve and more settle into a permuted
/// rotation only a verified orbit covers; a count no probe covers would
/// run pick by pick and fail the residency bound here.
#[test]
fn every_working_count_behind_a_dma_skew_runs_batched_and_matches_reference() {
    for working in 1..=16 {
        for launched in if working == 16 { vec![16] } else { vec![working, 16] } {
            let event = Event { iter: 150, tasklet: 0, stride: 1, working, skewed: true };
            let exec = ExecProgram::decode(&racy_program(&quiet_body(), 400, event));
            let run = |engine| {
                aftermath(seeded_machine(), |m| m.run_exec_engine(&exec, launched, engine))
            };
            let (reference, _) = run(Engine::Reference);
            let instructions = reference.outcome.as_ref().expect("completes").instructions;
            let armed_reference = armed_aftermath(&exec, launched, u64::MAX, Engine::Reference);
            let label = format!("{working} of {launched}");
            let (after, s) = run(Engine::Superblock);
            assert!(after == reference, "{label}: diverged");
            assert_eq!(s.slots(), instructions, "{label}: modes partition the slots");
            assert!(s.reference_slots * 100 <= instructions, "{label}: {s:?}");
            if working > 11 {
                assert!(s.orbit_slots * 10 > instructions * 8, "{label}: {s:?}");
            } else {
                assert_eq!(s.orbit_probes, 0, "{label}: closed forms cover {working}");
            }
            let armed = armed_aftermath(&exec, launched, u64::MAX, Engine::Superblock);
            assert!(armed == armed_reference, "{label}: fault-armed run diverged");
        }
    }
}

/// A budget that runs out on every cycle of three rounds of a verified
/// orbit (period = the working count) cuts both tiers identically.
#[test]
fn budget_cut_on_every_slot_of_an_orbit_round_matches_reference() {
    for (launched, working) in [(12, 12), (16, 13), (14, 14)] {
        let event = Event { iter: 40, tasklet: 1, stride: 2, working, skewed: true };
        let program = racy_program(&quiet_body(), 120, event);
        let full = assert_engines_agree(&program, launched, u64::MAX).expect("completes");
        let s = superblock_stats(&program, launched);
        assert!(s.orbit_slots * 10 > full.instructions * 8, "{s:?}");
        let budgets = full.cycles / 2..full.cycles / 2 + 3 * working as u64 + 1;
        assert_every_budget_cuts_identically(&program, launched, budgets);
    }
}

/// Every chunk outcome — commit, and rollback at a boundary op, a WRAM
/// conflict, a `trace` and a fault — actually occurs on the fast engine
/// (checked through the residency counters) and is invisible in the
/// results. Guards the racy proptest above against silently never
/// reaching chunk mode.
#[test]
fn every_chunk_outcome_occurs_and_is_invisible() {
    let gated = |op| RacyOp::Gated { when: Gate::EventIter, only_event_tasklet: true, op };
    let quiet = quiet_body();
    let tasklets = 16;
    let stats_of = |extra: Option<RacyOp>| {
        let mut body = quiet.clone();
        body.extend(extra);
        let event = Event { iter: 150, tasklet: 9, stride: 1, working: tasklets, skewed: false };
        let program = racy_program(&body, 400, event);
        let outcome = assert_engines_agree(&program, tasklets, u64::MAX);
        let mut m = seeded_machine();
        let fast = m.run_exec_engine(&ExecProgram::decode(&program), tasklets, Engine::Superblock);
        assert_eq!(fast, outcome);
        (m.engine_stats(), outcome)
    };

    let (quiet_stats, outcome) = stats_of(None);
    let result = outcome.expect("quiet program completes");
    assert!(quiet_stats.chunk_commits > 0, "{quiet_stats:?}");
    assert!(quiet_stats.chunk_slots * 10 > result.instructions * 9, "{quiet_stats:?}");
    // (The epilogue's `trace` and `halt` do roll chunks back.)
    assert_eq!(
        (quiet_stats.chunk_aborts_conflict, quiet_stats.chunk_aborts_fault),
        (0, 0),
        "{quiet_stats:?}"
    );
    assert_eq!(quiet_stats.slots(), result.instructions, "modes partition the issued slots");

    // The neighbour ops are gated by iteration only: with one tasklet
    // storing, nobody else would touch the word inside the same chunk.
    let every = |op| RacyOp::Gated { when: Gate::EventIter, only_event_tasklet: false, op };
    let (s, outcome) = stats_of(Some(every(Disruption::SameByteStore(0))));
    assert!(outcome.is_ok() && s.chunk_aborts_conflict > 0 && s.chunk_commits > 0, "{s:?}");
    let (s, _) = stats_of(Some(every(Disruption::SameWordStore(1))));
    assert!(s.chunk_aborts_conflict > 0, "same word, different byte: {s:?}");
    let (s, _) = stats_of(Some(every(Disruption::NeighbourLoad(2, 0))));
    assert!(s.chunk_aborts_conflict > 0, "load of a word its owner stores: {s:?}");
    let (s, _) = stats_of(Some(every(Disruption::NeighbourStore(2, 1))));
    assert!(s.chunk_aborts_conflict > 0, "store to a word its owner stores: {s:?}");

    let (s, outcome) = stats_of(Some(gated(Disruption::Trace(0))));
    assert!(s.chunk_aborts_trace > quiet_stats.chunk_aborts_trace, "{s:?}");
    assert_eq!(outcome.expect("completes").trace.len(), tasklets + 1);

    let (s, outcome) = stats_of(Some(gated(Disruption::MramRead)));
    assert!(s.chunk_aborts_boundary > quiet_stats.chunk_aborts_boundary, "{s:?}");
    assert!(outcome.is_ok());

    let (s, outcome) = stats_of(Some(gated(Disruption::WildLoad)));
    assert!(s.chunk_aborts_fault > 0 && s.chunk_commits > 0, "{s:?}");
    assert!(matches!(outcome, Err(dpu_sim::Error::OutOfBounds { .. })), "{outcome:?}");
}

/// A run long enough to wrap the shadow tags' chunk epoch (one epoch per
/// chunk attempt, 511 before the tag array is cleared): a perf read every
/// ~30 instructions keeps chunks short and the stand-off from growing, so
/// commits and boundary rollbacks alternate many hundreds of times.
#[test]
fn chunk_epoch_wrap_mid_run_is_invisible() {
    use dpu_sim::isa::Width;
    let mut body = Vec::new();
    for i in 0..6u8 {
        body.extend([
            RacyOp::PrivateLoad(Width::W, i, 4 * (i % 4)),
            RacyOp::Alu(Instr::Addi { rd: Reg(6 + i % 3), ra: Reg(6 + i % 3), imm: 3 }),
            RacyOp::SharedLoad(i + 1, i),
            RacyOp::Alu(Instr::Xor { rd: Reg(7), ra: Reg(7), rb: Reg(6) }),
            RacyOp::PrivateStore(Width::W, i, 4 * (i % 4)),
        ]);
    }
    body.push(RacyOp::Gated {
        when: Gate::Always,
        only_event_tasklet: false,
        op: Disruption::PerfRead(2),
    });
    let tasklets = 11;
    let event = Event { iter: 1, tasklet: 0, stride: 1, working: tasklets, skewed: false };
    let program = racy_program(&body, 1400, event);
    let outcome = assert_engines_agree(&program, tasklets, u64::MAX);
    let mut m = seeded_machine();
    let fast = m.run_exec_engine(&ExecProgram::decode(&program), tasklets, Engine::Superblock);
    assert_eq!(fast, outcome);
    let s = m.engine_stats();
    assert!(s.chunk_commits > 100 && s.chunk_commits + s.chunk_aborts_boundary > 530, "{s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Recorded launches are invisible: racy programs short enough to be
    /// recorded — DMA, `perf`, `trace`, bursts, faults and early halts
    /// included — leave the same result, memories, DMA statistics and
    /// perf counter on their first (plain), second (recorded) and third
    /// (replayed) run as on the reference loop; then again, with
    /// whatever the table now holds, under a budget that may cut the run.
    #[test]
    fn short_racy_programs_record_and_replay_identically(
        body in prop::collection::vec(racy_op_strategy(), 2..9),
        tasklets in 1usize..=6,
        iters in 1i32..4,
        event in (0i32..96, 0i32..24, 1i32..24),
        budget_permille in 0u64..1100,
    ) {
        // One `__divsf3` burst alone outgrows the slot cap.
        let long_burst = |op: &RacyOp| {
            matches!(op, RacyOp::Gated { op: Disruption::Call(Subroutine::Divsf3, _), .. })
        };
        if body.iter().any(long_burst) {
            return Ok(());
        }
        let program = racy_program(&body, iters, Event::from_draws(event, tasklets, iters));
        let exec = ExecProgram::decode(&program);
        let (whole, third) = assert_replay_invisible(&exec, tasklets, TEST_BUDGET, &lived_in_machine);
        if let Ok(r) = &whole.outcome {
            prop_assert!(r.instructions <= 1024, "the generator outgrew the slot cap: {r:?}");
            // Kept and replayed, or abandoned again: never a fourth way.
            prop_assert_eq!(third.replay_hits + third.replay_abandoned, 1, "{:?}", third);
        } else {
            prop_assert_eq!(third.replay_hits + third.replay_records, 0);
        }
        let cycles = whole.outcome.map_or(TEST_BUDGET, |r| r.cycles);
        assert_replay_invisible(&exec, tasklets, cycles * budget_permille / 1000, &lived_in_machine);
    }
}

/// Reads 8 MRAM bytes at 64 (by DMA) and the WRAM word at 0x80 (left by
/// "the previous launch"), writes their sum and the word to WRAM 0x88 and
/// from there to MRAM 128.
fn replay_probe_program() -> Program {
    dpu_sim::asm::assemble(
        "movi r1, 0x40\n\
         movi r2, 64\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         lw r5, r0, 0x80\n\
         add r4, r4, r5\n\
         sw r0, 0x88, r4\n\
         sw r0, 0x8c, r5\n\
         movi r1, 0x88\n\
         movi r2, 128\n\
         mram.write r1, r2, r3\n\
         trace r4\n\
         halt\n",
    )
    .unwrap()
}

/// Run `exec` on the superblock engine on `machine`; the aftermath and
/// the run's residency.
fn fast_run(
    exec: &ExecProgram,
    tasklets: usize,
    machine: Machine,
) -> (Aftermath, dpu_sim::EngineStats) {
    aftermath(machine, |m| m.run_exec_engine(exec, tasklets, Engine::Superblock))
}

/// The same run on the reference loop.
fn reference_run(exec: &ExecProgram, tasklets: usize, machine: Machine) -> Aftermath {
    aftermath(machine, |m| m.run_exec_engine(exec, tasklets, Engine::Reference)).0
}

/// `exec` with a recording of its superblock-engine run on a
/// [`lived_in_machine`] in the table (first sighting, then recorded).
fn recorded(program: &Program, tasklets: usize) -> ExecProgram {
    let exec = ExecProgram::decode(program);
    let (_, first) = fast_run(&exec, tasklets, lived_in_machine());
    assert_eq!((first.replay_records, first.replay_hits), (0, 0), "first sighting runs plain");
    let (_, second) = fast_run(&exec, tasklets, lived_in_machine());
    assert_eq!((second.replay_records, second.replay_abandoned), (1, 0), "{second:?}");
    exec
}

/// A replay fires exactly when every byte the recorded run read first is
/// unchanged: one flipped byte inside the MRAM or the WRAM read span
/// forces a real run, bytes the run never read (or overwrote before
/// reading) may change freely.
#[test]
fn replay_is_validated_against_the_read_set() {
    let program = replay_probe_program();
    let exec = recorded(&program, 1);
    let check = |label: &str, expect_hit: bool, disturb: &dyn Fn(&mut Machine)| {
        let mut machine = lived_in_machine();
        disturb(&mut machine);
        let reference = reference_run(&exec, 1, machine.clone());
        let (after, stats) = fast_run(&exec, 1, machine);
        assert_eq!(after, reference, "{label}");
        assert_eq!(stats.replay_hits, u64::from(expect_hit), "{label}: {stats:?}");
        let r = after.outcome.expect("completes");
        assert_eq!(stats.slots(), r.instructions, "{label}");
        assert_eq!(stats.replayed_slots, if expect_hit { r.instructions } else { 0 }, "{label}");
    };
    check("untouched", true, &|_| {});
    for byte in [64, 67, 71] {
        check("MRAM read span", false, &|m| m.mram.flip_bit_raw(byte, 3).unwrap());
    }
    for byte in [0x80, 0x83] {
        check("WRAM read span", false, &|m| {
            let v = m.wram.read_u8(byte).unwrap();
            m.wram.write_u8(byte, v ^ 0x10).unwrap();
        });
    }
    // Each miss above was recorded in turn; the original still replays.
    check("untouched, after other recordings", true, &|_| {});
    check("bytes beside the read spans", true, &|m| {
        m.mram.write(56, &[0xaa; 8]).unwrap();
        m.mram.write(72, &[0xbb; 8]).unwrap();
        m.wram.write(0x7c, &[0xcc; 4]).unwrap();
        m.wram.write(0x84, &[0xdd; 4]).unwrap();
    });
    check("bytes the run overwrites without reading", true, &|m| {
        m.wram.write(0x40, &[0xee; 8]).unwrap();
        m.wram.write(0x88, &[0xee; 8]).unwrap();
        m.mram.write(128, &[0xee; 8]).unwrap();
    });
}

/// Read-then-overwrite keeps the pre-state value in the read set and the
/// final one in the write set; write-then-read is no input at all; a read
/// that straddles the run's own output abandons the recording.
#[test]
fn recorder_orders_reads_and_writes_per_byte() {
    let run = |source: &str, disturb: &dyn Fn(&mut Machine)| {
        let program = dpu_sim::asm::assemble(source).unwrap();
        let exec = ExecProgram::decode(&program);
        fast_run(&exec, 1, lived_in_machine());
        let (_, second) = fast_run(&exec, 1, lived_in_machine());
        let mut machine = lived_in_machine();
        disturb(&mut machine);
        let reference = reference_run(&exec, 1, machine.clone());
        let (third, stats) = fast_run(&exec, 1, machine);
        assert_eq!(third, reference, "{source}");
        (second, stats)
    };

    let read_then_overwrite = "lw r1, r0, 0x80\naddi r1, r1, 1\nsw r0, 0x80, r1\nhalt\n";
    let (second, third) = run(read_then_overwrite, &|_| {});
    assert_eq!((second.replay_records, third.replay_hits), (1, 1));
    let (_, third) = run(read_then_overwrite, &|m| m.wram.write_u8(0x81, 0).unwrap());
    assert_eq!(third.replay_hits, 0, "the overwritten word was read first");

    let write_then_read = "movi r1, 7\nsw r0, 0x80, r1\nlw r2, r0, 0x80\nlb r3, r0, 0x82\nhalt\n";
    let (second, third) = run(write_then_read, &|m| m.wram.write(0x80, &[9; 4]).unwrap());
    assert_eq!((second.replay_records, third.replay_hits), (1, 1), "own output is no input");

    let partial_overlap = "movi r1, 7\nsb r0, 0x81, r1\nlw r2, r0, 0x80\nhalt\n";
    let (second, third) = run(partial_overlap, &|_| {});
    assert_eq!((second.replay_records, second.replay_abandoned), (0, 1), "{second:?}");
    assert_eq!((third.replay_hits, third.replay_abandoned), (0, 1), "{third:?}");

    // The same through the DMA engine: 8 bytes out of WRAM, 4 of them stored.
    let partial_dma = "sw r0, 0x88, r0\nmovi r1, 0x88\nmovi r3, 8\nmram.write r1, r0, r3\nhalt\n";
    let (second, third) = run(partial_dma, &|_| {});
    assert_eq!((second.replay_records, second.replay_abandoned), (0, 1), "{second:?}");
    assert_eq!((third.replay_hits, third.replay_abandoned), (0, 1), "{third:?}");
}

/// A budget below the recorded run's cycles never replays: the run is cut
/// with the same partial state as on a program without a table. A budget
/// of exactly the recorded cycles does.
#[test]
fn budget_below_the_recorded_cycles_cuts_the_run_for_real() {
    let program = replay_probe_program();
    let exec = recorded(&program, 2);
    let full = reference_run(&exec, 2, lived_in_machine()).outcome.expect("completes");
    for budget in [0, 11, full.cycles / 2, full.cycles - 1, full.cycles] {
        let with_budget = |exec: &ExecProgram, engine: Engine| {
            aftermath(lived_in_machine(), |m| {
                m.execute(exec, RunSpec { budget, engine: Some(engine), ..RunSpec::new(2) })
            })
        };
        let (reference, _) = with_budget(&exec, Engine::Reference);
        let (no_table, _) = with_budget(&ExecProgram::decode(&program), Engine::Superblock);
        let (after, stats) = with_budget(&exec, Engine::Superblock);
        assert_eq!(after, reference, "budget {budget}");
        assert_eq!(after, no_table, "budget {budget}");
        assert_eq!(stats.replay_hits, u64::from(budget == full.cycles), "budget {budget}");
        if budget < full.cycles {
            assert_eq!(after.outcome, Err(dpu_sim::Error::CycleBudgetExceeded { budget }));
        }
    }
}

/// A run that ends in an error is never recorded, however often it runs.
#[test]
fn erroring_runs_are_never_recorded() {
    for source in [
        "lw r1, r0, 0x80\nmovi r2, 0x7fff0000\nlw r3, r2, 0\nhalt\n",
        "me r1\nbne r1, r0, 3\nmutex.lock 0\nbarrier\nmutex.lock 0\nbarrier\nhalt\n",
        "movi r1, 5\ncall __divsi3 r2, r1, r0\nhalt\n",
    ] {
        let exec = ExecProgram::decode(&dpu_sim::asm::assemble(source).unwrap());
        for _ in 0..4 {
            let reference = reference_run(&exec, 2, lived_in_machine());
            let (after, stats) = fast_run(&exec, 2, lived_in_machine());
            assert!(after.outcome.is_err(), "{source}");
            assert_eq!(after, reference, "{source}");
            assert_eq!(
                (stats.replay_hits, stats.replay_records, stats.replay_abandoned),
                (0, 0, 0),
                "{source}"
            );
        }
    }
}

/// Recordings are keyed: another tasklet count or parameter set never
/// replays this one's, and the reference loop never replays at all.
#[test]
fn recordings_are_not_shared_across_tasklets_or_params() {
    let program = replay_probe_program();
    let exec = recorded(&program, 2);
    let hits = |tasklets: usize, engine: Engine, machine: Machine| {
        let reference = reference_run(&exec, tasklets, machine.clone());
        let (after, stats) = aftermath(machine, |m| m.run_exec_engine(&exec, tasklets, engine));
        assert_eq!(after, reference);
        stats.replay_hits
    };
    let announced = || {
        let fresh = lived_in_machine();
        let mut m = Machine::new(dpu_sim::DpuParams::announced());
        m.wram = fresh.wram;
        m.mram = fresh.mram;
        m
    };
    assert_eq!(hits(3, Engine::Superblock, lived_in_machine()), 0, "other tasklet count");
    assert_eq!(hits(2, Engine::Superblock, announced()), 0, "other device parameters");
    assert_eq!(hits(2, Engine::Reference, lived_in_machine()), 0, "reference never replays");
    assert_eq!(hits(2, Engine::Superblock, lived_in_machine()), 1);
    // Each miss was a first sighting of its own key, run plain.
    assert_eq!(hits(3, Engine::Superblock, lived_in_machine()), 0, "second sighting records");
    assert_eq!(hits(3, Engine::Superblock, lived_in_machine()), 1);
}

/// Fault-armed (even with nothing to inject), traced, profiled and
/// ECC-on launches bypass the table: bit-identical to the reference, no
/// hit, no recording, whatever the table holds.
#[test]
fn observed_and_guarded_launches_bypass_the_table() {
    let program = replay_probe_program();
    let exec = recorded(&program, 2);
    let reference = reference_run(&exec, 2, lived_in_machine());
    let untouched = |s: dpu_sim::EngineStats, label: &str| {
        assert_eq!(
            (s.replay_hits, s.replay_records, s.replay_abandoned, s.replayed_slots),
            (0, 0, 0, 0),
            "{label}"
        );
    };
    for _ in 0..3 {
        let (armed, stats) = aftermath(lived_in_machine(), |m| {
            m.arm_faults(FaultPlan::none().attempt(0, 0));
            let outcome = m.run_exec_engine(&exec, 2, Engine::Superblock);
            assert!(m.disarm_faults().expect("armed").injected().is_empty());
            outcome
        });
        assert_eq!(armed, reference, "armed zero-fault plan");
        untouched(stats, "armed");

        let mut events = pim_trace::TraceBuffer::new();
        let (traced, stats) = aftermath(lived_in_machine(), |m| {
            m.execute(
                &exec,
                RunSpec {
                    budget: TEST_BUDGET,
                    engine: Some(Engine::Superblock),
                    observe: Observe::Trace(&mut events),
                    ..RunSpec::new(2)
                },
            )
        });
        assert_eq!(traced, reference, "traced");
        untouched(stats, "traced");
        assert!(!events.is_empty());

        let mut attr = dpu_sim::CycleAttribution::new();
        let (profiled, stats) = aftermath(lived_in_machine(), |m| {
            m.execute(&exec, RunSpec { observe: Observe::Profile(&mut attr), ..RunSpec::new(2) })
        });
        assert_eq!(profiled, reference, "profiled");
        untouched(stats, "profiled");

        let ecc_machine = || {
            let mut m = lived_in_machine();
            m.mram.set_ecc(true);
            m
        };
        let ecc_reference = reference_run(&exec, 2, ecc_machine());
        let (ecc, stats) = fast_run(&exec, 2, ecc_machine());
        assert_eq!(ecc, ecc_reference, "ECC on");
        untouched(stats, "ECC on");
        assert_eq!(ecc.outcome, reference.outcome);
    }
    // And the recording they all walked past still replays.
    assert_eq!(fast_run(&exec, 2, lived_in_machine()).1.replay_hits, 1);
}

/// `Machine::run` decodes per call, so its table never sees a key twice:
/// neither a recording nor a replay. And a kernel that always outruns the
/// slot cap never opens a recording on a loaded program either.
#[test]
fn undecoded_and_long_runs_never_touch_the_table() {
    let program = replay_probe_program();
    let mut m = lived_in_machine();
    for _ in 0..3 {
        m.run(&program, 2).unwrap();
    }
    let s = m.engine_stats();
    assert_eq!((s.replay_hits, s.replay_records, s.replayed_slots), (0, 0, 0));

    let long =
        dpu_sim::asm::assemble("movi r1, 600\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n")
            .unwrap();
    let exec = ExecProgram::decode(&long);
    let mut m = lived_in_machine();
    for _ in 0..3 {
        assert!(m.run_exec_engine(&exec, 1, Engine::Superblock).unwrap().instructions > 1024);
    }
    let s = m.engine_stats();
    assert_eq!((s.replay_hits, s.replay_records, s.replay_abandoned), (0, 0, 0), "{s:?}");
    assert!(s.reference_slots < 64, "every run kept its batched paths: {s:?}");
}
