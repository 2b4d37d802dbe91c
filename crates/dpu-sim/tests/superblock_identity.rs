//! Identity tests for the fast engines: the superblock engine and the
//! compiled threaded-code tier (and whatever the ambient `Machine::run_exec`
//! selection resolves to, including a `PIM_SIM_ENGINE` override) must all
//! match the per-instruction reference loop
//! (`Machine::run_exec_reference_with_budget`) bit-for-bit — same
//! `RunResult`, same error at the same point, same final memory image —
//! on random programs, on DMA-stall-heavy kernels, on the
//! mutex/barrier-heavy shape the `sync_heavy_16t` bench measures, and on
//! multi-tasklet loops that race on WRAM (the tasklet-major chunks' commit
//! and rollback paths) at every tasklet count from 2 up: saturated
//! rotations, under-saturated ones, and the serving shape where most of
//! the launched tasklets halt at once.

mod common;

use common::{racy_op_strategy, racy_program, Disruption, Event, Gate, RacyOp};
use dpu_sim::exec::{is_superblock_op, ExecProgram};
use dpu_sim::isa::{Cond, Instr, Program, Reg, Width};
use dpu_sim::{Engine, FaultConfig, FaultPlan, Machine, RunResult};
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

/// Run `program` on every engine tier from identical fresh machines and
/// assert complete observable equality with the reference loop.
fn assert_engines_agree(
    program: &Program,
    tasklets: usize,
    budget: u64,
) -> Result<RunResult, dpu_sim::Error> {
    let exec = ExecProgram::decode(program);
    let mut ref_machine = seeded_machine();
    let reference = ref_machine.run_exec_reference_with_budget(&exec, tasklets, budget);
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
        m.run_exec_engine_with_budget(&exec, tasklets, budget, Engine::Superblock)
    });
    check("compiled tier", &mut |m| {
        m.run_exec_engine_with_budget(&exec, tasklets, budget, Engine::Compiled)
    });
    // The ambient selection (`PIM_SIM_ENGINE` or the default): what every
    // normal launch runs, and what the CI engine matrix forces per tier.
    check("ambient engine", &mut |m| m.run_exec_with_budget(&exec, tasklets, budget));
    reference
}

/// [`assert_engines_agree`] to completion (or `TEST_BUDGET`), then again
/// under a budget of `permille` thousandths of that run's cycles.
fn assert_engines_agree_whole_and_cut(program: &Program, tasklets: usize, permille: u64) {
    let full = assert_engines_agree(program, tasklets, TEST_BUDGET);
    let cycles = full.map_or(TEST_BUDGET, |r| r.cycles);
    let _cut = assert_engines_agree(program, tasklets, cycles * permille / 1000);
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
    /// and under a budget that cuts the run somewhere in the middle.
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
        let event = Event { iter: 150, tasklet: 0, stride: 1, working };
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
        let event = Event { iter: 1, tasklet: streamer, stride: 1, working };
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
/// partial state on all three tiers, fault-armed runs included.
#[test]
fn budget_cut_on_every_slot_of_an_undersaturated_round_matches_reference() {
    for (launched, working) in [(5, 5), (16, 6)] {
        let event = Event { iter: 40, tasklet: 1, stride: 2, working };
        let program = racy_program(&quiet_body(), 120, event);
        let full = assert_engines_agree(&program, launched, u64::MAX).expect("completes");
        let s = superblock_stats(&program, launched);
        assert!(s.undersaturated_slots * 10 > full.instructions * 9, "{s:?}");

        let exec = ExecProgram::decode(&program);
        let plan =
            FaultPlan::new(FaultConfig { seed: 7, bit_flip_prob: 0.5, ..Default::default() });
        let armed = |engine: Engine, budget: u64| {
            let mut m = seeded_machine();
            m.arm_faults(plan.attempt(0, 0));
            let outcome = m.run_exec_engine_with_budget(&exec, launched, budget, engine);
            let log = m.disarm_faults().expect("armed");
            let image = m.wram.slice(0, m.params.wram_bytes).unwrap().to_vec();
            (outcome, log.injected().to_vec(), image)
        };
        // Three whole rounds' worth of consecutive budgets, mid-run.
        for budget in full.cycles / 2..full.cycles / 2 + 3 * 11 + 1 {
            let cut = assert_engines_agree(&program, launched, budget);
            assert_eq!(cut, Err(dpu_sim::Error::CycleBudgetExceeded { budget }));
            let reference = armed(Engine::Reference, budget);
            assert!(reference.0.is_err());
            assert_eq!(armed(Engine::Superblock, budget), reference, "armed, budget {budget}");
            assert_eq!(armed(Engine::Compiled, budget), reference, "armed, budget {budget}");
        }
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
        let event = Event { iter: 150, tasklet: 9, stride: 1, working: tasklets };
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
    let event = Event { iter: 1, tasklet: 0, stride: 1, working: tasklets };
    let program = racy_program(&body, 1400, event);
    let outcome = assert_engines_agree(&program, tasklets, u64::MAX);
    let mut m = seeded_machine();
    let fast = m.run_exec_engine(&ExecProgram::decode(&program), tasklets, Engine::Superblock);
    assert_eq!(fast, outcome);
    let s = m.engine_stats();
    assert!(s.chunk_commits > 100 && s.chunk_commits + s.chunk_aborts_boundary > 530, "{s:?}");
}
