//! Identity tests for the cycle-attribution profiler: a profiled run
//! (`Machine::execute` under `Observe::Profile`) must be purely
//! observational — same `RunResult` bit-for-bit, same memory image, same
//! error — as an unprofiled run, and the attributed cycles must sum
//! exactly to the run's cycle count.

use dpu_sim::exec::ExecProgram;
use dpu_sim::isa::{Cond, Instr, Program, Reg, Width};
use dpu_sim::{CycleAttribution, Machine, Observe, RunResult, RunSpec, Subroutine};
use proptest::prelude::*;

const TEST_BUDGET: u64 = 300_000;

fn r(i: u8) -> Reg {
    Reg(i)
}

/// Run `program` profiled and unprofiled from identical fresh machines,
/// assert complete observable equality, and return the outcome plus the
/// attribution.
fn assert_profiled_identical(
    program: &Program,
    tasklets: usize,
    budget: u64,
) -> (Result<RunResult, dpu_sim::Error>, CycleAttribution) {
    let exec = ExecProgram::decode(program);
    let mut plain_machine = Machine::default();
    let mut prof_machine = Machine::default();
    for (i, b) in (0..4096u32).enumerate() {
        plain_machine.mram.write_u8(i, b.wrapping_mul(41) & 0xff).unwrap();
        prof_machine.mram.write_u8(i, b.wrapping_mul(41) & 0xff).unwrap();
    }
    let plain = plain_machine.execute(&exec, RunSpec { budget, ..RunSpec::new(tasklets) });
    let mut attr = CycleAttribution::new();
    let profiled = prof_machine.execute(
        &exec,
        RunSpec { budget, observe: Observe::Profile(&mut attr), ..RunSpec::new(tasklets) },
    );
    assert_eq!(plain, profiled, "profiling changed the run on {program:?}");
    let wram_len = plain_machine.params.wram_bytes;
    assert_eq!(
        plain_machine.wram.slice(0, wram_len).unwrap(),
        prof_machine.wram.slice(0, wram_len).unwrap(),
        "WRAM images diverged under profiling"
    );
    (profiled, attr)
}

/// A kernel exercising every attribution path: DMA transfers, subroutine
/// bursts, a barrier, a mutex-guarded section and a countdown loop.
fn mixed_program() -> Program {
    Program::new(vec![
        Instr::TaskletId { rd: r(0) },
        Instr::Movi { rd: r(1), imm: 64 },
        Instr::Movi { rd: r(2), imm: 0 },
        // DMA: read 64 bytes of MRAM into WRAM at 0.
        Instr::MramRead { wram: r(2), mram: r(2), len: r(1) },
        Instr::Load { width: Width::W, rd: r(3), ra: r(2), off: 0 },
        // Software multiply (burst) on the loaded word.
        Instr::CallSub { sub: Subroutine::Mulsi3, rd: r(4), ra: r(3), rb: r(1) },
        Instr::Barrier,
        // Mutex-guarded accumulate into WRAM[128].
        Instr::MutexLock { id: 0 },
        Instr::Movi { rd: r(5), imm: 128 },
        Instr::Load { width: Width::W, rd: r(6), ra: r(5), off: 0 },
        Instr::Add { rd: r(6), ra: r(6), rb: r(4) },
        Instr::Store { width: Width::W, ra: r(5), off: 0, rs: r(6) },
        Instr::MutexUnlock { id: 0 },
        // Countdown loop: a reusable superblock body.
        Instr::Movi { rd: r(7), imm: 20 },
        Instr::Addi { rd: r(7), ra: r(7), imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: r(7), rb: r(2), target: 14 },
        Instr::MramWrite { wram: r(2), mram: r(2), len: r(1) },
        Instr::Halt,
    ])
}

#[test]
fn profiled_run_is_bit_identical_and_cycles_sum_exactly() {
    for tasklets in [1usize, 2, 4, 11] {
        let (outcome, attr) = assert_profiled_identical(&mixed_program(), tasklets, TEST_BUDGET);
        let result = outcome.expect("mixed program completes");
        assert_eq!(
            attr.total_cycles(),
            result.cycles,
            "attribution must partition the makespan exactly (tasklets={tasklets})"
        );
        let block_cycles: u64 = attr.blocks().iter().map(|b| b.cycles).sum();
        let sub_cycles: u64 = attr.subroutines().map(|(_, _, s)| s.cycles).sum();
        assert_eq!(block_cycles + sub_cycles, result.cycles);
        let block_slots: u64 = attr.blocks().iter().map(|b| b.slots).sum();
        let sub_slots: u64 = attr.subroutines().map(|(_, _, s)| s.slots).sum();
        assert_eq!(block_slots + sub_slots, result.instructions);
        // The multiply burst is attributed to __mulsi3 at its call site.
        let mul = attr
            .subroutines()
            .find(|(_, symbol, _)| *symbol == "__mulsi3")
            .expect("__mulsi3 attributed");
        assert_eq!(mul.2.calls, tasklets as u64);
        assert!(mul.2.cycles > 0);
    }
}

#[test]
fn folded_stacks_and_top_blocks_are_consistent() {
    let (outcome, attr) = assert_profiled_identical(&mixed_program(), 4, TEST_BUDGET);
    let result = outcome.expect("completes");
    let folded = attr.folded("dpu0");
    // Every line: "dpu0;block_<start>_<len>[;<symbol>] <count>", counts
    // summing to the makespan.
    let mut folded_total = 0u64;
    for line in folded.lines() {
        let (frames, count) = line.rsplit_once(' ').expect("count field");
        assert!(frames.starts_with("dpu0;block_"), "bad frame path {line:?}");
        folded_total += count.parse::<u64>().expect("numeric count");
    }
    assert_eq!(folded_total, result.cycles);
    assert!(folded.contains(";__mulsi3 "), "subroutine frame missing:\n{folded}");
    // Hot blocks rank by cycles, include subroutine bursts, and cap at n.
    let top = attr.top_blocks(3);
    assert!(top.len() <= 3);
    assert!(top.windows(2).all(|w| w[0].cycles >= w[1].cycles), "not sorted: {top:?}");
    let hottest_total: u64 = attr.top_blocks(usize::MAX).iter().map(|b| b.cycles).sum();
    assert_eq!(hottest_total, result.cycles);
}

#[test]
fn attribution_accumulates_across_runs_and_merges() {
    let exec = ExecProgram::decode(&mixed_program());
    // Two separate runs into one attribution…
    let mut accumulated = CycleAttribution::new();
    let mut m1 = Machine::default();
    let r1 = m1
        .execute(&exec, RunSpec { observe: Observe::Profile(&mut accumulated), ..RunSpec::new(2) })
        .expect("run 1");
    let mut m2 = Machine::default();
    let r2 = m2
        .execute(&exec, RunSpec { observe: Observe::Profile(&mut accumulated), ..RunSpec::new(11) })
        .expect("run 2");
    assert_eq!(accumulated.total_cycles(), r1.cycles + r2.cycles);
    assert_eq!(accumulated.runs(), 2);
    // …equal one attribution per run merged afterwards.
    let mut a1 = CycleAttribution::new();
    let mut a2 = CycleAttribution::new();
    Machine::default()
        .execute(&exec, RunSpec { observe: Observe::Profile(&mut a1), ..RunSpec::new(2) })
        .expect("run 1 again");
    Machine::default()
        .execute(&exec, RunSpec { observe: Observe::Profile(&mut a2), ..RunSpec::new(11) })
        .expect("run 2 again");
    a1.merge(&a2);
    assert_eq!(a1, accumulated);
    // Merging an empty attribution is a no-op in either direction.
    let mut empty = CycleAttribution::new();
    empty.merge(&a1);
    assert_eq!(empty, a1);
    a1.merge(&CycleAttribution::new());
    assert_eq!(a1, empty);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Profiling is observationally invisible on random programs, and
    /// whenever a run completes its attribution partitions the makespan.
    #[test]
    fn profiled_identity_on_random_programs(
        instrs in prop::collection::vec(random_instr(24), 1..24),
        tasklets in 1usize..13,
    ) {
        let program = Program::new(instrs);
        let (outcome, attr) = assert_profiled_identical(&program, tasklets, TEST_BUDGET);
        if let Ok(result) = outcome {
            prop_assert_eq!(attr.total_cycles(), result.cycles);
        }
    }
}

/// Random instruction mix biased toward the paths attribution must cover
/// (branches, subroutine bursts, sync); targets stay in-range so programs
/// loop rather than fault.
fn random_instr(len: u32) -> impl Strategy<Value = Instr> {
    let reg = || (0u8..6).prop_map(Reg);
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        (0u8..6, -40i32..40).prop_map(|(rd, imm)| Instr::Movi { rd: Reg(rd), imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
        (reg(), reg(), -20i32..20).prop_map(|(rd, ra, imm)| Instr::Addi { rd, ra, imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::CallSub {
            sub: Subroutine::Mulsi3,
            rd,
            ra,
            rb,
        }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::CallSub {
            sub: Subroutine::Addsf3,
            rd,
            ra,
            rb,
        }),
        (reg(), reg(), 0u32..len).prop_map(|(ra, rb, target)| Instr::Branch {
            cond: Cond::Ne,
            ra,
            rb,
            target,
        }),
        (0u32..len).prop_map(|target| Instr::Jump { target }),
        reg().prop_map(|rd| Instr::TaskletId { rd }),
        Just(Instr::Barrier),
        (0u8..2).prop_map(|id| Instr::MutexLock { id }),
        (0u8..2).prop_map(|id| Instr::MutexUnlock { id }),
    ]
}
