//! The differential oracle: every way of running a program must leave
//! what the reference loop leaves.
//!
//! An **input** is a program plus the machine (or set) it starts on:
//! generated ones from [`generate`] — random control flow, racy
//! many-tasklet loops, short loops the replay table records — hand-written
//! ones below, and the paper's kernels at their served shapes
//! ([`kernels`]). Each runs once on the reference loop and then through
//! every cell of two layers:
//!
//! - [`machine`]: `Machine::execute` over engine × sighting × faults ×
//!   ECC × observer, to completion and cut short by a budget;
//! - [`set`]: `DpuSet::launch_with` on one to eight DPUs over form ×
//!   dispatch × policy × ECC × trace, three launches per cell, where the
//!   policy axis includes the fault classes: every scenario of the chaos
//!   campaign's table (`pim_bench::chaos`).
//!
//! What a cell must leave is an [`machine::Aftermath`]: the outcome, WRAM,
//! MRAM, DMA totals, perf counter and injected faults; a fault-armed set
//! cell must also keep the fault contract — an exact answer or a surfaced,
//! explained loss, the same on every dispatch. [`predicates`] holds the
//! hand-written checks that are not identities: that replay fires exactly
//! when a read set matches, that the fast tier reaches its batched modes,
//! how attribution and the replay table behave, that the fault classes
//! reach every fault kind and outcome, and that link faults (CRC-checked
//! staging) never reach memory.
//!
//! Two more layers hold contracts of their own: [`serve`] serves traffic
//! through `pim_serve::serve` on both serving engines, and [`paper`]
//! checks every figure of the paper once, each executed one on both
//! engine tiers through the generated kernels.

mod generate;
mod kernels;
mod machine;
mod paper;
mod predicates;
mod serve;
mod set;

use dpu_sim::asm::assemble;
use dpu_sim::machine::DEFAULT_CYCLE_BUDGET;
use dpu_sim::{Error, RunResult};
use generate::Generated;
use machine::{Aftermath, Input};
use proptest::prelude::*;

/// Generated programs per proptest: the counts of the suites the oracle
/// replaced in release builds (CI runs `cargo test --release --test
/// oracle`), fewer in debug builds (opt-level 1, debug assertions on),
/// where every cell runs several times slower. Racy programs get 160 per
/// launch shape; set inputs, which no replaced suite generated, 16 in
/// both.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 160 };
const RACY_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 3 * 160 };
const SHORT_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 128 };
const SET_CASES: u32 = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random control flow on 1 to 16 tasklets.
    #[test]
    fn random_programs_agree_in_every_machine_cell(
        g in generate::random_programs(),
        cut_permille in 0u64..1100,
        seed in 0u64..64,
    ) {
        machine::check(&Input::generated(g, cut_permille, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(RACY_CASES))]

    /// Racy loops on every launch shape.
    #[test]
    fn racy_programs_agree_in_every_machine_cell(
        g in generate::long_racy_programs(),
        cut_permille in 0u64..1100,
        seed in 0u64..64,
    ) {
        machine::check(&Input::generated(g, cut_permille, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SHORT_CASES))]

    /// Racy loops short enough to be recorded and replayed.
    #[test]
    fn short_racy_programs_agree_in_every_machine_cell(
        g in generate::short_racy_programs(),
        cut_permille in 0u64..1100,
        seed in 0u64..64,
    ) {
        if let Ok(r) = machine::check(&Input::generated(g, cut_permille, seed)).outcome {
            assert!(r.instructions <= 1024, "the generator outgrew the slot cap: {r:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SET_CASES))]

    /// Generated racy programs, long and short, on 1 to 8 DPUs. (Random
    /// control flow can loop forever, and a plain launch runs to the
    /// simulator's default budget.)
    #[test]
    fn generated_programs_agree_in_every_set_cell(
        g in prop_oneof![generate::long_racy_programs(), generate::short_racy_programs()],
        dpus in 1usize..9,
        seed in 0u64..64,
    ) {
        set::check(&set::SetInput::generated(g, dpus, seed));
    }
}

/// The paper kernels' machine-layer cells, in three tests so they share
/// the test threads.
#[test]
fn ebnn_full_and_partial_chunks_agree_in_every_machine_cell() {
    kernels::paper_kernels().iter().take(3).for_each(|input| drop(machine::check(input)));
}

#[test]
fn ebnn_orbit_shapes_agree_in_every_machine_cell() {
    kernels::paper_kernels().iter().skip(3).take(3).for_each(|input| drop(machine::check(input)));
}

#[test]
fn gemm_row_agrees_in_every_machine_cell() {
    kernels::paper_kernels().iter().skip(6).for_each(|input| drop(machine::check(input)));
}

#[test]
fn ebnn_batch_agrees_in_every_set_cell() {
    set::check(&kernels::ebnn_set());
}

#[test]
fn gemm_rows_agree_in_every_set_cell() {
    set::check(&kernels::gemm_set());
}

/// The serve layer, one test per serving engine.
#[test]
fn ebnn_serving_keeps_the_serve_contract_in_every_cell() {
    let side = serve::ebnn_side();
    serve::inputs().iter().for_each(|input| serve::check(&side, input));
}

#[test]
fn gemm_serving_keeps_the_serve_contract_in_every_cell() {
    let side = serve::yolo_side();
    serve::inputs().iter().for_each(|input| serve::check(&side, input));
}

/// What a hand-written input's reference run must show.
type Expect = fn(&Input, &Aftermath);

/// Hand-written inputs, each on a few tasklet counts, with what their
/// reference runs must show: lockstep ALU loops, uniform and diverging
/// through the tasklet id; `jal`/`jr` calls; a DMA-stall-heavy stream; the
/// `sync_heavy_16t` bench's mutex-guarded counter; subroutine bursts in
/// sole mode; a deadlock after fast-forwarded work; and a kernel touching
/// every attribution path (DMA, a burst, a barrier, a mutex, a loop).
pub fn hand_written() -> Vec<(&'static str, &'static [usize], &'static str, Expect)> {
    fn completed(a: &Aftermath) -> &RunResult {
        a.outcome.as_ref().expect("completes")
    }
    vec![
        (
            "lockstep loop",
            &[1, 11, 16],
            "movi r1, 3000\nmovi r2, 0\ntop: addi r2, r2, 3\naddi r1, r1, -1\n\
             bne r1, r0, top\ntrace r2\nhalt\n",
            |input, a| {
                let trace = &completed(a).trace;
                assert_eq!(trace.len(), input.tasklets);
                assert!(trace.iter().all(|&(_, v)| v == 9_000), "{trace:?}");
            },
        ),
        (
            "diverging loop",
            &[2, 11],
            "movi r1, 500\nmovi r2, 0\ntop: me r3\nadd r2, r2, r3\naddi r2, r2, 1\n\
             addi r1, r1, -1\nbne r1, r0, top\ntrace r2\nhalt\n",
            |_, a| {
                for &(t, v) in &completed(a).trace {
                    assert_eq!(v, 500 * (t as u32) + 500, "tasklet {t} retired the wrong sum");
                }
            },
        ),
        (
            "jal/jr",
            &[1, 3, 11],
            "movi r5, 10\nagain: jal r7, leaf\naddi r5, r5, -1\nbne r5, r0, again\n\
             trace r6\nhalt\nleaf: addi r6, r6, 7\nxor r6, r6, r5\njr r7\n",
            |input, a| assert_eq!(completed(a).trace.len(), input.tasklets),
        ),
        (
            "DMA stream",
            &[1, 2, 4, 8],
            "me r1\nlsli r1, r1, 10\nmovi r2, 0\nmovi r3, 1024\nmovi r5, 20\n\
             top: mram.read r1, r2, r3\naddi r2, r2, 1024\naddi r5, r5, -1\n\
             xor r6, r6, r5\nbne r5, r0, top\nmram.write r1, r2, r3\nhalt\n",
            |input, a| {
                let r = completed(a);
                let transfers = input.tasklets as u64 * 21;
                assert_eq!((r.dma_transfers, r.dma_bytes), (transfers, transfers * 1024));
                assert!(r.dma_cycles > r.instructions, "DMA dominates");
                assert!(r.idle_cycles > 0, "stalls leave idle issue slots");
            },
        ),
        (
            "mutex counter",
            &[16],
            "movi r5, 200\ntop: mutex.lock 1\nlw r2, r0, 64\naddi r2, r2, 1\nsw r0, 64, r2\n\
             mutex.unlock 1\naddi r5, r5, -1\nbne r5, r0, top\nbarrier\nhalt\n",
            |input, a| {
                assert_eq!(completed(a).trace, vec![]);
                let before = input.start.wram.read_u32(64).unwrap();
                let bumps = 200 * input.tasklets as u32;
                assert_eq!(a.wram.read_u32(64).unwrap(), before.wrapping_add(bumps));
            },
        ),
        (
            "subroutine bursts",
            &[1],
            "movi r1, 1000\nmovi r2, 37\ncall __divsi3 r3, r1, r2\ncall __mulsi3 r4, r3, r2\n\
             trace r4\nhalt\n",
            |_, a| assert_eq!(completed(a).trace, vec![(0, (1000 / 37) * 37)]),
        ),
        (
            "deadlock",
            &[2, 5, 12],
            "me r1\nbne r1, r0, others\nmutex.lock 0\nbarrier\nothers: addi r2, r2, 5\n\
             xor r3, r3, r2\nmutex.lock 0\nbarrier\nhalt\n",
            |input, a| {
                let on_mutex = input.tasklets - 1;
                assert_eq!(a.outcome, Err(Error::Deadlock { at_barrier: 1, on_mutex }));
            },
        ),
        ("attribution paths", &[1, 2, 4, 11], MIXED, |_, a| assert!(completed(a).cycles > 0)),
    ]
}

/// A kernel exercising every attribution path: DMA transfers, a
/// subroutine burst, a barrier, a mutex-guarded section and a loop.
pub const MIXED: &str = "me r0\nmovi r1, 64\nmovi r2, 0\nmram.read r2, r2, r1\nlw r3, r2, 0\n\
    call __mulsi3 r4, r3, r1\nbarrier\nmutex.lock 0\nmovi r5, 128\nlw r6, r5, 0\n\
    add r6, r6, r4\nsw r5, 0, r6\nmutex.unlock 0\nmovi r7, 20\nspin: addi r7, r7, -1\n\
    bne r7, r2, spin\nmram.write r2, r2, r1\nhalt\n";

#[test]
fn hand_written_programs_agree_in_every_machine_cell() {
    for (name, tasklet_counts, source, expect) in hand_written() {
        for &tasklets in tasklet_counts {
            let program = assemble(source).expect(name);
            let g = Generated { program, tasklets, budget: DEFAULT_CYCLE_BUDGET };
            let input = Input {
                name: format!("{name}, {tasklets} tasklets"),
                ..Input::generated(g, 500, 3)
            };
            expect(&input, &machine::check(&input));
        }
    }
}
