//! Hand-written checks the identity cells cannot make: that replay fires
//! exactly when the read set matches, that the fast tier really reaches
//! each batched mode on the shapes built for it (and agrees with the
//! reference at every budget there), how attribution merges and folds,
//! how long a replay table lives, that host copies and restores need
//! no invalidation hook, that the fault-class axis reaches every fault and
//! every outcome, which DPU's error a faulting launch names, that link
//! faults never reach staged memory, that the idle DPUs of a launch share
//! one recorded result, that a per-DPU scatter is a per-DPU copy loop,
//! and that MRAM pages shared by set-wide writes and WRAM images shared
//! by replayed launches are invisible.

use crate::generate::{racy_program, random_programs, Disruption, Event, Gate, RacyOp};
use crate::machine::{run, seeded, Aftermath, Cell, Faults, Run, Watch};
use crate::set::{self, Policy, SetInput};
use dpu_sim::asm::assemble;
use dpu_sim::exec::is_superblock_op;
use dpu_sim::isa::{Instr, Program, Reg, Width};
use dpu_sim::{
    CycleAttribution, DpuId, Engine, EngineStats, Error, ExecProgram, FaultConfig, Machine,
    Observe, RunSpec, MRAM_PAGE_BYTES,
};
use ebnn::codegen::Tier1Engine;
use ebnn::{EbnnModel, ModelConfig};
use pim_host::{
    DpuSet, HostError, LaunchReport, LaunchSpec, LinkFaultPlan, LinkPolicy, ResilientLaunchPolicy,
    ServeHealth,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The plain launch of `exec` on a copy of `machine` on `engine`.
fn plain(exec: &ExecProgram, machine: &Machine, tasklets: usize, engine: Engine) -> Run {
    run(exec, machine, tasklets, u64::MAX, Cell::plain(Some(engine)), 0)
}

/// The reference loop, the fast tier and the ambient engine agree on
/// `program` under `budget`, unarmed and armed with a seeded plan, on a
/// [`seeded`] machine; returns the reference outcome and the fast tier's
/// residency.
fn agree(program: &Program, tasklets: usize, budget: u64) -> (Aftermath, EngineStats) {
    let exec = ExecProgram::decode(program);
    let machine = seeded(0, false);
    let cell = |engine, faults| Cell { engine, faults, ecc: false, watch: Watch::Off };
    let at = |engine, faults| run(&exec, &machine, tasklets, budget, cell(engine, faults), 7);
    let [unarmed, _] = [Faults::Unarmed, Faults::Seeded].map(|faults| {
        let reference = at(Some(Engine::Reference), faults).after;
        let [fast, ambient] = [Some(Engine::Superblock), None].map(|engine| at(engine, faults));
        for (r, engine) in [(&fast, "superblock"), (&ambient, "ambient")] {
            r.after.assert_is(&reference, &format!("{engine} {faults:?}, budget {budget}"));
        }
        (reference, fast.stats)
    });
    unarmed
}

/// [`agree`] under every budget of `budgets`, all of which cut the run.
fn agree_at_every_budget(program: &Program, tasklets: usize, budgets: std::ops::Range<u64>) {
    for budget in budgets {
        let (cut, _) = agree(program, tasklets, budget);
        assert_eq!(cut.outcome, Err(dpu_sim::Error::CycleBudgetExceeded { budget }));
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

fn event(iter: i32, tasklet: i32, stride: i32, working: usize, skewed: bool) -> Event {
    Event { iter, tasklet, stride, working, skewed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Superblock partitioning round-trips on random programs: the pieces
    /// are contiguous and cover the stream, multi-instruction pieces hold
    /// only superblock ops, and every memoized histogram covers its block.
    #[test]
    fn superblock_partition_round_trips(g in random_programs()) {
        let instrs = &g.program.instrs;
        let exec = ExecProgram::decode(&g.program);
        let sb = exec.superblocks();
        let mut next = 0u32;
        for (start, len) in sb.partition() {
            assert!(start == next && len >= 1, "pieces are contiguous");
            let range = start as usize..(start + len) as usize;
            let all_pure = instrs[range].iter().all(is_superblock_op);
            assert!(len == 1 || all_pure, "multi-instruction pieces are superblocks");
            assert_eq!(all_pure, sb.len_at(start as usize) > 0);
            next = start + len;
        }
        assert_eq!(next as usize, instrs.len(), "pieces cover the stream");
        for meta in sb.blocks() {
            let total: u32 = meta.op_counts.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, meta.len, "memoized histogram covers the block");
        }
    }
}

/// Fewer runnable tasklets than pipeline stages rotate in closed form too
/// (idle cycles every round), launched on their own or as the working few
/// of a full DPU's 16.
#[test]
fn undersaturated_rotations_occur() {
    for (launched, working) in [(2, 2), (3, 3), (6, 6), (10, 10), (16, 1), (16, 6), (16, 15)] {
        let program = racy_program(&quiet_body(), 400, event(150, 0, 1, working, false));
        let (reference, s) = agree(&program, launched, u64::MAX);
        let result = reference.outcome.expect("completes");
        assert!(result.idle_cycles > 0 || working >= 11, "{working} tasklets leave idle slots");
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
    let stream = Disruption::MramRead;
    body.push(RacyOp::Gated { when: Gate::Always, only_event_tasklet: true, op: stream });
    for (launched, working, streamer) in [(2, 2, 1), (4, 4, 0), (7, 7, 3), (12, 12, 5), (16, 6, 2)]
    {
        let program = racy_program(&body, 300, event(1, streamer, 1, working, false));
        let (reference, s) = agree(&program, launched, u64::MAX);
        let result = reference.outcome.expect("completes");
        assert!(result.dma_transfers >= 300);
        assert_eq!(s.slots(), result.instructions);
        // (Eleven computing tasklets are an exact fit, not under-saturated.)
        if working < 12 {
            assert!(s.undersaturated_slots * 2 > result.instructions, "{working} tasklets: {s:?}");
        }
        assert!(s.reference_slots * 4 < result.instructions, "{working} tasklets: {s:?}");
    }
}

/// A budget that runs out on every slot — and in every idle gap — of
/// three under-saturated rounds, or of three rounds of a verified orbit
/// (period = the working count), cuts every tier identically, fault-armed
/// runs included.
#[test]
fn budget_cut_on_every_slot_of_a_batched_round_agrees() {
    for (launched, working, skewed) in
        [(5, 5, false), (16, 6, false), (12, 12, true), (16, 13, true), (14, 14, true)]
    {
        let program = racy_program(&quiet_body(), 120, event(40, 1, 2, working, skewed));
        let (reference, s) = agree(&program, launched, u64::MAX);
        let full = reference.outcome.expect("completes");
        let share = if skewed { s.orbit_slots } else { s.undersaturated_slots };
        assert!(share * 10 > full.instructions * 8, "{s:?}");
        let round = if skewed { working as u64 } else { 11 };
        agree_at_every_budget(&program, launched, full.cycles / 2..full.cycles / 2 + 3 * round + 1);
    }
    // Subroutine bursts fast-forward in sole mode; a budget that runs out
    // inside one surfaces at the identical pick.
    let (_, tasklet_counts, source, _) = crate::hand_written()[5];
    let program = assemble(source).unwrap();
    let full = agree(&program, tasklet_counts[0], u64::MAX).0.outcome.expect("completes");
    for budget in (0..full.cycles + 12).step_by(7) {
        agree(&program, 1, budget);
    }
}

/// Every steady state a served DPU can be in has a batched mode: 1 to 16
/// working tasklets, launched on their own or as part of a full DPU's 16,
/// entering the loop a DMA apart. Twelve and more settle into a permuted
/// rotation only a verified orbit covers; a count no probe covers would
/// run pick by pick and fail the 1 % bound here.
#[test]
fn every_working_count_behind_a_dma_skew_runs_batched() {
    for working in 1..=16 {
        for launched in if working == 16 { vec![16] } else { vec![working, 16] } {
            let program = racy_program(&quiet_body(), 400, event(150, 0, 1, working, true));
            let (reference, s) = agree(&program, launched, u64::MAX);
            let instructions = reference.outcome.expect("completes").instructions;
            let label = format!("{working} of {launched}: {s:?}");
            assert_eq!(s.slots(), instructions, "{label}");
            assert!(s.reference_slots * 100 <= instructions, "{label}");
            if working > 11 {
                assert!(s.orbit_slots * 10 > instructions * 8, "{label}");
            } else {
                assert_eq!(s.orbit_probes, 0, "{label}: closed forms cover {working}");
            }
        }
    }
}

/// Every chunk outcome — commit, and rollback at a boundary op, a WRAM
/// conflict, a `trace` and a fault — actually occurs on the fast tier,
/// so the racy inputs cannot silently stop reaching chunk mode.
#[test]
fn every_chunk_outcome_occurs() {
    let tasklets = 16;
    let stats_of = |extra: Option<RacyOp>| {
        let mut body = quiet_body();
        body.extend(extra);
        let program = racy_program(&body, 400, event(150, 9, 1, tasklets, false));
        let (reference, s) = agree(&program, tasklets, u64::MAX);
        (s, reference.outcome)
    };
    let gated = |op| Some(RacyOp::Gated { when: Gate::EventIter, only_event_tasklet: true, op });
    // Gated by iteration only: with one tasklet storing, nobody else would
    // touch the word inside the same chunk.
    let every = |op| Some(RacyOp::Gated { when: Gate::EventIter, only_event_tasklet: false, op });

    let (quiet, outcome) = stats_of(None);
    let result = outcome.expect("quiet program completes");
    assert!(quiet.chunk_commits > 0, "{quiet:?}");
    assert!(quiet.chunk_slots * 10 > result.instructions * 9, "{quiet:?}");
    // (The epilogue's `trace` and `halt` do roll chunks back.)
    assert_eq!((quiet.chunk_aborts_conflict, quiet.chunk_aborts_fault), (0, 0), "{quiet:?}");

    let (s, outcome) = stats_of(every(Disruption::SameByteStore(0)));
    assert!(outcome.is_ok() && s.chunk_aborts_conflict > 0 && s.chunk_commits > 0, "{s:?}");
    let (s, _) = stats_of(every(Disruption::SameWordStore(1)));
    assert!(s.chunk_aborts_conflict > 0, "same word, different byte: {s:?}");
    let (s, _) = stats_of(every(Disruption::NeighbourLoad(2, 0)));
    assert!(s.chunk_aborts_conflict > 0, "load of a word its owner stores: {s:?}");
    let (s, _) = stats_of(every(Disruption::NeighbourStore(2, 1)));
    assert!(s.chunk_aborts_conflict > 0, "store to a word its owner stores: {s:?}");

    let (s, outcome) = stats_of(gated(Disruption::Trace(0)));
    assert!(s.chunk_aborts_trace > quiet.chunk_aborts_trace, "{s:?}");
    assert_eq!(outcome.expect("completes").trace.len(), tasklets + 1);
    let (s, outcome) = stats_of(gated(Disruption::MramRead));
    assert!(s.chunk_aborts_boundary > quiet.chunk_aborts_boundary && outcome.is_ok(), "{s:?}");
    let (s, outcome) = stats_of(gated(Disruption::WildLoad));
    assert!(s.chunk_aborts_fault > 0 && s.chunk_commits > 0, "{s:?}");
    assert!(matches!(outcome, Err(dpu_sim::Error::OutOfBounds { .. })), "{outcome:?}");
}

/// Generated racy inputs on four tasklets or more retire lane slots on
/// the fast tier, several lanes to a decode, so the oracle's machine
/// cells keep exercising lane groups.
#[test]
fn racy_inputs_with_many_tasklets_run_as_lanes() {
    let mut rng = proptest::test_runner::deterministic_rng("racy inputs run as lanes");
    let strategy = crate::generate::long_racy_programs();
    let (mut inputs, mut laned, mut total) = (0, 0, EngineStats::default());
    while inputs < 32 {
        let g = strategy.generate(&mut rng);
        if g.tasklets < 4 {
            continue;
        }
        let exec = ExecProgram::decode(&g.program);
        let s = plain(&exec, &seeded(0, false), g.tasklets, Engine::Superblock).stats;
        inputs += 1;
        laned += usize::from(s.chunk_lane_slots > 0);
        total += s;
    }
    assert!(laned * 4 >= inputs * 3, "{laned} of {inputs} inputs retired lane slots");
    assert!(total.chunk_lane_slots >= 4 * total.chunk_lane_steps, "{total:?}");
}

/// A run long enough to wrap the shadow tags' chunk epoch (one epoch per
/// chunk attempt, 511 before the tag array is cleared): a perf read every
/// ~30 instructions keeps chunks short, so commits and boundary rollbacks
/// alternate many hundreds of times.
#[test]
fn chunk_epoch_wraps_mid_run() {
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
    let perf = Disruption::PerfRead(2);
    body.push(RacyOp::Gated { when: Gate::Always, only_event_tasklet: false, op: perf });
    let program = racy_program(&body, 1400, event(1, 0, 1, 11, false));
    let (_, s) = agree(&program, 11, u64::MAX);
    assert!(s.chunk_commits > 100 && s.chunk_commits + s.chunk_aborts_boundary > 530, "{s:?}");
}

/// The paper's kernels reach the batched modes built for them: at most a
/// quarter of their slots go one at a time, the 6-image shapes rotate
/// under-saturated, the 12- to 14-image shapes on a verified orbit. Every
/// eBNN shape retires lane slots, and a full DPU's 16 images share a
/// decode 8 lanes at a time or more, in lane groups that retire 90 % of
/// its chunk slots.
#[test]
fn paper_kernels_take_their_batched_modes() {
    for input in crate::kernels::paper_kernels() {
        let exec = ExecProgram::decode(&input.program);
        let r = plain(&exec, &input.start, input.tasklets, Engine::Superblock);
        let (name, s) = (&input.name, r.stats);
        let instructions = r.after.outcome.expect("completes").instructions;
        assert!(s.reference_slots * 4 < instructions, "{name}: {s:?}");
        if name.starts_with("eBNN") {
            assert!(s.chunk_lane_slots > 0, "{name}: {s:?}");
        }
        if name == "eBNN x16" {
            assert!(s.chunk_lane_slots >= 8 * s.chunk_lane_steps, "{name}: {s:?}");
            assert!(s.chunk_lane_slots * 10 >= s.chunk_slots * 9, "{name}: {s:?}");
        }
        if name.starts_with("eBNN x6") {
            assert!(s.undersaturated_slots * 10 > instructions * 9, "{name}: {s:?}");
        }
        if ["x12", "x13", "x14"].iter().any(|n| name.contains(n)) {
            assert!(s.orbit_slots * 10 > instructions * 9, "{name}: {s:?}");
            assert!(s.reference_slots * 100 <= instructions, "{name}: {s:?}");
        }
    }
}

/// Reads 8 MRAM bytes at 64 (by DMA) and the WRAM word at 0x80 (left by
/// "the previous launch"), writes their sum and the word to WRAM 0x88 and
/// from there to MRAM 128.
const PROBE: &str = "movi r1, 0x40\nmovi r2, 64\nmovi r3, 8\nmram.read r1, r2, r3\nlw r4, r1, 0\n\
    lw r5, r0, 0x80\nadd r4, r4, r5\nsw r0, 0x88, r4\nsw r0, 0x8c, r5\nmovi r1, 0x88\n\
    movi r2, 128\nmram.write r1, r2, r3\ntrace r4\nhalt\n";

/// `source` decoded, with a recording of its run on [`seeded`] memory in
/// the table (first sighting, then recorded).
fn recorded(source: &str, tasklets: usize) -> ExecProgram {
    let exec = ExecProgram::decode(&assemble(source).unwrap());
    let first = plain(&exec, &seeded(0, false), tasklets, Engine::Superblock).stats;
    assert_eq!((first.replay_records, first.replay_hits), (0, 0), "first sighting runs plain");
    let second = plain(&exec, &seeded(0, false), tasklets, Engine::Superblock).stats;
    assert_eq!((second.replay_records, second.replay_abandoned), (1, 0), "{second:?}");
    exec
}

/// The fast tier on `machine` leaves what the reference loop leaves;
/// returns the fast tier's run.
fn replay_agrees(exec: &ExecProgram, machine: &Machine, tasklets: usize) -> Run {
    let reference = plain(exec, machine, tasklets, Engine::Reference).after;
    let fast = plain(exec, machine, tasklets, Engine::Superblock);
    fast.after.assert_is(&reference, "fast tier");
    fast
}

/// A replay fires exactly when every byte the recorded run read first is
/// unchanged: one flipped byte inside the MRAM or the WRAM read span
/// forces a real run, bytes the run never read (or overwrote before
/// reading) may change freely.
#[test]
fn replay_fires_exactly_when_the_read_set_matches() {
    let exec = recorded(PROBE, 1);
    let check = |label: &str, expect_hit: bool, disturb: &dyn Fn(&mut Machine)| {
        let mut machine = seeded(0, false);
        disturb(&mut machine);
        let r = replay_agrees(&exec, &machine, 1);
        let instructions = r.after.outcome.expect("completes").instructions;
        assert_eq!(r.stats.replay_hits, u64::from(expect_hit), "{label}: {:?}", r.stats);
        assert_eq!(r.stats.slots(), instructions, "{label}");
        assert_eq!(r.stats.replayed_slots, if expect_hit { instructions } else { 0 }, "{label}");
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
        let exec = ExecProgram::decode(&assemble(source).unwrap());
        plain(&exec, &seeded(0, false), 1, Engine::Superblock);
        let second = plain(&exec, &seeded(0, false), 1, Engine::Superblock).stats;
        let mut machine = seeded(0, false);
        disturb(&mut machine);
        (second, replay_agrees(&exec, &machine, 1).stats)
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
    // The same through the DMA engine: 8 bytes out of WRAM, 4 of them stored.
    let partial_dma = "sw r0, 0x88, r0\nmovi r1, 0x88\nmovi r3, 8\nmram.write r1, r0, r3\nhalt\n";
    for source in [partial_overlap, partial_dma] {
        let (second, third) = run(source, &|_| {});
        assert_eq!((second.replay_records, second.replay_abandoned), (0, 1), "{second:?}");
        assert_eq!((third.replay_hits, third.replay_abandoned), (0, 1), "{third:?}");
    }
}

/// A budget below the recorded run's cycles never replays: the run is cut
/// with the same partial state as on a program without a table. A budget
/// of exactly the recorded cycles does.
#[test]
fn budget_below_the_recorded_cycles_cuts_the_run_for_real() {
    let exec = recorded(PROBE, 2);
    let machine = seeded(0, false);
    let full = plain(&exec, &machine, 2, Engine::Reference).after.outcome.expect("completes");
    let no_table = ExecProgram::decode(&assemble(PROBE).unwrap());
    for budget in [0, 11, full.cycles / 2, full.cycles - 1, full.cycles] {
        let at = |exec, engine| run(exec, &machine, 2, budget, Cell::plain(Some(engine)), 0);
        let reference = at(&exec, Engine::Reference).after;
        at(&no_table, Engine::Superblock).after.assert_is(&reference, "no table");
        let r = at(&exec, Engine::Superblock);
        r.after.assert_is(&reference, &format!("budget {budget}"));
        assert_eq!(r.stats.replay_hits, u64::from(budget == full.cycles), "budget {budget}");
        if budget < full.cycles {
            assert_eq!(r.after.outcome, Err(dpu_sim::Error::CycleBudgetExceeded { budget }));
        }
    }
}

/// Recordings are keyed: another tasklet count or parameter set never
/// replays this one's, and the reference loop never replays at all.
#[test]
fn recordings_are_not_shared_across_tasklets_or_params() {
    let exec = recorded(PROBE, 2);
    let hits = |tasklets: usize, engine: Engine, machine: Machine| {
        let reference = plain(&exec, &machine, tasklets, Engine::Reference).after;
        let r = plain(&exec, &machine, tasklets, engine);
        r.after.assert_is(&reference, "keyed");
        r.stats.replay_hits
    };
    let announced = || {
        let fresh = seeded(0, false);
        let mut m = Machine::new(dpu_sim::DpuParams::announced());
        (m.wram, m.mram) = (fresh.wram, fresh.mram);
        m
    };
    assert_eq!(hits(3, Engine::Superblock, seeded(0, false)), 0, "other tasklet count");
    assert_eq!(hits(2, Engine::Superblock, announced()), 0, "other device parameters");
    assert_eq!(hits(2, Engine::Reference, seeded(0, false)), 0, "reference never replays");
    assert_eq!(hits(2, Engine::Superblock, seeded(0, false)), 1);
    // Each miss was a first sighting of its own key, run plain.
    assert_eq!(hits(3, Engine::Superblock, seeded(0, false)), 0, "second sighting records");
    assert_eq!(hits(3, Engine::Superblock, seeded(0, false)), 1);
}

/// A table lives in its decoded program. `Machine::run` decodes per call,
/// so its table never sees a key twice, and neither does a launch of an
/// ad hoc program; a kernel that always outruns the slot cap never opens
/// a recording on a loaded program either.
#[test]
fn a_table_lives_and_dies_with_its_decoded_program() {
    let mut m = seeded(0, false);
    for _ in 0..3 {
        m.run(&assemble(PROBE).unwrap(), 2).unwrap();
    }
    let s = m.engine_stats();
    assert_eq!((s.replay_hits, s.replay_records, s.replayed_slots), (0, 0, 0));

    let long = assemble("movi r1, 600\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n").unwrap();
    let exec = ExecProgram::decode(&long);
    let mut m = seeded(0, false);
    for _ in 0..3 {
        assert!(m.run_exec_engine(&exec, 1, Engine::Superblock).unwrap().instructions > 1024);
    }
    let s = m.engine_stats();
    assert_eq!((s.replay_hits, s.replay_records, s.replay_abandoned), (0, 0, 0), "{s:?}");
    assert!(s.reference_slots < 64, "every run kept its batched paths: {s:?}");

    let mut set = staged_set(usize::MAX);
    let program = double_program();
    for n in 1..=3 {
        let before = set.system().engine_stats();
        set.launch(&program, TASKLETS).unwrap();
        let stats = set.system().engine_stats().since(&before);
        assert_eq!((stats.replay_hits, stats.replay_records), (8, 3), "launch {n}");
    }
}

const DPUS: usize = 12;
const TASKLETS: usize = 3;

/// `y = x + x` by DMA, on tasklet 0; the others only meet it at the
/// barrier. Reads `x`, never reads `y`: relaunching without restaging
/// finds the same read set.
fn double_program() -> Program {
    assemble(
        "me r1\nbne r1, r0, wait\nmovi r1, 0x40\nmovi r2, 0\nmovi r3, 8\nmram.read r1, r2, r3\n\
         lw r4, r1, 0\nadd r4, r4, r4\nsw r1, 0, r4\nmovi r2, 8\nmram.write r1, r2, r3\n\
         wait: barrier\nhalt\n",
    )
    .unwrap()
}

/// A set with the program loaded and `x` staged: most DPUs hold the same
/// value (the idle shape), two hold their own. The fast tier is pinned:
/// the reference loop never replays.
fn staged_set(threshold: usize) -> DpuSet {
    let mut set = DpuSet::allocate(DPUS).unwrap();
    set.set_parallel_threshold(Some(threshold));
    set.set_engine(Some(Engine::Superblock));
    set.define_symbol("x", 8).unwrap();
    set.define_symbol("y", 8).unwrap();
    set.copy_scalar_to("x", 21).unwrap();
    set.copy_to_dpu(DpuId(3), "x", 0, &1000u64.to_le_bytes()).unwrap();
    set.copy_to_dpu(DpuId(7), "x", 0, &77u64.to_le_bytes()).unwrap();
    set.load(&double_program()).unwrap();
    set
}

/// Launch `set`, plainly or under a zero-fault policy: the result and the
/// launch's residency.
fn launch(set: &mut DpuSet, zero_fault: bool) -> (LaunchReport, EngineStats) {
    let before = set.system().engine_stats();
    let policy = ResilientLaunchPolicy::default();
    let spec = LaunchSpec { policy: zero_fault.then_some(&policy), ..LaunchSpec::loaded(TASKLETS) };
    let result = set.launch_with(spec).unwrap().0.served().unwrap();
    (result, set.system().engine_stats().since(&before))
}

/// One table serves every DPU and every worker of a set: within a launch
/// the first DPU of a key runs plain, the second is recorded and the rest
/// already replay — under a zero-fault policy too, which is a plain
/// launch.
#[test]
fn one_table_is_shared_by_every_dpu_and_worker() {
    for threshold in [usize::MAX, 1] {
        let mut set = staged_set(threshold);
        for n in 1..=5 {
            let (_, stats) = launch(&mut set, n % 2 == 0);
            let replays = (stats.replay_hits, stats.replay_records);
            match (n, threshold) {
                // DPU 0 runs plain, DPU 1 is recorded, and so is the first
                // sight of each other `x`; everyone else replays.
                (1, usize::MAX) => assert_eq!(replays, (8, 3), "{stats:?}"),
                // Forked workers race for the first sightings: launch 1 can
                // be all plain and launch 2 all recordings.
                (1 | 2, 1) => assert!(replays.0 + replays.1 <= DPUS as u64, "{stats:?}"),
                _ => assert_eq!(replays, (DPUS as u64, 0), "launch {n}: {stats:?}"),
            }
        }
        assert_eq!(set.copy_scalar_from(DpuId(3), "y").unwrap(), 2000);
    }
}

/// Host copies, snapshot restores and raw bit flips need no hook: a
/// recording is checked against each DPU's real memory on every use.
#[test]
fn host_copies_restores_and_raw_flips_need_no_invalidation() {
    let mut reference = staged_set(usize::MAX);
    reference.set_engine(Some(Engine::Reference));
    let mut set = staged_set(usize::MAX);
    let (golden, ref_golden) = (set.snapshot(), reference.snapshot());
    let mut step = |label: &str, hits: u64, change: &dyn Fn(&mut DpuSet)| {
        change(&mut set);
        change(&mut reference);
        let (expected, _) = launch(&mut reference, false);
        let (result, stats) = launch(&mut set, false);
        assert_eq!(result, expected, "{label}");
        for ((id, m), (_, r)) in set.system().iter().zip(reference.system().iter()) {
            assert!(m.wram == r.wram && m.mram == r.mram && m.dma == r.dma, "{label}: {id:?}");
        }
        assert_eq!(stats.replay_hits, hits, "{label}: {stats:?}");
    };
    step("first launch", 8, &|_| {});
    step("second launch", 12, &|_| {});
    step("copy_to_dpu of new input", 11, &|s| {
        s.copy_to_dpu(DpuId(5), "x", 0, &5u64.to_le_bytes()).unwrap();
    });
    step("copy_to of the recorded input", 12, &|s| s.copy_scalar_to("x", 21).unwrap());
    step("copy_to outside the read set", 12, &|s| s.copy_scalar_to("y", 0xdead).unwrap());
    step("raw bit flip in one DPU's input", 11, &|s| {
        s.system_mut().dpu_mut(DpuId(9)).mram.flip_bit_raw(2, 6).unwrap();
    });
    let restore = |s: &mut DpuSet| {
        let snap = if s.engine() == Some(Engine::Reference) { &ref_golden } else { &golden };
        s.restore(snap).unwrap();
    };
    step("restored: the staged inputs are back", 12, &restore);
}

/// Attribution accumulates across runs and merges: two runs into one
/// attribution equal one attribution per run merged afterwards; merging
/// an empty one is a no-op either way. The folded stacks and the hot
/// blocks of a run both sum to its makespan, and the `__mulsi3` burst is
/// attributed at its call site, once per tasklet.
#[test]
fn attribution_merges_and_folds() {
    let exec = ExecProgram::decode(&assemble(crate::MIXED).unwrap());
    let profiled = |tasklets, attr: &mut CycleAttribution| {
        let spec = RunSpec { observe: Observe::Profile(attr), ..RunSpec::new(tasklets) };
        Machine::default().execute(&exec, spec).expect("completes")
    };
    let mut accumulated = CycleAttribution::new();
    let (r1, r2) = (profiled(2, &mut accumulated), profiled(11, &mut accumulated));
    assert_eq!((accumulated.total_cycles(), accumulated.runs()), (r1.cycles + r2.cycles, 2));
    let (mut a1, mut a2) = (CycleAttribution::new(), CycleAttribution::new());
    profiled(2, &mut a1);
    profiled(11, &mut a2);
    a1.merge(&a2);
    assert_eq!(a1, accumulated);
    let mut empty = CycleAttribution::new();
    empty.merge(&a1);
    assert_eq!(empty, a1);
    a1.merge(&CycleAttribution::new());
    assert_eq!(a1, empty);

    for tasklets in [1, 2, 4, 11] {
        let mut attr = CycleAttribution::new();
        profiled(tasklets, &mut attr);
        let mul = attr.subroutines().find(|(_, sub, _)| *sub == "__mulsi3").expect("attributed");
        assert_eq!(mul.2.calls, tasklets as u64);
        assert!(mul.2.cycles > 0);
    }
    let mut attr = CycleAttribution::new();
    let result = profiled(4, &mut attr);
    // Every line: "dpu0;block_<start>_<len>[;<symbol>] <count>".
    let folded = attr.folded("dpu0");
    let mut folded_total = 0u64;
    for line in folded.lines() {
        let (frames, count) = line.rsplit_once(' ').expect("count field");
        assert!(frames.starts_with("dpu0;block_"), "bad frame path {line:?}");
        folded_total += count.parse::<u64>().expect("numeric count");
    }
    assert_eq!(folded_total, result.cycles);
    assert!(folded.contains(";__mulsi3 "), "subroutine frame missing:\n{folded}");
    let top = attr.top_blocks(3);
    assert!(top.len() <= 3);
    assert!(top.windows(2).all(|w| w[0].cycles >= w[1].cycles), "not sorted: {top:?}");
    let hottest_total: u64 = attr.top_blocks(usize::MAX).iter().map(|b| b.cycles).sum();
    assert_eq!(hottest_total, result.cycles);
}

/// The chaos soak's kernel through the fault-class axis, plus three
/// scenarios composed from the campaign's table: `offline` with DPU 3
/// offline on every attempt, and two pairs of classes at certainty (a flip
/// riding a failing DMA; a hang on an offline DPU). Together they fire
/// every fault kind and reach every serve health — a survivor serving a
/// quarantined DPU's work among them, its answer checked by
/// `set::check_with` like every served DPU's. A flip is repaired
/// somewhere, and a double flip surfaces as an uncorrectable word. The
/// pairs quarantine every DPU in four attempts each, with nothing left to
/// re-dispatch onto.
#[test]
fn fault_classes_reach_every_kind_and_health() {
    let input = crate::kernels::soak_set();
    let composed = |name, base, config: fn(FaultConfig) -> FaultConfig| {
        Policy::scenario(name, config(set::scenario_config(base, input.seed)))
    };
    let pairs = ["flip + DMA at certainty", "hang + offline at certainty"];
    let mut policies = set::scenarios(input.seed);
    policies.extend([
        composed("offline, DPU 3 forced", "offline", |c| FaultConfig {
            forced_offline: vec![3],
            ..c
        }),
        composed(pairs[0], "bit_flip", |c| FaultConfig {
            bit_flip_prob: 1.0,
            dma_fail_prob: 1.0,
            ..c
        }),
        composed(pairs[1], "hang", |c| FaultConfig { hang_prob: 1.0, dpu_offline_prob: 1.0, ..c }),
    ]);
    let launched = set::check_with(&input, &policies);

    let dpus = input.staged[0].len();
    for l in launched.iter().filter(|l| pairs.contains(&l.policy.as_str())) {
        let r = &l.report;
        assert_eq!(r.quarantined().len(), dpus, "{}: every DPU quarantined", l.policy);
        assert_eq!(r.degraded().count(), 0, "{}: no survivor to re-dispatch onto", l.policy);
        assert_eq!(r.incidents.len(), dpus, "{r:?}");
        assert!(r.incidents.iter().all(|d| d.attempts == 4 && !d.served), "{r:?}");
    }
    let incidents = || launched.iter().flat_map(|l| &l.report.incidents);
    let kinds: BTreeSet<&str> =
        incidents().flat_map(|d| &d.faults).map(|f| f.kind.label()).collect();
    let every = ["dma_fail", "dpu_offline", "mram_bit_flip", "tasklet_hang", "wram_bit_flip"];
    assert_eq!(kinds, BTreeSet::from(every), "fault kinds fired");
    use ServeHealth::{Degraded, Healthy, HealthyAfterRepair, Unserved};
    let healths = || launched.iter().flat_map(|l| (0..dpus).map(|d| l.report.health(d)));
    for health in [Healthy, HealthyAfterRepair, Degraded, Unserved] {
        assert!(healths().any(|h| h == health), "{health:?} never occurs");
    }
    assert!(incidents().any(|d| d.repairs() > 0), "no flip was repaired");
    let double_flips = launched.iter().filter(|l| l.policy == "double_flip" && l.ecc);
    let mut surfaced = double_flips.flat_map(|l| &l.report.incidents);
    assert!(surfaced.any(|d| !d.scrub.uncorrectable.is_empty()), "no uncorrectable word");
}

/// Divides by `scalar - 2` and, on the DPU holding 4, loads from far
/// outside WRAM: on a set whose DPU `i` holds `i + 1`, DPU 1 and DPU 3
/// fault, differently.
const FAULTING: &str = "movi r3, 8\nmram.read r0, r0, r3\nlw r4, r0, 0\naddi r5, r4, -2\n\
    call __divsi3 r6, r4, r5\naddi r7, r4, -4\nbne r7, r0, done\nmovi r8, 0x7fff0000\n\
    lw r9, r8, 0\ndone:\nhalt\n";

/// A faulting launch in every cell of the plain policies: the set layer
/// checks that each plain cell's launch names the first faulting DPU's
/// error in DPU order. Under every policy DPUs 1 and 3 are quarantined,
/// DPU 3 with its own error, nothing is re-dispatched (a deterministic
/// fault follows its image to the survivor), and the launch's error is
/// DPU 1's division by zero.
#[test]
fn the_first_faulting_dpu_in_dpu_order_names_the_error() {
    let program = assemble(FAULTING).unwrap();
    let sets = [false, true].map(|ecc| {
        let mut set = DpuSet::allocate(6).unwrap();
        set.enable_ecc(ecc);
        for (i, (_, dpu)) in set.system_mut().iter_mut().enumerate() {
            dpu.mram.write(0, &(i as u64 + 1).to_le_bytes()).unwrap();
        }
        set.load(&program).unwrap();
        set
    });
    let input = SetInput::staged("DPUs 1 and 3 fault", 3, [&sets[0], &sets[1]], 14, Vec::new());
    for l in set::check_with(&input, &set::plain_policies()) {
        let (r, cell) = (&l.report, format!("{}, ecc={}", l.policy, l.ecc));
        assert_eq!(r.quarantined(), [DpuId(1), DpuId(3)], "{cell}");
        assert_eq!(r.degraded().count(), 0, "{cell}: a deterministic fault follows its image");
        assert!(r.incidents.iter().all(|i| !i.served), "{cell}: every other DPU served");
        let oob = &r.incidents[1].last_error;
        assert!(matches!(oob, Some(HostError::Dpu(Error::OutOfBounds { .. }))), "{cell}: {r:?}");
        let err = r.clone().served().unwrap_err();
        assert!(matches!(err, HostError::Dpu(Error::DivisionByZero { .. })), "{cell}: {err}");
    }
}

/// Link faults on staging: every frame the link corrupts or aborts is
/// retried until one verifies, so both kernel sets stage exactly as over a
/// clean link — with ECC off and on, where the link's error never becomes
/// a storage error — and the same draws give the same statistics.
#[test]
fn link_faults_retry_to_the_clean_staging() {
    let plan = LinkFaultPlan { seed: 5, corrupt_prob: 0.3, fail_prob: 0.1 };
    let link = LinkPolicy { max_retries: 16, ..LinkPolicy::with_faults(plan) };
    for ecc in [false, true] {
        let clean = crate::kernels::kernel_sets_through(ecc, None);
        let [first, second] = [0, 1].map(|_| crate::kernels::kernel_sets_through(ecc, Some(link)));
        for (k, ((clean, _), ((faulty, stats), (_, again)))) in
            clean.iter().zip(first.iter().zip(&second)).enumerate()
        {
            assert_eq!(stats, again, "set {k}, ecc={ecc}: same draws, same statistics");
            assert!(stats.crc_mismatches > 0 && stats.exhausted == 0, "set {k}: {stats:?}");
            for (d, (m, c)) in faulty.iter().zip(clean).enumerate() {
                assert!(m.wram == c.wram && m.mram == c.mram, "set {k}, DPU {d}, ecc={ecc}");
                assert!(m.mram.clone().scrub().clean(), "set {k}, DPU {d}: a storage error");
            }
        }
    }
}

/// A replay hit hands out its recording's own result. An eBNN batch of one
/// image leaves all DPUs but the first idle; once the table holds their
/// recording (two launches: forked workers may spend both on first
/// sightings), every idle DPU replays it, and the report holds one shared
/// result for all of them, equal by value to the reference loop's.
#[test]
fn idle_dpus_share_one_recorded_result() {
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let image = [ebnn::mnist::synth_digit(3, 1)];
    let launch = |engine: &mut Tier1Engine| {
        engine.stage(&model, &image, 0).unwrap();
        let before = engine.set().system().engine_stats();
        let report = engine.launch(false, None).unwrap().0.served().unwrap();
        (report, engine.set().system().engine_stats().since(&before))
    };
    let on = |tier, threshold| {
        let mut engine = Tier1Engine::new(&model, DPUS).unwrap();
        engine.set_mut().set_engine(Some(tier));
        engine.set_mut().set_parallel_threshold(Some(threshold));
        engine
    };
    let (want, _) = launch(&mut on(Engine::Reference, usize::MAX));
    for threshold in [usize::MAX, 1] {
        let mut engine = on(Engine::Superblock, threshold);
        launch(&mut engine);
        launch(&mut engine);
        let (report, stats) = launch(&mut engine);
        assert_eq!(stats.replay_hits, DPUS as u64 - 1, "threshold {threshold}: {stats:?}");
        let idle = &report.per_dpu[1..];
        assert!(idle.iter().all(|r| Arc::ptr_eq(r, &idle[0])), "threshold {threshold}: copies");
        assert_eq!(report, want, "threshold {threshold}: the reference loop's results");
    }
}

/// `DpuSet::copy_each` is one `copy_to_dpu` per DPU in DPU order: the same
/// memory, traffic counts, link draws and statistics and host-trace
/// events, over a plain link and over a faulty checked one; and it refuses
/// a short buffer before any DPU is written.
#[test]
fn copy_each_is_a_copy_to_dpu_per_dpu() {
    let buffers: Vec<Vec<u8>> =
        (0..DPUS).map(|d| (0..24).map(|i| (d * 31 + i * 7) as u8).collect()).collect();
    let plan = LinkFaultPlan { seed: 5, corrupt_prob: 0.3, fail_prob: 0.1 };
    let faulty = LinkPolicy { max_retries: 16, ..LinkPolicy::with_faults(plan) };
    let fresh = |link| {
        let mut set = DpuSet::allocate(DPUS).unwrap();
        set.define_symbol("x", 8).unwrap();
        set.define_symbol("rows", 32).unwrap();
        set.set_link_policy(link);
        set.enable_host_tracing();
        // A broadcast first: the scatter's sequence numbers continue it.
        set.copy_scalar_to("x", 1).unwrap();
        set
    };
    for link in [None, Some(faulty)] {
        let (mut each, mut looped) = (fresh(link), fresh(link));
        // Twice, the second over the first: each DPU's copy lands whole.
        for _ in 0..2 {
            each.copy_each("rows", 8, 16, |dpu| &buffers[dpu.0 as usize]).unwrap();
            for (d, buffer) in buffers.iter().enumerate() {
                looped.copy_to_dpu(DpuId(d as u32), "rows", 8, &buffer[..16]).unwrap();
            }
        }
        for ((d, a), (_, b)) in each.system().iter().zip(looped.system().iter()) {
            assert!(a.mram == b.mram, "{link:?}: DPU {d:?}'s MRAM");
        }
        assert_eq!(each.transfer_stats(), looped.transfer_stats(), "{link:?}");
        assert_eq!(each.link_stats(), looped.link_stats(), "{link:?}");
        assert!(link.is_none() || each.link_stats().crc_mismatches > 0, "no draw fired");
        assert_eq!(each.take_host_trace(), looped.take_host_trace(), "{link:?}");
    }

    let mut set = fresh(None);
    let stats = set.transfer_stats().clone();
    let short =
        |dpu: DpuId| if dpu.0 as usize == DPUS - 1 { &buffers[0][..8] } else { &buffers[0] };
    let err = set.copy_each("rows", 8, 16, short).unwrap_err();
    assert_eq!(err, HostError::XferShort { dpu: DPUS as u32 - 1, len: 8, push: 16 });
    assert_eq!(set.transfer_stats(), &stats, "nothing was counted");
    for d in 0..DPUS as u32 {
        let mut row = [0xAA; 32];
        set.copy_from_dpu(DpuId(d), "rows", 0, &mut row).unwrap();
        assert_eq!(row, [0; 32], "DPU {d}: nothing was written");
    }
}

/// One step of a [`sharing_is_invisible`] sequence. Places `at` are
/// 8-byte words of the `block` symbol: below 24 at its start in the
/// engine's page 0, from 24 at the start of page 1, which it covers
/// whole.
#[derive(Debug, Clone)]
enum Step {
    /// `copy_to` of `words` words at `at`.
    Broadcast {
        at: usize,
        words: usize,
        salt: u8,
    },
    /// `copy_to` of the whole of page 1.
    WholePage {
        salt: u8,
    },
    /// `copy_each` of `words` words at `at`: DPU `d` gets the buffer of
    /// salt `salts[d % len]`, so a short alphabet gives runs of equal
    /// buffers.
    Scatter {
        at: usize,
        words: usize,
        salts: Vec<u8>,
    },
    /// `copy_to_dpu` to DPU `dpu % dpus`.
    One {
        dpu: usize,
        at: usize,
        words: usize,
        salt: u8,
    },
    /// Stage the first `images` images on buffer `buf` (DPU 0 busy, the
    /// rest idle) and launch the eBNN kernel.
    Launch {
        images: usize,
        buf: usize,
    },
    /// Stage the first `images` images on buffer `buf` of DPU `busy %
    /// dpus` alone, every other DPU idle (`n_images = 0`), and launch the
    /// eBNN kernel; three times, so a recording of the idle run exists
    /// and hits.
    IdleHeavy {
        busy: usize,
        images: usize,
        buf: usize,
    },
    Snapshot,
    Restore,
    Ecc(bool),
    Scrub,
    /// `flip_bit_raw` of bit `bit` in word `word` of `block` on DPU
    /// `dpu % dpus`.
    Flip {
        dpu: usize,
        word: usize,
        bit: u8,
    },
}

/// The dense per-DPU model of a set: each DPU's MRAM up to the end of
/// `block` and its WRAM as plain bytes, the ECC state, and the raw flip
/// while the sidecar can still repair it.
#[derive(Debug, Clone)]
struct Shadow {
    mram: Vec<Vec<u8>>,
    wram: Vec<Vec<u8>>,
    ecc: bool,
    /// `(DPU, MRAM address, bit)` of a flip made with ECC on and not yet
    /// repaired, overwritten, or made permanent by turning ECC off.
    flip: Option<(usize, usize, u8)>,
}

impl Shadow {
    fn write(&mut self, dpu: usize, addr: usize, bytes: &[u8]) {
        self.mram[dpu][addr..addr + bytes.len()].copy_from_slice(bytes);
        let span = addr..addr + bytes.len();
        if self.flip.is_some_and(|(d, at, _)| d == dpu && span.contains(&at)) {
            self.flip = None;
        }
    }

    /// Stage the encoded `slots` on DPU `busy` at `params` and buffer
    /// `[img, feat]`, every other DPU idle, and launch `exec` on as many
    /// tasklets: each DPU on the reference loop, from its own bytes.
    fn launch(
        &mut self,
        exec: &ExecProgram,
        params: usize,
        [img, feat]: [usize; 2],
        busy: usize,
        slots: &[Vec<u8>],
    ) {
        for d in 0..self.mram.len() {
            let n = if d == busy { slots.len() } else { 0 };
            let [count, stride] = [n, n.max(1)].map(|v| v as u32);
            let wire = ebnn::codegen::params_wire(count, stride, img as u32, feat as u32);
            self.write(d, params, &wire);
            for (i, slot) in slots[..n].iter().enumerate() {
                self.write(d, img + 128 * i, slot);
            }
            let mut m = Machine::default();
            m.mram.write(0, &self.mram[d]).unwrap();
            m.wram.write(0, &self.wram[d]).unwrap();
            m.run_exec_engine(exec, slots.len(), Engine::Reference).unwrap();
            self.mram[d] = m.mram.to_vec(0, self.mram[d].len()).unwrap();
            self.wram[d] = m.wram.slice(0, m.wram.len()).unwrap().to_vec();
        }
    }
}

/// Sequences per build profile: every launch also runs the reference
/// loop on every DPU.
const SHARING_CASES: u32 = if cfg!(debug_assertions) { 16 } else { 64 };

fn sharing_steps() -> impl Strategy<Value = Vec<Step>> {
    let (at, words, salt) = (0usize..48, 1usize..9, any::<u8>());
    let idle_heavy = (0usize..8, 1usize..4, 0usize..2)
        .prop_map(|(busy, images, buf)| Step::IdleHeavy { busy, images, buf });
    let step = prop_oneof![
        (at.clone(), words.clone(), salt).prop_map(|(at, words, salt)| Step::Broadcast {
            at,
            words,
            salt
        }),
        salt.prop_map(|salt| Step::WholePage { salt }),
        (at.clone(), words.clone(), prop::collection::vec(0u8..3, 1..9))
            .prop_map(|(at, words, salts)| Step::Scatter { at, words, salts }),
        (0usize..8, at, words, salt).prop_map(|(dpu, at, words, salt)| Step::One {
            dpu,
            at,
            words,
            salt
        }),
        (1usize..4, 0usize..2).prop_map(|(images, buf)| Step::Launch { images, buf }),
        idle_heavy.clone(),
        Just(Step::Snapshot),
        Just(Step::Restore),
        any::<bool>().prop_map(Step::Ecc),
        Just(Step::Scrub),
    ];
    let flip =
        (0usize..8, 0usize..8, 0u8..8).prop_map(|(dpu, word, bit)| Step::Flip { dpu, word, bit });
    let placed = (flip, idle_heavy, 0usize..64, 0usize..64);
    (prop::collection::vec(step, 4..14), placed).prop_map(|(mut steps, placed)| {
        let (flip, idle_heavy, at, idle_at) = placed;
        steps.insert(at % (steps.len() + 1), flip);
        steps.insert(idle_at % (steps.len() + 1), idle_heavy);
        steps
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SHARING_CASES))]

    /// Sharing is invisible. Seeded sequences of broadcasts (partial-page and
    /// whole-page), scatters with runs of equal and of distinct buffers,
    /// per-DPU copies, launches of the oracle's eBNN kernel set (idle-heavy
    /// ones, whose idle DPUs replay one recorded run, among them),
    /// snapshots and restores, ECC on and off, scrubs and one raw bit flip
    /// run on 1 to 8 DPUs of a double-buffered engine, whose set-wide writes
    /// share MRAM pages and whose replayed launches share WRAM images.
    /// After every step each DPU's MRAM and WRAM equal a dense per-DPU shadow
    /// — whose launches run on the reference loop from the shadow's own
    /// bytes — so a write or flip through one DPU changed no other; every
    /// sidecar matches its data but for the pending flip; and a set-wide
    /// scrub reports what scrubbing each DPU alone reports.
    ///
    /// Every step runs at the ambient parallel threshold but an idle-heavy
    /// step's launches, which run in DPU order on the calling thread. There
    /// the sharing is exact: when at least three idle DPUs enter the step
    /// holding one WRAM image, at most the first of them leaves it (the run
    /// that finds its key unseen), and the rest replay into one image. So
    /// on the fast tier with ECC off, such a step on 4 or more DPUs must
    /// leave fewer distinct images than DPUs: the check that WRAM sharing
    /// happens here.
    #[test]
    fn sharing_is_invisible(dpus in 1usize..9, steps in sharing_steps()) {
        use ebnn::codegen::{encode_slot, tier1_program};
        let (model, images) = crate::kernels::ebnn_batch();
        let exec = ExecProgram::decode(&tier1_program(1));
        let build = |dpus| {
            let mut engine = Tier1Engine::with_buffers(&model, dpus, 2, false).unwrap();
            let block = engine.set_mut().define_symbol("block", 2 * MRAM_PAGE_BYTES).unwrap();
            (engine, block.offset)
        };
        let (mut engine, block) = build(dpus);
        // Only the fast tier replays, and an ECC-armed run never does.
        let replays = Engine::effective() != Engine::Reference;
        let end = block + 2 * MRAM_PAGE_BYTES;
        let place = |at: usize| match at {
            0..24 => 8 * at,
            _ => MRAM_PAGE_BYTES - block + 8 * (at - 24),
        };
        let bytes = |salt: u8, words: usize| -> Vec<u8> {
            (0..8 * words).map(|i| salt.wrapping_mul(31).wrapping_add(i as u8)).collect()
        };
        let slots: Vec<Vec<u8>> = images.iter().map(|image| encode_slot(&model, image)).collect();
        let at = |symbol| engine.set().symbols().get(symbol).unwrap().offset;
        let params = at("params");
        let buffers = [[at("images"), at("features")], [at("images_alt"), at("features_alt")]];
        // A one-DPU engine stages with plain writes: its broadcasts are
        // the shadow's start.
        let start = build(1).0.set().system().dpu(DpuId(0)).mram.to_vec(0, end).unwrap();
        let mut shadow = Shadow {
            mram: vec![start; dpus],
            wram: vec![vec![0; dpu_sim::params::WRAM_BYTES]; dpus],
            ecc: false,
            flip: None,
        };
        // The engine's golden shape: a snapshot taken before any launch.
        let mut saved = (engine.set().snapshot(), shadow.clone());
        for (n, step) in steps.iter().enumerate() {
            let set = engine.set_mut();
            match step {
                Step::Broadcast { at, words, salt } => {
                    let src = bytes(*salt, *words);
                    set.copy_to("block", place(*at), &src).unwrap();
                    (0..dpus).for_each(|d| shadow.write(d, block + place(*at), &src));
                }
                Step::WholePage { salt } => {
                    let src = bytes(*salt, MRAM_PAGE_BYTES / 8);
                    set.copy_to("block", place(24), &src).unwrap();
                    (0..dpus).for_each(|d| shadow.write(d, MRAM_PAGE_BYTES, &src));
                }
                Step::Scatter { at, words, salts } => {
                    let src: Vec<Vec<u8>> =
                        (0..dpus).map(|d| bytes(salts[d % salts.len()], *words)).collect();
                    set.copy_each("block", place(*at), 8 * words, |d| &src[d.0 as usize]).unwrap();
                    (0..dpus).for_each(|d| shadow.write(d, block + place(*at), &src[d]));
                }
                Step::One { dpu, at, words, salt } => {
                    let (d, src) = (dpu % dpus, bytes(*salt, *words));
                    set.copy_to_dpu(DpuId(d as u32), "block", place(*at), &src).unwrap();
                    shadow.write(d, block + place(*at), &src);
                }
                Step::Launch { images: count, buf } => {
                    engine.stage(&model, &images[..*count], *buf).unwrap();
                    engine.launch(false, None).unwrap().0.served().unwrap();
                    shadow.launch(&exec, params, buffers[*buf], 0, &slots[..*count]);
                }
                Step::IdleHeavy { busy, images: count, buf } => {
                    let busy = busy % dpus;
                    // The largest group of idle DPUs holding one image.
                    let mut groups = std::collections::HashMap::new();
                    for (id, m) in engine.set().system().iter() {
                        if id.0 as usize != busy {
                            *groups.entry(m.wram.image_id()).or_insert(0) += 1;
                        }
                    }
                    let entered = groups.into_values().max().unwrap_or(0);
                    let live: Vec<bool> = (0..dpus).map(|d| d == busy).collect();
                    engine.set_mut().set_parallel_threshold(Some(usize::MAX));
                    for _ in 0..3 {
                        engine.stage_encoded_live(&slots[..*count], *buf, &live).unwrap();
                        engine.launch(false, None).unwrap().0.served().unwrap();
                        shadow.launch(&exec, params, buffers[*buf], busy, &slots[..*count]);
                    }
                    engine.set_mut().set_parallel_threshold(None);
                    if dpus >= 4 && replays && !shadow.ecc && entered >= 3 {
                        let wram = engine.set().system().wram_images();
                        prop_assert!(wram < dpus, "step {}: {} WRAM images", n, wram);
                    }
                }
                Step::Snapshot => saved = (set.snapshot(), shadow.clone()),
                Step::Restore => {
                    set.restore(&saved.0).unwrap();
                    shadow = saved.1.clone();
                }
                Step::Ecc(on) => {
                    set.enable_ecc(*on);
                    shadow.ecc = *on;
                    shadow.flip = shadow.flip.filter(|_| *on);
                }
                Step::Scrub => {
                    let mut alone = dpu_sim::ScrubReport::default();
                    set.system().iter().for_each(|(_, m)| alone.merge(&m.mram.clone().scrub()));
                    prop_assert_eq!(set.scrub_all(), alone, "step {}", n);
                    if let Some((d, at, bit)) = shadow.flip.take() {
                        shadow.mram[d][at] ^= 1 << bit;
                    }
                }
                Step::Flip { dpu, word, bit } => {
                    let (d, at) = (dpu % dpus, block + 8 * word);
                    set.system_mut().dpu_mut(DpuId(d as u32)).mram.flip_bit_raw(at, *bit).unwrap();
                    shadow.mram[d][at] ^= 1 << bit;
                    shadow.flip = shadow.ecc.then_some((d, at, *bit));
                }
            }
            for (id, m) in engine.set().system().iter() {
                let d = id.0 as usize;
                let mut dense = dpu_sim::Mram::default();
                dense.write(0, &shadow.mram[d]).unwrap();
                prop_assert!(m.mram == dense, "step {} {:?}: DPU {}'s MRAM", n, step, d);
                let wram = m.wram.slice(0, m.wram.len()).unwrap();
                prop_assert!(wram == shadow.wram[d].as_slice(), "step {}: DPU {}'s WRAM", n, d);
                prop_assert_eq!(m.mram.ecc_enabled(), shadow.ecc);
                let pending = shadow.flip.is_some_and(|(f, ..)| f == d);
                let repairs = m.mram.clone().scrub().corrected_data;
                prop_assert_eq!(repairs, u64::from(pending), "step {}: DPU {}'s sidecar", n, d);
            }
        }
    }
}
