//! The one program generator. Two shapes:
//!
//! - **random programs**: any instruction mix, branch, jump and `jal`
//!   targets anywhere in the program, `jr` through whatever a register
//!   holds, subroutine calls, barriers and mutexes — the control flow that
//!   re-enters superblocks mid-way, loops forever, deadlocks and faults;
//! - **racy programs**: many-tasklet loops whose loads and stores collide
//!   across tasklets in every way the tasklet-major chunks must detect
//!   (same word/different byte, same byte, store-after-load,
//!   load-after-store), mixed with `trace` ops, data-dependent
//!   divergence, `jal`/`jr` leaves, mutex-guarded read-modify-writes, and
//!   boundary instructions, faults and early halts that land in the middle
//!   of a chunk. Racy and disruptive ops can be gated to a single loop
//!   iteration, so one program has long conflict-free stretches (chunks
//!   commit) *and* a collision (a chunk rolls back and the per-slot replay
//!   must reproduce the reference order). Any tasklet count from 2 up is
//!   valid — below the pipeline depth the rotations are under-saturated —
//!   and a program can put only its first `working` tasklets to work while
//!   the rest halt at once (the serving shape: 16 tasklets launched, fewer
//!   images staged), behind a prologue of queued DMAs if asked, so that
//!   the tasklets enter the loop skewed. Short ones (a few tasklets, a few
//!   trips) stay inside the replay table's slot cap and get recorded.

use dpu_sim::isa::{Cond, Instr, Program, Reg, Width};
use dpu_sim::subroutines::Subroutine;
use proptest::prelude::*;

/// A generated program, the tasklets it launches and the cycle budget
/// of its run to completion.
#[derive(Debug, Clone)]
pub struct Generated {
    pub program: Program,
    pub tasklets: usize,
    pub budget: u64,
}

/// Budget of random programs: most finish within a few hundred cycles,
/// the rest loop forever — and run to it in every cell, so debug builds
/// stop them sooner.
const RANDOM_BUDGET: u64 = if cfg!(debug_assertions) { 50_000 } else { 300_000 };
/// Budget of racy programs: long enough for the longest to finish.
const RACY_BUDGET: u64 = 300_000;

/// Random instructions, weighted toward superblock ALU runs with enough
/// control flow, memory traffic, calls, sync and DMA-free boundary ops
/// mixed in to exercise every fast-path bailout. Targets land in `0..len`.
fn random_instr(len: u32) -> impl Strategy<Value = Instr> {
    let reg = || (0u8..8).prop_map(Reg);
    let call = prop_oneof![Just(Subroutine::Mulsi3), Just(Subroutine::Addsf3)];
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        (reg(), -100i32..100).prop_map(|(rd, imm)| Instr::Movi { rd, imm }),
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
        (call, reg(), reg(), reg()).prop_map(|(sub, rd, ra, rb)| Instr::CallSub {
            sub,
            rd,
            ra,
            rb
        }),
        (reg(), reg(), 0u32..len).prop_map(|(ra, rb, target)| Instr::Branch {
            cond: Cond::Ne,
            ra,
            rb,
            target,
        }),
        (0u32..len).prop_map(|target| Instr::Jump { target }),
        (reg(), 0u32..len).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        reg().prop_map(|ra| Instr::Jr { ra }),
        reg().prop_map(|ra| Instr::Trace { ra }),
        Just(Instr::Barrier),
        (0u8..2).prop_map(|id| Instr::MutexLock { id }),
        (0u8..2).prop_map(|id| Instr::MutexUnlock { id }),
    ]
}

/// Random programs of up to 40 instructions on 1 to 16 tasklets.
pub fn random_programs() -> impl Strategy<Value = Generated> {
    (prop::collection::vec(random_instr(40), 1..40), 1usize..17).prop_map(|(instrs, tasklets)| {
        Generated { program: Program::new(instrs), tasklets, budget: RANDOM_BUDGET }
    })
}

/// Racy loops of 24 to 95 trips in three launch shapes: 2 to 24 tasklets
/// all working (under-saturated below the pipeline depth, saturated
/// above); a full DPU's 16 launched with 1 to 15 working; and 12 to 14
/// working behind a DMA skew — the permuted rotation only a verified
/// orbit batches — launched alone or on a full DPU.
pub fn long_racy_programs() -> impl Strategy<Value = Generated> {
    let shape = prop_oneof![
        (2usize..=24).prop_map(|t| (t, t, false)),
        (1usize..=15).prop_map(|working| (16usize, working, false)),
        (12usize..=14, any::<bool>()).prop_map(|(working, full)| (
            if full { 16 } else { working },
            working,
            true
        )),
    ];
    let draws = (0i32..96, 0i32..24, 1i32..24);
    (prop::collection::vec(racy_op_strategy(), 3..14), shape, 24i32..96, draws).prop_map(
        |(body, (tasklets, working, skewed), iters, draws)| {
            let event = Event { skewed, ..Event::from_draws(draws, working, iters) };
            Generated { program: racy_program(&body, iters, event), tasklets, budget: RACY_BUDGET }
        },
    )
}

/// Racy loops of 1 to 3 trips on 1 to 6 tasklets: short enough to be
/// recorded and replayed — DMA, `perf`, `trace`, bursts, mutexes, faults
/// and early halts included.
pub fn short_racy_programs() -> impl Strategy<Value = Generated> {
    let draws = (0i32..96, 0i32..24, 1i32..24);
    (prop::collection::vec(racy_op_strategy(), 2..9), 1usize..=6, 1i32..4, draws).prop_map(
        |(mut body, tasklets, iters, draws)| {
            // One `__divsf3` burst alone outgrows the slot cap.
            body.retain(|op| {
                !matches!(op, RacyOp::Gated { op: Disruption::Call(Subroutine::Divsf3, _), .. })
            });
            let event = Event::from_draws(draws, tasklets, iters);
            Generated { program: racy_program(&body, iters, event), tasklets, budget: RACY_BUDGET }
        },
    )
}

/// Read-only table every tasklet loads from (DMA'd in by tasklet 0).
const SHARED: i32 = 0x100;
/// One byte every tasklet may store to.
const RACE_BYTE: i32 = 0x200;
/// Four byte lanes of one word, indexed by `me & 3`.
const LANES: i32 = 0x204;
/// A counter every tasklet bumps under a mutex.
const COUNTER: i32 = 0x300;
/// Per-tasklet private 32-byte regions.
const PRIVATE: i32 = 0x400;

const ME: Reg = Reg(1);
const MINE: Reg = Reg(2);
const NEIGHBOUR: Reg = Reg(3);
const LANE: Reg = Reg(4);
const COUNT: Reg = Reg(5);
const LINK: Reg = Reg(9);
const EVENT_ITER: Reg = Reg(10);
const WILD: Reg = Reg(11);
const EVENT_TASKLET: Reg = Reg(12);

/// One generated loop-body operation.
#[derive(Debug, Clone)]
pub enum RacyOp {
    /// Register-only work on the scratch registers.
    Alu(Instr),
    /// Load from the tasklet's own region.
    PrivateLoad(Width, u8, u8),
    /// Store to the tasklet's own region.
    PrivateStore(Width, u8, u8),
    /// Load from the shared read-only table.
    SharedLoad(u8, u8),
    /// Skip the next op when `scratch[a] < scratch[b]` (divergence).
    SkipIfLess(u8, u8),
    /// `jal` to a one-instruction leaf that returns through `jr`.
    Leaf(Instr),
    /// A disruptive or racy op, restricted to some iterations/tasklets.
    Gated { when: Gate, only_event_tasklet: bool, op: Disruption },
}

/// On which loop iterations a gated op fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Every iteration.
    Always,
    /// The event iteration, on all tasklets at once.
    EventIter,
    /// Tasklet `me` fires `me` iterations after the event iteration, so
    /// racing accesses are rounds apart and the last writer is decided by
    /// time, not by round-robin position.
    Staggered,
}

/// Ops that must end, abort or conflict a tasklet-major chunk.
#[derive(Debug, Clone, Copy)]
pub enum Disruption {
    /// Every tasklet stores the same byte.
    SameByteStore(u8),
    /// Tasklets store the byte lane `me & 3` of one word.
    SameWordStore(u8),
    /// Load from the next tasklet's private region.
    NeighbourLoad(u8, u8),
    /// Store into the next tasklet's private region.
    NeighbourStore(u8, u8),
    /// Append to the DPU log.
    Trace(u8),
    /// DMA the private region in from MRAM.
    MramRead,
    /// `sub(count, me)` into a scratch register: a subroutine burst, or
    /// for `__divsi3` a division by zero on tasklet 0.
    Call(Subroutine, u8),
    /// Read the perf counter.
    PerfRead(u8),
    /// Bump the shared counter through `scratch[rs]` under mutex `id`.
    Locked(u8, u8),
    /// Load far outside WRAM.
    WildLoad,
    /// Stop this tasklet.
    Halt,
}

fn scratch(i: u8) -> Reg {
    Reg(6 + i % 3)
}

/// Offset of a `width`-sized access inside a 32-byte private region;
/// deliberately not width-aligned, so halfword and word accesses straddle
/// word boundaries.
fn private_off(width: Width, off: u8) -> i32 {
    i32::from(off) % (33 - width.bytes() as i32)
}

fn width_strategy() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B), Just(Width::H), Just(Width::W)]
}

fn alu_strategy() -> impl Strategy<Value = Instr> {
    let reg = || (0u8..3).prop_map(scratch);
    // Sources may also read the tasklet id and the loop counter, so
    // register files (and with them addresses and branches) diverge.
    let src = || prop_oneof![(0u8..3).prop_map(scratch), Just(ME), Just(COUNT)];
    prop_oneof![
        (reg(), src(), src()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
        (reg(), src(), src()).prop_map(|(rd, ra, rb)| Instr::Xor { rd, ra, rb }),
        (reg(), src(), src()).prop_map(|(rd, ra, rb)| Instr::Mul8 { rd, ra, rb }),
        (reg(), src(), -9i32..9).prop_map(|(rd, ra, imm)| Instr::Addi { rd, ra, imm }),
        (reg(), src(), 0u8..8).prop_map(|(rd, ra, sh)| Instr::Lsli { rd, ra, sh }),
        (reg(), src()).prop_map(|(rd, ra)| Instr::Popcount { rd, ra }),
    ]
}

/// Cross-tasklet WRAM overlaps.
fn race_strategy() -> impl Strategy<Value = Disruption> {
    prop_oneof![
        (0u8..3).prop_map(Disruption::SameByteStore),
        (0u8..3).prop_map(Disruption::SameWordStore),
        (0u8..3, 0u8..8).prop_map(|(rd, slot)| Disruption::NeighbourLoad(rd, slot)),
        (0u8..3, 0u8..8).prop_map(|(rs, slot)| Disruption::NeighbourStore(rs, slot)),
    ]
}

/// Subroutines of every burst shape: the GEMM kernels' multiply, a
/// division whose divisor `me` is zero on tasklet 0, a burst shorter
/// than most chunks (12 slots) and one longer than any (1,073).
fn call_strategy() -> impl Strategy<Value = Subroutine> {
    prop_oneof![
        Just(Subroutine::Mulsi3),
        Just(Subroutine::Divsi3),
        Just(Subroutine::Ltsf2),
        Just(Subroutine::Divsf3),
    ]
}

/// Everything else a chunk cannot run through.
fn boundary_strategy() -> impl Strategy<Value = Disruption> {
    prop_oneof![
        (0u8..3).prop_map(Disruption::Trace),
        Just(Disruption::MramRead),
        (call_strategy(), 0u8..3).prop_map(|(sub, rd)| Disruption::Call(sub, rd)),
        (0u8..3).prop_map(Disruption::PerfRead),
        (0u8..2, 0u8..3).prop_map(|(id, rs)| Disruption::Locked(id, rs)),
        Just(Disruption::WildLoad),
        Just(Disruption::Halt),
    ]
}

fn gated(op: impl Strategy<Value = Disruption>) -> impl Strategy<Value = RacyOp> {
    // Mostly rare firings: an op racing on every iteration never lets a
    // chunk commit, so it only exercises the stand-off.
    let when = prop_oneof![
        Just(Gate::Always),
        Just(Gate::EventIter),
        Just(Gate::EventIter),
        Just(Gate::Staggered),
        Just(Gate::Staggered),
        Just(Gate::Staggered),
    ];
    (when, any::<bool>(), op).prop_map(|(when, only_event_tasklet, op)| RacyOp::Gated {
        when,
        only_event_tasklet,
        op,
    })
}

/// Strategy over loop-body ops: mostly chunk-friendly work, so that
/// conflict-free stretches exist for chunks to commit on.
pub fn racy_op_strategy() -> impl Strategy<Value = RacyOp> {
    prop_oneof![
        alu_strategy().prop_map(RacyOp::Alu),
        alu_strategy().prop_map(RacyOp::Alu),
        (width_strategy(), 0u8..3, 0u8..32)
            .prop_map(|(w, rd, off)| RacyOp::PrivateLoad(w, rd, off)),
        (width_strategy(), 0u8..3, 0u8..32)
            .prop_map(|(w, rs, off)| RacyOp::PrivateStore(w, rs, off)),
        (0u8..3, 0u8..32).prop_map(|(rd, slot)| RacyOp::SharedLoad(rd, slot)),
        (0u8..3, 0u8..3).prop_map(|(a, b)| RacyOp::SkipIfLess(a, b)),
        alu_strategy().prop_map(RacyOp::Leaf),
        gated(race_strategy()),
        gated(race_strategy()),
        gated(boundary_strategy()),
    ]
}

fn emit_disruption(out: &mut Vec<Instr>, op: Disruption) {
    let last = match op {
        Disruption::SameByteStore(rs) => {
            Instr::Store { width: Width::B, ra: Reg(0), off: RACE_BYTE, rs: scratch(rs) }
        }
        Disruption::SameWordStore(rs) => {
            Instr::Store { width: Width::B, ra: LANE, off: 0, rs: scratch(rs) }
        }
        Disruption::NeighbourLoad(rd, slot) => Instr::Load {
            width: Width::W,
            rd: scratch(rd),
            ra: NEIGHBOUR,
            off: i32::from(slot) * 4,
        },
        Disruption::NeighbourStore(rs, slot) => Instr::Store {
            width: Width::W,
            ra: NEIGHBOUR,
            off: i32::from(slot) * 4,
            rs: scratch(rs),
        },
        Disruption::Trace(rs) => Instr::Trace { ra: scratch(rs) },
        Disruption::MramRead => {
            // r13 = 8-byte-aligned MRAM source, r14 = length.
            out.push(Instr::Lsli { rd: Reg(13), ra: ME, sh: 5 });
            out.push(Instr::Movi { rd: Reg(14), imm: 32 });
            Instr::MramRead { wram: MINE, mram: Reg(13), len: Reg(14) }
        }
        Disruption::Call(sub, rd) => Instr::CallSub { sub, rd: scratch(rd), ra: COUNT, rb: ME },
        Disruption::PerfRead(rd) => Instr::PerfRead { rd: scratch(rd) },
        Disruption::Locked(id, rs) => {
            out.extend([
                Instr::MutexLock { id },
                Instr::Load { width: Width::W, rd: scratch(rs), ra: Reg(0), off: COUNTER },
                Instr::Addi { rd: scratch(rs), ra: scratch(rs), imm: 1 },
                Instr::Store { width: Width::W, ra: Reg(0), off: COUNTER, rs: scratch(rs) },
            ]);
            Instr::MutexUnlock { id }
        }
        Disruption::WildLoad => Instr::Load { width: Width::W, rd: scratch(0), ra: WILD, off: 0 },
        Disruption::Halt => Instr::Halt,
    };
    out.push(last);
}

/// Where the gated ops of a racy program fire and whom they hit.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Loop-counter value (counting down from `iters`) gated ops fire at.
    pub iter: i32,
    /// The one tasklet `only_event_tasklet` ops fire on.
    pub tasklet: i32,
    /// Tasklet `me`'s "neighbour" is tasklet `(me + stride) mod working`:
    /// the stride decides whether a reader runs before or after the
    /// region's owner in round-robin order.
    pub stride: i32,
    /// Tasklets `working..` halt on their second instruction.
    pub working: usize,
    /// Every working tasklet DMAs its private region in before the loop.
    /// The transfers queue on the one DMA engine, so the tasklets enter
    /// the loop a transfer apart — the eBNN kernel's image fetch — and
    /// more of them than pipeline stages settle into a permuted rotation.
    pub skewed: bool,
}

impl Event {
    /// Reduce raw strategy draws `(iter, tasklet, stride)` into range for
    /// `working` working tasklets and `iters` loop trips.
    pub fn from_draws(draws: (i32, i32, i32), working: usize, iters: i32) -> Self {
        Self {
            iter: draws.0 % iters + 1,
            tasklet: draws.1 % working as i32,
            stride: draws.2,
            working,
            skewed: false,
        }
    }
}

/// Assemble a racy program: `iters` trips round `body` on the first
/// `event.working` of the launched tasklets.
pub fn racy_program(body: &[RacyOp], iters: i32, event: Event) -> Program {
    let t = event.working as i32;
    let stride = event.stride.rem_euclid(t);
    let mut p = vec![
        Instr::TaskletId { rd: ME },
        // Tasklets beyond the working set halt at once.
        Instr::Movi { rd: Reg(13), imm: t },
        Instr::Branch { cond: Cond::Lt, ra: ME, rb: Reg(13), target: 4 },
        Instr::Halt,
        Instr::PerfConfig,
        // Tasklet 0 fills the shared table from (seeded) MRAM.
        Instr::Branch { cond: Cond::Ne, ra: ME, rb: Reg(0), target: 10 },
        Instr::Movi { rd: Reg(13), imm: SHARED },
        Instr::Movi { rd: Reg(14), imm: 128 },
        Instr::MramRead { wram: Reg(13), mram: Reg(0), len: Reg(14) },
        Instr::Nop,
        Instr::Barrier,
        // MINE = PRIVATE + 32 * me
        Instr::Lsli { rd: MINE, ra: ME, sh: 5 },
        Instr::Addi { rd: MINE, ra: MINE, imm: PRIVATE },
        // NEIGHBOUR = PRIVATE + 32 * ((me + stride) mod working)
        Instr::Addi { rd: NEIGHBOUR, ra: ME, imm: stride },
        Instr::Movi { rd: Reg(13), imm: t },
        Instr::Branch { cond: Cond::Lt, ra: NEIGHBOUR, rb: Reg(13), target: 17 },
        Instr::Addi { rd: NEIGHBOUR, ra: NEIGHBOUR, imm: -t },
        Instr::Lsli { rd: NEIGHBOUR, ra: NEIGHBOUR, sh: 5 },
        Instr::Addi { rd: NEIGHBOUR, ra: NEIGHBOUR, imm: PRIVATE },
        // LANE = LANES + (me & 3)
        Instr::Movi { rd: Reg(13), imm: 3 },
        Instr::And { rd: LANE, ra: ME, rb: Reg(13) },
        Instr::Addi { rd: LANE, ra: LANE, imm: LANES },
        Instr::Movi { rd: COUNT, imm: iters },
        Instr::Movi { rd: EVENT_ITER, imm: event.iter },
        Instr::Movi { rd: WILD, imm: 0x7fff_0000 },
        Instr::Movi { rd: EVENT_TASKLET, imm: event.tasklet },
    ];
    if event.skewed {
        emit_disruption(&mut p, Disruption::MramRead);
    }
    let loop_head = p.len() as u32;
    for (i, op) in body.iter().enumerate() {
        match op {
            RacyOp::Alu(instr) => p.push(*instr),
            RacyOp::Leaf(instr) => {
                let at = p.len() as u32;
                p.extend([
                    Instr::Jal { rd: LINK, target: at + 2 },
                    Instr::Jump { target: at + 4 },
                    *instr,
                    Instr::Jr { ra: LINK },
                ]);
            }
            RacyOp::PrivateLoad(width, rd, off) => p.push(Instr::Load {
                width: *width,
                rd: scratch(*rd),
                ra: MINE,
                off: private_off(*width, *off),
            }),
            RacyOp::PrivateStore(width, rs, off) => p.push(Instr::Store {
                width: *width,
                ra: MINE,
                off: private_off(*width, *off),
                rs: scratch(*rs),
            }),
            RacyOp::SharedLoad(rd, slot) => p.push(Instr::Load {
                width: Width::W,
                rd: scratch(*rd),
                ra: Reg(0),
                off: SHARED + i32::from(*slot) * 4,
            }),
            RacyOp::SkipIfLess(a, b) => {
                // Skips whatever single instruction follows; when that is
                // the head of a multi-instruction op, the rest of it still
                // runs — any instruction sequence is a valid test program.
                // The nop keeps a trailing skip off the loop decrement.
                let target = p.len() as u32 + 2;
                p.push(Instr::Branch { cond: Cond::Lt, ra: scratch(*a), rb: scratch(*b), target });
                if i + 1 == body.len() {
                    p.push(Instr::Nop);
                }
            }
            RacyOp::Gated { when, only_event_tasklet, op } => {
                let mut gated = Vec::new();
                emit_disruption(&mut gated, *op);
                let guards = match when {
                    Gate::Always => 0,
                    Gate::EventIter => 1,
                    Gate::Staggered => 2,
                } + usize::from(*only_event_tasklet);
                let skip_to = (p.len() + guards + gated.len()) as u32;
                let now = match when {
                    Gate::Always => None,
                    Gate::EventIter => Some(COUNT),
                    Gate::Staggered => {
                        // COUNT counts down: `COUNT + me == EVENT_ITER`.
                        p.push(Instr::Add { rd: Reg(13), ra: COUNT, rb: ME });
                        Some(Reg(13))
                    }
                };
                if let Some(ra) = now {
                    p.push(Instr::Branch { cond: Cond::Ne, ra, rb: EVENT_ITER, target: skip_to });
                }
                if *only_event_tasklet {
                    p.push(Instr::Branch {
                        cond: Cond::Ne,
                        ra: ME,
                        rb: EVENT_TASKLET,
                        target: skip_to,
                    });
                }
                p.extend(gated);
            }
        }
    }
    p.extend([
        Instr::Addi { rd: COUNT, ra: COUNT, imm: -1 },
        Instr::Branch { cond: Cond::Ne, ra: COUNT, rb: Reg(0), target: loop_head },
        // Pin the scratch registers into memory and the log.
        Instr::Store { width: Width::W, ra: MINE, off: 0, rs: scratch(0) },
        Instr::Store { width: Width::W, ra: MINE, off: 4, rs: scratch(1) },
        Instr::Trace { ra: scratch(2) },
        Instr::Halt,
    ]);
    Program::new(p)
}
