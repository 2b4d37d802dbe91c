//! The compiled execution tier: threaded-code superblocks with deopt
//! fallback.
//!
//! [`CompiledProgram`] translates the superblock decomposition of a
//! decoded program into *threaded code*: one pre-bound Rust closure per
//! block ([`CompiledBlock`]) that applies the block's register effects
//! with no per-instruction fetch, decode or classify, plus a compiled
//! [`Term`]inator whose control-flow targets are resolved to block ids at
//! compile time, so hot chains of blocks execute back to back without
//! returning to the interpreter's dispatch loop. Issue-slot counts and
//! the opcode histogram are folded per block entry, the way
//! [`crate::exec::BlockMeta`] already memoizes them for the superblock
//! engine.
//!
//! Everything the compiled universe cannot express **deoptimizes**: a
//! chain exits with the tasklet's pc parked on the first uncompiled
//! instruction and the superblock engine resumes as if the chain had been
//! interpreted slot by slot. Deopt points are:
//!
//! * **cold blocks** — heads the compile filter skipped (see
//!   [`CompiledProgram::compile_hot`]);
//! * **side exits** — any boundary instruction after a block: loads and
//!   stores, DMA, `trace`, subroutine calls, perfcounter ops, `halt`;
//! * **synchronization** — mutex and barrier instructions;
//! * **computed jumps** (`jr`) whose runtime target is not a compiled
//!   block head (mid-block entries resume via the suffix interpreter);
//! * **budget exhaustion** — the engine caps every chain so the cycle
//!   budget check stays slot-exact;
//! * **armed faults, traced and profiled runs** — the interpreter never
//!   enters compiled code at all (see `Machine::run_code`).
//!
//! The interpreter therefore remains the semantic source of truth; the
//! compiled tier is observationally invisible by construction and pinned
//! bit-for-bit by the `compiled_identity` / `superblock_identity` /
//! `profiled_identity` suites.

use crate::exec::{ExecInstr, Superblocks};
use crate::isa::{Cond, Instr, Reg};
use crate::params::REGS_PER_TASKLET;
use crate::profiler::CycleAttribution;
use std::fmt;

/// A tasklet's register file as the threaded code sees it. The hardwired
/// zero register is preserved by construction: thunks that would write
/// `r0` are folded to no-ops at compile time, so no closure ever stores
/// to index 0.
pub type Regs = [u32; REGS_PER_TASKLET];

/// One pre-bound register-effect closure. The second argument is the
/// executing tasklet's id (only [`Instr::TaskletId`] reads it).
type BlockFn = Box<dyn Fn(&mut Regs, u32) + Send + Sync>;

/// Default execution-count threshold for profile-guided compilation:
/// [`CompiledProgram::compile_hot`] compiles the blocks a
/// [`CycleAttribution`] profile entered at least this many times.
pub const DEFAULT_HOT_THRESHOLD: u64 = 16;

/// Sentinel in the pc → block-id map: this pc is not a compiled head.
const NO_BLOCK: u32 = u32::MAX;

/// Where a compiled chain goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Directly into another compiled block, by block id.
    Block(u32),
    /// Out of compiled code: deoptimize with the tasklet's pc set to this
    /// address and let the superblock engine resume (out-of-range targets
    /// fault at the next fetch, exactly as in the reference).
    Exit(u32),
}

/// Compiled terminator of a block: the single control-flow instruction
/// (if any) following the straight-line body, its targets pre-resolved.
#[derive(Debug, Clone, Copy)]
pub enum Term {
    /// Fall through without consuming an issue slot: the instruction
    /// after the body is either another compiled block (chain directly)
    /// or a deopt point.
    Next(Link),
    /// `jmp` — one issue slot, static target.
    Jump(Link),
    /// `jal` — one issue slot; writes the return address and jumps.
    Jal {
        /// Link register receiving the return address.
        rd: Reg,
        /// The return address (instruction after the `jal`).
        ret: u32,
        /// Pre-resolved static target.
        link: Link,
    },
    /// `jr` — one issue slot; the register-held target resolves to a
    /// block id (or a deopt) at run time via [`CompiledProgram::link_of`].
    Jr {
        /// Register holding the target pc.
        ra: Reg,
    },
    /// Conditional branch — one issue slot, both edges pre-resolved.
    Branch {
        /// Branch condition.
        cond: Cond,
        /// Left operand register.
        ra: Reg,
        /// Right operand register.
        rb: Reg,
        /// Edge taken when the condition holds.
        taken: Link,
        /// Fall-through edge.
        fall: Link,
    },
}

/// One compiled superblock: threaded-code body, compiled terminator, and
/// the accounting the engine folds once per entry.
pub struct CompiledBlock {
    start: u32,
    body_len: u32,
    slots: u32,
    op_counts: Vec<(u8, u32)>,
    tasklet_sensitive: bool,
    body: BlockFn,
    term: Term,
}

impl CompiledBlock {
    /// First instruction of the block (also its deopt re-entry pc).
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Instructions in the straight-line body.
    #[must_use]
    pub fn body_len(&self) -> u32 {
        self.body_len
    }

    /// Issue slots one entry consumes: the body plus the terminator's
    /// slot when it is a real control-flow instruction.
    #[must_use]
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Sparse opcode-id histogram of one entry (body plus terminator).
    #[must_use]
    pub fn op_counts(&self) -> &[(u8, u32)] {
        &self.op_counts
    }

    /// True when the body reads the tasklet id, making its effects differ
    /// across tasklets with identical register files — the one thing that
    /// invalidates the engine's lockstep replication fast path.
    #[must_use]
    pub fn tasklet_sensitive(&self) -> bool {
        self.tasklet_sensitive
    }

    /// The compiled terminator.
    #[must_use]
    pub fn term(&self) -> &Term {
        &self.term
    }

    /// Apply the body's register effects for tasklet `t`.
    #[inline]
    pub fn run(&self, regs: &mut Regs, t: u32) {
        (self.body)(regs, t);
    }
}

impl fmt::Debug for CompiledBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledBlock")
            .field("start", &self.start)
            .field("body_len", &self.body_len)
            .field("slots", &self.slots)
            .field("term", &self.term)
            .finish_non_exhaustive()
    }
}

/// Threaded-code translation of a decoded program's hot superblocks.
pub struct CompiledProgram {
    /// Per-pc: compiled block id, or [`NO_BLOCK`].
    block_of: Vec<u32>,
    blocks: Vec<CompiledBlock>,
}

impl CompiledProgram {
    /// Compile every superblock head. This is the default tier built at
    /// decode time: compilation is one linear pass, a block that never
    /// runs costs only its closure, and programs fit IRAM (≤ 3 K
    /// instructions), so static "everything is hot" is both cheap and the
    /// fastest choice when no profile exists.
    #[must_use]
    pub fn compile_all(code: &[ExecInstr], sb: &Superblocks) -> Self {
        Self::compile_filtered(code, sb, |_| true)
    }

    /// Profile-guided compilation: compile only the blocks a
    /// [`CycleAttribution`] profile entered at least `min_entries` times
    /// (the counters an [`crate::Observe::Profile`] run accumulates). Cold
    /// blocks stay on the superblock engine; chains into them deoptimize.
    #[must_use]
    pub fn compile_hot(
        code: &[ExecInstr],
        sb: &Superblocks,
        attr: &CycleAttribution,
        min_entries: u64,
    ) -> Self {
        let hot = attr.hot_starts(min_entries);
        Self::compile_filtered(code, sb, |start| hot.binary_search(&start).is_ok())
    }

    /// Compile exactly the superblock heads `keep` accepts. The general
    /// form behind [`CompiledProgram::compile_all`] and
    /// [`CompiledProgram::compile_hot`]; the identity suites also use it
    /// directly to force a deopt at every possible side-exit by
    /// compiling arbitrary block subsets.
    pub fn compile_filtered(
        code: &[ExecInstr],
        sb: &Superblocks,
        mut keep: impl FnMut(u32) -> bool,
    ) -> Self {
        let mut block_of = vec![NO_BLOCK; code.len()];
        let metas: Vec<_> = sb.blocks().iter().filter(|m| keep(m.start)).collect();
        for (id, meta) in metas.iter().enumerate() {
            block_of[meta.start as usize] = id as u32;
        }
        let link_of = |pc: u32| match block_of.get(pc as usize) {
            Some(&id) if id != NO_BLOCK => Link::Block(id),
            _ => Link::Exit(pc),
        };
        let blocks = metas
            .iter()
            .map(|meta| {
                let start = meta.start as usize;
                let body_end = start + meta.len as usize;
                let mut tasklet_sensitive = false;
                let mut thunks: Vec<BlockFn> = Vec::with_capacity(meta.len as usize);
                for slot in &code[start..body_end] {
                    tasklet_sensitive |= matches!(slot.instr, Instr::TaskletId { .. });
                    thunks.push(op_thunk(&slot.instr));
                }
                let (term, term_op) = compile_term(code, body_end as u32, &link_of);
                let mut op_counts = meta.op_counts.clone();
                if let Some(op) = term_op {
                    match op_counts.iter_mut().find(|(o, _)| *o == op) {
                        Some((_, c)) => *c += 1,
                        None => op_counts.push((op, 1)),
                    }
                }
                CompiledBlock {
                    start: meta.start,
                    body_len: meta.len,
                    slots: meta.len + u32::from(term_op.is_some()),
                    op_counts,
                    tasklet_sensitive,
                    body: fuse(thunks),
                    term,
                }
            })
            .collect();
        Self { block_of, blocks }
    }

    /// Compiled block id when `pc` is a compiled head.
    #[inline]
    #[must_use]
    pub fn block_id_at(&self, pc: usize) -> Option<u32> {
        match self.block_of.get(pc) {
            Some(&id) if id != NO_BLOCK => Some(id),
            _ => None,
        }
    }

    /// The compiled block with the given id.
    ///
    /// # Panics
    /// If `id` is not an id returned by this program's lookups.
    #[inline]
    #[must_use]
    pub fn block(&self, id: u32) -> &CompiledBlock {
        &self.blocks[id as usize]
    }

    /// Resolve a runtime pc (a `jr` target) to a chain link.
    #[inline]
    #[must_use]
    pub fn link_of(&self, pc: u32) -> Link {
        match self.block_of.get(pc as usize) {
            Some(&id) if id != NO_BLOCK => Link::Block(id),
            _ => Link::Exit(pc),
        }
    }

    /// Every compiled block, in program order.
    #[must_use]
    pub fn blocks(&self) -> &[CompiledBlock] {
        &self.blocks
    }

    /// True when nothing was compiled (empty program or an all-cold
    /// filter) — the engine then behaves exactly like the superblock tier.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProgram").field("blocks", &self.blocks.len()).finish()
    }
}

/// Compile the instruction at `pc` (the first after a block body) into a
/// terminator, returning its opcode id when it consumes an issue slot.
fn compile_term(code: &[ExecInstr], pc: u32, link_of: &impl Fn(u32) -> Link) -> (Term, Option<u8>) {
    match code.get(pc as usize) {
        Some(&ExecInstr { instr: Instr::Branch { cond, ra, rb, target }, op }) => (
            Term::Branch {
                cond,
                ra,
                rb,
                taken: link_of(target),
                fall: link_of(pc.wrapping_add(1)),
            },
            Some(op),
        ),
        Some(&ExecInstr { instr: Instr::Jump { target }, op }) => {
            (Term::Jump(link_of(target)), Some(op))
        }
        Some(&ExecInstr { instr: Instr::Jal { rd, target }, op }) => {
            (Term::Jal { rd, ret: pc.wrapping_add(1), link: link_of(target) }, Some(op))
        }
        Some(&ExecInstr { instr: Instr::Jr { ra }, op }) => (Term::Jr { ra }, Some(op)),
        // A boundary instruction (or the end of IRAM): fall through and
        // deoptimize — unless the next pc is itself a compiled head, in
        // which case the chain continues for free. `Next` links always
        // move to a strictly larger pc, so zero-slot chains cannot cycle.
        _ => (Term::Next(link_of(pc)), None),
    }
}

/// Compose per-op thunks into the block's single body closure. Small
/// arities are fused without the dispatch loop — most superblocks are
/// short, and the two-op shape is the hot one in the ALU benchmarks.
fn fuse(mut thunks: Vec<BlockFn>) -> BlockFn {
    match thunks.len() {
        0 => Box::new(|_, _| {}),
        1 => thunks.pop().expect("len checked"),
        2 => {
            let f1 = thunks.pop().expect("len checked");
            let f0 = thunks.pop().expect("len checked");
            Box::new(move |r, t| {
                f0(r, t);
                f1(r, t);
            })
        }
        3 => {
            let f2 = thunks.pop().expect("len checked");
            let f1 = thunks.pop().expect("len checked");
            let f0 = thunks.pop().expect("len checked");
            Box::new(move |r, t| {
                f0(r, t);
                f1(r, t);
                f2(r, t);
            })
        }
        _ => Box::new(move |r, t| {
            for f in &thunks {
                f(r, t);
            }
        }),
    }
}

/// A no-effect thunk (nops and architectural writes to `r0`).
fn nop_thunk() -> BlockFn {
    Box::new(|_, _| {})
}

/// Pre-bind one superblock instruction into its register-effect closure.
/// Exactly the semantics of the interpreter's `apply_pure` arms, with
/// operand indices and immediates resolved at compile time.
fn op_thunk(instr: &Instr) -> BlockFn {
    /// A two-source ALU op with pre-bound register indices.
    macro_rules! bin {
        ($rd:expr, $ra:expr, $rb:expr, |$a:ident, $b:ident| $e:expr) => {{
            let d = $rd.index();
            if d == 0 {
                nop_thunk()
            } else {
                let (ia, ib) = ($ra.index(), $rb.index());
                Box::new(move |r: &mut Regs, _| {
                    let ($a, $b) = (r[ia], r[ib]);
                    r[d] = $e;
                })
            }
        }};
    }
    /// A one-source op with a pre-bound immediate (or no source at all).
    macro_rules! un {
        ($rd:expr, $ra:expr, |$a:ident| $e:expr) => {{
            let d = $rd.index();
            if d == 0 {
                nop_thunk()
            } else {
                let ia = $ra.index();
                Box::new(move |r: &mut Regs, _| {
                    let $a = r[ia];
                    r[d] = $e;
                })
            }
        }};
    }
    match *instr {
        Instr::Nop => nop_thunk(),
        Instr::Movi { rd, imm } => {
            let d = rd.index();
            if d == 0 {
                nop_thunk()
            } else {
                let v = imm as u32;
                Box::new(move |r, _| r[d] = v)
            }
        }
        Instr::Mov { rd, ra } => un!(rd, ra, |a| a),
        Instr::Add { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a.wrapping_add(b)),
        Instr::Addi { rd, ra, imm } => {
            let v = imm as u32;
            un!(rd, ra, |a| a.wrapping_add(v))
        }
        Instr::Sub { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a.wrapping_sub(b)),
        Instr::And { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a & b),
        Instr::Or { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a | b),
        Instr::Xor { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a ^ b),
        Instr::Lsl { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a << (b & 31)),
        Instr::Lsr { rd, ra, rb } => bin!(rd, ra, rb, |a, b| a >> (b & 31)),
        Instr::Asr { rd, ra, rb } => bin!(rd, ra, rb, |a, b| ((a as i32) >> (b & 31)) as u32),
        Instr::Lsli { rd, ra, sh } => {
            let s = sh & 31;
            un!(rd, ra, |a| a << s)
        }
        Instr::Lsri { rd, ra, sh } => {
            let s = sh & 31;
            un!(rd, ra, |a| a >> s)
        }
        Instr::Asri { rd, ra, sh } => {
            let s = sh & 31;
            un!(rd, ra, |a| ((a as i32) >> s) as u32)
        }
        Instr::Mul8 { rd, ra, rb } => bin!(rd, ra, rb, |a, b| (a & 0xff) * (b & 0xff)),
        Instr::Popcount { rd, ra } => un!(rd, ra, |a| a.count_ones()),
        Instr::TaskletId { rd } => {
            let d = rd.index();
            if d == 0 {
                nop_thunk()
            } else {
                Box::new(move |r, t| r[d] = t)
            }
        }
        // The superblock classifier guarantees no other variant appears in
        // a block body.
        _ => {
            debug_assert!(false, "non-superblock op {instr:?} compiled into a block body");
            nop_thunk()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{op_id, ExecProgram};
    use crate::isa::{Instr as I, Program};

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    /// The ALU countdown loop the benchmarks use: two compiled blocks, a
    /// branch terminator chaining the loop body back onto itself.
    fn alu_loop() -> Program {
        Program::new(vec![
            I::Movi { rd: r(1), imm: 10 },
            I::Movi { rd: r(2), imm: 0 },
            I::Add { rd: r(2), ra: r(2), rb: r(1) },
            I::Addi { rd: r(1), ra: r(1), imm: -1 },
            I::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 2 },
            I::Store { width: crate::isa::Width::W, ra: r(0), off: 0, rs: r(2) },
            I::Halt,
        ])
    }

    #[test]
    fn alu_loop_compiles_into_a_self_chaining_branch() {
        let exec = ExecProgram::compile(&alu_loop()).unwrap();
        let cp = CompiledProgram::compile_all(exec.code(), exec.superblocks());
        assert_eq!(cp.blocks().len(), 2);

        // Setup block: two movis falling through into the loop block.
        let b0 = cp.block(cp.block_id_at(0).unwrap());
        assert_eq!((b0.start(), b0.body_len(), b0.slots()), (0, 2, 2));
        assert!(matches!(b0.term(), Term::Next(Link::Block(1))));

        // Loop block: add+addi body plus the bne terminator; the taken
        // edge chains straight back to the block itself, the fall edge
        // deoptimizes at the store.
        let b1 = cp.block(cp.block_id_at(2).unwrap());
        assert_eq!((b1.start(), b1.body_len(), b1.slots()), (2, 2, 3));
        match *b1.term() {
            Term::Branch { taken, fall, .. } => {
                assert_eq!(taken, Link::Block(1));
                assert_eq!(fall, Link::Exit(5));
            }
            ref t => panic!("unexpected terminator {t:?}"),
        }
        // Histogram per entry: two `add`-class ops and one branch.
        let add = op_id(&I::Add { rd: r(1), ra: r(1), rb: r(1) });
        let bne = op_id(&I::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 0 });
        let mut counts = b1.op_counts().to_vec();
        counts.sort_unstable();
        assert_eq!(counts, vec![(add, 2), (bne, 1)]);
    }

    #[test]
    fn body_closure_applies_register_effects() {
        let exec = ExecProgram::compile(&alu_loop()).unwrap();
        let cp = CompiledProgram::compile_all(exec.code(), exec.superblocks());
        let b1 = cp.block(cp.block_id_at(2).unwrap());
        let mut regs: Regs = [0; REGS_PER_TASKLET];
        regs[1] = 10;
        b1.run(&mut regs, 0);
        assert_eq!(regs[2], 10, "add r2, r2, r1");
        assert_eq!(regs[1], 9, "addi r1, r1, -1");
    }

    #[test]
    fn writes_to_r0_are_folded_out() {
        let p = Program::new(vec![
            I::Movi { rd: r(0), imm: 42 },
            I::Add { rd: r(0), ra: r(1), rb: r(1) },
            I::Halt,
        ]);
        let exec = ExecProgram::compile(&p).unwrap();
        let cp = CompiledProgram::compile_all(exec.code(), exec.superblocks());
        let b = cp.block(cp.block_id_at(0).unwrap());
        let mut regs: Regs = [7; REGS_PER_TASKLET];
        regs[0] = 0;
        b.run(&mut regs, 3);
        assert_eq!(regs[0], 0, "r0 stays hardwired zero");
    }

    #[test]
    fn tasklet_id_marks_the_block_sensitive() {
        let p = Program::new(vec![
            I::TaskletId { rd: r(1) },
            I::Addi { rd: r(1), ra: r(1), imm: 1 },
            I::Halt,
        ]);
        let exec = ExecProgram::compile(&p).unwrap();
        let cp = CompiledProgram::compile_all(exec.code(), exec.superblocks());
        let b = cp.block(cp.block_id_at(0).unwrap());
        assert!(b.tasklet_sensitive());
        let mut regs: Regs = [0; REGS_PER_TASKLET];
        b.run(&mut regs, 5);
        assert_eq!(regs[1], 6);
    }

    #[test]
    fn filtered_compilation_turns_links_into_deopts() {
        let exec = ExecProgram::compile(&alu_loop()).unwrap();
        // Keep only the setup block: its fall-through must now exit.
        let cp = CompiledProgram::compile_filtered(exec.code(), exec.superblocks(), |s| s == 0);
        assert_eq!(cp.blocks().len(), 1);
        assert!(cp.block_id_at(2).is_none());
        assert!(matches!(cp.block(0).term(), Term::Next(Link::Exit(2))));
        // And the inverse: keep only the loop; its taken edge self-chains.
        let cp = CompiledProgram::compile_filtered(exec.code(), exec.superblocks(), |s| s == 2);
        assert!(matches!(cp.block(0).term(), Term::Branch { taken: Link::Block(0), .. }));
    }

    #[test]
    fn compile_hot_uses_attribution_entries() {
        use crate::machine::{Machine, Observe, RunSpec};
        let exec = ExecProgram::compile(&alu_loop()).unwrap();
        let mut attr = CycleAttribution::new();
        let mut m = Machine::default();
        m.execute(&exec, RunSpec { observe: Observe::Profile(&mut attr), ..RunSpec::new(1) })
            .unwrap();
        // The loop head is entered 10 times, the setup block once: with a
        // threshold between the two, only the loop compiles.
        let cp = CompiledProgram::compile_hot(exec.code(), exec.superblocks(), &attr, 5);
        assert_eq!(cp.blocks().len(), 1);
        assert_eq!(cp.block(0).start(), 2);
        // Threshold above every count: nothing compiles, pure superblock
        // behavior.
        let none = CompiledProgram::compile_hot(exec.code(), exec.superblocks(), &attr, 1_000);
        assert!(none.is_empty());
    }

    #[test]
    fn empty_program_compiles_to_nothing() {
        let sb = Superblocks::analyze(&[]);
        let cp = CompiledProgram::compile_all(&[], &sb);
        assert!(cp.is_empty());
        assert!(cp.block_id_at(0).is_none());
        assert_eq!(cp.link_of(0), Link::Exit(0));
    }
}
