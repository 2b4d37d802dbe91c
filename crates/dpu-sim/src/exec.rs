//! Pre-decoded execution form of a [`Program`].
//!
//! The interpreter's hot loop used to pay two avoidable costs on every
//! issued instruction: a `BTreeMap<&str, u64>` update for the op histogram
//! (a string-keyed tree walk) and, through [`Program`], no way to attach
//! per-instruction metadata computed once. [`ExecProgram`] fixes both: it
//! pairs every instruction with a compact opcode-class id assigned at
//! decode time, so the interpreter counts ops in a fixed-size array
//! indexed by id and folds the array into the public `BTreeMap` only when
//! the run completes.
//!
//! Decoding is cheap (one linear pass) but still worth caching:
//! [`ExecProgram::compile`] also validates control flow, so the
//! load-once/launch-many host path (`DpuSet::load` +
//! `DpuSet::launch_loaded`) validates and decodes exactly once instead of
//! per launch.

use crate::isa::{Instr, Program};
use crate::replay::ReplayTable;
use std::sync::Arc;

/// Number of distinct mnemonic classes (see [`Instr::mnemonic`]).
pub const OP_COUNT: usize = 26;

/// Mnemonic of each opcode-class id; `OP_MNEMONICS[op_id(i)]` equals
/// `i.mnemonic()` for every instruction `i` (enforced by tests).
pub const OP_MNEMONICS: [&str; OP_COUNT] = [
    "nop",
    "halt",
    "movi",
    "mov",
    "add",
    "sub",
    "and",
    "or",
    "xor",
    "lsl",
    "lsr",
    "asr",
    "mul8",
    "popcount",
    "load",
    "store",
    "mram.read",
    "mram.write",
    "branch",
    "jump",
    "call",
    "perf",
    "me",
    "trace",
    "barrier",
    "mutex",
];

/// Compact opcode-class id of an instruction (index into
/// [`OP_MNEMONICS`]).
#[must_use]
pub fn op_id(instr: &Instr) -> u8 {
    match instr {
        Instr::Nop => 0,
        Instr::Halt => 1,
        Instr::Movi { .. } => 2,
        Instr::Mov { .. } => 3,
        Instr::Add { .. } | Instr::Addi { .. } => 4,
        Instr::Sub { .. } => 5,
        Instr::And { .. } => 6,
        Instr::Or { .. } => 7,
        Instr::Xor { .. } => 8,
        Instr::Lsl { .. } | Instr::Lsli { .. } => 9,
        Instr::Lsr { .. } | Instr::Lsri { .. } => 10,
        Instr::Asr { .. } | Instr::Asri { .. } => 11,
        Instr::Mul8 { .. } => 12,
        Instr::Popcount { .. } => 13,
        Instr::Load { .. } => 14,
        Instr::Store { .. } => 15,
        Instr::MramRead { .. } => 16,
        Instr::MramWrite { .. } => 17,
        Instr::Branch { .. } => 18,
        Instr::Jump { .. } | Instr::Jal { .. } | Instr::Jr { .. } => 19,
        Instr::CallSub { .. } => 20,
        Instr::PerfConfig | Instr::PerfRead { .. } => 21,
        Instr::TaskletId { .. } => 22,
        Instr::Trace { .. } => 23,
        Instr::Barrier => 24,
        Instr::MutexLock { .. } | Instr::MutexUnlock { .. } => 25,
    }
}

/// One pre-decoded instruction slot: the instruction plus its opcode id,
/// kept adjacent so the interpreter touches one cache line per fetch.
#[derive(Debug, Clone, Copy)]
pub struct ExecInstr {
    /// The instruction itself.
    pub instr: Instr,
    /// Opcode-class id, an index into [`OP_MNEMONICS`].
    pub op: u8,
}

/// True when `instr` touches only the executing tasklet's private register
/// file: no shared memory, no control flow, no synchronization, and no
/// timing-visible side effect (DMA, perfcounter, DPU log). These are the
/// ops a superblock may contain — reordering them *across tasklets* is
/// unobservable, which is what lets the interpreter fast-forward a whole
/// block in one dispatch (see [`Superblocks`]).
#[must_use]
pub fn is_superblock_op(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Nop
            | Instr::Movi { .. }
            | Instr::Mov { .. }
            | Instr::Add { .. }
            | Instr::Addi { .. }
            | Instr::Sub { .. }
            | Instr::And { .. }
            | Instr::Or { .. }
            | Instr::Xor { .. }
            | Instr::Lsl { .. }
            | Instr::Lsli { .. }
            | Instr::Lsr { .. }
            | Instr::Lsri { .. }
            | Instr::Asr { .. }
            | Instr::Asri { .. }
            | Instr::Mul8 { .. }
            | Instr::Popcount { .. }
            | Instr::TaskletId { .. }
    )
}

/// A `match` on `$instr` whose first arms are the register-file ops — the
/// [`is_superblock_op`] ops — and the control-flow ops, followed by the
/// caller's `$rest` arms. The only definition of those ops: one row per
/// op. A register-file row reads `pattern => $apply!(ctx; rd, ra, rb, |a,
/// b, id| value)`: `rd` receives `value`, given the values `a` of `ra` and
/// `b` of `rb` and the executing tasklet's index `id`. A control-flow row
/// reads `pattern => $flow!(ctx; rd, ra, rb, |a, b, pc| (link, next))`:
/// `rd` receives `link` and the tasklet moves to `next`, given its `pc`.
/// The caller's two macros expand every row for one register file
/// (`Interp::exec_inline`) or for a group of lanes at a time
/// (`crate::lanes`), so each op is written once and dispatched from one
/// jump table either way. Writes to `r0` are dropped.
macro_rules! match_ops {
    ($instr:expr, $apply:ident!($($ctx:tt)*), $flow:ident!($($fctx:tt)*), { $($rest:tt)* }) => {{
        use $crate::isa::{Instr as I, Reg};
        match $instr {
            I::Nop => {}
            I::Movi { rd, imm } => $apply!($($ctx)*; rd, Reg::ZERO, Reg::ZERO, |_, _, _| imm as u32),
            I::Mov { rd, ra } => $apply!($($ctx)*; rd, ra, Reg::ZERO, |a, _, _| a),
            I::Add { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a.wrapping_add(b)),
            I::Addi { rd, ra, imm } => {
                $apply!($($ctx)*; rd, ra, Reg::ZERO, |a, _, _| a.wrapping_add(imm as u32))
            }
            I::Sub { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a.wrapping_sub(b)),
            I::And { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a & b),
            I::Or { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a | b),
            I::Xor { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a ^ b),
            I::Lsl { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a << (b & 31)),
            I::Lsr { rd, ra, rb } => $apply!($($ctx)*; rd, ra, rb, |a, b, _| a >> (b & 31)),
            I::Asr { rd, ra, rb } => {
                $apply!($($ctx)*; rd, ra, rb, |a, b, _| ((a as i32) >> (b & 31)) as u32)
            }
            I::Lsli { rd, ra, sh } => $apply!($($ctx)*; rd, ra, Reg::ZERO, |a, _, _| a << (sh & 31)),
            I::Lsri { rd, ra, sh } => $apply!($($ctx)*; rd, ra, Reg::ZERO, |a, _, _| a >> (sh & 31)),
            I::Asri { rd, ra, sh } => {
                $apply!($($ctx)*; rd, ra, Reg::ZERO, |a, _, _| ((a as i32) >> (sh & 31)) as u32)
            }
            I::Mul8 { rd, ra, rb } => {
                $apply!($($ctx)*; rd, ra, rb, |a, b, _| (a & 0xff) * (b & 0xff))
            }
            I::Popcount { rd, ra } => $apply!($($ctx)*; rd, ra, Reg::ZERO, |a, _, _| a.count_ones()),
            I::TaskletId { rd } => $apply!($($ctx)*; rd, Reg::ZERO, Reg::ZERO, |_, _, id| id),
            I::Branch { cond, ra, rb, target } => $flow!($($fctx)*; Reg::ZERO, ra, rb, |a, b, pc| {
                (0, if cond.eval(a, b) { target } else { pc.wrapping_add(1) })
            }),
            I::Jump { target } => $flow!($($fctx)*; Reg::ZERO, Reg::ZERO, Reg::ZERO, |_, _, _| {
                (0, target)
            }),
            I::Jal { rd, target } => $flow!($($fctx)*; rd, Reg::ZERO, Reg::ZERO, |_, _, pc| {
                (pc.wrapping_add(1), target)
            }),
            I::Jr { ra } => $flow!($($fctx)*; Reg::ZERO, ra, Reg::ZERO, |a, _, _| (0, a)),
            $($rest)*
        }
    }};
}
pub(crate) use match_ops;

/// The [`match_ops!`] control-flow callback for superblock code, which
/// holds none.
macro_rules! no_flow {
    (; $rd:expr, $ra:expr, $rb:expr, |$a:pat_param, $b:pat_param, $pc:pat_param| $value:expr) => {{
        let _row = ($rd, $ra, $rb, |$a: u32, $b: u32, $pc: u32| $value);
        unreachable!("superblocks hold register-file ops only")
    }};
}
pub(crate) use no_flow;

/// Sentinel in the pc → head index map: this pc does not start a block.
const NO_HEAD: u32 = u32::MAX;

/// Memoized facts about one superblock, computed once at decode time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// First instruction of the block.
    pub start: u32,
    /// Number of instructions (every superblock op is a single issue slot,
    /// so this is also the block's issue-slot count).
    pub len: u32,
    /// Sparse opcode-id histogram of the block: `(op_id, count)` pairs,
    /// folded into the run's fixed-size op array in one pass instead of
    /// one increment per executed instruction.
    pub op_counts: Vec<(u8, u32)>,
}

impl BlockMeta {
    /// Cycles a lone tasklet spends issuing this block under a pipeline of
    /// the given depth: one issue per rotation.
    #[must_use]
    pub fn cycle_delta(&self, stages: u64) -> u64 {
        u64::from(self.len) * stages
    }
}

/// Superblock decomposition of a decoded instruction stream.
///
/// A *superblock* is a maximal straight-line run of [`is_superblock_op`]
/// instructions containing no branch, synchronization (barrier/mutex), DMA
/// or perfcounter op, split additionally at every static branch/jump
/// target (side entries start their own block). The interpreter uses the
/// decomposition to replay a whole block in one dispatch with a memoized
/// cycle delta — see `Machine::run_exec` — which is observationally
/// invisible because block ops touch only the executing tasklet's private
/// registers.
///
/// Two views are kept:
///
/// * `len_at(pc)` — how many block instructions start at `pc` (a suffix
///   length, so entering a block mid-way through a computed jump still
///   fast-forwards the remainder);
/// * `head_meta(pc)` — the memoized [`BlockMeta`] when `pc` is a block
///   head (program start, post-block fall-through, or branch target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblocks {
    /// Per-pc: number of consecutive superblock ops executable from this
    /// pc before the next block boundary (0 when `code[pc]` is not a
    /// superblock op).
    exec_len: Vec<u32>,
    /// Per-pc: index into `heads`, or [`NO_HEAD`].
    head_idx: Vec<u32>,
    /// Memoized metadata of every block head.
    heads: Vec<BlockMeta>,
}

impl Superblocks {
    /// Decompose `code` into superblocks. One linear pass over the stream
    /// plus one pass over the blocks to memoize their op counts.
    #[must_use]
    pub fn analyze(code: &[ExecInstr]) -> Self {
        let n = code.len();
        // Raw suffix run lengths of superblock ops.
        let mut run = vec![0u32; n];
        for i in (0..n).rev() {
            if is_superblock_op(&code[i].instr) {
                run[i] = 1 + if i + 1 < n { run[i + 1] } else { 0 };
            }
        }
        // Entry points: program start, fall-through after a non-block op,
        // and every static control-flow target (side entries split blocks
        // so entering at a head always covers a whole memoized block).
        let mut is_entry = vec![false; n];
        if n > 0 {
            is_entry[0] = true;
        }
        for (i, slot) in code.iter().enumerate() {
            match slot.instr {
                Instr::Branch { target, .. }
                | Instr::Jump { target }
                | Instr::Jal { target, .. }
                    if (target as usize) < n =>
                {
                    is_entry[target as usize] = true;
                }
                _ => {}
            }
            if !is_superblock_op(&slot.instr) && i + 1 < n {
                is_entry[i + 1] = true;
            }
        }
        // Executable length from each pc: the suffix run truncated at the
        // next entry point.
        let mut exec_len = vec![0u32; n];
        for i in (0..n).rev() {
            if run[i] == 0 {
                continue;
            }
            exec_len[i] = if i + 1 < n && run[i + 1] > 0 && !is_entry[i + 1] {
                exec_len[i + 1] + 1
            } else {
                1
            };
        }
        // Memoize per-head op counts.
        let mut head_idx = vec![NO_HEAD; n];
        let mut heads = Vec::new();
        for pc in 0..n {
            if exec_len[pc] == 0 || !is_entry[pc] {
                continue;
            }
            let len = exec_len[pc];
            let mut counts: Vec<(u8, u32)> = Vec::new();
            for slot in &code[pc..pc + len as usize] {
                match counts.iter_mut().find(|(op, _)| *op == slot.op) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((slot.op, 1)),
                }
            }
            head_idx[pc] = heads.len() as u32;
            heads.push(BlockMeta { start: pc as u32, len, op_counts: counts });
        }
        Self { exec_len, head_idx, heads }
    }

    /// Number of consecutive superblock instructions executable from `pc`
    /// before the next block boundary; 0 when `pc` is out of range or the
    /// instruction there is not a superblock op.
    #[must_use]
    pub fn len_at(&self, pc: usize) -> u32 {
        self.exec_len.get(pc).copied().unwrap_or(0)
    }

    /// Memoized metadata when `pc` is a block head.
    #[must_use]
    pub fn head_meta(&self, pc: usize) -> Option<&BlockMeta> {
        let idx = *self.head_idx.get(pc)?;
        if idx == NO_HEAD {
            None
        } else {
            Some(&self.heads[idx as usize])
        }
    }

    /// Every block head, in program order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.heads
    }

    /// The canonical partition of the instruction stream: superblocks and
    /// singleton units for every non-block instruction, as `(start, len)`
    /// pairs. Concatenated in order, the pieces reproduce `0..len` exactly
    /// (pinned by a proptest).
    #[must_use]
    pub fn partition(&self) -> Vec<(u32, u32)> {
        let mut parts = Vec::new();
        let mut pc = 0usize;
        while pc < self.exec_len.len() {
            let len = self.exec_len[pc].max(1);
            parts.push((pc as u32, len));
            pc += len as usize;
        }
        parts
    }
}

/// A [`Program`] decoded into its dense execution form.
///
/// Holds the source program (for labels, display and host symbol lookups)
/// alongside the decoded instruction stream the interpreter executes.
#[derive(Debug, Clone)]
pub struct ExecProgram {
    source: Program,
    code: Vec<ExecInstr>,
    superblocks: Superblocks,
    /// Recorded launches of this program (see [`crate::replay`]). Shared
    /// by clones — a recording depends only on the instruction stream,
    /// which clones share — and freed with the last of them.
    replay: Arc<ReplayTable>,
}

impl ExecProgram {
    /// Validate `program` (as [`Program::validate`]) and decode it.
    ///
    /// This is the entry point for cached execution: compile once, launch
    /// many times without re-validating.
    ///
    /// # Errors
    /// [`crate::Error::PcOutOfRange`] naming the first bad branch target.
    pub fn compile(program: &Program) -> crate::Result<Self> {
        program.validate()?;
        Ok(Self::decode(program))
    }

    /// Decode without validating control flow. Branch targets stay
    /// runtime-checked (the interpreter bounds-checks every fetch), which
    /// preserves the semantics of [`crate::Machine::run`] on programs
    /// whose invalid targets are never executed.
    #[must_use]
    pub fn decode(program: &Program) -> Self {
        let code: Vec<ExecInstr> =
            program.instrs.iter().map(|&instr| ExecInstr { instr, op: op_id(&instr) }).collect();
        let superblocks = Superblocks::analyze(&code);
        Self { source: program.clone(), code, superblocks, replay: Arc::default() }
    }

    pub(crate) fn replay(&self) -> &ReplayTable {
        &self.replay
    }

    /// The source program this execution form was decoded from.
    #[must_use]
    pub fn source(&self) -> &Program {
        &self.source
    }

    /// The decoded instruction stream.
    #[must_use]
    pub fn code(&self) -> &[ExecInstr] {
        &self.code
    }

    /// The superblock decomposition computed at decode time.
    #[must_use]
    pub fn superblocks(&self) -> &Superblocks {
        &self.superblocks
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// IRAM footprint in bytes.
    #[must_use]
    pub fn iram_bytes(&self) -> usize {
        self.source.iram_bytes()
    }
}

/// Fold a fixed-size opcode-count array into the public histogram form.
/// Only classes that executed appear, matching the lazily-inserted map the
/// interpreter used to build per instruction.
#[must_use]
pub fn fold_histogram(counts: &[u64; OP_COUNT]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut map = std::collections::BTreeMap::new();
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            map.insert(OP_MNEMONICS[i], c);
        }
    }
    map
}

/// One instance of every instruction variant.
#[cfg(test)]
pub(crate) fn all_variants() -> Vec<Instr> {
    use crate::isa::{Cond, Reg, Width};
    use crate::subroutines::Subroutine;
    let r = Reg(1);
    vec![
        Instr::Nop,
        Instr::Halt,
        Instr::Movi { rd: r, imm: 1 },
        Instr::Mov { rd: r, ra: r },
        Instr::Add { rd: r, ra: r, rb: r },
        Instr::Addi { rd: r, ra: r, imm: 1 },
        Instr::Sub { rd: r, ra: r, rb: r },
        Instr::And { rd: r, ra: r, rb: r },
        Instr::Or { rd: r, ra: r, rb: r },
        Instr::Xor { rd: r, ra: r, rb: r },
        Instr::Lsl { rd: r, ra: r, rb: r },
        Instr::Lsr { rd: r, ra: r, rb: r },
        Instr::Asr { rd: r, ra: r, rb: r },
        Instr::Lsli { rd: r, ra: r, sh: 1 },
        Instr::Lsri { rd: r, ra: r, sh: 1 },
        Instr::Asri { rd: r, ra: r, sh: 1 },
        Instr::Mul8 { rd: r, ra: r, rb: r },
        Instr::Popcount { rd: r, ra: r },
        Instr::Load { width: Width::W, rd: r, ra: r, off: 0 },
        Instr::Store { width: Width::W, ra: r, off: 0, rs: r },
        Instr::MramRead { wram: r, mram: r, len: r },
        Instr::MramWrite { wram: r, mram: r, len: r },
        Instr::Branch { cond: Cond::Ne, ra: r, rb: r, target: 0 },
        Instr::Jump { target: 0 },
        Instr::Jal { rd: r, target: 0 },
        Instr::Jr { ra: r },
        Instr::CallSub { sub: Subroutine::Mulsi3, rd: r, ra: r, rb: r },
        Instr::PerfConfig,
        Instr::PerfRead { rd: r },
        Instr::TaskletId { rd: r },
        Instr::Trace { ra: r },
        Instr::Barrier,
        Instr::MutexLock { id: 0 },
        Instr::MutexUnlock { id: 0 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Reg};

    #[test]
    fn op_ids_agree_with_mnemonics_for_every_variant() {
        for i in all_variants() {
            let id = op_id(&i) as usize;
            assert!(id < OP_COUNT, "{i:?}");
            assert_eq!(OP_MNEMONICS[id], i.mnemonic(), "{i:?}");
        }
    }

    #[test]
    fn every_op_id_is_reachable() {
        let mut seen = [false; OP_COUNT];
        for i in all_variants() {
            seen[op_id(&i) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "unused opcode id: {seen:?}");
    }

    #[test]
    fn compile_validates_and_decode_does_not() {
        let bad = Program::new(vec![Instr::Jump { target: 7 }]);
        assert!(ExecProgram::compile(&bad).is_err());
        let exec = ExecProgram::decode(&bad);
        assert_eq!(exec.len(), 1);
        assert_eq!(exec.iram_bytes(), 8);
    }

    #[test]
    fn decoded_stream_mirrors_source() {
        let p = Program::new(all_variants());
        let exec = ExecProgram::compile(&p).unwrap();
        assert_eq!(exec.len(), p.len());
        assert!(!exec.is_empty());
        assert_eq!(exec.source(), &p);
        for (ei, i) in exec.code().iter().zip(&p.instrs) {
            assert_eq!(ei.instr, *i);
            assert_eq!(ei.op, op_id(i));
        }
    }

    #[test]
    fn fold_histogram_skips_untouched_classes() {
        let mut counts = [0u64; OP_COUNT];
        counts[op_id(&Instr::Nop) as usize] = 3;
        counts[op_id(&Instr::Barrier) as usize] = 1;
        let map = fold_histogram(&counts);
        assert_eq!(map.len(), 2);
        assert_eq!(map["nop"], 3);
        assert_eq!(map["barrier"], 1);
    }

    fn decode_instrs(instrs: Vec<Instr>) -> Vec<ExecInstr> {
        instrs.into_iter().map(|instr| ExecInstr { op: op_id(&instr), instr }).collect()
    }

    #[test]
    fn superblock_classification_matches_variant_census() {
        // Exactly the register-private, single-slot ops qualify.
        for instr in all_variants() {
            let pure = is_superblock_op(&instr);
            let expect = !matches!(
                instr,
                Instr::Load { .. }
                    | Instr::Store { .. }
                    | Instr::MramRead { .. }
                    | Instr::MramWrite { .. }
                    | Instr::Branch { .. }
                    | Instr::Jump { .. }
                    | Instr::Jal { .. }
                    | Instr::Jr { .. }
                    | Instr::CallSub { .. }
                    | Instr::PerfConfig
                    | Instr::PerfRead { .. }
                    | Instr::Trace { .. }
                    | Instr::Barrier
                    | Instr::MutexLock { .. }
                    | Instr::MutexUnlock { .. }
                    | Instr::Halt
            );
            assert_eq!(pure, expect, "{instr:?}");
        }
    }

    #[test]
    fn superblocks_split_at_branch_targets_and_impure_ops() {
        let r = Reg(1);
        // 0: movi  ┐ block A truncated at 1 (branch target)
        // 1: addi  ┐ block B (len 2: side entry starts its own block)
        // 2: add   ┘
        // 3: bne -> 1
        // 4: movi  ─ block C (len 1)
        // 5: halt
        let code = decode_instrs(vec![
            Instr::Movi { rd: r, imm: 7 },
            Instr::Addi { rd: r, ra: r, imm: 1 },
            Instr::Add { rd: r, ra: r, rb: r },
            Instr::Branch { cond: Cond::Ne, ra: r, rb: Reg(0), target: 1 },
            Instr::Movi { rd: r, imm: 0 },
            Instr::Halt,
        ]);
        let sb = Superblocks::analyze(&code);

        assert_eq!(sb.len_at(0), 1, "block A truncated at the side entry");
        assert_eq!(sb.len_at(1), 2);
        assert_eq!(sb.len_at(2), 1, "suffix of block B");
        assert_eq!(sb.len_at(3), 0, "branch is not a block op");
        assert_eq!(sb.len_at(4), 1);
        assert_eq!(sb.len_at(5), 0, "halt is not a block op");
        assert_eq!(sb.len_at(6), 0, "out of range");

        // Heads: 0 (program start), 1 (branch target), 4 (fall-through
        // after the branch). pc 2 is a mid-block suffix, not a head.
        assert_eq!(sb.head_meta(0).map(|m| (m.start, m.len)), Some((0, 1)));
        assert_eq!(sb.head_meta(1).map(|m| (m.start, m.len)), Some((1, 2)));
        assert!(sb.head_meta(2).is_none());
        assert_eq!(sb.head_meta(4).map(|m| (m.start, m.len)), Some((4, 1)));

        // Memoized op counts for block B: addi and add share the "add"
        // opcode class, so one entry with count 2.
        let meta = sb.head_meta(1).unwrap();
        let add = op_id(&Instr::Add { rd: r, ra: r, rb: r });
        assert_eq!(meta.op_counts, vec![(add, 2)]);
        assert_eq!(meta.cycle_delta(11), 22);
    }

    #[test]
    fn superblock_partition_covers_stream_exactly() {
        let r = Reg(2);
        let code = decode_instrs(vec![
            Instr::Movi { rd: r, imm: 3 },
            Instr::Add { rd: r, ra: r, rb: r },
            Instr::Barrier,
            Instr::Sub { rd: r, ra: r, rb: r },
            Instr::Jump { target: 0 },
        ]);
        let sb = Superblocks::analyze(&code);
        assert_eq!(sb.partition(), vec![(0, 2), (2, 1), (3, 1), (4, 1)]);
        // Every head is the start of a partition piece with the same length.
        for meta in sb.blocks() {
            assert!(sb.partition().contains(&(meta.start, meta.len)), "{meta:?}");
        }
    }

    #[test]
    fn superblocks_of_empty_program_are_empty() {
        let sb = Superblocks::analyze(&[]);
        assert_eq!(sb.len_at(0), 0);
        assert!(sb.head_meta(0).is_none());
        assert!(sb.blocks().is_empty());
        assert!(sb.partition().is_empty());
    }
}
