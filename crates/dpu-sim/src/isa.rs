//! The simulated DPU instruction set.
//!
//! The real DPU executes a proprietary RISC ISA; the paper only relies on a
//! few of its properties — in-order single-issue execution, one instruction
//! slot per pipeline rotation, hardware support limited to 32-bit integer
//! add/sub/logic/shift plus an 8×8 multiply step, and software subroutines
//! for everything wider (paper §3.3). This module defines a compact ISA with
//! exactly those properties.
//!
//! Registers are 32-bit. `r0` is hardwired to zero (writes are discarded),
//! which keeps the assembler and generated kernels simple. Each tasklet has
//! its own register file of [`crate::params::REGS_PER_TASKLET`] registers.

use crate::subroutines::Subroutine;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A register name (`r0`..`r31`). `r0` always reads zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

impl Reg {
    /// The zero register.
    pub const ZERO: Reg = Reg(0);

    /// Numeric index of the register.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if unsigned less-than.
    Ltu,
    /// Branch if unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// Evaluate the condition over two register values.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Ltu => "ltu",
            Cond::Geu => "geu",
        };
        f.write_str(s)
    }
}

/// Width of a WRAM load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Width {
    /// One byte.
    B,
    /// Two bytes (halfword).
    H,
    /// Four bytes (word).
    W,
}

impl Width {
    /// Size of the access in bytes.
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
        }
    }
}

/// One DPU instruction.
///
/// Every variant occupies one issue slot in the pipeline except
/// [`Instr::CallSub`] (which occupies as many slots as the subroutine has
/// instructions) and the MRAM DMA variants (which block the issuing tasklet
/// for the Eq. 3.4 transfer duration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // field meanings are uniform: rd dest, ra/rb sources
pub enum Instr {
    /// Do nothing for one slot.
    Nop,
    /// Stop this tasklet.
    Halt,
    /// `rd <- imm`.
    Movi { rd: Reg, imm: i32 },
    /// `rd <- ra`.
    Mov { rd: Reg, ra: Reg },
    /// `rd <- ra + rb` (wrapping).
    Add { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra + imm` (wrapping).
    Addi { rd: Reg, ra: Reg, imm: i32 },
    /// `rd <- ra - rb` (wrapping).
    Sub { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra & rb`.
    And { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra | rb`.
    Or { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra ^ rb`.
    Xor { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra << (rb & 31)`.
    Lsl { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra >> (rb & 31)` (logical).
    Lsr { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra >> (rb & 31)` (arithmetic).
    Asr { rd: Reg, ra: Reg, rb: Reg },
    /// `rd <- ra << sh`.
    Lsli { rd: Reg, ra: Reg, sh: u8 },
    /// `rd <- ra >> sh` (logical).
    Lsri { rd: Reg, ra: Reg, sh: u8 },
    /// `rd <- ra >> sh` (arithmetic).
    Asri { rd: Reg, ra: Reg, sh: u8 },
    /// Hardware 8×8 → 16-bit unsigned multiply step:
    /// `rd <- (ra & 0xff) * (rb & 0xff)`.
    ///
    /// This is the only multiplication the DPU supports in hardware; the
    /// compiler builds 8-bit multiplies from a handful of these (the paper's
    /// §5.2.2 quotes g(8) = 4 instructions) and calls `__mulsi3` for wider
    /// operands.
    Mul8 { rd: Reg, ra: Reg, rb: Reg },
    /// Population count: `rd <- popcount(ra)`.
    ///
    /// Binary neural networks reduce convolution to XNOR + popcount; the DPU
    /// exposes this as a native instruction.
    Popcount { rd: Reg, ra: Reg },
    /// WRAM load: `rd <- wram[ra + off]` (zero-extended).
    Load { width: Width, rd: Reg, ra: Reg, off: i32 },
    /// WRAM store: `wram[ra + off] <- rs`.
    Store { width: Width, ra: Reg, off: i32, rs: Reg },
    /// DMA read `len` bytes from MRAM address `mram` into WRAM address
    /// `wram`. Blocks the issuing tasklet for `25 + len/2` cycles (Eq. 3.4).
    MramRead { wram: Reg, mram: Reg, len: Reg },
    /// DMA write `len` bytes from WRAM address `wram` to MRAM address `mram`.
    MramWrite { wram: Reg, mram: Reg, len: Reg },
    /// Conditional branch to the absolute instruction index `target`.
    Branch { cond: Cond, ra: Reg, rb: Reg, target: u32 },
    /// Unconditional jump to instruction index `target`.
    Jump { target: u32 },
    /// Jump-and-link: `rd <- pc + 1; pc <- target`.
    Jal { rd: Reg, target: u32 },
    /// Jump to the address held in `ra` (returns from `Jal`).
    Jr { ra: Reg },
    /// Invoke a software subroutine (see [`Subroutine`]).
    ///
    /// Functionally the result is computed immediately; for timing the
    /// tasklet issues as many slots as the subroutine's calibrated
    /// instruction count, and the profiler records one occurrence — exactly
    /// what `dpu-profiling` reports on real hardware (paper Fig. 3.2).
    CallSub { sub: Subroutine, rd: Reg, ra: Reg, rb: Reg },
    /// Arm the performance counter (maps to `perfcounter_config`).
    PerfConfig,
    /// Read the performance counter into `rd` (maps to `perfcounter_get`).
    PerfRead { rd: Reg },
    /// `rd <-` index of the executing tasklet (maps to `me()`).
    TaskletId { rd: Reg },
    /// Emit the value of `ra` to the DPU log — the simulator's stand-in
    /// for the SDK's buffered `printf` that the host drains with
    /// `dpu_log_read` after a launch.
    Trace { ra: Reg },
    /// Block until every live tasklet reaches a barrier (the SDK's
    /// `barrier_wait(&my_barrier)`). Tasklets that have already halted do
    /// not participate.
    Barrier,
    /// Acquire hardware mutex `id` (the SDK's `mutex_lock`); blocks until
    /// available. The DPU provides a small set of hardware mutexes for
    /// tasklet-cooperative kernels.
    MutexLock {
        /// Mutex index (0..=255).
        id: u8,
    },
    /// Release hardware mutex `id` (`mutex_unlock`).
    MutexUnlock {
        /// Mutex index (0..=255).
        id: u8,
    },
}

impl Instr {
    /// Short mnemonic class for statistics (loads/stores collapse by
    /// width, branches by condition).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Nop => "nop",
            Instr::Halt => "halt",
            Instr::Movi { .. } => "movi",
            Instr::Mov { .. } => "mov",
            Instr::Add { .. } | Instr::Addi { .. } => "add",
            Instr::Sub { .. } => "sub",
            Instr::And { .. } => "and",
            Instr::Or { .. } => "or",
            Instr::Xor { .. } => "xor",
            Instr::Lsl { .. } | Instr::Lsli { .. } => "lsl",
            Instr::Lsr { .. } | Instr::Lsri { .. } => "lsr",
            Instr::Asr { .. } | Instr::Asri { .. } => "asr",
            Instr::Mul8 { .. } => "mul8",
            Instr::Popcount { .. } => "popcount",
            Instr::Load { .. } => "load",
            Instr::Store { .. } => "store",
            Instr::MramRead { .. } => "mram.read",
            Instr::MramWrite { .. } => "mram.write",
            Instr::Branch { .. } => "branch",
            Instr::Jump { .. } | Instr::Jal { .. } | Instr::Jr { .. } => "jump",
            Instr::CallSub { .. } => "call",
            Instr::PerfConfig | Instr::PerfRead { .. } => "perf",
            Instr::TaskletId { .. } => "me",
            Instr::Trace { .. } => "trace",
            Instr::Barrier => "barrier",
            Instr::MutexLock { .. } | Instr::MutexUnlock { .. } => "mutex",
        }
    }

    /// Number of pipeline issue slots the instruction occupies.
    ///
    /// Regular instructions take one slot; a subroutine call takes one slot
    /// per subroutine instruction (the call is inlined into the issue
    /// stream). DMA instructions take one slot — their stall is modelled
    /// separately by the pipeline.
    #[must_use]
    pub fn issue_slots(&self) -> u64 {
        match self {
            Instr::CallSub { sub, .. } => sub.instruction_count(),
            _ => 1,
        }
    }
}

/// Assembler syntax: [`crate::asm::assemble`] reads back what this
/// prints (branch and jump targets as absolute indices).
impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Movi { rd, imm } => write!(f, "movi {rd}, {imm}"),
            Instr::Mov { rd, ra } => write!(f, "mov {rd}, {ra}"),
            Instr::Add { rd, ra, rb } => write!(f, "add {rd}, {ra}, {rb}"),
            Instr::Addi { rd, ra, imm } => write!(f, "addi {rd}, {ra}, {imm}"),
            Instr::Sub { rd, ra, rb } => write!(f, "sub {rd}, {ra}, {rb}"),
            Instr::And { rd, ra, rb } => write!(f, "and {rd}, {ra}, {rb}"),
            Instr::Or { rd, ra, rb } => write!(f, "or {rd}, {ra}, {rb}"),
            Instr::Xor { rd, ra, rb } => write!(f, "xor {rd}, {ra}, {rb}"),
            Instr::Lsl { rd, ra, rb } => write!(f, "lsl {rd}, {ra}, {rb}"),
            Instr::Lsr { rd, ra, rb } => write!(f, "lsr {rd}, {ra}, {rb}"),
            Instr::Asr { rd, ra, rb } => write!(f, "asr {rd}, {ra}, {rb}"),
            Instr::Lsli { rd, ra, sh } => write!(f, "lsli {rd}, {ra}, {sh}"),
            Instr::Lsri { rd, ra, sh } => write!(f, "lsri {rd}, {ra}, {sh}"),
            Instr::Asri { rd, ra, sh } => write!(f, "asri {rd}, {ra}, {sh}"),
            Instr::Mul8 { rd, ra, rb } => write!(f, "mul8 {rd}, {ra}, {rb}"),
            Instr::Popcount { rd, ra } => write!(f, "popcount {rd}, {ra}"),
            Instr::Load { width, rd, ra, off } => {
                let w = match width {
                    Width::B => "lb",
                    Width::H => "lh",
                    Width::W => "lw",
                };
                write!(f, "{w} {rd}, {ra}, {off}")
            }
            Instr::Store { width, ra, off, rs } => {
                let w = match width {
                    Width::B => "sb",
                    Width::H => "sh",
                    Width::W => "sw",
                };
                write!(f, "{w} {ra}, {off}, {rs}")
            }
            Instr::MramRead { wram, mram, len } => write!(f, "mram.read {wram}, {mram}, {len}"),
            Instr::MramWrite { wram, mram, len } => write!(f, "mram.write {wram}, {mram}, {len}"),
            Instr::Branch { cond, ra, rb, target } => write!(f, "b{cond} {ra}, {rb}, {target}"),
            Instr::Jump { target } => write!(f, "jmp {target}"),
            Instr::Jal { rd, target } => write!(f, "jal {rd}, {target}"),
            Instr::Jr { ra } => write!(f, "jr {ra}"),
            Instr::CallSub { sub, rd, ra, rb } => {
                let sym =
                    if sub == Subroutine::Mulsi3Short { "__mulsi3.short" } else { sub.symbol() };
                write!(f, "call {sym} {rd}, {ra}, {rb}")
            }
            Instr::PerfConfig => write!(f, "perf.config"),
            Instr::PerfRead { rd } => write!(f, "perf.read {rd}"),
            Instr::TaskletId { rd } => write!(f, "me {rd}"),
            Instr::Trace { ra } => write!(f, "trace {ra}"),
            Instr::Barrier => write!(f, "barrier"),
            Instr::MutexLock { id } => write!(f, "mutex.lock {id}"),
            Instr::MutexUnlock { id } => write!(f, "mutex.unlock {id}"),
        }
    }
}

/// An assembled DPU program: a flat instruction vector plus named labels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Instruction stream; the program counter indexes this vector.
    pub instrs: Vec<Instr>,
    /// Label name → instruction index.
    pub labels: HashMap<String, u32>,
}

/// Bytes one instruction slot occupies in IRAM (the real DPU uses wide
/// 64-bit-encoded instructions).
pub const INSTR_BYTES: usize = 8;

impl Program {
    /// Create a program from a raw instruction vector.
    #[must_use]
    pub fn new(instrs: Vec<Instr>) -> Self {
        Self { instrs, labels: HashMap::new() }
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// IRAM footprint in bytes.
    #[must_use]
    pub fn iram_bytes(&self) -> usize {
        self.instrs.len() * INSTR_BYTES
    }

    /// Look up a label.
    ///
    /// # Errors
    /// Returns [`crate::Error::UnknownSymbol`] when the label is absent.
    pub fn label(&self, name: &str) -> crate::Result<u32> {
        self.labels
            .get(name)
            .copied()
            .ok_or_else(|| crate::Error::UnknownSymbol { name: name.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        // -1 < 1 signed, but 0xffff_ffff > 1 unsigned.
        assert!(Cond::Lt.eval(-1i32 as u32, 1));
        assert!(!Cond::Ltu.eval(-1i32 as u32, 1));
        assert!(Cond::Geu.eval(-1i32 as u32, 1));
        assert!(Cond::Eq.eval(7, 7));
        assert!(Cond::Ne.eval(7, 8));
        assert!(Cond::Ge.eval(3, 3));
    }

    #[test]
    fn issue_slots_for_plain_and_subroutine() {
        let plain = Instr::Add { rd: Reg(1), ra: Reg(2), rb: Reg(3) };
        assert_eq!(plain.issue_slots(), 1);
        let call = Instr::CallSub { sub: Subroutine::Mulsf3, rd: Reg(1), ra: Reg(2), rb: Reg(3) };
        assert_eq!(call.issue_slots(), Subroutine::Mulsf3.instruction_count());
        assert!(call.issue_slots() > 100);
    }

    #[test]
    fn display_round_trips_common_shapes() {
        let i = Instr::Load { width: Width::W, rd: Reg(5), ra: Reg(2), off: -8 };
        assert_eq!(i.to_string(), "lw r5, r2, -8");
        let b = Instr::Branch { cond: Cond::Ne, ra: Reg(1), rb: Reg(0), target: 3 };
        assert_eq!(b.to_string(), "bne r1, r0, 3");
    }

    #[test]
    fn program_labels() {
        let mut p = Program::new(vec![Instr::Nop, Instr::Halt]);
        p.labels.insert("loop".into(), 1);
        assert_eq!(p.label("loop").unwrap(), 1);
        assert!(p.label("missing").is_err());
        assert_eq!(p.iram_bytes(), 16);
    }
}

impl Program {
    /// Statically validate the program: every branch/jump/call target must
    /// land inside the instruction stream. Catches mis-assembled control
    /// flow before a launch instead of as a runtime
    /// [`crate::Error::PcOutOfRange`]. (`Jr` targets are dynamic and remain
    /// runtime-checked.)
    ///
    /// # Errors
    /// [`crate::Error::PcOutOfRange`] naming the first bad target.
    pub fn validate(&self) -> crate::Result<()> {
        let len = self.instrs.len();
        for instr in &self.instrs {
            let target = match *instr {
                Instr::Branch { target, .. }
                | Instr::Jump { target }
                | Instr::Jal { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if t as usize >= len {
                    return Err(crate::Error::PcOutOfRange { pc: t as usize, len });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;

    #[test]
    fn valid_program_passes() {
        let p = Program::new(vec![
            Instr::Jump { target: 1 },
            Instr::Branch { cond: Cond::Ne, ra: Reg(1), rb: Reg(0), target: 0 },
            Instr::Halt,
        ]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn out_of_range_targets_rejected() {
        for bad in [
            Instr::Jump { target: 3 },
            Instr::Branch { cond: Cond::Eq, ra: Reg(0), rb: Reg(0), target: 99 },
            Instr::Jal { rd: Reg(1), target: 3 },
        ] {
            let p = Program::new(vec![bad, Instr::Halt]);
            assert!(matches!(p.validate(), Err(crate::Error::PcOutOfRange { .. })), "{bad:?}");
        }
    }
}
