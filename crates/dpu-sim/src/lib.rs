//! # dpu-sim — a simulator of the UPMEM DPU
//!
//! This crate is the hardware substrate of the reproduction: a functional and
//! timing simulator of the UPMEM DRAM Processing Unit (DPU) as described in
//! the thesis *"Implementation and Evaluation of Deep Neural Networks in
//! Commercially Available Processing in Memory Hardware"* (Das, 2022) and the
//! UPMEM white paper it cites.
//!
//! The simulated device follows the published architecture (Table 2.1 of the
//! paper):
//!
//! * a RISC-style in-order core with an **11-stage pipeline** operated as a
//!   *revolver*: every cycle the dispatcher issues one instruction from a
//!   ready hardware thread ("tasklet"), and a tasklet may only have a single
//!   instruction in flight, so its next instruction can issue at the earliest
//!   11 cycles after the previous one;
//! * **1–24 tasklets** with 32 general-purpose 32-bit registers each;
//! * three memories: 24 KiB instruction RAM (**IRAM**), 64 KiB working RAM
//!   (**WRAM**, single-cycle access), and 64 MiB main RAM (**MRAM**) reachable
//!   only through a DMA engine that costs `25 + bytes/2` cycles per transfer
//!   (Eq. 3.4 of the paper);
//! * **no hardware support** for 32-bit multiplication/division or any
//!   floating-point operation — these are executed by software subroutines
//!   (`__mulsi3`, `__addsf3`, …) whose cycle costs dominate high-precision
//!   kernels (Table 3.1 of the paper).
//!
//! Two tiers of fidelity are offered:
//!
//! 1. the **ISA interpreter** ([`machine::Machine`]) executes [`isa::Instr`]
//!    programs over the simulated memories, cycle-accounted by
//!    [`pipeline::Pipeline`] — used for microbenchmarks and small kernels;
//! 2. the **kernel cycle model** ([`cost::OpCounts`] +
//!    [`cost::CycleModel`]) converts an operation tally produced by a native
//!    Rust kernel into a cycle estimate using the same pipeline law — used for
//!    workloads too large to interpret instruction-by-instruction.
//!
//! Both tiers share the calibrated cost tables in [`subroutines`], which
//! reproduce Table 3.1 of the paper within ~1.5 %.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod chunk;
pub mod cost;
pub mod ecc;
pub mod engine_stats;
pub mod error;
pub mod exec;
pub mod faults;
pub mod isa;
mod lanes;
pub mod machine;
pub mod memory;
pub mod params;
pub mod perfcounter;
pub mod pipeline;
pub mod profiler;
mod replay;
pub mod subroutines;
pub mod system;

pub use engine_stats::EngineStats;
pub use error::{Error, Result};
pub use exec::ExecProgram;
pub use faults::{AttemptFaults, FaultConfig, FaultKind, FaultPlan, InjectedFault};
pub use isa::{Instr, Program, Reg};
pub use machine::{
    Engine, IntegrityCounters, Machine, MachineSnapshot, Observe, RunResult, RunSpec,
};
pub use memory::{CowMemory, DmaEngine, MemorySnapshot, Mram, ScrubReport, Wram, MRAM_PAGE_BYTES};
pub use params::DpuParams;
pub use pipeline::Pipeline;
pub use profiler::{BlockCycles, CycleAttribution, Profiler, SubroutineCycles};
pub use subroutines::Subroutine;
pub use system::{DpuId, MramResidency, PimSystem, Rank};
