//! # pim-host — host runtime for the simulated UPMEM system
//!
//! The UPMEM SDK exposes the PIM DIMMs to the host as a memory-centric
//! accelerator: the host allocates *sets* of DPUs, copies data into named
//! MRAM symbols, launches a compiled DPU program on every DPU of the set,
//! and reads results back (paper §3.1–§3.2). This crate reproduces that
//! programming model over [`dpu_sim`]:
//!
//! * [`DpuSet`] — allocation and lifetime of a group of simulated DPUs;
//! * [`SymbolTable`] — named MRAM/WRAM regions, the moral equivalent of DPU
//!   program symbols;
//! * broadcast transfers ([`DpuSet::copy_to`], Eq. 3.1 of the paper),
//!   the per-DPU scatter ([`DpuSet::copy_each`], Eqs. 3.2–3.3:
//!   `dpu_prepare_xfer` + `dpu_push_xfer`) and per-DPU reads
//!   ([`DpuSet::copy_from_dpu`]);
//! * the **8-byte rule** ([`align`]): every host↔MRAM transfer must be
//!   8-byte aligned and sized, so buffers are padded and the true length is
//!   communicated separately — exactly the workaround the paper describes;
//! * [`DpuSet::launch`] — run a Tier-1 [`dpu_sim::Program`] on all DPUs of
//!   the set (in parallel across host threads) and collect per-DPU results;
//! * [`exec`] — Tier-2 kernel accounting: native-Rust kernels tally
//!   [`dpu_sim::cost::OpCounts`] per tasklet and get a pipeline-law cycle
//!   estimate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod crc32c;
pub mod error;
pub mod exec;
pub mod launch;
pub mod link;
pub mod observe;
pub mod resilient;
pub mod set;
pub mod snapshot;
pub mod symbol;
pub mod typed;

pub use align::{pad_to_8, padded_len, PaddedBuf};
pub use crc32c::{crc32c, Crc32c};
pub use dpu_sim::cost::{CycleModel, KernelEstimate, OpCounts, OptLevel};
pub use error::{HostError, Result};
pub use exec::KernelRun;
pub use launch::{LaunchProgram, LaunchSpec, StealStats};
pub use link::{LinkFaultPlan, LinkPolicy, LinkStats};
pub use observe::LaunchObservation;
pub use resilient::{Incident, ItemOutcome, LaunchReport, ResilientLaunchPolicy, ServeHealth};
pub use set::{DpuSet, TransferStats};
pub use snapshot::SetSnapshot;
pub use symbol::{Symbol, SymbolTable};
pub use typed::{from_wire, to_wire, Wire};
