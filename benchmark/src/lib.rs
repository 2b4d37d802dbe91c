//! `pim-e2e` — the repository's end-to-end benchmark.
//!
//! Host wall-clock per served inference on the paper's own kernels (the
//! eBNN multi-image-per-DPU conv and the Algorithm-2 row-per-DPU GEMM),
//! driven through the real serving stack, with a per-layer budget below
//! it. The harness measures from outside only: it wraps the public
//! `BatchEngine` and `Traffic` traits and probes each crate's public
//! functions; nothing outside this directory changes. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decor;
pub mod loadgen;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
