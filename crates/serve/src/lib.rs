//! `pim-serve` — a serving runtime over the PIM simulator stack.
//!
//! Turns the batch pipelines (`ebnn`, `yolo-pim`) into an inference
//! service: a bounded admission queue sheds overload with a typed
//! [`Overloaded`] rejection, dynamic batching accumulates work items
//! until a rank's worth is filled or `max_batch_delay` expires, and the
//! execution loop overlaps MRAM staging, DPU compute, and result
//! readback in a double-buffered 3-stage pipeline (see
//! [`pipeline`]). Fault-armed runs launch on the
//! [`pim_host::ResilientLaunchPolicy`] so quarantined DPUs degrade
//! goodput instead of failing requests, with golden-snapshot recovery
//! of the weights between batches.
//!
//! All time is accounted in **simulated cycles**: compute comes from the
//! simulator's cycle-exact makespans, transfers from the integer
//! [`LinkModel`], and traffic from seeded integer generators — a fixed
//! seed reproduces every metric bit-for-bit, which the CI `serve-smoke`
//! job asserts. Per-run statistics land in a [`pim_trace::MetricsRegistry`]
//! under the stable `serve.*` keys ([`pim_trace::keys`]), including
//! p50/p99/p999 latency and goodput.
//!
//! The `loadgen` binary (`src/bin/loadgen.rs`) replays open- or
//! closed-loop traffic against the eBNN engine and reports (or gates,
//! `--compare`) the pipelined-vs-serial speedup. See `docs/SERVING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod engine;
pub mod pipeline;
pub mod queue;
pub mod request;
pub mod service;
pub mod traffic;

pub use breaker::{BreakerConfig, CircuitBreaker, RankState};
pub use engine::{BatchEngine, BatchRun, EbnnServeEngine, Gathered, YoloServeEngine};
pub use pipeline::{LinkModel, PipelineMode, DEFAULT_SERVE_LINK_BYTES_PER_SEC};
pub use queue::AdmissionQueue;
pub use request::{Completion, CutKind, Overloaded, Request};
pub use service::{serve, ServeConfig, ServeReport};
pub use traffic::{splitmix64, ClosedLoop, OpenLoop, Rng64, Traffic, TrafficStep};

/// Write `text` to stdout through its lock: how `loadgen`, `report` and
/// `chaos_soak` print. A reader that closed the pipe (`report … | head`)
/// wants no more output, so the process then exits quietly with
/// `closed_pipe_status` where `print!` would panic.
///
/// # Panics
/// On any other stdout write error, as `print!` does.
pub fn write_stdout(text: &str, closed_pipe_status: i32) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            std::process::exit(closed_pipe_status)
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}
