//! The host-link cost model and the pipeline schedule.
//!
//! The service accounts all time in **simulated cycles** so every gated
//! number is deterministic. DPU compute time comes straight from the
//! simulator ([`pim_host::LaunchReport::makespan_cycles`]); host↔MRAM
//! staging and readback are charged against a single shared link via
//! [`LinkModel`], mirroring how one rank's bus serializes transfers.
//!
//! # The 3-stage schedule
//!
//! In [`PipelineMode::Serial`] each batch runs transfer → compute →
//! readback back-to-back on one cursor, like the plain batch pipelines.
//! In [`PipelineMode::Double`] the engine holds two MRAM image/feature
//! buffers and round *k* is scheduled as:
//!
//! 1. **stage(k)** on the link, as soon as the cut time, the link, and
//!    buffer `k mod 2` (whose previous results must have been read) allow;
//! 2. **read(k−1)** on the link from `max(compute_end(k−1), link free)`:
//!    ahead of stage(k) exactly when it ends by the time stage(k) would
//!    start (so the staging does not move — the sparse-traffic case, where
//!    batch *k−1* finished long before the next cut), otherwise right
//!    after stage(k);
//! 3. **compute(k)** on the DPUs at `max(stage_end(k), compute_end(k−1))`.
//!
//! At steady state the makespan per batch is `max(compute, stage + read)`
//! instead of `stage + compute + read` — the transfer-heavy shapes the
//! paper profiles (Fig. 3.2) are exactly where that quotient is largest.
//! The double MRAM buffer is what makes the overlap sound: compute(k)
//! writes buffer `k mod 2`'s features while read(k−1) drains buffer
//! `(k−1) mod 2`.

/// Default effective host-link bandwidth for serving, bytes/second.
///
/// Serving transfers are many small scattered per-DPU copies (16-byte
/// params records, 128-byte image slots), not the large sequential bursts
/// that reach the ~1 GB/s peak the YOLO pipeline models — PrIM-style
/// measurements put scattered small-transfer efficiency at a fraction of
/// peak, so the serve default is 400 MB/s. Override via
/// [`LinkModel::bytes_per_sec`].
pub const DEFAULT_SERVE_LINK_BYTES_PER_SEC: u64 = 400_000_000;

/// Integer-exact host-link cost model: `cycles = ceil(bytes · f / bw)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// DPU clock the cycle domain is expressed in.
    pub freq_hz: u64,
    /// Link bandwidth in bytes per second.
    pub bytes_per_sec: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self {
            freq_hz: dpu_sim::DpuParams::default().freq_hz,
            bytes_per_sec: DEFAULT_SERVE_LINK_BYTES_PER_SEC,
        }
    }
}

impl LinkModel {
    /// Cycles the link is busy transferring `bytes` (exact integer
    /// ceiling, so results are platform-independent).
    #[must_use]
    pub fn cycles(&self, bytes: u64) -> u64 {
        let num = u128::from(bytes) * u128::from(self.freq_hz);
        let den = u128::from(self.bytes_per_sec.max(1));
        u64::try_from(num.div_ceil(den)).unwrap_or(u64::MAX)
    }
}

/// Execution-loop shape (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// transfer → compute → readback, one cursor — the baseline.
    Serial,
    /// Double-buffered 3-stage overlap (requires an engine with 2
    /// buffers; engines reporting 1 fall back to serial).
    #[default]
    Double,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_cycles_exact_ceiling() {
        let l = LinkModel { freq_hz: 350_000_000, bytes_per_sec: 400_000_000 };
        assert_eq!(l.cycles(0), 0);
        // 1 byte: ceil(350e6 / 400e6) = 1.
        assert_eq!(l.cycles(1), 1);
        // 400 bytes: exactly 350 cycles.
        assert_eq!(l.cycles(400), 350);
        assert_eq!(l.cycles(401), 351);
    }

    #[test]
    fn default_uses_dpu_clock() {
        let l = LinkModel::default();
        assert_eq!(l.freq_hz, dpu_sim::DpuParams::default().freq_hz);
        assert_eq!(l.bytes_per_sec, DEFAULT_SERVE_LINK_BYTES_PER_SEC);
    }
}
