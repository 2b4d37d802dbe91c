//! Stable metric-key names for the serving runtime (`serve.*`).
//!
//! `pim-serve` records its per-run statistics into a [`crate::MetricsRegistry`]
//! under these keys; dashboards, the CI `serve-smoke` job, and the perfgate
//! `serve` scenario all read them by name, so they are part of the public
//! contract and pinned by a stability test (like the `obs.*` family in
//! `pim-host`). Counters count events, histograms are recorded in simulated
//! cycles (or items, where noted), gauges are end-of-run scalars.

/// Requests that arrived at the admission queue.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Work items (eBNN images / GEMM rows) across all arrived requests.
pub const SERVE_ITEMS: &str = "serve.items";
/// Requests admitted into the queue.
pub const SERVE_ACCEPTED: &str = "serve.accepted";
/// Requests shed with a typed `Overloaded` rejection (queue full).
pub const SERVE_REJECTED: &str = "serve.rejected";
/// Requests fully served (every item's result gathered).
pub const SERVE_COMPLETED: &str = "serve.completed";
/// Requests that lost at least one item to an unserved (quarantined,
/// un-redispatched) DPU chunk.
pub const SERVE_FAILED: &str = "serve.failed";
/// Rank batches launched.
pub const SERVE_BATCHES: &str = "serve.batches";
/// Requests split across more than one batch (larger than a rank's worth).
pub const SERVE_SPLITS: &str = "serve.splits";
/// Batch cuts because the batch filled to capacity.
pub const SERVE_CUTS_FULL: &str = "serve.cuts.full";
/// Batch cuts because the head-of-line deadline (`max_batch_delay`) hit.
pub const SERVE_CUTS_DEADLINE: &str = "serve.cuts.deadline";
/// Batch cuts made while draining at shutdown.
pub const SERVE_CUTS_DRAIN: &str = "serve.cuts.drain";
/// Items recomputed on a survivor DPU after their home was quarantined.
pub const SERVE_REDISPATCHED_ITEMS: &str = "serve.redispatched_items";
/// DPU quarantine events across all launched batches.
pub const SERVE_QUARANTINED_DPUS: &str = "serve.quarantined_dpus";
/// DPU serves classified healthy-after-repair (retries consumed or
/// single-bit errors corrected by ECC scrub / DMA verify-on-read).
pub const SERVE_REPAIRED_DPUS: &str = "serve.repaired_dpus";
/// Circuit-breaker rank ejections (including re-trips out of probation).
pub const SERVE_BREAKER_TRIPS: &str = "serve.breaker.trips";
/// Circuit-breaker cooldown→probation transitions (probe launches).
pub const SERVE_BREAKER_PROBES: &str = "serve.breaker.probes";
/// Circuit-breaker probation→closed re-admissions after a clean probe.
pub const SERVE_BREAKER_READMITS: &str = "serve.breaker.readmits";

/// Histogram: request latency (arrival → last result read back), cycles.
pub const SERVE_LATENCY_CYCLES: &str = "serve.latency_cycles";
/// Histogram: items per launched batch.
pub const SERVE_BATCH_FILL: &str = "serve.batch_fill";
/// Histogram: queue depth sampled at each admission.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Histogram: per-batch MRAM staging time on the host link, cycles.
pub const SERVE_STAGE_CYCLES: &str = "serve.stage_cycles";
/// Histogram: per-batch DPU compute makespan, cycles.
pub const SERVE_COMPUTE_CYCLES: &str = "serve.compute_cycles";
/// Histogram: per-batch result readback time on the host link, cycles.
pub const SERVE_READBACK_CYCLES: &str = "serve.readback_cycles";

/// Gauge: goodput in items per second of simulated time.
pub const SERVE_GOODPUT_IPS: &str = "serve.goodput_ips";
/// Gauge: total simulated time from first arrival to last readback, cycles.
pub const SERVE_VTIME_CYCLES: &str = "serve.vtime_cycles";
/// Gauge: DPUs in the serving set.
pub const SERVE_DPUS: &str = "serve.dpus";
/// Gauge: items one rank batch can hold.
pub const SERVE_CAPACITY_ITEMS: &str = "serve.capacity_items";
/// Gauge: circuit-breaker rank groups in the serving set (0 = breaker
/// disabled).
pub const SERVE_BREAKER_RANKS: &str = "serve.breaker.ranks";
/// Gauge: ranks still ejected (`Open`) at end of run.
pub const SERVE_BREAKER_OPEN_RANKS: &str = "serve.breaker.open_ranks";

/// Every `serve.*` key, for exhaustive stability tests.
pub const ALL_SERVE_KEYS: &[&str] = &[
    SERVE_REQUESTS,
    SERVE_ITEMS,
    SERVE_ACCEPTED,
    SERVE_REJECTED,
    SERVE_COMPLETED,
    SERVE_FAILED,
    SERVE_BATCHES,
    SERVE_SPLITS,
    SERVE_CUTS_FULL,
    SERVE_CUTS_DEADLINE,
    SERVE_CUTS_DRAIN,
    SERVE_REDISPATCHED_ITEMS,
    SERVE_QUARANTINED_DPUS,
    SERVE_REPAIRED_DPUS,
    SERVE_BREAKER_TRIPS,
    SERVE_BREAKER_PROBES,
    SERVE_BREAKER_READMITS,
    SERVE_LATENCY_CYCLES,
    SERVE_BATCH_FILL,
    SERVE_QUEUE_DEPTH,
    SERVE_STAGE_CYCLES,
    SERVE_COMPUTE_CYCLES,
    SERVE_READBACK_CYCLES,
    SERVE_GOODPUT_IPS,
    SERVE_VTIME_CYCLES,
    SERVE_DPUS,
    SERVE_CAPACITY_ITEMS,
    SERVE_BREAKER_RANKS,
    SERVE_BREAKER_OPEN_RANKS,
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve key names are a public contract (CI smoke, perfgate,
    /// dashboards): renaming one is a breaking change this test makes
    /// deliberate.
    #[test]
    fn serve_keys_are_stable() {
        let expect = [
            "serve.requests",
            "serve.items",
            "serve.accepted",
            "serve.rejected",
            "serve.completed",
            "serve.failed",
            "serve.batches",
            "serve.splits",
            "serve.cuts.full",
            "serve.cuts.deadline",
            "serve.cuts.drain",
            "serve.redispatched_items",
            "serve.quarantined_dpus",
            "serve.repaired_dpus",
            "serve.breaker.trips",
            "serve.breaker.probes",
            "serve.breaker.readmits",
            "serve.latency_cycles",
            "serve.batch_fill",
            "serve.queue_depth",
            "serve.stage_cycles",
            "serve.compute_cycles",
            "serve.readback_cycles",
            "serve.goodput_ips",
            "serve.vtime_cycles",
            "serve.dpus",
            "serve.capacity_items",
            "serve.breaker.ranks",
            "serve.breaker.open_ranks",
        ];
        assert_eq!(ALL_SERVE_KEYS, &expect);
        for k in ALL_SERVE_KEYS {
            assert!(k.starts_with("serve."), "{k}");
            assert!(crate::prometheus_name(k).starts_with("serve_"), "{k}");
        }
    }
}
