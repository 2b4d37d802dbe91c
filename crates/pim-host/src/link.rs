//! Host-link integrity: seeded link faults, CRC retry policy, and the
//! transfer telemetry the serving layer's health scores consume.
//!
//! The DPU-side fault injector ([`dpu_sim::faults`]) models errors
//! *inside* a kernel. This module models the other half of the data
//! path: the host↔DIMM link that every `dpu_copy_to`/`dpu_copy_from`
//! crosses. Checked transfers ([`crate::DpuSet::set_link_policy`]) frame
//! each payload with a CRC-32C ([`crate::crc32c()`]), verify on the
//! receiving side, and retry with exponential backoff when the frame
//! fails — so a flaky link degrades throughput instead of silently
//! corrupting weights or activations.
//!
//! Fault draws are pure functions of `(seed, transfer-seq, dpu,
//! attempt)` — the same splitmix64 discipline as the DPU injector — so a
//! chaos campaign replays bit-identically from its seed.

use dpu_sim::faults::{splitmix64, unit};

/// Seeded fault model for the host↔DPU link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultPlan {
    /// Seed for all link fault draws.
    pub seed: u64,
    /// Probability a transfer attempt lands with one flipped bit
    /// (caught by the CRC frame, repaired by retry).
    pub corrupt_prob: f64,
    /// Probability a transfer attempt aborts outright (the SDK's
    /// transient `DPU_ERR_DRIVER` class; retried with backoff).
    pub fail_prob: f64,
}

impl LinkFaultPlan {
    /// True when no draw can ever fire.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.corrupt_prob <= 0.0 && self.fail_prob <= 0.0
    }

    /// Does attempt `attempt` of transfer `seq` to `dpu` abort?
    #[must_use]
    pub fn fails(&self, seq: u64, dpu: u32, attempt: u32) -> bool {
        self.fail_prob > 0.0
            && unit(mix(self.seed, STREAM_FAIL, seq, dpu, attempt)) < self.fail_prob
    }

    /// Which bit of the landed payload (if any) this attempt corrupts:
    /// `Some((byte_index, bit))` scaled to `len` payload bytes.
    #[must_use]
    pub fn corrupts(&self, seq: u64, dpu: u32, attempt: u32, len: usize) -> Option<(usize, u8)> {
        if len == 0 || self.corrupt_prob <= 0.0 {
            return None;
        }
        if unit(mix(self.seed, STREAM_CORRUPT, seq, dpu, attempt)) < self.corrupt_prob {
            let site = mix(self.seed, STREAM_SITE, seq, dpu, attempt);
            Some(((site as usize) % len, ((site >> 32) % 8) as u8))
        } else {
            None
        }
    }
}

/// Retry policy for checked transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff charged before retry `k` (1-based) is `base << (k - 1)`
    /// cycles — exponential, saturating at `u64::MAX` (see
    /// [`LinkPolicy::cumulative_backoff`]), accumulated in [`LinkStats`]
    /// (the host link has no DPU cycle counter to charge).
    pub backoff_base_cycles: u64,
    /// Link faults to inject, if any. `None` keeps transfers checked but
    /// fault-free (pure verify-on-read).
    pub faults: Option<LinkFaultPlan>,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        Self { max_retries: 3, backoff_base_cycles: 256, faults: None }
    }
}

impl LinkPolicy {
    /// The default retry envelope with a fault plan attached.
    #[must_use]
    pub fn with_faults(plan: LinkFaultPlan) -> Self {
        Self { faults: Some(plan), ..Self::default() }
    }

    /// Total backoff cycles accumulated after `retries` retries
    /// (geometric sum: `base * (2^retries - 1)`).
    #[must_use]
    pub fn cumulative_backoff(&self, retries: u32) -> u64 {
        geometric_backoff(self.backoff_base_cycles, retries)
    }
}

/// Telemetry accumulated by checked transfers on a set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Logical transfers attempted (a broadcast counts once per DPU).
    pub transfers: u64,
    /// Payload bytes verified end-to-end.
    pub bytes_verified: u64,
    /// CRC frame mismatches observed (corruption caught and retried).
    pub crc_mismatches: u64,
    /// Transfer attempts that aborted outright.
    pub aborted_attempts: u64,
    /// Retries consumed across all transfers.
    pub retries: u64,
    /// Backoff cycles accumulated across all retries.
    pub backoff_cycles: u64,
    /// Transfers that exhausted their retries (surfaced as errors).
    pub exhausted: u64,
}

impl LinkStats {
    /// True when every transfer verified on its first attempt.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.crc_mismatches == 0 && self.aborted_attempts == 0 && self.exhausted == 0
    }

    /// Fold another stats block into this one, saturating.
    pub fn merge(&mut self, other: &LinkStats) {
        self.transfers = self.transfers.saturating_add(other.transfers);
        self.bytes_verified = self.bytes_verified.saturating_add(other.bytes_verified);
        self.crc_mismatches = self.crc_mismatches.saturating_add(other.crc_mismatches);
        self.aborted_attempts = self.aborted_attempts.saturating_add(other.aborted_attempts);
        self.retries = self.retries.saturating_add(other.retries);
        self.backoff_cycles = self.backoff_cycles.saturating_add(other.backoff_cycles);
        self.exhausted = self.exhausted.saturating_add(other.exhausted);
    }
}

const STREAM_FAIL: u64 = 0x4C4E_4B46_0000_0001; // "LNKF"
const STREAM_CORRUPT: u64 = 0x4C4E_4B43_0000_0002; // "LNKC"
const STREAM_SITE: u64 = 0x4C4E_4B53_0000_0003; // "LNKS"

fn mix(seed: u64, stream: u64, seq: u64, dpu: u32, attempt: u32) -> u64 {
    let a = splitmix64(seed ^ stream);
    let b = splitmix64(a ^ seq);
    splitmix64(b ^ (u64::from(dpu) << 32 | u64::from(attempt)))
}

/// Total backoff after `retries` retries that double from `base`:
/// `base · (2^retries − 1)`, saturating at `u64::MAX`.
pub(crate) fn geometric_backoff(base: u64, retries: u32) -> u64 {
    let doublings = 1u64.checked_shl(retries).map_or(u64::MAX, |d| d - 1);
    base.saturating_mul(doublings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_fires() {
        let plan = LinkFaultPlan { seed: 1, corrupt_prob: 0.0, fail_prob: 0.0 };
        assert!(plan.is_zero());
        for seq in 0..200 {
            assert!(!plan.fails(seq, 0, 0));
            assert!(plan.corrupts(seq, 0, 0, 4096).is_none());
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = LinkFaultPlan { seed: 11, corrupt_prob: 0.5, fail_prob: 0.5 };
        let b = LinkFaultPlan { seed: 12, ..a };
        let outcomes = |p: &LinkFaultPlan| {
            (0..64).map(|s| (p.fails(s, 3, 1), p.corrupts(s, 3, 1, 128))).collect::<Vec<_>>()
        };
        assert_eq!(outcomes(&a), outcomes(&a), "same seed replays");
        assert_ne!(outcomes(&a), outcomes(&b), "different seed diverges");
    }

    #[test]
    fn corruption_sites_stay_in_bounds() {
        let plan = LinkFaultPlan { seed: 7, corrupt_prob: 1.0, fail_prob: 0.0 };
        for len in [1usize, 8, 13, 4096] {
            for seq in 0..32 {
                let (byte, bit) = plan.corrupts(seq, 1, 0, len).expect("prob 1 fires");
                assert!(byte < len && bit < 8, "len {len} seq {seq}: {byte}:{bit}");
            }
        }
        assert!(plan.corrupts(0, 1, 0, 0).is_none(), "empty payload cannot corrupt");
    }

    #[test]
    fn backoff_is_geometric_and_saturates() {
        let p = LinkPolicy { backoff_base_cycles: 100, ..Default::default() };
        assert_eq!(p.cumulative_backoff(0), 0);
        assert_eq!(p.cumulative_backoff(1), 100);
        assert_eq!(p.cumulative_backoff(2), 300);
        assert_eq!(p.cumulative_backoff(3), 700);
        assert_eq!(p.cumulative_backoff(64), u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = LinkStats { transfers: 2, crc_mismatches: 1, ..Default::default() };
        let b = LinkStats { transfers: 3, retries: 4, backoff_cycles: 700, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.transfers, 5);
        assert_eq!(a.crc_mismatches, 1);
        assert_eq!(a.retries, 4);
        assert_eq!(a.backoff_cycles, 700);
        assert!(!a.clean());
        a.merge(&LinkStats { backoff_cycles: u64::MAX, ..Default::default() });
        assert_eq!(a.backoff_cycles, u64::MAX, "merging saturates instead of overflowing");
        assert!(LinkStats::default().clean());
    }
}
