//! Deterministic, seeded fault injection.
//!
//! Real UPMEM deployments see faulty DPUs, failed DMA transfers and bit
//! errors in MRAM; the SDK masks whole ranks out and the host reissues
//! their work. This module models those failure classes for the simulator
//! so the host runtime's retry/quarantine machinery can be tested
//! reproducibly:
//!
//! * **whole-DPU offline** — the launch fails immediately with
//!   [`crate::Error::DpuOffline`], the simulated analogue of a masked rank;
//! * **DMA transfer failure** — an `mram.read`/`mram.write` aborts with
//!   [`crate::Error::DmaFault`];
//! * **bit flips on DMA completion** — one bit of the transfer's
//!   destination (WRAM for reads, MRAM for writes) is inverted after the
//!   data lands, silently corrupting the run;
//! * **tasklet hang** — the kernel's cycle budget is clamped to a drawn
//!   value, so a run that would finish later surfaces as
//!   [`crate::Error::CycleBudgetExceeded`], the watchdog view of a wedged
//!   tasklet.
//!
//! Every decision is a pure function of `(seed, dpu, attempt, site)` via a
//! splitmix64 mix, so injection is independent of host thread scheduling:
//! the same seed produces the same fault sequence whether DPUs are
//! simulated sequentially or work-stolen across threads, and retries see
//! fresh (but reproducible) draws.

/// One splitmix64 scramble step (public-domain constants): the seeded mix
/// behind every fault draw here, the host link's, and the serving
/// layer's traffic.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a decision site into the plan seed. Each independent decision gets
/// its own `stream` constant so probabilities don't correlate.
fn mix(seed: u64, stream: u64, dpu: u32, attempt: u32, idx: u64) -> u64 {
    let a = splitmix64(seed ^ stream);
    let b = splitmix64(a ^ (u64::from(dpu) << 32 | u64::from(attempt)));
    splitmix64(b ^ idx)
}

/// Map a scrambled word onto `[0, 1)`.
#[inline]
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

const STREAM_OFFLINE: u64 = 0x4F46_464C_494E_4531;
const STREAM_HANG: u64 = 0x4841_4E47_0000_0001;
const STREAM_HANG_AT: u64 = 0x4841_4E47_0000_0002;
const STREAM_DMA_FAIL: u64 = 0x444D_4146_4149_4C31;
const STREAM_DMA_FLIP: u64 = 0x464C_4950_0000_0001;
const STREAM_FLIP_SITE: u64 = 0x464C_4950_0000_0002;
const STREAM_DMA_FLIP2: u64 = 0x464C_4950_0000_0003;
const STREAM_FLIP2_SITE: u64 = 0x464C_4950_0000_0004;

/// Earliest cycle at which an injected hang may fire.
const HANG_MIN_CYCLES: u64 = 500;
/// Latest cycle at which an injected hang may fire.
const HANG_MAX_CYCLES: u64 = 50_000;

/// User-facing description of a fault campaign: a seed plus per-class
/// probabilities (all default to zero — no injection).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed driving every draw; same seed, same fault sequence.
    pub seed: u64,
    /// Per-attempt probability that a DPU refuses to launch (rank offline).
    pub dpu_offline_prob: f64,
    /// Per-transfer probability that a DMA aborts with an error.
    pub dma_fail_prob: f64,
    /// Per-transfer probability that one destination bit flips on DMA
    /// completion.
    pub bit_flip_prob: f64,
    /// Per-transfer probability that **two distinct bits of the same
    /// destination byte** flip on DMA completion — the SEC-DED
    /// uncorrectable case (detected, surfaced, never silently fixed).
    pub double_flip_prob: f64,
    /// Per-attempt probability that the run hangs (cycle budget clamped to
    /// a drawn value in `[500, 50_000]`).
    pub hang_prob: f64,
    /// DPUs that are offline on **every** attempt, regardless of
    /// probability draws — the deterministic way to script a dead rank.
    pub forced_offline: Vec<u32>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            dpu_offline_prob: 0.0,
            dma_fail_prob: 0.0,
            bit_flip_prob: 0.0,
            double_flip_prob: 0.0,
            hang_prob: 0.0,
            forced_offline: Vec::new(),
        }
    }
}

/// A compiled fault campaign, cheap to clone and share across host worker
/// threads. Produces one [`AttemptFaults`] per `(dpu, attempt)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Compile a configuration into a plan.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        Self { config }
    }

    /// A plan that injects nothing (useful as an explicit "resilience on,
    /// faults off" marker).
    #[must_use]
    pub fn none() -> Self {
        Self::new(FaultConfig::default())
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether this plan can never inject a fault. Zero plans let the
    /// launch path skip snapshots and arming entirely, keeping the
    /// fault-free resilient path bit-identical to the plain launch.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        let c = &self.config;
        c.dpu_offline_prob == 0.0
            && c.dma_fail_prob == 0.0
            && c.bit_flip_prob == 0.0
            && c.double_flip_prob == 0.0
            && c.hang_prob == 0.0
            && c.forced_offline.is_empty()
    }

    /// Draw the faults for one `(dpu, attempt)` pair. Pure: the same pair
    /// always yields the same decisions, independent of call order.
    #[must_use]
    pub fn attempt(&self, dpu: u32, attempt: u32) -> AttemptFaults {
        let c = &self.config;
        let offline = c.forced_offline.contains(&dpu)
            || (c.dpu_offline_prob > 0.0
                && unit(mix(c.seed, STREAM_OFFLINE, dpu, attempt, 0)) < c.dpu_offline_prob);
        let hang_after = (c.hang_prob > 0.0
            && unit(mix(c.seed, STREAM_HANG, dpu, attempt, 0)) < c.hang_prob)
            .then(|| {
                let span = HANG_MAX_CYCLES - HANG_MIN_CYCLES + 1;
                HANG_MIN_CYCLES + mix(c.seed, STREAM_HANG_AT, dpu, attempt, 0) % span
            });
        AttemptFaults {
            seed: c.seed,
            dpu,
            attempt,
            offline,
            hang_after,
            dma_fail_prob: c.dma_fail_prob,
            bit_flip_prob: c.bit_flip_prob,
            double_flip_prob: c.double_flip_prob,
            dma_seen: 0,
            injected: Vec::new(),
        }
    }
}

/// What an injected DMA decision asks the machine to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaFault {
    /// Abort the transfer with [`crate::Error::DmaFault`].
    Fail,
    /// Complete the transfer, then invert one destination bit.
    FlipBit {
        /// Byte offset within the transfer.
        byte: usize,
        /// Bit index within the byte (0..8).
        bit: u8,
    },
    /// Complete the transfer, then invert two **distinct** bits of one
    /// destination byte — beyond SEC-DED's correction radius, so the
    /// error must surface as [`crate::Error::EccUncorrectable`] instead
    /// of being silently repaired.
    FlipBits2 {
        /// Byte offset within the transfer.
        byte: usize,
        /// First flipped bit index (0..8).
        bit_a: u8,
        /// Second flipped bit index (0..8), different from `bit_a`.
        bit_b: u8,
    },
}

/// The class of one injected fault, with its site parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The whole DPU refused to launch.
    DpuOffline,
    /// A DMA transfer aborted.
    DmaFail,
    /// A WRAM bit flipped on DMA-read completion.
    WramBitFlip {
        /// Absolute WRAM byte address of the flipped bit.
        addr: u32,
        /// Bit index within the byte.
        bit: u8,
    },
    /// An MRAM bit flipped on DMA-write completion.
    MramBitFlip {
        /// Absolute MRAM byte address of the flipped bit.
        addr: u32,
        /// Bit index within the byte.
        bit: u8,
    },
    /// The run's cycle budget was clamped and exhausted (wedged tasklet as
    /// seen by a watchdog).
    TaskletHang {
        /// The clamped budget at which the run was cut off.
        budget: u64,
    },
}

impl FaultKind {
    /// Short machine-readable label (used as the trace-event kind and the
    /// metrics-counter suffix).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DpuOffline => "dpu_offline",
            FaultKind::DmaFail => "dma_fail",
            FaultKind::WramBitFlip { .. } => "wram_bit_flip",
            FaultKind::MramBitFlip { .. } => "mram_bit_flip",
            FaultKind::TaskletHang { .. } => "tasklet_hang",
        }
    }

    /// Affected byte address for bit flips, 0 otherwise.
    #[must_use]
    pub fn addr(&self) -> u64 {
        match self {
            FaultKind::WramBitFlip { addr, .. } | FaultKind::MramBitFlip { addr, .. } => {
                u64::from(*addr)
            }
            _ => 0,
        }
    }
}

/// One fault that actually fired, with the DPU cycle at which it took
/// effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What was injected.
    pub kind: FaultKind,
    /// DPU cycle at which the fault took effect (0 for launch-time
    /// offline faults).
    pub cycle: u64,
}

/// The faults armed on a [`crate::Machine`] for one run attempt, plus the
/// log of what actually fired. Obtained from [`FaultPlan::attempt`], armed
/// with [`crate::Machine::arm_faults`], and recovered (with its log) via
/// [`crate::Machine::disarm_faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFaults {
    seed: u64,
    dpu: u32,
    attempt: u32,
    offline: bool,
    hang_after: Option<u64>,
    dma_fail_prob: f64,
    bit_flip_prob: f64,
    double_flip_prob: f64,
    /// DMA transfers seen so far this attempt (the per-transfer decision
    /// index — a per-attempt ordinal, so it is deterministic for any
    /// deterministic program).
    dma_seen: u64,
    injected: Vec<InjectedFault>,
}

impl AttemptFaults {
    /// Whether this attempt's DPU is offline.
    #[must_use]
    pub fn offline(&self) -> bool {
        self.offline
    }

    /// The drawn hang cutoff, if this attempt hangs.
    #[must_use]
    pub fn hang_after(&self) -> Option<u64> {
        self.hang_after
    }

    /// The DPU these faults were drawn for.
    #[must_use]
    pub fn dpu(&self) -> u32 {
        self.dpu
    }

    /// The retry attempt these faults were drawn for (0 = first try).
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Decide the fate of the next DMA transfer of `len` bytes. Called by
    /// the machine at the (single) DMA execution site; each call consumes
    /// one per-transfer decision index.
    pub fn on_dma(&mut self, len: usize) -> Option<DmaFault> {
        let idx = self.dma_seen;
        self.dma_seen += 1;
        if self.dma_fail_prob > 0.0
            && unit(mix(self.seed, STREAM_DMA_FAIL, self.dpu, self.attempt, idx))
                < self.dma_fail_prob
        {
            return Some(DmaFault::Fail);
        }
        if len > 0
            && self.double_flip_prob > 0.0
            && unit(mix(self.seed, STREAM_DMA_FLIP2, self.dpu, self.attempt, idx))
                < self.double_flip_prob
        {
            let site = mix(self.seed, STREAM_FLIP2_SITE, self.dpu, self.attempt, idx);
            let bit_a = ((site >> 32) % 8) as u8;
            // Second bit drawn from the 7 remaining positions.
            let bit_b = (bit_a + 1 + ((site >> 40) % 7) as u8) % 8;
            return Some(DmaFault::FlipBits2 { byte: (site as usize) % len, bit_a, bit_b });
        }
        if len > 0
            && self.bit_flip_prob > 0.0
            && unit(mix(self.seed, STREAM_DMA_FLIP, self.dpu, self.attempt, idx))
                < self.bit_flip_prob
        {
            let site = mix(self.seed, STREAM_FLIP_SITE, self.dpu, self.attempt, idx);
            return Some(DmaFault::FlipBit {
                byte: (site as usize) % len,
                bit: ((site >> 32) % 8) as u8,
            });
        }
        None
    }

    /// Record that a fault fired at `cycle`.
    pub fn log(&mut self, kind: FaultKind, cycle: u64) {
        self.injected.push(InjectedFault { kind, cycle });
    }

    /// Everything that fired this attempt, in injection order.
    #[must_use]
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            dpu_offline_prob: 0.3,
            dma_fail_prob: 0.2,
            bit_flip_prob: 0.2,
            hang_prob: 0.3,
            ..Default::default()
        })
    }

    #[test]
    fn zero_plan_is_zero_and_draws_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        let mut a = plan.attempt(3, 0);
        assert!(!a.offline());
        assert_eq!(a.hang_after(), None);
        for len in [8usize, 64, 2048] {
            assert_eq!(a.on_dma(len), None);
        }
        assert!(a.injected().is_empty());
    }

    #[test]
    fn same_seed_same_decisions_independent_of_call_order() {
        let plan = lossy_plan(42);
        // Draw (dpu 5, attempt 1) twice, once after other draws, once cold.
        let _ = plan.attempt(0, 0);
        let _ = plan.attempt(9, 3);
        let mut warm = plan.attempt(5, 1);
        let mut cold = lossy_plan(42).attempt(5, 1);
        assert_eq!(warm, cold);
        let w: Vec<_> = (0..32).map(|_| warm.on_dma(64)).collect();
        let c: Vec<_> = (0..32).map(|_| cold.on_dma(64)).collect();
        assert_eq!(w, c);
    }

    #[test]
    fn different_seeds_attempts_and_dpus_decorrelate() {
        let a: Vec<bool> = (0..64).map(|d| lossy_plan(1).attempt(d, 0).offline()).collect();
        let b: Vec<bool> = (0..64).map(|d| lossy_plan(2).attempt(d, 0).offline()).collect();
        assert_ne!(a, b, "seeds 1 and 2 drew identical offline patterns");
        // Retry draws differ from first-attempt draws somewhere.
        let retry: Vec<bool> = (0..64).map(|d| lossy_plan(1).attempt(d, 1).offline()).collect();
        assert_ne!(a, retry, "attempt index does not enter the draw");
    }

    #[test]
    fn forced_offline_fires_on_every_attempt() {
        let plan = FaultPlan::new(FaultConfig { forced_offline: vec![2], ..Default::default() });
        assert!(!plan.is_zero());
        for attempt in 0..4 {
            assert!(plan.attempt(2, attempt).offline(), "attempt {attempt}");
            assert!(!plan.attempt(1, attempt).offline());
        }
    }

    #[test]
    fn hang_cutoff_is_in_documented_range() {
        let plan = FaultPlan::new(FaultConfig { seed: 7, hang_prob: 1.0, ..Default::default() });
        for d in 0..50 {
            let h = plan.attempt(d, 0).hang_after().expect("hang_prob = 1");
            assert!((HANG_MIN_CYCLES..=HANG_MAX_CYCLES).contains(&h), "{h}");
        }
    }

    #[test]
    fn flip_site_is_within_the_transfer() {
        let plan =
            FaultPlan::new(FaultConfig { seed: 3, bit_flip_prob: 1.0, ..Default::default() });
        let mut a = plan.attempt(0, 0);
        for len in [1usize, 8, 63, 2048] {
            match a.on_dma(len) {
                Some(DmaFault::FlipBit { byte, bit }) => {
                    assert!(byte < len, "byte {byte} >= len {len}");
                    assert!(bit < 8);
                }
                other => panic!("expected a flip at prob 1.0, got {other:?}"),
            }
        }
        // Zero-length transfers cannot flip anything.
        assert_eq!(a.on_dma(0), None);
    }

    #[test]
    fn probabilities_roughly_match_observed_rates() {
        let plan =
            FaultPlan::new(FaultConfig { seed: 11, dma_fail_prob: 0.25, ..Default::default() });
        let mut a = plan.attempt(0, 0);
        let fails = (0..4000).filter(|_| a.on_dma(64) == Some(DmaFault::Fail)).count();
        let rate = fails as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "observed DMA-fail rate {rate}");
    }

    #[test]
    fn log_accumulates_in_order() {
        let mut a = FaultPlan::none().attempt(1, 0);
        a.log(FaultKind::DmaFail, 100);
        a.log(FaultKind::WramBitFlip { addr: 0x40, bit: 3 }, 250);
        let kinds: Vec<&str> = a.injected().iter().map(|f| f.kind.label()).collect();
        assert_eq!(kinds, vec!["dma_fail", "wram_bit_flip"]);
        assert_eq!(a.injected()[1].cycle, 250);
        assert_eq!(a.injected()[1].kind.addr(), 0x40);
    }
}
