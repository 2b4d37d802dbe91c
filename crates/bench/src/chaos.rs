//! Chaos-soak campaign: thousands of seeded faulted launches with a
//! golden-output check after every one.
//!
//! Each launch draws a fault scenario (single-bit flips, SEC-DED-breaking
//! double flips, DMA aborts, tasklet hangs, offline DPUs, a mixed storm,
//! or nothing) from a seeded stream, arms it on an ECC-enabled
//! [`DpuSet`], runs the resilient launch path, and then compares every
//! served DPU's output against the host-computed golden value. The
//! contract under test is **zero silent corruption**: every injected
//! fault must end as a correction (ECC scrub / DMA verify-on-read), a
//! successful retry, or an *explicitly surfaced* quarantine — never as a
//! wrong answer reported healthy. Flip-only launches additionally must
//! consume **zero retries** (single-bit errors are scrubbed, not
//! relaunched).
//!
//! The campaign is deterministic: same [`ChaosConfig`], same
//! [`ChaosReport`]. The `chaos_soak` binary runs the full ≥10k-launch
//! soak in CI. The scenario table ([`SCENARIOS`], [`scenario_config`]),
//! the retry terms ([`policy`]) and the soak kernel are public: the
//! differential oracle (`tests/oracle/`) runs every scenario as a
//! set-layer policy, so a fault class is defined here once.

use dpu_sim::faults::{FaultConfig, FaultPlan};
use dpu_sim::DpuId;
use pim_host::{DpuSet, ResilientLaunchPolicy};
use pim_serve::Rng64;
use serde::Serialize;

/// Campaign shape: how many launches, how wide a set.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Launches in the campaign (each with freshly drawn faults).
    pub launches: u64,
    /// Seed driving scenario and fault draws; same seed, same campaign.
    pub seed: u64,
    /// DPUs in the set.
    pub dpus: usize,
    /// Tasklets per launch.
    pub tasklets: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { launches: 10_000, seed: 0xC4A0_5EED, dpus: 8, tasklets: 2 }
    }
}

/// The fault scenarios a launch can draw, each armed by
/// [`scenario_config`].
pub const SCENARIOS: [&str; 7] =
    ["clean", "bit_flip", "double_flip", "dma_fail", "hang", "offline", "mixed"];

/// The fault rates of scenario `scenario` (an index into [`SCENARIOS`]),
/// drawn from `seed`.
#[must_use]
pub fn scenario_config(scenario: usize, seed: u64) -> FaultConfig {
    let base = FaultConfig { seed, ..FaultConfig::default() };
    match SCENARIOS[scenario] {
        "clean" => base,
        "bit_flip" => FaultConfig { bit_flip_prob: 0.5, ..base },
        "double_flip" => FaultConfig { double_flip_prob: 0.3, ..base },
        "dma_fail" => FaultConfig { dma_fail_prob: 0.3, ..base },
        "hang" => FaultConfig { hang_prob: 0.3, ..base },
        "offline" => FaultConfig { dpu_offline_prob: 0.25, ..base },
        _ => FaultConfig {
            bit_flip_prob: 0.15,
            double_flip_prob: 0.1,
            dma_fail_prob: 0.15,
            hang_prob: 0.1,
            dpu_offline_prob: 0.1,
            ..base
        },
    }
}

/// The campaign's retry terms around `faults`: 3 retries per DPU,
/// exponential backoff from 200 cycles, and a 5 M-cycle watchdog (so only
/// injected hangs trip it), quarantined work re-dispatched.
#[must_use]
pub fn policy(faults: FaultConfig) -> ResilientLaunchPolicy {
    ResilientLaunchPolicy {
        max_retries: 3,
        backoff_cycles: 200,
        exponential_backoff: true,
        watchdog_budget: 5_000_000,
        ..ResilientLaunchPolicy::with_faults(FaultPlan::new(faults))
    }
}

/// Outcome of a campaign. The two `violations_*` fields are the
/// acceptance gates: both must be zero.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct ChaosReport {
    /// Launches executed.
    pub launches: u64,
    /// Launches in which at least one fault actually fired.
    pub faulted_launches: u64,
    /// Launches per scenario, in `SCENARIOS` order.
    pub per_scenario: Vec<(String, u64)>,
    /// Faults injected across the campaign.
    pub faults_injected: u64,
    /// Single-bit errors repaired by the between-attempt ECC scrub.
    pub scrub_corrected: u64,
    /// Single-bit errors repaired inline by DMA verify-on-read.
    pub dma_corrected: u64,
    /// Multi-bit words surfaced as uncorrectable (each fails its
    /// attempt; never silently fixed).
    pub uncorrectable_words: u64,
    /// Retries consumed across the campaign.
    pub retries: u64,
    /// DPU-launches that exhausted retries and were quarantined.
    pub quarantined: u64,
    /// Quarantined work items served by a survivor.
    pub redispatched: u64,
    /// DPU-launches that could not be served at all (explicitly
    /// surfaced as unserved, with a recorded error).
    pub unserved: u64,
    /// DPU-launches served in place after repairs (scrub/DMA fixes or
    /// retries) — the self-healing count.
    pub healthy_after_repair: u64,
    /// Served outputs that did not match the host golden value. MUST
    /// be zero: a wrong answer reported healthy is silent corruption.
    pub violations_silent_corruption: u64,
    /// Retries consumed by launches whose only armed fault class was
    /// single-bit flips. MUST be zero: SEC-DED repairs flips between
    /// attempts without relaunching.
    pub violations_flip_retry: u64,
    /// Unserved DPU-launches missing a recorded error (a quarantine
    /// that surfaced nothing). MUST be zero.
    pub violations_unexplained_unserved: u64,
}

impl ChaosReport {
    /// Whether the campaign met the integrity contract.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations_silent_corruption == 0
            && self.violations_flip_retry == 0
            && self.violations_unexplained_unserved == 0
    }

    /// Human-readable summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "chaos soak — {} launches ({} faulted), {} faults injected\n",
            self.launches, self.faulted_launches, self.faults_injected
        );
        for (name, n) in &self.per_scenario {
            s.push_str(&format!("  scenario {name:<12} {n:>7} launches\n"));
        }
        s.push_str(&format!(
            "  corrected: {} scrub + {} dma | uncorrectable words: {}\n\
             \x20 retries: {} | quarantined: {} | redispatched: {} | unserved: {}\n\
             \x20 healthy-after-repair: {}\n\
             \x20 violations: {} silent-corruption, {} flip-retry, {} unexplained-unserved\n\
             \x20 verdict: {}\n",
            self.scrub_corrected,
            self.dma_corrected,
            self.uncorrectable_words,
            self.retries,
            self.quarantined,
            self.redispatched,
            self.unserved,
            self.healthy_after_repair,
            self.violations_silent_corruption,
            self.violations_flip_retry,
            self.violations_unexplained_unserved,
            if self.clean() { "CLEAN" } else { "CORRUPTED" }
        ));
        s
    }
}

/// The soak kernel: DMA the counter in, spin it down (so hangs have a
/// window to fire), double it, DMA it out. Golden output = `2 * input`.
#[must_use]
pub fn soak_program() -> dpu_sim::Program {
    dpu_sim::asm::assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         top:\n\
         addi r4, r4, -1\n\
         bne r4, r0, top\n\
         lw r4, r1, 0\n\
         add r4, r4, r4\n\
         sw r1, 0, r4\n\
         mram.write r1, r2, r3\n\
         halt\n",
    )
    .expect("soak kernel assembles")
}

/// A set of `dpus` DPUs with the soak kernel loaded and its counter
/// symbol `x` defined, MRAM ECC armed when asked.
///
/// # Panics
/// On allocation failure (`dpus` outside the machine).
#[must_use]
pub fn soak_set(dpus: usize, ecc: bool) -> DpuSet {
    let mut set = DpuSet::allocate(dpus).expect("allocate soak set");
    set.define_symbol("x", 8).expect("define soak symbol");
    set.load(&soak_program()).expect("load soak kernel");
    set.enable_ecc(ecc);
    set
}

/// Stage a fresh counter, drawn from `rng`, on every DPU of a
/// [`soak_set`]; returns them in DPU order.
///
/// # Panics
/// When `set` has no `x` symbol.
pub fn stage_soak_inputs(set: &mut DpuSet, rng: &mut Rng64) -> Vec<u64> {
    let dpus = set.len() as u32;
    let stage = |d| {
        let input = 200 + rng.next_u64() % 1800;
        set.copy_to_dpu(DpuId(d), "x", 0, &input.to_le_bytes()).expect("stage soak input");
        input
    };
    (0..dpus).map(stage).collect()
}

/// Run a chaos campaign and report. Deterministic in `cfg`.
///
/// # Panics
/// On harness setup failures (allocation, symbol definition, transfer)
/// — never on injected faults; those land in the report.
#[must_use]
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let mut set = soak_set(cfg.dpus, true);
    // Pristine image (COW page-table clone): restored before every
    // launch so one campaign's uncorrectable leftovers cannot leak into
    // the next launch's golden check.
    let pristine = set.snapshot();

    let mut rng = Rng64::new(cfg.seed);
    let mut rep = ChaosReport {
        per_scenario: SCENARIOS.iter().map(|s| ((*s).to_owned(), 0)).collect(),
        ..ChaosReport::default()
    };

    for launch in 0..cfg.launches {
        set.restore(&pristine).expect("pristine image restores");
        let inputs = stage_soak_inputs(&mut set, &mut rng);

        let scenario = (rng.next_u64() % SCENARIOS.len() as u64) as usize;
        rep.per_scenario[scenario].1 += 1;
        let fault_seed = pim_serve::splitmix64(cfg.seed ^ launch);
        let policy = policy(scenario_config(scenario, fault_seed));
        let report =
            set.launch_loaded_resilient(cfg.tasklets, &policy).expect("launch never errors");

        if report.faults_injected() > 0 {
            rep.faulted_launches += 1;
        }
        rep.faults_injected += report.faults_injected() as u64;
        rep.retries += report.retries();
        rep.quarantined += report.quarantined().len() as u64;
        rep.redispatched += report.degraded().count() as u64;
        rep.healthy_after_repair +=
            report.count_health(pim_host::ServeHealth::HealthyAfterRepair) as u64;
        for r in &report.incidents {
            rep.scrub_corrected += r.scrub.corrected();
            rep.dma_corrected += r.dma_corrected;
            rep.uncorrectable_words += r.scrub.uncorrectable.len() as u64;
        }
        if SCENARIOS[scenario] == "bit_flip" {
            rep.violations_flip_retry += report.retries();
        }

        // The golden check: every DPU either serves the exact
        // host-computed answer or is explicitly unserved with an error.
        for (d, &input) in inputs.iter().enumerate() {
            if let Some(r) = report.incident(d).filter(|r| !r.served) {
                rep.unserved += 1;
                rep.violations_unexplained_unserved += u64::from(r.last_error.is_none());
            } else {
                let got = set.copy_scalar_from(DpuId(d as u32), "x").expect("read soak output");
                rep.violations_silent_corruption += u64::from(got != input * 2);
            }
        }
        rep.launches += 1;
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let cfg = ChaosConfig { launches: 40, ..ChaosConfig::default() };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.launches, 40);
    }

    #[test]
    fn scenarios_actually_fire_and_render_summarizes() {
        let cfg = ChaosConfig { launches: 60, seed: 7, ..ChaosConfig::default() };
        let rep = run_chaos(&cfg);
        assert!(rep.faulted_launches > 0, "60 launches must draw some faults: {rep:?}");
        assert!(rep.faults_injected > 0);
        let text = rep.render();
        assert!(text.contains("chaos soak — 60 launches"));
        assert!(text.contains("verdict"));
    }
}
