//! Fault-matrix smoke suite: sweep every fault class at several rates and
//! seeds through the resilient launch path, and check the invariants that
//! must hold for *any* campaign — no panics, deterministic reports, retry
//! and quarantine bookkeeping that adds up. This is the suite the CI
//! fault-matrix job runs on its own.

use dpu_sim::faults::{FaultConfig, FaultPlan};
use dpu_sim::DpuId;
use pim_host::{DpuSet, LaunchReport, ResilientLaunchPolicy};

const DPUS: usize = 6;
const TASKLETS: usize = 2;

/// A kernel with DMA in, a data-dependent loop, DMA out — every fault
/// class has something to hit (transfers for DMA faults, a long loop for
/// hangs, live memory for flips).
fn staged_set() -> DpuSet {
    let program = dpu_sim::asm::assemble(
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
    .unwrap();
    let mut set = DpuSet::allocate(DPUS).unwrap();
    set.define_symbol("x", 8).unwrap();
    for i in 0..DPUS {
        set.copy_to_dpu(DpuId(i as u32), "x", 0, &(500 + i as u64 * 37).to_le_bytes()).unwrap();
    }
    set.load(&program).unwrap();
    set
}

/// The campaign matrix: one axis per fault class plus a mixed row, each at
/// a mild and an aggressive rate.
fn matrix() -> Vec<(&'static str, FaultConfig)> {
    let mut cells = Vec::new();
    for &(label, rate) in &[("mild", 0.05), ("aggressive", 0.4)] {
        cells.push((label, FaultConfig { dma_fail_prob: rate, ..FaultConfig::default() }));
        cells.push((label, FaultConfig { bit_flip_prob: rate, ..FaultConfig::default() }));
        cells.push((label, FaultConfig { hang_prob: rate, ..FaultConfig::default() }));
        cells.push((label, FaultConfig { dpu_offline_prob: rate, ..FaultConfig::default() }));
        // Combined pairs: both classes armed at once, so a single attempt
        // can draw a hang on an offline-flaky DPU or a bit flip riding a
        // failing DMA.
        cells.push((
            label,
            FaultConfig { hang_prob: rate, dpu_offline_prob: rate, ..FaultConfig::default() },
        ));
        cells.push((
            label,
            FaultConfig { bit_flip_prob: rate, dma_fail_prob: rate, ..FaultConfig::default() },
        ));
        cells.push((
            label,
            FaultConfig {
                dma_fail_prob: rate / 2.0,
                bit_flip_prob: rate / 2.0,
                hang_prob: rate / 2.0,
                dpu_offline_prob: rate / 4.0,
                double_flip_prob: rate / 4.0,
                ..FaultConfig::default()
            },
        ));
    }
    cells
}

fn run_cell(config: FaultConfig, sequential: bool) -> LaunchReport {
    let policy = ResilientLaunchPolicy {
        max_retries: 3,
        backoff_cycles: 250,
        // Generous enough that only injected hangs trip it (the kernel
        // itself finishes in well under a million cycles).
        watchdog_budget: 5_000_000,
        ..ResilientLaunchPolicy::with_faults(FaultPlan::new(config))
    };
    let mut set = staged_set();
    if sequential {
        set.set_parallel_threshold(Some(usize::MAX));
    }
    set.launch_loaded_resilient(TASKLETS, &policy).expect("launch never errors")
}

/// Structural invariants that must hold for any report from any campaign.
fn check_invariants(report: &LaunchReport, max_retries: u32) {
    assert_eq!(report.per_dpu.len(), DPUS);
    for (i, r) in report.per_dpu.iter().enumerate() {
        assert!(
            r.attempts >= 1 && r.attempts <= max_retries + 1,
            "DPU {i}: {} attempts",
            r.attempts
        );
        let quarantined = report.quarantined.contains(&DpuId(i as u32));
        // Quarantined ⇔ exhausted every attempt without a home-DPU result.
        assert_eq!(
            quarantined,
            r.attempts == max_retries + 1 && (r.result.is_none() || r.served_by.is_some()),
            "DPU {i}: quarantine bookkeeping inconsistent: {r:?}"
        );
        if r.served_by.is_some() {
            assert!(quarantined, "DPU {i}: served by a stand-in but not quarantined");
            assert!(r.result.is_some());
        }
        if !quarantined {
            assert!(r.result.is_some(), "DPU {i}: not quarantined yet unserved");
            assert!(r.last_error.is_none());
        }
    }
    // Every re-dispatch pairs a quarantined victim with a non-quarantined
    // survivor.
    for d in &report.degraded {
        assert!(report.quarantined.contains(&d.from));
        assert!(!report.quarantined.contains(&d.to));
        assert!(d.cycles > 0);
    }
    // Quarantine list is ascending and duplicate-free.
    assert!(report.quarantined.windows(2).all(|w| w[0] < w[1]));
    // Metrics agree with the report.
    let m = report.metrics();
    assert_eq!(m.counter("resilient.retries"), report.retries());
    assert_eq!(m.counter("resilient.quarantined"), report.quarantined.len() as u64);
    assert_eq!(m.counter("resilient.redispatched"), report.degraded.len() as u64);
    assert_eq!(m.counter("resilient.faults_injected"), report.faults_injected() as u64);
}

#[test]
fn every_matrix_cell_completes_with_consistent_reports() {
    for (label, config) in matrix() {
        for seed in [1u64, 99, 0xDEAD_BEEF] {
            let report = run_cell(FaultConfig { seed, ..config.clone() }, false);
            check_invariants(&report, 3);
            // Same seed, same cell → identical report.
            let again = run_cell(FaultConfig { seed, ..config.clone() }, false);
            assert_eq!(report, again, "{label} cell not reproducible at seed {seed}");
        }
    }
}

#[test]
fn matrix_cells_are_deterministic_across_scheduling() {
    for (_, config) in matrix() {
        let config = FaultConfig { seed: 0x5EED, ..config };
        let parallel = run_cell(config.clone(), false);
        let sequential = run_cell(config, true);
        assert_eq!(parallel, sequential);
    }
}

#[test]
fn combined_faults_in_one_attempt_exhaust_and_quarantine_cleanly() {
    // Certainty-rate pairs force both fault classes into *every* attempt:
    // a flip landing on the same attempt as a DMA failure, and a hang on
    // a DPU that is also drawn offline. Bookkeeping must stay consistent
    // all the way to whole-set quarantine.
    let pairs = [
        FaultConfig { bit_flip_prob: 1.0, dma_fail_prob: 1.0, ..FaultConfig::default() },
        FaultConfig { hang_prob: 1.0, dpu_offline_prob: 1.0, ..FaultConfig::default() },
    ];
    for config in pairs {
        let report = run_cell(FaultConfig { seed: 0xC0, ..config }, false);
        check_invariants(&report, 3);
        assert_eq!(
            report.quarantined.len(),
            DPUS,
            "certainty-rate combined faults must quarantine every DPU"
        );
        assert!(report.degraded.is_empty(), "no survivors to redispatch onto");
        assert!(report.per_dpu.iter().all(|r| r.attempts == 4 && r.result.is_none()));
    }
}

#[test]
fn flip_free_cells_produce_correct_results_wherever_served() {
    for (_, config) in matrix().into_iter().filter(|(_, c)| c.bit_flip_prob == 0.0) {
        let config = FaultConfig { seed: 7, ..config };
        let policy = ResilientLaunchPolicy {
            max_retries: 3,
            watchdog_budget: 5_000_000,
            ..ResilientLaunchPolicy::with_faults(FaultPlan::new(config))
        };
        let mut set = staged_set();
        let report = set.launch_loaded_resilient(TASKLETS, &policy).unwrap();
        for (i, r) in report.per_dpu.iter().enumerate() {
            if r.result.is_some() {
                assert_eq!(
                    set.copy_scalar_from(DpuId(i as u32), "x").unwrap(),
                    (500 + i as u64 * 37) * 2,
                    "DPU {i} served a wrong result"
                );
            }
        }
    }
}
