//! Launch telemetry: the snapshot of one launch and one accumulator for
//! everything the host observes across a run of launches.
//!
//! [`LaunchReport::metrics`] snapshots a *single* launch (the `launch.*`,
//! `dpu.*` and `tasklet.*` keys); [`LaunchReport::resilient_metrics`]
//! adds the `resilient.*`, `faults.*` and `integrity.*` keys of a launch
//! under a policy. Real experiments launch many times (one wave per batch
//! of inputs), and the figures the paper quotes — makespan distributions,
//! per-DPU load balance, retry pressure — only mean something aggregated
//! over the whole run. [`LaunchObservation`] is that aggregate: feed it
//! every launch (plain or resilient) plus the scheduler's [`StealStats`],
//! and it maintains one [`MetricsRegistry`] under the `obs.*` namespace,
//! exportable as deterministic JSON ([`LaunchObservation::to_json`]) or
//! Prometheus text exposition ([`LaunchObservation::prometheus`]).
//!
//! The key catalog, with which keys are deterministic (the simulated
//! figures), which differ across engine tiers (`obs.engine.*`) and which
//! depend on host-thread timing (`obs.steal.*`, `obs.pool.*`), is
//! `docs/OBSERVABILITY.md`; `tests/metrics_keys.rs` pins the exact sets.

use crate::launch::StealStats;
use crate::resilient::{Incident, LaunchReport, ServeHealth};
use pim_trace::{prometheus_text, MetricsRegistry};

impl LaunchReport {
    /// Snapshot this launch into a [`MetricsRegistry`]: set-level counters
    /// (instructions, DMA traffic), gauges (makespan, IPC, shape) and
    /// per-DPU/per-tasklet distributions (cycles, instructions, tasklet
    /// occupancy — the load-balance picture behind Fig. 4.7(a)). Empty
    /// unless every DPU's work was served.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        if self.fully_served() {
            self.dpu_block(&mut m, "launch.", "");
            let makespan = self.per_dpu.iter().map(|r| r.cycles).max().unwrap_or(0);
            m.gauge_set("launch.makespan_cycles", makespan as f64);
            if makespan > 0 {
                m.gauge_set("launch.ipc", self.total_instructions() as f64 / makespan as f64);
            }
        }
        m
    }

    /// [`LaunchReport::metrics`] plus the resilience block of a launch
    /// under a policy: retries, quarantines, re-dispatches, per-class
    /// injected-fault counts and the integrity repairs.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn resilient_metrics(&self) -> MetricsRegistry {
        let mut m = self.metrics();
        self.resilience_block(&mut m, "resilient.", "");
        m.gauge_set("resilient.makespan_cycles", self.makespan_cycles() as f64);
        m.gauge_set("resilient.unserved", self.count_health(ServeHealth::Unserved) as f64);
        m.counter_add("integrity.scrub_words", self.incidents.iter().map(|i| i.scrub.words).sum());
        m
    }

    /// The per-DPU figures: instruction and DMA counters and the shape
    /// gauges named under `set`, the per-DPU and per-tasklet histograms
    /// under `dpu`.
    #[allow(clippy::cast_precision_loss)]
    fn dpu_block(&self, m: &mut MetricsRegistry, set: &str, dpu: &str) {
        let sum =
            |field: fn(&dpu_sim::RunResult) -> u64| self.per_dpu.iter().map(|r| field(r)).sum();
        m.counter_add(&format!("{set}instructions"), self.total_instructions());
        m.counter_add(&format!("{set}dma.bytes"), sum(|r| r.dma_bytes));
        m.counter_add(&format!("{set}dma.transfers"), sum(|r| r.dma_transfers));
        m.counter_add(&format!("{set}dma.cycles"), sum(|r| r.dma_cycles));
        m.gauge_set(&format!("{set}dpus"), self.per_dpu.len() as f64);
        m.gauge_set(&format!("{set}tasklets"), self.tasklets as f64);
        let key = |name: &str| format!("{dpu}{name}");
        let [cycles, instructions, ipc, occupancy] =
            ["dpu.cycles", "dpu.instructions", "dpu.ipc", "tasklet.occupancy"].map(key);
        for r in &self.per_dpu {
            m.observe(&cycles, r.cycles as f64);
            m.observe(&instructions, r.instructions as f64);
            if r.cycles > 0 {
                m.observe(&ipc, r.instructions as f64 / r.cycles as f64);
            }
            // Occupancy: each tasklet's share of the DPU's issue slots.
            // Perfect balance over T tasklets reads as a flat 1/T.
            if r.instructions > 0 {
                for &issued in &r.issue_per_tasklet {
                    m.observe(&occupancy, issued as f64 / r.instructions as f64);
                }
            }
        }
    }

    /// The resilience counters, read off the incidents: the launch's own
    /// named under `own` (`retries`, `quarantined`, …), the per-class
    /// `faults.*` and the `integrity.*` repairs under `blocks`.
    fn resilience_block(&self, m: &mut MetricsRegistry, own: &str, blocks: &str) {
        m.counter_add(&format!("{own}retries"), self.retries());
        m.counter_add(&format!("{own}quarantined"), self.quarantined().len() as u64);
        m.counter_add(&format!("{own}redispatched"), self.degraded().count() as u64);
        m.counter_add(&format!("{own}faults_injected"), self.faults_injected() as u64);
        let repaired = self.count_health(ServeHealth::HealthyAfterRepair) as u64;
        m.counter_add(&format!("{own}healthy_after_repair"), repaired);
        for f in self.incidents.iter().flat_map(|i| &i.faults) {
            m.counter_add(&format!("{blocks}faults.{}", f.kind.label()), 1);
        }
        let sum = |field: fn(&Incident) -> u64| self.incidents.iter().map(field).sum();
        m.counter_add(&format!("{blocks}integrity.dma_corrected"), sum(|i| i.dma_corrected));
        m.counter_add(&format!("{blocks}integrity.scrub_corrected"), sum(|i| i.scrub.corrected()));
        let uncorrectable = sum(|i| i.scrub.uncorrectable.len() as u64);
        m.counter_add(&format!("{blocks}integrity.scrub_uncorrectable"), uncorrectable);
    }
}

/// Accumulated host-side telemetry over any number of launches.
///
/// The observation is mergeable ([`LaunchObservation::merge`]) so
/// per-thread or per-phase observations can be combined into one report,
/// exactly like the histograms underneath.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchObservation {
    registry: MetricsRegistry,
}

impl LaunchObservation {
    /// A fresh, empty observation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed launch: its count and makespan, the
    /// resilience counters when `resilience` is set (a launch under a
    /// policy) and, when every work item was served, the per-DPU figures.
    #[allow(clippy::cast_precision_loss)]
    pub fn record(&mut self, report: &LaunchReport, resilience: bool) {
        let m = &mut self.registry;
        m.counter_add("obs.launches", 1);
        m.observe("obs.launch.makespan_cycles", report.makespan_cycles() as f64);
        if resilience {
            report.resilience_block(m, "obs.", "obs.");
            m.counter_add("obs.unserved", report.count_health(ServeHealth::Unserved) as u64);
        }
        if report.fully_served() {
            report.dpu_block(m, "obs.", "obs.");
        }
    }

    /// Record how the work-stealing scheduler spread one forked launch
    /// over its workers. Scheduling-dependent: see the module docs.
    #[allow(clippy::cast_precision_loss)]
    pub fn record_steal(&mut self, stats: &StealStats) {
        self.registry.counter_add("obs.steal.launches", 1);
        self.registry.counter_add("obs.steal.claims", stats.total_claims());
        self.registry.gauge_set("obs.steal.workers", stats.workers() as f64);
        for &claimed in &stats.claims {
            self.registry.observe("obs.steal.claims_per_worker", claimed as f64);
        }
        // Worker shape: one batch per launch, its queue depth, and the
        // fraction of workers that claimed at least one job.
        self.registry.counter_add("obs.pool.batches", 1);
        self.registry.gauge_set("obs.pool.workers", stats.workers() as f64);
        self.registry.observe("obs.pool.queue_depth", stats.queued as f64);
        if stats.workers() > 0 {
            let occupied = stats.claims.iter().filter(|&&c| c > 0).count();
            self.registry.observe("obs.pool.occupancy", occupied as f64 / stats.workers() as f64);
        }
    }

    /// Record which simulator execution modes retired the slots of one
    /// or more launches: a delta of [`dpu_sim::PimSystem::engine_stats`]
    /// readings. Tier-dependent: see the module docs.
    pub fn record_engine(&mut self, stats: &dpu_sim::EngineStats) {
        for (name, value) in stats.named() {
            self.registry.counter_add(&format!("obs.engine.{name}"), value);
        }
    }

    /// Fold another observation into this one (counters add, gauges take
    /// the other's latest value, histograms merge bucket-by-bucket).
    pub fn merge(&mut self, other: &Self) {
        self.registry.merge(&other.registry);
    }

    /// Launches recorded so far (plain plus resilient).
    #[must_use]
    pub fn launches(&self) -> u64 {
        self.registry.counter("obs.launches")
    }

    /// The accumulated registry, for ad-hoc queries and snapshotting.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Deterministic JSON snapshot (keys sorted, quantiles included) —
    /// the diffable artifact the perf-regression gate consumes.
    #[must_use]
    pub fn to_json(&self) -> pim_trace::Value {
        self.registry.to_json()
    }

    /// Prometheus text exposition (format 0.0.4) of the whole
    /// observation: counters, gauges, and histogram quantile summaries.
    #[must_use]
    pub fn prometheus(&self) -> String {
        prometheus_text(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::ResilientLaunchPolicy;
    use crate::{DpuSet, LaunchSpec};
    use dpu_sim::asm::assemble;
    use dpu_sim::{FaultConfig, FaultPlan, Program};

    /// A plain ad-hoc launch feeding `obs`.
    fn observed_launch(
        set: &mut DpuSet,
        program: &Program,
        tasklets: usize,
        obs: &mut LaunchObservation,
    ) -> LaunchReport {
        let spec = LaunchSpec { observe: Some(obs), ..LaunchSpec::adhoc(program, tasklets) };
        set.launch_with(spec).unwrap().0.served().unwrap()
    }

    fn work_program() -> Program {
        assemble(
            "movi r1, 40\n\
             loop:\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        )
        .unwrap()
    }

    #[test]
    fn observation_accumulates_across_launches() {
        let program = work_program();
        let mut set = DpuSet::allocate(6).unwrap();
        let mut obs = LaunchObservation::new();
        let r1 = observed_launch(&mut set, &program, 2, &mut obs);
        let r2 = observed_launch(&mut set, &program, 4, &mut obs);
        assert_eq!(obs.launches(), 2);
        let m = obs.metrics();
        assert_eq!(
            m.counter("obs.instructions"),
            r1.total_instructions() + r2.total_instructions()
        );
        let mk = m.histogram("obs.launch.makespan_cycles").unwrap();
        assert_eq!(mk.count(), 2);
        assert_eq!(mk.max(), Some(r1.makespan_cycles().max(r2.makespan_cycles()) as f64));
        assert_eq!(m.histogram("obs.dpu.cycles").unwrap().count(), 12);
        // 6 DPUs engage the stealing scheduler, so steal stats were fed.
        assert_eq!(m.counter("obs.steal.claims"), 12);
        assert_eq!(m.counter("obs.steal.launches"), 2);
    }

    #[test]
    fn resilient_reports_fold_into_the_same_observation() {
        let program = work_program();
        let mut set = DpuSet::allocate(4).unwrap();
        let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..Default::default() });
        let policy =
            ResilientLaunchPolicy { max_retries: 0, ..ResilientLaunchPolicy::with_faults(plan) };
        // An observed launch under a policy records its report.
        let mut obs = LaunchObservation::new();
        let spec = LaunchSpec {
            policy: Some(&policy),
            observe: Some(&mut obs),
            ..LaunchSpec::adhoc(&program, 2)
        };
        let (report, _) = set.launch_with(spec).unwrap();
        assert!(report.fully_served());
        let mut by_hand = LaunchObservation::new();
        by_hand.record(&report, true);
        assert!(by_hand.metrics().counters().all(|(k, v)| obs.metrics().counter(k) == v));
        let m = obs.metrics();
        assert_eq!(m.counter("obs.launches"), 1);
        assert_eq!(m.counter("obs.retries"), report.retries());
        assert_eq!(m.counter("obs.quarantined"), 1);
        assert_eq!(m.counter("obs.redispatched"), 1);
        assert_eq!(m.counter("obs.faults_injected"), report.faults_injected() as u64);
        assert_eq!(m.counter("obs.faults.dpu_offline"), 1);
        assert_eq!(m.counter("obs.unserved"), 0);
        assert_eq!(
            m.histogram("obs.launch.makespan_cycles").unwrap().max(),
            Some(report.makespan_cycles() as f64)
        );
        // Fully served → the per-DPU distributions are present too.
        assert_eq!(m.histogram("obs.dpu.cycles").unwrap().count(), 4);
    }

    #[test]
    fn merged_observations_equal_one_accumulated_observation() {
        let program = work_program();
        let mut obs_a = LaunchObservation::new();
        let mut obs_b = LaunchObservation::new();
        let mut accumulated = LaunchObservation::new();
        let mut set = DpuSet::allocate(2).unwrap();
        let r1 = set.launch(&program, 3).unwrap();
        let r2 = set.launch(&program, 5).unwrap();
        obs_a.record(&r1, false);
        obs_b.record(&r2, false);
        accumulated.record(&r1, false);
        accumulated.record(&r2, false);
        obs_a.merge(&obs_b);
        // Counters and gauges must agree exactly; histogram sums may
        // differ by float-addition order, so compare them field-wise.
        let (m, a) = (obs_a.metrics(), accumulated.metrics());
        assert_eq!(m.counters().collect::<Vec<_>>(), a.counters().collect::<Vec<_>>());
        assert_eq!(m.gauges().collect::<Vec<_>>(), a.gauges().collect::<Vec<_>>());
        for ((name, h), (a_name, a_h)) in m.histograms().zip(a.histograms()) {
            assert_eq!(name, a_name);
            assert_eq!(h.count(), a_h.count(), "{name}");
            assert_eq!(h.min(), a_h.min(), "{name}");
            assert_eq!(h.max(), a_h.max(), "{name}");
            assert_eq!(h.p50(), a_h.p50(), "{name}");
            let tol = 1e-12 * a_h.sum().abs().max(1.0);
            assert!((h.sum() - a_h.sum()).abs() <= tol, "{name}");
        }
    }

    #[test]
    fn prometheus_exposition_covers_every_metric_family() {
        let program = work_program();
        let mut set = DpuSet::allocate(2).unwrap();
        let mut obs = LaunchObservation::new();
        observed_launch(&mut set, &program, 2, &mut obs);
        let text = obs.prometheus();
        assert!(text.contains("# TYPE obs_launches counter"), "missing counter:\n{text}");
        assert!(text.contains("# TYPE obs_dpus gauge"), "missing gauge:\n{text}");
        assert!(text.contains("# TYPE obs_dpu_cycles summary"), "missing summary:\n{text}");
        assert!(text.contains("obs_dpu_cycles{quantile=\"0.99\"}"), "missing quantile:\n{text}");
        let json = obs.to_json();
        assert!(json.get("histograms").is_some());
    }
}
