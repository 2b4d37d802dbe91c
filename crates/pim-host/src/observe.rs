//! Unified launch telemetry: one accumulator for everything the host
//! observes across a run of launches.
//!
//! [`LaunchResult::metrics`] and [`LaunchReport::metrics`] snapshot a
//! *single* launch. Real experiments launch many times (one wave per
//! batch of inputs), and the figures the paper quotes — makespan
//! distributions, per-DPU load balance, retry pressure — only mean
//! something aggregated over the whole run. [`LaunchObservation`] is that
//! aggregate: feed it every launch (plain or resilient) plus the
//! scheduler's [`StealStats`], and it maintains one [`MetricsRegistry`]
//! under the `obs.*` namespace, exportable as deterministic JSON
//! ([`LaunchObservation::to_json`]) or Prometheus text exposition
//! ([`LaunchObservation::prometheus`]).
//!
//! ## Key catalog
//!
//! Counters (monotone, deterministic for a fixed workload):
//! `obs.launches`, `obs.instructions`, `obs.dma.bytes`,
//! `obs.dma.transfers`, `obs.dma.cycles`, `obs.retries`,
//! `obs.quarantined`, `obs.redispatched`, `obs.faults_injected`,
//! `obs.faults.<kind>`, `obs.unserved`, `obs.healthy_after_repair`,
//! `obs.integrity.dma_corrected`, `obs.integrity.scrub_corrected`,
//! `obs.integrity.scrub_uncorrectable`.
//!
//! Engine residency (deterministic for a fixed engine tier, but it
//! *differs across tiers* by design — perf gates must ignore it):
//! `obs.engine.slots.{reference,sole,rotation,chunk,burst_batch,replayed}`
//! count the issue slots each execution mode of the simulator retired,
//! `obs.engine.rotation.undersaturated_slots` those of them retired by
//! rotations of fewer tasklets than pipeline stages,
//! `obs.engine.chunk.commits`,
//! `obs.engine.chunk.aborts.{boundary,conflict,trace,fault}` and
//! `obs.engine.chunk.rolled_back_slots` say how the tasklet-major chunks
//! fared (see `docs/PERFORMANCE.md`). Fed by launches with a
//! [`crate::LaunchSpec::observe`].
//!
//! Histograms (quantile summaries, deterministic): `obs.launch.makespan_cycles`,
//! `obs.dpu.cycles`, `obs.dpu.instructions`, `obs.dpu.ipc`,
//! `obs.tasklet.occupancy`.
//!
//! Scheduling telemetry (host-thread timing dependent — **not**
//! deterministic, perf gates must ignore them): `obs.steal.launches`,
//! `obs.steal.claims` counters, `obs.steal.workers` gauge,
//! `obs.steal.claims_per_worker` histogram; and for the forked launches'
//! workers, `obs.pool.batches` counter, `obs.pool.workers` gauge,
//! `obs.pool.queue_depth` / `obs.pool.occupancy` histograms.

use crate::launch::{LaunchResult, StealStats};
use crate::resilient::LaunchReport;
use dpu_sim::RunResult;
use pim_trace::{prometheus_text, MetricsRegistry};

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

    /// Record one completed plain launch.
    pub fn record(&mut self, result: &LaunchResult) {
        self.record_wave(result.makespan_cycles(), result.per_dpu.iter(), result.tasklets);
    }

    /// [`LaunchObservation::record`] for a plain launch still in report
    /// form (every DPU served in place).
    pub(crate) fn record_served(&mut self, report: &LaunchReport) {
        self.record_wave(report.makespan_cycles(), report.served_results(), report.tasklets);
    }

    #[allow(clippy::cast_precision_loss)]
    fn record_wave<'a>(
        &mut self,
        makespan: u64,
        per_dpu: impl Iterator<Item = &'a RunResult> + Clone,
        tasklets: usize,
    ) {
        self.registry.counter_add("obs.launches", 1);
        self.registry.observe("obs.launch.makespan_cycles", makespan as f64);
        self.record_dpus(per_dpu, tasklets);
    }

    /// Record one completed fault-tolerant launch: resilience counters
    /// plus, when every work item was served, the usual per-DPU figures.
    #[allow(clippy::cast_precision_loss)]
    pub fn record_report(&mut self, report: &LaunchReport) {
        self.registry.counter_add("obs.launches", 1);
        self.registry.observe("obs.launch.makespan_cycles", report.makespan_cycles() as f64);
        self.registry.counter_add("obs.retries", report.retries());
        self.registry.counter_add("obs.quarantined", report.quarantined.len() as u64);
        self.registry.counter_add("obs.redispatched", report.degraded.len() as u64);
        self.registry.counter_add("obs.faults_injected", report.faults_injected() as u64);
        for r in &report.per_dpu {
            for f in &r.faults {
                self.registry.counter_add(&format!("obs.faults.{}", f.kind.label()), 1);
            }
        }
        let unserved = report.per_dpu.iter().filter(|r| r.result.is_none()).count();
        self.registry.counter_add("obs.unserved", unserved as u64);
        self.registry.counter_add(
            "obs.healthy_after_repair",
            report.count_health(crate::resilient::ServeHealth::HealthyAfterRepair) as u64,
        );
        self.registry.counter_add(
            "obs.integrity.dma_corrected",
            report.per_dpu.iter().map(|r| r.dma_corrected).sum(),
        );
        self.registry.counter_add(
            "obs.integrity.scrub_corrected",
            report.per_dpu.iter().map(|r| r.scrub.corrected()).sum(),
        );
        self.registry.counter_add(
            "obs.integrity.scrub_uncorrectable",
            report.per_dpu.iter().map(|r| r.scrub.uncorrectable.len() as u64).sum(),
        );
        if report.fully_served() {
            self.record_dpus(report.served_results(), report.tasklets);
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

    /// The per-DPU figures shared by plain and fully-served resilient
    /// launches (everything except the launch count and makespan, which
    /// differ between the two paths).
    #[allow(clippy::cast_precision_loss)]
    fn record_dpus<'a>(
        &mut self,
        per_dpu: impl Iterator<Item = &'a RunResult> + Clone,
        tasklets: usize,
    ) {
        let m = &mut self.registry;
        m.counter_add("obs.instructions", per_dpu.clone().map(|r| r.instructions).sum());
        m.counter_add("obs.dma.bytes", per_dpu.clone().map(|r| r.dma_bytes).sum());
        m.counter_add("obs.dma.transfers", per_dpu.clone().map(|r| r.dma_transfers).sum());
        m.counter_add("obs.dma.cycles", per_dpu.clone().map(|r| r.dma_cycles).sum());
        m.gauge_set("obs.dpus", per_dpu.clone().count() as f64);
        m.gauge_set("obs.tasklets", tasklets as f64);
        for r in per_dpu {
            m.observe("obs.dpu.cycles", r.cycles as f64);
            m.observe("obs.dpu.instructions", r.instructions as f64);
            if r.cycles > 0 {
                m.observe("obs.dpu.ipc", r.instructions as f64 / r.cycles as f64);
            }
            if r.instructions > 0 {
                for &issued in &r.issue_per_tasklet {
                    m.observe("obs.tasklet.occupancy", issued as f64 / r.instructions as f64);
                }
            }
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
    ) -> LaunchResult {
        let spec = LaunchSpec { observe: Some(obs), ..LaunchSpec::adhoc(program, tasklets) };
        set.launch_with(spec).unwrap().0.into_launch_result().unwrap()
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
        by_hand.record_report(&report);
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
        obs_a.record(&r1);
        obs_b.record(&r2);
        accumulated.record(&r1);
        accumulated.record(&r2);
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
