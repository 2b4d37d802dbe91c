//! Metrics-key stability: the `launch.*`/`dpu.*`/`tasklet.*`,
//! `resilient.*`/`faults.*` and `obs.*` key sets are a public interface —
//! dashboards, the Prometheus exposition, and the perf-regression
//! baseline all address metrics by these names. Renaming or dropping a
//! key must be a conscious, test-visible change, so this test pins the
//! exact key sets emitted by each snapshot path.

use dpu_sim::asm::assemble;
use dpu_sim::faults::{FaultConfig, FaultPlan};
use pim_host::{DpuSet, LaunchObservation, LaunchSpec, ResilientLaunchPolicy};
use pim_trace::MetricsRegistry;

fn work_program() -> dpu_sim::Program {
    assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         movi r4, 50\n\
         loop:\n\
         addi r4, r4, -1\n\
         bne r4, r0, loop\n\
         mram.write r1, r2, r3\n\
         halt\n",
    )
    .unwrap()
}

fn key_sets(m: &MetricsRegistry) -> (Vec<String>, Vec<String>, Vec<String>) {
    (
        m.counters().map(|(k, _)| k.to_owned()).collect(),
        m.gauges().map(|(k, _)| k.to_owned()).collect(),
        m.histograms().map(|(k, _)| k.to_owned()).collect(),
    )
}

#[test]
fn launch_metrics_key_set_is_stable() {
    let mut set = DpuSet::allocate(2).unwrap();
    let result = set.launch(&work_program(), 4).unwrap();
    let (counters, gauges, histograms) = key_sets(&result.metrics());
    assert_eq!(
        counters,
        ["launch.dma.bytes", "launch.dma.cycles", "launch.dma.transfers", "launch.instructions"]
    );
    assert_eq!(gauges, ["launch.dpus", "launch.ipc", "launch.makespan_cycles", "launch.tasklets"]);
    assert_eq!(histograms, ["dpu.cycles", "dpu.instructions", "dpu.ipc", "tasklet.occupancy"]);
}

#[test]
fn resilient_metrics_key_set_is_stable() {
    let mut set = DpuSet::allocate(4).unwrap();
    let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..Default::default() });
    let policy =
        ResilientLaunchPolicy { max_retries: 0, ..ResilientLaunchPolicy::with_faults(plan) };
    let program = work_program();
    let spec = LaunchSpec { policy: Some(&policy), ..LaunchSpec::adhoc(&program, 2) };
    let (report, _) = set.launch_with(spec).unwrap();
    assert!(report.fully_served(), "redispatch serves the offline DPU's work");
    let (counters, gauges, histograms) = key_sets(&report.resilient_metrics());
    assert_eq!(
        counters,
        [
            "faults.dpu_offline",
            "integrity.dma_corrected",
            "integrity.scrub_corrected",
            "integrity.scrub_uncorrectable",
            "integrity.scrub_words",
            "launch.dma.bytes",
            "launch.dma.cycles",
            "launch.dma.transfers",
            "launch.instructions",
            "resilient.faults_injected",
            "resilient.healthy_after_repair",
            "resilient.quarantined",
            "resilient.redispatched",
            "resilient.retries",
        ]
    );
    assert_eq!(
        gauges,
        [
            "launch.dpus",
            "launch.ipc",
            "launch.makespan_cycles",
            "launch.tasklets",
            "resilient.makespan_cycles",
            "resilient.unserved",
        ]
    );
    assert_eq!(histograms, ["dpu.cycles", "dpu.instructions", "dpu.ipc", "tasklet.occupancy"]);
}

/// A launch under a policy that injects nothing still reports the
/// resilience block, every counter of it zero, beside the launch block.
#[test]
fn zero_fault_policy_metrics_key_set_is_stable() {
    let mut set = DpuSet::allocate(2).unwrap();
    let policy = ResilientLaunchPolicy::default();
    let program = work_program();
    let spec = LaunchSpec { policy: Some(&policy), ..LaunchSpec::adhoc(&program, 4) };
    let (report, _) = set.launch_with(spec).unwrap();
    assert!(report.incidents.is_empty(), "{report:?}");
    let m = report.resilient_metrics();
    let (counters, gauges, histograms) = key_sets(&m);
    assert_eq!(
        counters,
        [
            "integrity.dma_corrected",
            "integrity.scrub_corrected",
            "integrity.scrub_uncorrectable",
            "integrity.scrub_words",
            "launch.dma.bytes",
            "launch.dma.cycles",
            "launch.dma.transfers",
            "launch.instructions",
            "resilient.faults_injected",
            "resilient.healthy_after_repair",
            "resilient.quarantined",
            "resilient.redispatched",
            "resilient.retries",
        ]
    );
    for key in counters.iter().filter(|k| !k.starts_with("launch.")) {
        assert_eq!(m.counter(key), 0, "{key}");
    }
    assert_eq!(
        gauges,
        [
            "launch.dpus",
            "launch.ipc",
            "launch.makespan_cycles",
            "launch.tasklets",
            "resilient.makespan_cycles",
            "resilient.unserved",
        ]
    );
    assert_eq!(m.gauge("resilient.unserved"), Some(0.0));
    assert_eq!(m.gauge("resilient.makespan_cycles"), m.gauge("launch.makespan_cycles"));
    assert_eq!(histograms, ["dpu.cycles", "dpu.instructions", "dpu.ipc", "tasklet.occupancy"]);
}

#[test]
fn observation_metrics_key_set_is_stable() {
    let program = work_program();
    let mut obs = LaunchObservation::new();

    // A plain observed launch on a steal-scheduled set…
    let mut set = DpuSet::allocate(6).unwrap();
    set.launch_with(LaunchSpec { observe: Some(&mut obs), ..LaunchSpec::adhoc(&program, 4) })
        .unwrap();

    // …plus a resilient launch with a scripted offline DPU.
    let mut faulty = DpuSet::allocate(4).unwrap();
    let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..Default::default() });
    let policy =
        ResilientLaunchPolicy { max_retries: 0, ..ResilientLaunchPolicy::with_faults(plan) };
    let spec = LaunchSpec {
        policy: Some(&policy),
        observe: Some(&mut obs),
        ..LaunchSpec::adhoc(&program, 2)
    };
    faulty.launch_with(spec).unwrap();

    let (counters, gauges, histograms) = key_sets(obs.metrics());
    assert_eq!(
        counters,
        [
            "obs.dma.bytes",
            "obs.dma.cycles",
            "obs.dma.transfers",
            "obs.engine.chunk.aborts.boundary",
            "obs.engine.chunk.aborts.conflict",
            "obs.engine.chunk.aborts.fault",
            "obs.engine.chunk.aborts.trace",
            "obs.engine.chunk.commits",
            "obs.engine.chunk.lane_slots",
            "obs.engine.chunk.lane_steps",
            "obs.engine.chunk.rolled_back_slots",
            "obs.engine.replay.abandoned",
            "obs.engine.replay.hits",
            "obs.engine.replay.records",
            "obs.engine.rotation.orbit_misses",
            "obs.engine.rotation.orbit_probes",
            "obs.engine.rotation.orbit_slots",
            "obs.engine.rotation.undersaturated_slots",
            "obs.engine.slots.burst_batch",
            "obs.engine.slots.chunk",
            "obs.engine.slots.reference",
            "obs.engine.slots.replayed",
            "obs.engine.slots.rotation",
            "obs.engine.slots.sole",
            "obs.faults.dpu_offline",
            "obs.faults_injected",
            "obs.healthy_after_repair",
            "obs.instructions",
            "obs.integrity.dma_corrected",
            "obs.integrity.scrub_corrected",
            "obs.integrity.scrub_uncorrectable",
            "obs.launches",
            "obs.pool.batches",
            "obs.quarantined",
            "obs.redispatched",
            "obs.retries",
            "obs.steal.claims",
            "obs.steal.launches",
            "obs.unserved",
        ]
    );
    assert_eq!(gauges, ["obs.dpus", "obs.pool.workers", "obs.steal.workers", "obs.tasklets"]);
    assert_eq!(
        histograms,
        [
            "obs.dpu.cycles",
            "obs.dpu.instructions",
            "obs.dpu.ipc",
            "obs.launch.makespan_cycles",
            "obs.pool.occupancy",
            "obs.pool.queue_depth",
            "obs.steal.claims_per_worker",
            "obs.tasklet.occupancy",
        ]
    );
}
