//! The deterministic observability snapshot behind the perf-regression
//! gate.
//!
//! [`snapshot`] runs a fixed, fully simulated workload — interpreter
//! shapes at several tasklet counts, a skewed multi-DPU launch, and a
//! scripted fault-injection launch — through one
//! [`pim_host::LaunchObservation`], plus a cycle-attribution profile of
//! the ALU loop, and returns the whole thing as a JSON document. Every
//! number in it is *simulated* (cycles, instructions, occupancy), never
//! wall-clock, so the document is bit-stable across machines and runs:
//! any diff against a committed baseline is a real behavior change, not
//! noise. The `perfgate` binary compares snapshots; `report
//! --obs-snapshot` writes them.
//!
//! Scheduling-dependent telemetry (`obs.steal.*`) is deliberately *not*
//! recorded here — the snapshot uses [`pim_host::DpuSet::launch`], whose
//! result is scheduling-independent.

use dpu_sim::asm::assemble;
use dpu_sim::faults::{FaultConfig, FaultPlan};
use dpu_sim::{CycleAttribution, DpuId, ExecProgram, Machine, Observe, Program, RunSpec};
use pim_host::{DpuSet, LaunchObservation, LaunchSpec, ResilientLaunchPolicy};

/// Tight countdown/accumulate loop, one superblock of ALU work.
#[must_use]
pub fn alu_program() -> Program {
    assemble(
        "movi r1, 2000\n\
         movi r2, 0\n\
         loop: add r2, r2, r1\n\
         addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         sw r0, 0, r2\n\
         halt\n",
    )
    .expect("alu program assembles")
}

/// Mutex-protected shared counter plus a barrier: scheduler-heavy.
fn sync_program() -> Program {
    assemble(
        "movi r2, 200\n\
         loop:\n\
         mutex.lock 1\n\
         lw r3, r0, 0x40\n\
         addi r3, r3, 1\n\
         sw r0, 0x40, r3\n\
         mutex.unlock 1\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         barrier\n\
         halt\n",
    )
    .expect("sync program assembles")
}

/// Per-DPU loop with the iteration count scattered through MRAM, skewed
/// so DPU 0 carries ~8x the work of the rest.
fn skewed_set(dpus: usize) -> DpuSet {
    let mut set = DpuSet::allocate(dpus).expect("alloc");
    set.define_symbol("n", 8).expect("symbol");
    for d in 0..dpus {
        let count: u64 = if d == 0 { 16_000 } else { 2_000 };
        set.copy_to_dpu(DpuId(d as u32), "n", 0, &count.to_le_bytes()).expect("scatter");
    }
    set
}

fn skewed_program() -> Program {
    assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         movi r5, 0\n\
         loop: add r5, r5, r4\n\
         addi r4, r4, -1\n\
         bne r4, r0, loop\n\
         sw r1, 0, r5\n\
         halt\n",
    )
    .expect("skewed program assembles")
}

/// Run the fixed workload and return the accumulated observation.
#[must_use]
pub fn observation() -> LaunchObservation {
    let mut obs = LaunchObservation::new();
    let alu = alu_program();

    // Interpreter shapes: the ALU loop at 1 and 11 tasklets, the
    // synchronization-heavy kernel at 16, each across two DPUs.
    let mut small = DpuSet::allocate(2).expect("alloc");
    for tasklets in [1usize, 11] {
        let r = small.launch(&alu, tasklets).expect("alu launch");
        obs.record(&r, false);
    }
    let r = small.launch(&sync_program(), 16).expect("sync launch");
    obs.record(&r, false);

    // A skewed 8-DPU launch: the load-balance picture.
    let mut skewed = skewed_set(8);
    let r = skewed.launch(&skewed_program(), 4).expect("skewed launch");
    obs.record(&r, false);

    // The paper's full machine: a uniform 2,560-DPU / 40-rank launch
    // through one forked launch. Light per-DPU work — the gate watches
    // the simulated figures (instructions, cycles, DMA), which must stay
    // bit-stable at rank scale; wall-clock scaling lives in BENCH_5.json.
    let mut rank = DpuSet::allocate(2560).expect("alloc");
    rank.define_symbol("n", 8).expect("symbol");
    rank.copy_to("n", 0, &200u64.to_le_bytes()).expect("broadcast");
    let r = rank.launch(&skewed_program(), 4).expect("rank launch");
    obs.record(&r, false);

    // A scripted fault campaign: DPU 1 permanently offline, no retries,
    // work re-dispatched to a survivor.
    let mut faulty = skewed_set(4);
    let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..Default::default() });
    let policy =
        ResilientLaunchPolicy { max_retries: 0, ..ResilientLaunchPolicy::with_faults(plan) };
    let skewed = skewed_program();
    let resilient = |policy| LaunchSpec { policy: Some(policy), ..LaunchSpec::adhoc(&skewed, 4) };
    let (report, _) = faulty.launch_with(resilient(&policy)).expect("resilient launch");
    obs.record(&report, true);

    // A scripted integrity campaign: seeded single-bit DMA flips under an
    // armed SEC-DED sidecar. Verify-on-read and the post-launch scrub
    // repair everything without consuming a retry, so the
    // `obs.integrity.*` counters in the snapshot are live (nonzero) and
    // any change to the repair pipeline shows up as an exact diff.
    let mut ecc = skewed_set(4);
    ecc.enable_ecc(true);
    let plan =
        FaultPlan::new(FaultConfig { seed: 7, bit_flip_prob: 0.5, ..FaultConfig::default() });
    let policy = ResilientLaunchPolicy::with_faults(plan);
    let (report, _) = ecc.launch_with(resilient(&policy)).expect("ecc launch");
    obs.record(&report, true);

    obs
}

/// Profile the ALU loop at 11 tasklets and return the attribution plus
/// the run's cycle count (which the attribution partitions exactly).
#[must_use]
pub fn attribution() -> (CycleAttribution, u64) {
    let exec = ExecProgram::compile(&alu_program()).expect("compiles");
    let mut attr = CycleAttribution::new();
    let mut machine = Machine::default();
    let result = machine
        .execute(&exec, RunSpec { observe: Observe::Profile(&mut attr), ..RunSpec::new(11) })
        .expect("profiled run");
    (attr, result.cycles)
}

/// A fixed serving scenario through `pim-serve`: seeded open-loop eBNN
/// traffic over 2 DPUs with a scripted always-offline DPU 1, so the
/// gate watches admission, batching, pipelining, *and* degradation
/// figures. Every number is simulated (cycles, items, counters) — the
/// run is a pure function of the constants below, so the document is
/// bit-stable like the rest of the snapshot.
#[must_use]
pub fn serve_observation() -> serde_json::Value {
    use ebnn::codegen::encode_slot;
    use ebnn::model::{EbnnModel, ModelConfig};
    use pim_serve::{serve, EbnnServeEngine, OpenLoop, PipelineMode, Rng64, ServeConfig};

    let model = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
    let pool: Vec<Vec<u8>> = (0..8u64)
        .map(|i| encode_slot(&model, &ebnn::mnist::synth_digit((i % 10) as usize, i)))
        .collect();
    let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..Default::default() });
    let policy = ResilientLaunchPolicy::with_faults(plan);
    let mut engine =
        EbnnServeEngine::new(&model, 2, PipelineMode::Double, Some(policy)).expect("serve engine");
    let gen = move |rng: &mut Rng64, _id: u64| -> Vec<Vec<u8>> {
        let n = rng.range(1, 3) as usize;
        (0..n).map(|_| pool[rng.range(0, 7) as usize].clone()).collect()
    };
    let mut traffic = OpenLoop::new(0x5EED, 48, 20_000, gen);
    let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
    let report = serve(&mut engine, &mut traffic, &cfg).expect("serve scenario");
    report.metrics.to_json()
}

/// The complete snapshot document.
#[must_use]
pub fn snapshot() -> serde_json::Value {
    let obs = observation();
    let (attr, cycles) = attribution();
    let blocks: Vec<serde_json::Value> = attr
        .top_blocks(10)
        .into_iter()
        .map(|b| {
            serde_json::json!({
                "start": b.start,
                "len": b.len,
                "entries": b.entries,
                "slots": b.slots,
                "cycles": b.cycles,
            })
        })
        .collect();
    serde_json::json!({
        "schema": "pim-obs-snapshot-v1",
        "metrics": obs.to_json(),
        "serve": serve_observation(),
        "attribution": {
            "program": "alu_loop",
            "tasklets": 11u64,
            "total_cycles": cycles,
            "top_blocks": serde_json::Value::Array(blocks),
        },
    })
}

/// Folded flamegraph stacks for the profiled ALU loop (CI artifact).
#[must_use]
pub fn folded() -> String {
    attribution().0.folded("alu_loop_11t")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_deterministic_across_runs() {
        let a = serde_json::to_string(&snapshot()).unwrap();
        let b = serde_json::to_string(&snapshot()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serve_scenario_exercises_batching_and_degradation() {
        let doc = snapshot();
        let serve = doc.get("serve").expect("serve section");
        let counter = |k: &str| {
            serve.get("counters").and_then(|c| c.get(k)).and_then(|v| v.as_u64()).unwrap_or(0)
        };
        assert!(counter("serve.batches") > 0, "batches launched");
        assert!(counter("serve.rejected") > 0, "tight queue bound must shed");
        assert!(counter("serve.redispatched_items") > 0, "offline DPU 1 redispatches");
        let goodput = serve
            .get("gauges")
            .and_then(|g| g.get("serve.goodput_ips"))
            .and_then(serde_json::Value::as_f64)
            .expect("goodput gauge");
        assert!(goodput > 0.0);
        let lat = serve
            .get("histograms")
            .and_then(|h| h.get("serve.latency_cycles"))
            .expect("latency histogram");
        for q in ["p50", "p99", "p999"] {
            assert!(lat.get(q).is_some(), "missing {q}");
        }
    }

    #[test]
    fn snapshot_gates_live_integrity_counters() {
        let doc = snapshot();
        let counter = |k: &str| {
            doc.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get(k))
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        assert!(
            counter("obs.integrity.dma_corrected") + counter("obs.integrity.scrub_corrected") > 0,
            "the ECC campaign must exercise the repair pipeline"
        );
        assert_eq!(
            counter("obs.integrity.scrub_uncorrectable"),
            0,
            "single-bit flips must never surface as uncorrectable"
        );
    }

    #[test]
    fn snapshot_contains_quantiles_and_hot_blocks() {
        let doc = snapshot();
        let hist = doc
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("obs.launch.makespan_cycles"))
            .expect("makespan histogram");
        for q in ["p50", "p99", "p999"] {
            assert!(hist.get(q).is_some(), "missing {q}: {hist:?}");
        }
        let blocks =
            doc.get("attribution").and_then(|a| a.get("top_blocks")).and_then(|b| b.as_array());
        let blocks = blocks.expect("top_blocks array");
        assert!(!blocks.is_empty());
        let total = doc
            .get("attribution")
            .and_then(|a| a.get("total_cycles"))
            .and_then(|v| v.as_u64())
            .expect("total_cycles");
        let sum: u64 = blocks.iter().filter_map(|b| b.get("cycles").and_then(|c| c.as_u64())).sum();
        assert_eq!(sum, total, "top blocks of a single-loop program cover all cycles");
    }
}
