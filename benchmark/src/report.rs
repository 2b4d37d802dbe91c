//! Reduce what a run measured to the named metrics of `BENCHMARK.json`,
//! check the per-layer budget, and format the output.

use crate::decor::{ENGINE, LOADGEN};
use crate::probes::Probed;
use crate::run::{EndToEnd, Round, Traced, SIM_ROUNDS};
use crate::spans::{self_ns, Span};
use crate::stats::{median, percentile, Percentile};
use crate::workload::{Kernel, Model, Spec};
use pim_trace::keys;

/// DPU clock the simulated cycle counts are expressed in.
pub const DPU_HZ: f64 = 350e6;
/// Largest share of the `serve` span the named layers may leave
/// unaccounted, in percent.
pub const MAX_RESIDUAL_PCT: f64 = 2.0;
/// Largest slowdown tracing may cause, in percent. The run fails when
/// *every* untraced/traced pair of rounds shows more than this: on a
/// shared host one pair's ratio is off by several per cent either way,
/// so a gate on the pooled median alone fails healthy runs, while a real
/// overhead shows in all pairs.
pub const MAX_TRACING_OVERHEAD_PCT: f64 = 3.0;
/// Largest share of the `serve` span the traffic generator may take, in
/// percent; above it the generator is being measured, not the system.
pub const MAX_LOADGEN_SHARE_PCT: f64 = 1.0;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Whether the value is a pure function of the seed (a count, a
    /// simulated quantity) and must repeat exactly, or a host time.
    pub exact: bool,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndSpec {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// For exact metrics this only has to cover the spread across
    /// *seeds*; for one seed they must not move at all.
    pub bound: f64,
    /// Pure function of the seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> EndToEndSpec {
    EndToEndSpec { name, unit, better, bound, exact }
}

/// The end-to-end metrics, in output order; `tests/contract.rs` holds
/// `BENCHMARK.json` to this table.
pub const END_TO_END: [EndToEndSpec; 10] = [
    e2e("host_us_per_item", "us", "lower", 0.25, false),
    e2e("host_batch_ms_p50", "ms", "lower", 0.25, false),
    e2e("host_batch_ms_p90", "ms", "lower", 0.25, false),
    e2e("host_s_per_sim_s", "ratio", "lower", 0.25, false),
    e2e("sim_cycles_per_item", "cycles", "lower", 0.25, true),
    e2e("sim_goodput_items_per_s", "items/s", "higher", 0.25, true),
    e2e("sim_latency_p99_cycles", "cycles", "lower", 0.25, true),
    e2e("served_share", "ratio", "higher", 0.05, true),
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("peak_rss_mib", "MiB", "lower", 0.10, false),
];

/// A per-layer metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSpec {
    /// Name: the layer (a crate name), a dot, the measurement.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; for plain counts, the direction a leaner
    /// run moves them.
    pub better: &'static str,
    /// A count or a simulated quantity: a pure function of the seed, so
    /// two runs must print it identically. Otherwise a host time.
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    exact: bool,
) -> LayerSpec {
    LayerSpec { name, unit, better, exact }
}

/// The per-layer metrics, in output order; `tests/contract.rs` holds
/// `BENCHMARK.json` to this table.
pub const PER_LAYER: [LayerSpec; 75] = [
    layer("loadgen.requests", "count", "lower", true),
    layer("loadgen.items", "count", "lower", true),
    layer("loadgen.offered_items_per_sim_s", "items/s", "higher", true),
    layer("loadgen.busy_ms", "ms", "lower", false),
    layer("loadgen.share_pct", "%", "lower", false),
    layer("pim-serve.self_ms", "ms", "lower", false),
    layer("pim-serve.self_us_per_batch", "us", "lower", false),
    layer("pim-serve.stage_ms", "ms", "lower", false),
    layer("pim-serve.launch_ms", "ms", "lower", false),
    layer("pim-serve.gather_ms", "ms", "lower", false),
    layer("pim-serve.restore_ms", "ms", "lower", false),
    layer("pim-serve.restores", "count", "lower", true),
    layer("pim-serve.launch_share_pct", "%", "lower", false),
    layer("pim-serve.batches", "count", "lower", true),
    layer("pim-serve.batch_fill_mean", "items", "higher", true),
    layer("pim-serve.cuts_full", "count", "lower", true),
    layer("pim-serve.cuts_deadline", "count", "lower", true),
    layer("pim-serve.cuts_drain", "count", "lower", true),
    layer("pim-serve.splits", "count", "lower", true),
    layer("pim-serve.rejected", "count", "lower", true),
    layer("pim-serve.failed", "count", "lower", true),
    layer("pim-serve.breaker_trips", "count", "lower", true),
    layer("pim-serve.breaker_readmits", "count", "lower", true),
    layer("pim-serve.sim_stage_cycles_mean", "cycles", "lower", true),
    layer("pim-serve.sim_compute_cycles_mean", "cycles", "lower", true),
    layer("pim-serve.sim_readback_cycles_mean", "cycles", "lower", true),
    layer("ebnn.encode_us_per_item", "us", "lower", false),
    layer("ebnn.codegen_ms", "ms", "lower", false),
    layer("ebnn.engine_new_ms", "ms", "lower", false),
    layer("yolo-pim.codegen_ms", "ms", "lower", false),
    layer("yolo-pim.engine_new_ms", "ms", "lower", false),
    layer("yolo-pim.useful_row_share", "ratio", "higher", true),
    layer("pim-host.alloc_us_per_dpu", "us", "lower", false),
    layer("pim-host.load_ms", "ms", "lower", false),
    layer("pim-host.snapshot_us", "us", "lower", false),
    layer("pim-host.restore_us", "us", "lower", false),
    layer("pim-host.copy_to_mib_per_s", "MiB/s", "higher", false),
    layer("pim-host.copy_to_crc_mib_per_s", "MiB/s", "higher", false),
    layer("pim-host.copy_to_ecc_mib_per_s", "MiB/s", "higher", false),
    layer("pim-host.copy_from_mib_per_s", "MiB/s", "higher", false),
    layer("pim-host.first_touch_stage_ms", "ms", "lower", false),
    layer("pim-host.idle_launch_us_per_dpu", "us", "lower", false),
    layer("pim-host.idle_dispatch_share_pct", "%", "lower", false),
    layer("pim-host.pool_workers", "count", "higher", true),
    layer("pim-host.pool_efficiency", "ratio", "higher", false),
    layer("pim-host.resilient_tax_pct", "%", "lower", false),
    layer("pim-host.scrub_ms", "ms", "lower", false),
    layer("pim-host.retries", "count", "lower", true),
    layer("pim-host.quarantined_dpus", "count", "lower", true),
    layer("pim-host.redispatched_items", "count", "lower", true),
    layer("pim-host.repaired_dpus", "count", "lower", true),
    layer("pim-host.link_crc_mismatches", "count", "lower", true),
    layer("dpu-sim.compile_ms", "ms", "lower", false),
    layer("dpu-sim.program_instrs", "count", "lower", true),
    layer("dpu-sim.minstr_per_s_default", "Minstr/s", "higher", false),
    layer("dpu-sim.minstr_per_s_reference", "Minstr/s", "higher", false),
    layer("dpu-sim.minstr_per_s_superblock", "Minstr/s", "higher", false),
    layer("dpu-sim.minstr_per_s_compiled", "Minstr/s", "higher", false),
    layer("dpu-sim.minstr_per_s_fault_armed", "Minstr/s", "higher", false),
    layer("dpu-sim.instructions_total", "count", "lower", true),
    layer("dpu-sim.instructions_per_item", "count", "lower", true),
    layer("dpu-sim.cycles_per_item", "cycles", "lower", true),
    layer("dpu-sim.dma_transfers_per_item", "count", "lower", true),
    layer("dpu-sim.dma_bytes_per_item", "bytes", "lower", true),
    layer("dpu-sim.idle_slot_share", "ratio", "lower", true),
    layer("dpu-sim.dma_corrected_words", "count", "lower", true),
    layer("dpu-sim.mram_resident_mib", "MiB", "lower", true),
    layer("dpu-sim.mram_shared_savings_mib", "MiB", "higher", true),
    layer("pim-trace.spans", "count", "lower", true),
    layer("pim-trace.harness_overhead_pct", "%", "lower", false),
    layer("pim-trace.launch_traced_overhead_pct", "%", "lower", false),
    layer("pim-trace.residual_pct", "%", "lower", false),
    layer("model.host_batch_ms_p50_predicted", "ms", "lower", false),
    layer("model.host_batch_ms_p50_measured", "ms", "lower", false),
    layer("model.error_pct", "%", "lower", false),
];

/// Whether metric `name` must repeat exactly for a fixed seed.
#[must_use]
pub fn is_exact(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.exact && m.name == name)
        || PER_LAYER.iter().any(|m| m.exact && m.name == name)
}

/// A measurement of the metric the tables declare under `name`.
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"));
    Metric { name, unit, value, exact: is_exact(name) }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
}

/// Percentile `q` of each round's batch periods (never across a round
/// boundary), median over rounds. Like every host metric it is a median
/// over rounds, so a slow phase of the host that covers fewer than half
/// of them does not move it; the pooled periods' p90 would sit inside any
/// phase longer than a tenth of the run. `samples` and `beyond` count the
/// pooled periods.
fn batch_period(rounds: &[Round], q: f64) -> Percentile {
    let per_round: Vec<f64> =
        rounds.iter().filter_map(|r| percentile(&r.batch_ms, q)).map(|p| p.value).collect();
    let value = median(&per_round).expect("at least one round with two batches");
    let pooled = rounds.iter().flat_map(|r| &r.batch_ms);
    let (samples, beyond) =
        pooled.fold((0, 0), |(n, above), &ms| (n + 1, above + usize::from(ms > value)));
    Percentile { value, samples, beyond }
}

/// Peak resident set of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run, plus the batch-period
/// percentiles with their sample counts for the human-readable output.
#[must_use]
pub fn end_to_end(run: &EndToEnd) -> (Vec<Metric>, Percentile, Percentile) {
    let rounds = &run.rounds;
    let sim = &rounds[..SIM_ROUNDS];
    let p50 = batch_period(rounds, 0.5);
    let p90 = batch_period(rounds, 0.9);
    let metrics = vec![
        metric(
            "host_us_per_item",
            median_of(rounds, |r| r.wall_s * 1e6 / r.served_items.max(1) as f64),
        ),
        metric("host_batch_ms_p50", p50.value),
        metric("host_batch_ms_p90", p90.value),
        metric(
            "host_s_per_sim_s",
            median_of(rounds, |r| r.wall_s / (r.engine.compute_cycles as f64 / DPU_HZ)),
        ),
        metric("sim_cycles_per_item", mean(sim.iter().map(Round::sim_cycles_per_item))),
        metric("sim_goodput_items_per_s", mean(sim.iter().map(|r| r.goodput_ips))),
        metric("sim_latency_p99_cycles", mean(sim.iter().map(|r| r.latency_p99_cycles))),
        metric("served_share", mean(sim.iter().map(Round::served_share))),
        metric("setup_s", median(&run.setups_s).expect("at least one set-up")),
        metric("peak_rss_mib", peak_rss_mib()),
    ];
    assert!(metrics.iter().map(|m| m.name).eq(END_TO_END.iter().map(|m| m.name)));
    (metrics, p50, p90)
}

/// Where one traced round's `serve` span went, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// The `serve` span.
    pub serve: f64,
    /// Time in `Traffic::next` / `on_complete` / `on_reject`.
    pub loadgen: f64,
    /// The `serve` span minus everything the decorators saw: queue,
    /// batcher, pipeline schedule, metrics, breaker.
    pub pim_serve_self: f64,
    /// `BatchEngine::stage`.
    pub stage: f64,
    /// `BatchEngine::launch`.
    pub launch: f64,
    /// `BatchEngine::gather`.
    pub gather: f64,
    /// `BatchEngine::restore`.
    pub restore: f64,
}

impl Budget {
    /// Attribute every span's self time to its bucket. Span 0 must be
    /// the `serve` call.
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut b = Self::default();
        for (s, own) in spans.iter().zip(self_ns(spans)) {
            let ms = own as f64 / 1e6;
            match (s.layer, s.name) {
                ("pim-serve", "serve") => {
                    b.serve += s.duration_ns() as f64 / 1e6;
                    b.pim_serve_self += ms;
                }
                (LOADGEN, _) => b.loadgen += ms,
                (ENGINE, "stage") => b.stage += ms,
                (ENGINE, "launch") => b.launch += ms,
                (ENGINE, "gather") => b.gather += ms,
                (ENGINE, "restore") => b.restore += ms,
                // Anything else (live-mask updates, PGO recompiles, spans
                // a later change adds inside the crates) is not in the
                // named budget and shows up as residual.
                _ => {}
            }
        }
        b
    }

    /// The part of the `serve` span the named buckets do not explain, in
    /// percent of it.
    #[must_use]
    pub fn residual_pct(&self) -> f64 {
        let named = self.loadgen
            + self.pim_serve_self
            + self.stage
            + self.launch
            + self.gather
            + self.restore;
        (self.serve - named).abs() / self.serve * 100.0
    }
}

/// First-order model of one batch period, in milliseconds, with every
/// launch on the harness thread:
/// `launch ≈ Σ busy-DPU instructions ÷ rate + DPUs × idle dispatch`, and
/// `period ≈ stage + launch + gather + pim-serve self`.
#[must_use]
pub fn predicted_batch_ms(spec: &Spec, p: &Probed, fill: f64, other_ms_per_batch: f64) -> f64 {
    // A GEMM batch pads to every DPU (each reruns a row); an eBNN batch
    // fills DPUs 16 images at a time and the rest idle.
    let work_items = match spec.model {
        Model::Ebnn { .. } => fill,
        Model::Yolo { .. } => spec.dpus as f64,
    };
    let instr_per_item = p.busy_instructions as f64 / p.busy_items as f64;
    let rate = p.minstr_per_s_default * 1e6;
    let launch_ms = work_items * instr_per_item / rate * 1e3 + idle_dispatch_ms(spec, p);
    launch_ms + other_ms_per_batch
}

/// What dispatching a launch to every DPU of the set costs before any
/// of them has work, per the idle-launch probe.
fn idle_dispatch_ms(spec: &Spec, p: &Probed) -> f64 {
    spec.dpus as f64 * p.idle_launch_us_per_dpu / 1e3
}

/// The per-layer metrics of a traced run, and every budget check
/// (residual, tracing overhead, generator share) that failed.
#[must_use]
pub fn per_layer<K: Kernel>(
    spec: &Spec,
    run: &Traced<K>,
    p: &Probed,
) -> (Vec<Metric>, Vec<String>) {
    let first = &run.rounds[0];
    let budgets: Vec<Budget> = run.rounds.iter().map(|r| Budget::of(&r.spans)).collect();
    let med = |f: fn(&Budget) -> f64| {
        median(&budgets.iter().map(f).collect::<Vec<_>>()).expect("at least one traced round")
    };
    let (loadgen_ms, self_ms) = (med(|b| b.loadgen), med(|b| b.pim_serve_self));
    let (stage_ms, launch_ms) = (med(|b| b.stage), med(|b| b.launch));
    let (gather_ms, restore_ms) = (med(|b| b.gather), med(|b| b.restore));
    let loadgen_share_pct = med(|b| b.loadgen / b.serve * 100.0);
    let residual_pct = budgets.iter().map(Budget::residual_pct).fold(0.0, f64::max);
    let pct = |ratios: &[f64]| median(ratios).map_or(0.0, |r| (r - 1.0) * 100.0);
    let overhead_pct = pct(&run.period_ratios.concat());
    let least_overhead_pct =
        run.period_ratios.iter().map(|pair| pct(pair)).fold(f64::INFINITY, f64::min);

    let m = &first.metrics;
    let count = |key: &str| m.counter(key) as f64;
    let hist_mean =
        |key: &str| m.histogram(key).and_then(pim_trace::Histogram::mean).unwrap_or(0.0);
    let batches = count(keys::SERVE_BATCHES);
    let batches_per_round = median_of(&run.rounds, |r| r.engine.fill.len() as f64);
    let fill_p50 = median(&first.engine.fill.iter().map(|&n| n as f64).collect::<Vec<_>>())
        .expect("at least one batch");
    let measured_p50 = batch_period(&run.rounds, 0.5).value;
    let other_per_batch = (stage_ms + gather_ms + restore_ms + self_ms) / batches_per_round;
    let predicted = predicted_batch_ms(spec, p, fill_p50, other_per_batch);

    let residency = run.residency;
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let (offered_items, window) = first.offered;
    let (ebnn_on, yolo_on) = match spec.model {
        Model::Ebnn { .. } => (1.0, 0.0),
        Model::Yolo { .. } => (0.0, 1.0),
    };
    let phases = run.built.phases;
    let busy_items = p.busy_items as f64;

    let metrics = vec![
        metric("loadgen.requests", first.requests as f64),
        metric("loadgen.items", offered_items as f64),
        metric(
            "loadgen.offered_items_per_sim_s",
            offered_items as f64 * DPU_HZ / window.max(1) as f64,
        ),
        metric("loadgen.busy_ms", loadgen_ms),
        metric("loadgen.share_pct", loadgen_share_pct),
        metric("pim-serve.self_ms", self_ms),
        metric("pim-serve.self_us_per_batch", self_ms * 1e3 / batches_per_round),
        metric("pim-serve.stage_ms", stage_ms),
        metric("pim-serve.launch_ms", launch_ms),
        metric("pim-serve.gather_ms", gather_ms),
        metric("pim-serve.restore_ms", restore_ms),
        metric("pim-serve.restores", first.engine.restores as f64),
        metric("pim-serve.launch_share_pct", med(|b| b.launch / b.serve * 100.0)),
        metric("pim-serve.batches", batches),
        metric("pim-serve.batch_fill_mean", hist_mean(keys::SERVE_BATCH_FILL)),
        metric("pim-serve.cuts_full", count(keys::SERVE_CUTS_FULL)),
        metric("pim-serve.cuts_deadline", count(keys::SERVE_CUTS_DEADLINE)),
        metric("pim-serve.cuts_drain", count(keys::SERVE_CUTS_DRAIN)),
        metric("pim-serve.splits", count(keys::SERVE_SPLITS)),
        metric("pim-serve.rejected", count(keys::SERVE_REJECTED)),
        metric("pim-serve.failed", count(keys::SERVE_FAILED)),
        metric("pim-serve.breaker_trips", count(keys::SERVE_BREAKER_TRIPS)),
        metric("pim-serve.breaker_readmits", count(keys::SERVE_BREAKER_READMITS)),
        metric("pim-serve.sim_stage_cycles_mean", hist_mean(keys::SERVE_STAGE_CYCLES)),
        metric("pim-serve.sim_compute_cycles_mean", hist_mean(keys::SERVE_COMPUTE_CYCLES)),
        metric("pim-serve.sim_readback_cycles_mean", hist_mean(keys::SERVE_READBACK_CYCLES)),
        metric("ebnn.encode_us_per_item", phases.encode_us_per_item),
        metric("ebnn.codegen_ms", ebnn_on * phases.codegen_ms),
        metric("ebnn.engine_new_ms", ebnn_on * phases.engine_new_ms),
        metric("yolo-pim.codegen_ms", yolo_on * phases.codegen_ms),
        metric("yolo-pim.engine_new_ms", yolo_on * phases.engine_new_ms),
        metric(
            "yolo-pim.useful_row_share",
            yolo_on * first.engine.active_dpus as f64 / (spec.dpus as f64 * batches),
        ),
        metric("pim-host.alloc_us_per_dpu", p.alloc_us_per_dpu),
        metric("pim-host.load_ms", p.load_ms),
        metric("pim-host.snapshot_us", p.snapshot_us),
        metric("pim-host.restore_us", p.restore_us),
        metric("pim-host.copy_to_mib_per_s", p.copy_to_mib_per_s),
        metric("pim-host.copy_to_crc_mib_per_s", p.copy_to_crc_mib_per_s),
        metric("pim-host.copy_to_ecc_mib_per_s", p.copy_to_ecc_mib_per_s),
        metric("pim-host.copy_from_mib_per_s", p.copy_from_mib_per_s),
        metric("pim-host.first_touch_stage_ms", p.first_touch_stage_ms),
        metric("pim-host.idle_launch_us_per_dpu", p.idle_launch_us_per_dpu),
        metric(
            "pim-host.idle_dispatch_share_pct",
            idle_dispatch_ms(spec, p) / measured_p50 * 100.0,
        ),
        metric("pim-host.pool_workers", p.pool_workers as f64),
        metric("pim-host.pool_efficiency", p.pool_efficiency),
        metric("pim-host.resilient_tax_pct", p.resilient_tax_pct),
        metric("pim-host.scrub_ms", p.scrub_ms),
        metric("pim-host.retries", p.retries as f64),
        metric("pim-host.quarantined_dpus", first.engine.quarantined_dpus as f64),
        metric("pim-host.redispatched_items", first.engine.redispatched_items as f64),
        metric("pim-host.repaired_dpus", first.engine.repaired_dpus as f64),
        metric("pim-host.link_crc_mismatches", first.link_crc_mismatches as f64),
        metric("dpu-sim.compile_ms", p.compile_ms),
        metric("dpu-sim.program_instrs", p.program_instrs as f64),
        metric("dpu-sim.minstr_per_s_default", p.minstr_per_s_default),
        metric("dpu-sim.minstr_per_s_reference", p.minstr_per_s_reference),
        metric("dpu-sim.minstr_per_s_superblock", p.minstr_per_s_superblock),
        metric("dpu-sim.minstr_per_s_compiled", p.minstr_per_s_compiled),
        metric("dpu-sim.minstr_per_s_fault_armed", p.minstr_per_s_fault_armed),
        metric("dpu-sim.instructions_total", p.instructions_total as f64),
        metric("dpu-sim.instructions_per_item", p.busy_instructions as f64 / busy_items),
        metric("dpu-sim.cycles_per_item", p.makespan_cycles as f64 / busy_items),
        metric("dpu-sim.dma_transfers_per_item", p.dma_transfers as f64 / busy_items),
        metric("dpu-sim.dma_bytes_per_item", p.dma_bytes as f64 / busy_items),
        metric("dpu-sim.idle_slot_share", p.idle_slot_share),
        metric("dpu-sim.dma_corrected_words", first.dma_corrected_words as f64),
        metric("dpu-sim.mram_resident_mib", mib(residency.distinct_bytes)),
        metric("dpu-sim.mram_shared_savings_mib", mib(residency.shared_savings_bytes())),
        metric("pim-trace.spans", first.spans.len() as f64),
        metric("pim-trace.harness_overhead_pct", overhead_pct),
        metric("pim-trace.launch_traced_overhead_pct", p.launch_traced_overhead_pct),
        metric("pim-trace.residual_pct", residual_pct),
        metric("model.host_batch_ms_p50_predicted", predicted),
        metric("model.host_batch_ms_p50_measured", measured_p50),
        metric("model.error_pct", (predicted / measured_p50 - 1.0) * 100.0),
    ];

    assert!(metrics.iter().map(|m| m.name).eq(PER_LAYER.iter().map(|m| m.name)));
    let mut failed = Vec::new();
    if residual_pct > MAX_RESIDUAL_PCT {
        failed.push(format!(
            "budget: {residual_pct:.3} % of the serve span is outside the named layers \
             (limit {MAX_RESIDUAL_PCT} %)"
        ));
    }
    if least_overhead_pct > MAX_TRACING_OVERHEAD_PCT {
        failed.push(format!(
            "tracing overhead: every pair of rounds shows more than {MAX_TRACING_OVERHEAD_PCT} % \
             (least {least_overhead_pct:.3} %, pooled median {overhead_pct:.3} %)"
        ));
    }
    if loadgen_share_pct >= MAX_LOADGEN_SHARE_PCT {
        failed.push(format!(
            "the traffic generator takes {loadgen_share_pct:.3} % of the serve span \
             (limit {MAX_LOADGEN_SHARE_PCT} %): the generator is being measured"
        ));
    }
    (metrics, failed)
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("{:?}: {{\"value\": {}, \"unit\": {:?}}}", m.name, json_number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite `f64` with all its digits; JSON has no NaN or infinity, so
/// those (a division by a zero count) read as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
