//! Regenerate every table and figure of the paper.
//!
//! ```text
//! report [--exp <id>] [--json]
//! report --bench-json <path> [--samples <n>]
//! report --obs-snapshot <path>
//! report --folded <path>
//! report --loc
//! ```
//!
//! With no arguments all experiments run (the YOLO/CPU ones take a few
//! seconds). Experiment ids are listed in [`EXPERIMENTS`]; an unknown one
//! prints them and exits 2.
//!
//! `--bench-json` instead runs the simulator hot-path scenarios with a
//! wall-clock harness and writes a machine-readable perf snapshot
//! (per-bench median ns and simulated instructions per host second) so
//! successive PRs have a throughput trajectory to compare against.
//!
//! `--obs-snapshot` writes the deterministic observability snapshot the
//! `perfgate` binary diffs against its committed baseline; `--folded`
//! writes flamegraph-folded cycle-attribution stacks
//! (`inferno-flamegraph`/`flamegraph.pl` input) for the profiled ALU
//! loop. See `docs/OBSERVABILITY.md`.
//!
//! `--loc` prints the non-test lines ([`pim_bench::loc`]) of every `.rs`
//! file under `crates/*/src` of the workspace it runs in, and the total.

#![forbid(unsafe_code)]

use cpu_baseline::XeonModel;
use ebnn::{EbnnModel, ModelConfig};
use pim_bench as render;
use pim_core::experiments as exp;
use pim_model::ModelReport;

/// Every id `--exp` accepts, in the order the experiments run.
const EXPERIMENTS: &[&str] = &[
    "eq3_4",
    "table3_1",
    "fig3_2",
    "fig4_3",
    "fig4_4",
    "fig4_7a",
    "fig4_7b",
    "fig4_7c",
    "latencies",
    "table5_1",
    "table5_2",
    "fig5_4",
    "fig5_5",
    "fig5_6",
    "table5_3",
    "table5_4",
    "fig5_7",
    "improvements",
    "mapping_comparison",
    "size_sweep",
    "image_limits",
    "fig4_7a_tier1",
    "alexnet_mapping",
    "tier_validation",
    "depth_sweep",
    "table5_4_measured",
    "launch_quantiles",
    "hot_blocks",
    "trace_metrics",
    "engine_residency",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Option<String> = None;
    let mut json = false;
    let mut bench_json: Option<String> = None;
    let mut obs_snapshot: Option<String> = None;
    let mut folded: Option<String> = None;
    let mut loc = false;
    let mut samples = 7usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                wanted = args.get(i).cloned();
                if !wanted.as_deref().is_some_and(|id| EXPERIMENTS.contains(&id)) {
                    match &wanted {
                        Some(id) => eprintln!("unknown experiment `{id}`"),
                        None => eprintln!("--exp needs an experiment id"),
                    }
                    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
                    std::process::exit(2);
                }
            }
            "--json" => json = true,
            "--bench-json" => {
                i += 1;
                bench_json = args.get(i).cloned();
                if bench_json.is_none() {
                    eprintln!("--bench-json needs a path");
                    std::process::exit(2);
                }
            }
            "--obs-snapshot" => {
                i += 1;
                obs_snapshot = args.get(i).cloned();
                if obs_snapshot.is_none() {
                    eprintln!("--obs-snapshot needs a path");
                    std::process::exit(2);
                }
            }
            "--folded" => {
                i += 1;
                folded = args.get(i).cloned();
                if folded.is_none() {
                    eprintln!("--folded needs a path");
                    std::process::exit(2);
                }
            }
            "--loc" => loc = true,
            "--samples" => {
                i += 1;
                let n = args.get(i).and_then(|s| s.parse().ok()).filter(|&n: &usize| n > 0);
                samples = n.unwrap_or_else(|| {
                    eprintln!("--samples needs a positive integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if loc {
        let counts = render::loc::count_crates(".".as_ref()).unwrap_or_else(|e| {
            eprintln!("--loc: cannot read crates/*/src here: {e}");
            std::process::exit(2);
        });
        let mut text: String =
            counts.iter().map(|(file, lines)| format!("{lines:>6}  {file}\n")).collect();
        text += &format!("{:>6}  total\n", counts.iter().map(|(_, n)| n).sum::<usize>());
        pim_serve::write_stdout(&text, 0);
        return;
    }
    if let Some(path) = bench_json {
        // Opened before the minute of sampling, not after it.
        let out = create_or_exit(&path);
        write_or_exit(out, &path, &perf_snapshot::run(samples));
        return;
    }
    if let Some(path) = obs_snapshot {
        let out = create_or_exit(&path);
        let text =
            serde_json::to_string_pretty(&render::snapshot::snapshot()).expect("serializable");
        write_or_exit(out, &path, &(text + "\n"));
        return;
    }
    if let Some(path) = folded {
        let out = create_or_exit(&path);
        write_or_exit(out, &path, &render::snapshot::folded());
        return;
    }

    let all = wanted.is_none();
    let want = |id: &str| {
        debug_assert!(EXPERIMENTS.contains(&id), "`{id}` is missing from EXPERIMENTS");
        all || wanted.as_deref() == Some(id)
    };
    let model = EbnnModel::generate(ModelConfig::default());

    if want("eq3_4") {
        let rows = exp::eq_3_4(&[8, 16, 64, 256, 1024, 2048]);
        emit(json, "eq3_4", &rows, || render::render_eq_3_4(&rows));
    }
    if want("table3_1") {
        let rows = exp::table_3_1();
        emit(json, "table3_1", &rows, || render::render_table_3_1(&rows));
    }
    if want("fig3_2") {
        let p = exp::fig_3_2();
        let summary: exp::ProfilerSummary = (&p).into();
        emit(json, "fig3_2", &summary, || {
            render::render_profile("Fig. 3.2 — high-precision DPU program profile", &summary)
        });
    }
    if want("fig4_3") {
        let f = exp::fig_4_3(&model);
        emit(json, "fig4_3", &f, || {
            format!(
                "{}\n{}",
                render::render_profile("Fig. 4.3(a) — float BN in the DPU", &f.float_profile),
                render::render_profile("Fig. 4.3(b) — LUT rewrite", &f.lut_profile)
            )
        });
    }
    if want("fig4_4") {
        let f = exp::fig_4_4(&model);
        emit(json, "fig4_4", &f, || render::render_fig_4_4(&f));
    }
    if want("fig4_7a") {
        let pts = exp::fig_4_7a(&model, &[1, 2, 4, 6, 8, 10, 11, 12, 14, 16, 20, 24]);
        emit(json, "fig4_7a", &pts, || render::render_fig_4_7a(&pts));
    }
    if want("fig4_7b") {
        let rows = exp::fig_4_7b();
        emit(json, "fig4_7b", &rows, || render::render_fig_4_7b(&rows));
    }
    if want("fig4_7c") {
        let pts = exp::fig_4_7c(&model, &XeonModel::default(), &[1, 16, 64, 256, 1024, 2560]);
        emit(json, "fig4_7c", &pts, || render::render_fig_4_7c(&pts));
    }
    if want("latencies") {
        let l = exp::measured_latencies(&model);
        emit(json, "latencies", &l, || render::render_latencies(&l));
    }
    if want("table5_1") {
        let t = ModelReport::table_5_1();
        emit(json, "table5_1", &t, render::render_table_5_1);
    }
    if want("table5_2") {
        let t = ModelReport::table_5_2();
        emit(json, "table5_2", &t, render::render_table_5_2);
    }
    if want("fig5_4") {
        let t = ModelReport::fig_5_4(&[8, 16, 32]);
        emit(json, "fig5_4", &t, render::render_fig_5_4);
    }
    if want("fig5_5") {
        let tops: Vec<f64> = (1..=100).map(|i| i as f64 * 1000.0).collect();
        let pes: Vec<u64> = (1..=64).map(|i| i * 64).collect();
        let mut out = String::from("Fig. 5.5 — Ccomp sweeps (multiplication)\n");
        for (dev, fixed_tops) in [
            (pim_model::arch::drisa_3t1c(), 10_000.0),
            (pim_model::arch::ppim(), 100_000.0),
            (pim_model::arch::upmem_analytic(), 100_000.0),
        ] {
            let data = ModelReport::fig_5_5(&dev, &tops, &pes, fixed_tops);
            out.push_str(&format!("  {}:\n", dev.name));
            for (bits, t_sweep, p_sweep) in &data {
                out.push_str(&format!(
                    "    {:>2}-bit: TOPs sweep {:.0}..{:.0} cycles ({} steps), PE sweep {:.0}..{:.0} cycles\n",
                    bits.bits(),
                    t_sweep.first().unwrap(),
                    t_sweep.last().unwrap(),
                    t_sweep.windows(2).filter(|w| w[1] > w[0]).count() + 1,
                    p_sweep.first().unwrap(),
                    p_sweep.last().unwrap(),
                ));
            }
        }
        let rows: Vec<(String, f64)> = Vec::new();
        let _ = rows;
        emit(json, "fig5_5", &"see text rendering", || out.clone());
    }
    if want("fig5_6") {
        let t = ModelReport::fig_5_6();
        emit(json, "fig5_6", &t, render::render_fig_5_6);
    }
    if want("table5_3") {
        let t = ModelReport::table_5_3();
        emit(json, "table5_3", &t, render::render_table_5_3);
    }
    if want("table5_4") {
        let rows = ModelReport::table_5_4(None);
        emit(json, "table5_4", &rows, || {
            render::render_table_5_4(&rows, "UPMEM row: paper's measurements")
        });
    }
    if want("fig5_7") {
        let rows = ModelReport::table_5_4(None);
        emit(json, "fig5_7", &rows, || render::render_fig_5_7(&rows));
    }
    if want("improvements") {
        let rows = pim_core::ablations::improvements(&model);
        emit(json, "improvements", &rows, || render::render_improvements(&rows));
    }
    if want("mapping_comparison") {
        let rows = pim_core::ablations::mapping_comparison(&[1, 2, 4, 8]);
        emit(json, "mapping_comparison", &rows, || render::render_mapping_comparison(&rows));
    }
    if want("size_sweep") {
        let rows = pim_core::ablations::size_sweep(&[96, 160, 224, 320, 416]);
        emit(json, "size_sweep", &rows, || render::render_size_sweep(&rows));
    }
    if want("image_limits") {
        let rows = pim_core::ablations::ebnn_image_size_limits(&[28, 32, 56, 64, 112, 224]);
        emit(json, "image_limits", &rows, || render::render_image_limits(&rows));
    }
    if want("fig4_7a_tier1") {
        use ebnn::{EbnnModel as M, ModelConfig as C};
        let small = M::generate(C { filters: 2, ..C::default() });
        let pts = exp::fig_4_7a_tier1(&small, &[1, 2, 4, 8, 11, 12, 16, 24]);
        emit(json, "fig4_7a_tier1", &pts, || {
            let mut s = String::from(
                "Fig. 4.7(a), instruction-level (generated Tier-1 eBNN program)\ntasklets  speedup\n",
            );
            for (t, sp) in &pts {
                s.push_str(&format!("{t:>8} {sp:>8.2}x\n"));
            }
            s
        });
    }
    if want("alexnet_mapping") {
        let c = pim_core::ablations::alexnet_under_the_mapping();
        emit(json, "alexnet_mapping", &c, || {
            format!(
                "AlexNet: Eq. 5.3 idealization vs the Fig. 4.6 mapping\n\
                 \x20 modeled Tcomp (Table 5.1):   {:.3e} s\n\
                 \x20 modeled Ttot  (§5.3.1):      {:.3e} s\n\
                 \x20 mapped DPU compute:          {:.3e} s\n\
                 \x20 mapped total (with host):    {:.3e} s\n\
                 \x20 mapping overhead:            {:.0}x\n",
                c.modeled_tcomp,
                c.modeled_ttot,
                c.mapped_dpu_seconds,
                c.mapped_total_seconds,
                c.mapping_overhead()
            )
        });
    }
    if want("tier_validation") {
        let v = exp::tier_validation(&model);
        emit(json, "tier_validation", &v, || render::render_tier_validation(&v));
    }
    if want("depth_sweep") {
        let rows = pim_core::ablations::depth_sweep(&[
            vec![8],
            vec![8, 16],
            vec![8, 16, 32],
            vec![8, 16, 64, 64],
        ]);
        emit(json, "depth_sweep", &rows, || render::render_depth_sweep(&rows));
    }
    if want("table5_4_measured") {
        let rows = exp::table_5_4_with_measured(&model);
        emit(json, "table5_4_measured", &rows, || {
            render::render_table_5_4(&rows, "UPMEM row: this repository's simulator")
        });
    }
    if want("launch_quantiles") {
        // The fixed observability workload: makespan/per-DPU quantiles
        // (p50/p90/p99/p999) over several launches, as `obs.*` metrics.
        let obs = render::snapshot::observation();
        emit(json, "launch_quantiles", &obs.to_json(), || {
            let mut s = String::from("Launch quantiles over the fixed observability workload\n");
            for (name, h) in obs.metrics().histograms() {
                s.push_str(&format!(
                    "  {name:<28} n={:<4} p50={:<12.1} p99={:<12.1} p999={:<12.1}\n",
                    h.count(),
                    h.p50().unwrap_or(f64::NAN),
                    h.p99().unwrap_or(f64::NAN),
                    h.p999().unwrap_or(f64::NAN),
                ));
            }
            s.push_str("\nPrometheus exposition:\n");
            s.push_str(&obs.prometheus());
            s
        });
    }
    if want("hot_blocks") {
        // Per-superblock cycle attribution of the profiled ALU loop:
        // the top-10 hot blocks and the folded flamegraph stacks.
        let (attr, cycles) = render::snapshot::attribution();
        let blocks: Vec<serde_json::Value> = attr
            .top_blocks(10)
            .into_iter()
            .map(|b| {
                serde_json::json!({
                    "start": b.start, "len": b.len, "entries": b.entries,
                    "slots": b.slots, "cycles": b.cycles,
                })
            })
            .collect();
        let payload = serde_json::json!({
            "total_cycles": cycles,
            "top_blocks": serde_json::Value::Array(blocks),
        });
        emit(json, "hot_blocks", &payload, || {
            let mut s = format!("Hot superblocks (profiled ALU loop, {cycles} cycles)\n  start  len  entries      slots     cycles\n");
            for b in attr.top_blocks(10) {
                s.push_str(&format!(
                    "{:>7} {:>4} {:>8} {:>10} {:>10}\n",
                    b.start, b.len, b.entries, b.slots, b.cycles
                ));
            }
            s.push_str("\nFolded stacks (flamegraph input):\n");
            s.push_str(&attr.folded("alu_loop_11t"));
            s
        });
    }
    if want("trace_metrics") {
        emit_trace_metrics(json);
    }
    if want("engine_residency") {
        emit_engine_residency(json);
    }
}

/// Open the output file `path` for writing, creating it but leaving an
/// existing one intact until [`write_or_exit`] replaces its contents, or
/// exit 2 with one line on stderr.
fn create_or_exit(path: &str) -> std::fs::File {
    let open = std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path);
    open.unwrap_or_else(|e| {
        eprintln!("cannot create `{path}`: {e}");
        std::process::exit(2);
    })
}

/// Replace the contents of `out` (opened at `path`) with `text`, or exit
/// 2 with one line on stderr.
fn write_or_exit(mut out: std::fs::File, path: &str, text: &str) {
    use std::io::Write;
    if let Err(e) = out.set_len(0).and_then(|()| out.write_all(text.as_bytes())) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

/// Which simulator execution mode retired the issue slots of the paper's
/// two kernels (a full eBNN DPU, 13 images rotating on a verified orbit —
/// launched on 13 tasklets and on 16 —, an exact-fit and an under-saturated
/// one, and the GEMM row), and how the tasklet-major chunks fared, per fast tier
/// — the `obs.engine.*` counters of `docs/OBSERVABILITY.md`, and the mean
/// number of tasklets a lane group shares one decode between — plus the
/// sparse serving shape (a 64-DPU eBNN launch with two busy DPUs), where
/// the idle DPUs replay a recorded launch.
#[allow(clippy::cast_precision_loss)]
fn emit_engine_residency(json: bool) {
    use dpu_sim::Engine;
    use render::kernels::{ebnn_tier1, ebnn_tier1_launched, yolo_row};
    let mut rows = Vec::new();
    let shapes = [
        ebnn_tier1(16),
        ebnn_tier1(13),
        ebnn_tier1_launched(13, 16),
        ebnn_tier1(11),
        ebnn_tier1(6),
        yolo_row(11),
    ];
    for shape in shapes {
        let mut m = shape.staged.clone();
        let before = m.engine_stats();
        m.run_exec_engine(&shape.exec, shape.tasklets, Engine::Superblock).expect("kernel runs");
        let stats = m.engine_stats().since(&before);
        rows.push((format!("{}/superblock", shape.name), stats, String::new()));
    }
    rows.push(sparse_rank_residency());
    let payload = serde_json::Value::Object(
        rows.iter()
            .map(|(name, stats, _)| {
                let mut obs = pim_host::LaunchObservation::new();
                obs.record_engine(stats);
                (name.clone(), obs.to_json())
            })
            .collect(),
    );
    emit(json, "engine_residency", &payload, || {
        let mut s = String::from("Engine residency — issue slots retired per simulator mode\n");
        for (name, stats, note) in &rows {
            let total = stats.slots().max(1) as f64;
            s.push_str(&format!("  {name} ({} slots)\n", stats.slots()));
            for (key, value) in stats.named() {
                let slot_count = key.starts_with("rotation.") && key.ends_with("_slots");
                let share = if key.starts_with("slots.") || slot_count {
                    format!("  {:5.1}%", 100.0 * value as f64 / total)
                } else {
                    String::new()
                };
                s.push_str(&format!("    obs.engine.{key:<29} {value:>10}{share}\n"));
            }
            let wasted = stats.chunk_rolled_back_slots as f64;
            s.push_str(&format!(
                "    rolled back: {:.3}% of attempted chunk slots, {:.3}% of all slots\n",
                100.0 * wasted / (stats.chunk_slots as f64 + wasted).max(1.0),
                100.0 * wasted / total,
            ));
            s.push_str(&format!(
                "    mean lane width: {:.1} tasklets per decode\n",
                stats.chunk_lane_slots as f64 / stats.chunk_lane_steps.max(1) as f64,
            ));
            s.push_str(note);
        }
        s
    });
}

/// The third launch of a 64-DPU eBNN set with 32 images staged: the
/// first launch shows the table that idle DPUs finish inside the slot
/// cap, the second records one of them, from the third on all 62 replay.
#[allow(clippy::cast_precision_loss)]
fn sparse_rank_residency() -> (String, dpu_sim::EngineStats, String) {
    use dpu_sim::DpuId;
    const DPUS: usize = 64;
    const BUSY: usize = 2;
    let model = ebnn::EbnnModel::generate(ebnn::ModelConfig { filters: 1, ..Default::default() });
    let mut engine = ebnn::codegen::Tier1Engine::new(&model, DPUS).expect("64-DPU eBNN engine");
    let batch: Vec<_> = (0..BUSY * ebnn::IMAGES_PER_DPU)
        .map(|i| ebnn::mnist::synth_digit(i % 10, i as u64))
        .collect();
    let busy_reference_slots = |engine: &ebnn::codegen::Tier1Engine| -> u64 {
        let system = engine.set().system();
        (0..BUSY).map(|d| system.dpu(DpuId(d as u32)).engine_stats().reference_slots).sum()
    };
    let launch = |engine: &mut ebnn::codegen::Tier1Engine| {
        engine.stage(&model, &batch, 0).expect("stage eBNN images");
        let before = (engine.set().system().engine_stats(), busy_reference_slots(engine));
        engine.launch(false, None).expect("sparse launch");
        (
            engine.set().system().engine_stats().since(&before.0),
            busy_reference_slots(engine) - before.1,
        )
    };
    let (_, plain_per_slot) = launch(&mut engine);
    launch(&mut engine);
    let (stats, recorded_per_slot) = launch(&mut engine);
    let note = format!(
        "    {} of {DPUS} DPUs replayed ({:.1}%); with their {} abandoned recordings the busy \
         DPUs took {} slots\n    pick by pick ({} on the first, unrecorded launch), {:.2}% of \
         the launch's slots\n",
        stats.replay_hits,
        100.0 * stats.replay_hits as f64 / DPUS as f64,
        stats.replay_abandoned,
        recorded_per_slot,
        plain_per_slot,
        100.0 * recorded_per_slot as f64 / stats.slots().max(1) as f64,
    );
    (format!("ebnn_rank64_{BUSY}busy/{}", dpu_sim::Engine::effective().name()), stats, note)
}

fn emit_trace_metrics(json: bool) {
    // A traced Tier-1 eBNN batch over two DPUs: the metrics-registry
    // snapshot (JSON mode) or the per-phase cycle breakdown plus the
    // Fig. 3.2-format merged subroutine profile (text mode).
    use ebnn::{EbnnModel as M, ModelConfig as C};
    let small = M::generate(C { filters: 2, ..C::default() });
    let imgs: Vec<_> = (0..24).map(|i| ebnn::mnist::synth_digit(i % 10, (i / 10) as u64)).collect();
    let spec = ebnn::BatchSpec { trace: true, ..ebnn::BatchSpec::default() };
    let traced = ebnn::codegen::run_tier1_batch(&small, &imgs, spec).expect("traced run");
    let launch = traced.report;
    let mut metrics = launch.metrics();
    metrics.counter_add("host.transfer.events", traced.host_trace.len() as u64);
    emit(json, "trace_metrics", &metrics.to_json(), || {
        let profile: exp::ProfilerSummary = (&launch.merged_profile()).into();
        format!(
            "Traced Tier-1 eBNN batch ({} images, {} DPUs)\n\n{}\n{}",
            imgs.len(),
            launch.per_dpu.len(),
            pim_trace::cycle_breakdown(&traced.dpu_traces),
            render::render_profile("Merged subroutine profile (Fig. 3.2 format)", &profile)
        )
    });
}

fn emit<T: serde::Serialize>(json: bool, id: &str, value: &T, text: impl FnOnce() -> String) {
    if json {
        let payload = serde_json::json!({ "experiment": id, "data": value });
        let line = serde_json::to_string(&payload).expect("serializable");
        pim_serve::write_stdout(&(line + "\n"), 0);
    } else {
        pim_serve::write_stdout(&(text() + "\n"), 0);
    }
}

/// Wall-clock hot-path scenarios behind `--bench-json`: the interpreter
/// issue loop (1 / 11 tasklets and a synchronization-heavy shape) and a
/// skewed multi-DPU launch. Each scenario reports the median wall time of
/// N samples plus simulated instructions per host second — the simulator
/// throughput figure that bounds how far the Fig. 4.7 sweeps can go.
mod perf_snapshot {
    use dpu_sim::asm::assemble;
    use dpu_sim::Machine;
    use pim_host::DpuSet;
    use std::time::Instant;

    /// Tight countdown loop: ~3 instructions per iteration, no memory.
    fn alu_loop_program() -> dpu_sim::Program {
        assemble(
            "movi r1, 200000\n\
             movi r2, 0\n\
             loop: add r2, r2, r1\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             sw r0, 0, r2\n\
             halt\n",
        )
        .expect("alu loop assembles")
    }

    /// Mutex-protected shared counter plus barriers: stresses the
    /// scheduler bookkeeping rather than the ALU arms.
    fn sync_heavy_program() -> dpu_sim::Program {
        assemble(
            "movi r2, 2000\n\
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

    /// Per-DPU loop with the count read from MRAM — the host skews the
    /// counts so per-DPU cost is unbalanced (the YOLO one-DPU-per-row
    /// shape of Fig. 4.6).
    fn skewed_program() -> dpu_sim::Program {
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

    struct Sample {
        wall_ns: u128,
        instructions: u64,
    }

    fn median(samples: &mut [Sample]) -> (u128, u64) {
        samples.sort_by_key(|s| s.wall_ns);
        let mid = &samples[samples.len() / 2];
        (mid.wall_ns, mid.instructions)
    }

    fn bench_interpreter(program: &dpu_sim::Program, tasklets: usize, n: usize) -> (u128, u64) {
        let mut samples: Vec<Sample> = (0..n)
            .map(|_| {
                let mut m = Machine::default();
                let start = Instant::now();
                let res = m.run(program, tasklets).expect("bench program runs");
                Sample { wall_ns: start.elapsed().as_nanos(), instructions: res.instructions }
            })
            .collect();
        median(&mut samples)
    }

    /// One staged kernel on a pinned engine tier, each sample from a fresh
    /// clone of the staged DPU (and the decode hoisted out of the timed
    /// region, as every launch path does), so the snapshot records the
    /// tier ladder, not just the ambient default.
    fn bench_kernel(
        shape: &pim_bench::kernels::KernelShape,
        engine: dpu_sim::Engine,
        n: usize,
    ) -> (u128, u64) {
        let mut samples: Vec<Sample> = (0..n)
            .map(|_| {
                let mut m = shape.staged.clone();
                let start = Instant::now();
                let res = m
                    .run_exec_engine(&shape.exec, shape.tasklets, engine)
                    .expect("bench kernel runs");
                Sample { wall_ns: start.elapsed().as_nanos(), instructions: res.instructions }
            })
            .collect();
        median(&mut samples)
    }

    /// Uniform per-DPU work at arbitrary scale: every DPU runs the same
    /// count, so instructions-per-host-second at 32 vs 2,560 DPUs measures
    /// how close the forked launch stays to linear scaling (the launch
    /// overhead and the COW arena are what could break it).
    fn bench_uniform_launch(dpus: usize, n: usize) -> (u128, u64) {
        let program = skewed_program();
        let count: u64 = 4_000;
        let mut samples: Vec<Sample> = (0..n)
            .map(|_| {
                let mut set = DpuSet::allocate(dpus).expect("alloc");
                set.define_symbol("n", 8).expect("symbol");
                set.copy_to("n", 0, &count.to_le_bytes()).expect("broadcast");
                let start = Instant::now();
                let res = set.launch(&program, 1).expect("launch");
                Sample {
                    wall_ns: start.elapsed().as_nanos(),
                    instructions: res.total_instructions(),
                }
            })
            .collect();
        median(&mut samples)
    }

    fn bench_skewed_launch(dpus: usize, n: usize) -> (u128, u64) {
        let program = skewed_program();
        let mut samples: Vec<Sample> = (0..n)
            .map(|_| {
                let mut set = DpuSet::allocate(dpus).expect("alloc");
                set.define_symbol("n", 8).expect("symbol");
                for d in 0..dpus {
                    // Heavy head, light tail: DPU 0 does ~32x the work of
                    // the rest, the worst case for static chunking.
                    let count: u64 = if d == 0 { 64_000 } else { 2_000 };
                    set.copy_to_dpu(dpu_sim::DpuId(d as u32), "n", 0, &count.to_le_bytes())
                        .expect("scatter");
                }
                let start = Instant::now();
                let res = set.launch(&program, 1).expect("launch");
                Sample {
                    wall_ns: start.elapsed().as_nanos(),
                    instructions: res.total_instructions(),
                }
            })
            .collect();
        median(&mut samples)
    }

    /// The commit the snapshot was recorded at, so BENCH_*.json files are
    /// self-describing in the perf trajectory ("unknown" outside a git
    /// checkout).
    fn git_sha() -> String {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    }

    #[allow(clippy::cast_precision_loss)]
    pub fn run(samples: usize) -> String {
        use dpu_sim::Engine;
        let alu = alu_loop_program();
        let alu_11t = pim_bench::kernels::KernelShape {
            name: "alu_loop_11t".to_owned(),
            staged: Machine::default(),
            exec: dpu_sim::ExecProgram::compile(&alu).expect("bench program compiles"),
            tasklets: 11,
        };
        let scenarios: Vec<(&str, (u128, u64))> = vec![
            ("interpreter/alu_loop_1t", bench_interpreter(&alu, 1, samples)),
            ("interpreter/alu_loop_11t", bench_interpreter(&alu, 11, samples)),
            // The tier ladder on the headline scenario: the same kernel
            // pinned to each engine, so BENCH_*.json records how much the
            // fast tier buys over the reference loop.
            (
                "interpreter/alu_loop_11t_reference",
                bench_kernel(&alu_11t, Engine::Reference, samples),
            ),
            (
                "interpreter/alu_loop_11t_superblock",
                bench_kernel(&alu_11t, Engine::Superblock, samples),
            ),
            ("interpreter/sync_heavy_16t", bench_interpreter(&sync_heavy_program(), 16, samples)),
            ("multi_dpu/skewed_32", bench_skewed_launch(32, samples)),
            ("multi_dpu/uniform_32", bench_uniform_launch(32, samples)),
        ];
        // The paper's own kernels, per tier: one eBNN image per tasklet at
        // 1/6/11/16 tasklets and one YOLO GEMM row at 11.
        let mut scenarios: Vec<(String, (u128, u64))> =
            scenarios.into_iter().map(|(name, s)| (name.to_owned(), s)).collect();
        for shape in pim_bench::kernels::paper_kernel_shapes() {
            for engine in [Engine::Reference, Engine::Superblock] {
                scenarios.push((
                    format!("paper_kernel/{}_{}", shape.name, engine.name()),
                    bench_kernel(&shape, engine, samples),
                ));
            }
        }
        // The paper's full machine: 40 ranks of 64 DPUs through one forked
        // launch. Compare instructions_per_sec against uniform_32 for the
        // scaling ratio (target ≥ 0.8× ideal). Measured last, because a
        // scenario run right after its 2,560-DPU sets are built and
        // dropped reads several-fold slow; its row stays after
        // uniform_32's.
        let rank = ("multi_dpu/rank_2560".to_owned(), bench_uniform_launch(2560, samples));
        let at = scenarios.iter().position(|(name, _)| name == "multi_dpu/uniform_32");
        scenarios.insert(at.expect("uniform_32 is measured") + 1, rank);
        let mut benches: Vec<(String, serde_json::Value)> = Vec::new();
        for (name, (ns, instructions)) in &scenarios {
            let ips = *instructions as f64 / (*ns as f64 / 1e9);
            eprintln!("{name}: {instructions} instrs, median {ns} ns, {ips:.3e} instr/s");
            benches.push((
                name.clone(),
                serde_json::json!({
                    "median_ns": *ns as u64,
                    "instructions": *instructions,
                    "instructions_per_sec": ips,
                }),
            ));
        }
        let doc = serde_json::json!({
            "schema": "pim-bench-snapshot-v2",
            "samples": samples as u64,
            "git_sha": git_sha(),
            "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
            "benches": serde_json::Value::Object(benches.into_iter().collect()),
        });
        serde_json::to_string_pretty(&doc).expect("serializable") + "\n"
    }
}
