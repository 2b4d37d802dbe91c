//! Rendering helpers shared by the `report` binary and the benches.
//!
//! Every function takes the structured output of a `pim_core::experiments`
//! driver (or `pim_model::ModelReport`) and renders the corresponding paper
//! table as text, paper value beside measured value where applicable.

#![forbid(unsafe_code)]

use pim_core::experiments as exp;
use pim_model::report::BenchRow;
use pim_model::ModelReport;

pub mod chaos;
pub mod kernels;
pub mod loc;
pub mod snapshot;

/// Render Table 3.1 (cycles per operation) with relative errors.
#[must_use]
pub fn render_table_3_1(rows: &[exp::Table31Row]) -> String {
    let mut s = String::from(
        "Table 3.1 — cycles per operation, single DPU, -O0, max operands\n\
         operation       paper  measured  rel.err\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<14} {:>6} {:>9} {:>7.1}%\n",
            r.op,
            r.paper_cycles,
            r.measured_cycles,
            r.rel_error() * 100.0
        ));
    }
    s
}

/// Render the Eq. 3.4 DMA cost check.
#[must_use]
pub fn render_eq_3_4(rows: &[(usize, u64)]) -> String {
    let mut s = String::from("Eq. 3.4 — MRAM access cycles = 25 + bytes/2\n  bytes   cycles\n");
    for (b, c) in rows {
        s.push_str(&format!("{b:>7} {c:>8}\n"));
    }
    s
}

/// Render a Fig. 3.2 / Fig. 4.3-style `#occ` profile.
#[must_use]
pub fn render_profile(title: &str, p: &exp::ProfilerSummary) -> String {
    let mut s = format!("{title} — {} distinct subroutines\n", p.distinct);
    for (sym, occ) in &p.occ {
        s.push_str(&format!("  {sym:<14} #occ {occ}\n"));
    }
    s
}

/// Render Fig. 4.4.
#[must_use]
pub fn render_fig_4_4(f: &exp::Fig44) -> String {
    format!(
        "Fig. 4.4 — 16-image eBNN completion time\n  with float BN: {:.6} s\n  with LUT:      {:.6} s\n  speedup:       {:.2}x   (paper: 1.4x)\n",
        f.float_seconds,
        f.lut_seconds,
        f.speedup()
    )
}

/// Render Fig. 4.7(a).
#[must_use]
pub fn render_fig_4_7a(pts: &[exp::TaskletPoint]) -> String {
    let mut s =
        String::from("Fig. 4.7(a) — tasklet speedup vs 1 tasklet\ntasklets  eBNN     YOLOv3\n");
    for p in pts {
        s.push_str(&format!(
            "{:>8} {:>7.2}x {:>7.2}x\n",
            p.tasklets, p.ebnn_speedup, p.yolo_speedup
        ));
    }
    s
}

/// Render Fig. 4.7(b).
#[must_use]
pub fn render_fig_4_7b(rows: &[exp::Fig47bRow]) -> String {
    let mut s = String::from(
        "Fig. 4.7(b) — YOLOv3 layer latency: optimization x threading\n  opt  tasklets  seconds\n",
    );
    for r in rows {
        s.push_str(&format!("  {:<4} {:>8} {:>9.4}\n", r.opt, r.tasklets, r.seconds));
    }
    s
}

/// Render Fig. 4.7(c).
#[must_use]
pub fn render_fig_4_7c(pts: &[(usize, f64)]) -> String {
    let mut s = String::from(
        "Fig. 4.7(c) — eBNN speedup vs one Xeon core (weak scaling)\n  DPUs   speedup\n",
    );
    for (d, sp) in pts {
        s.push_str(&format!("{d:>6} {sp:>9.1}x\n"));
    }
    s
}

/// Render the §4.3.1 headline latencies.
#[must_use]
pub fn render_latencies(l: &exp::MeasuredLatencies) -> String {
    format!(
        "Headline latencies (§4.3.1)\n  eBNN per image (16-tasklet batch): {:.6} s   (paper 1.48e-3)\n  eBNN 1-image launch:               {:.6} s\n  eBNN 16-image batch:               {:.6} s\n  YOLOv3 frame:                      {:.1} s       (paper 65)\n  YOLOv3 mean layer:                 {:.2} s       (paper ~0.9)\n  YOLOv3 max layer:                  {:.2} s       (paper ~6)\n",
        l.ebnn_per_image, l.ebnn_single_image, l.ebnn_batch16, l.yolo_frame, l.yolo_mean_layer,
        l.yolo_max_layer
    )
}

/// Render Table 5.1.
#[must_use]
pub fn render_table_5_1() -> String {
    let mut s = String::from(
        "Table 5.1 — computational model walkthrough (8-bit AlexNet)\n\
         device        Dp  acc-f  mult-f   Cop      PEs     freq        Ccomp(TOPs)  Tcomp(TOPs)\n",
    );
    for c in ModelReport::table_5_1() {
        s.push_str(&format!(
            "{:<12} {:>3} {:>6} {:>7} {:>5} {:>8} {:>11.3e} {:>12.4e} {:>11.3e}\n",
            c.name, c.dp, c.acc_fx, c.mult_fx, c.cop, c.pes, c.freq, c.ccomp_tops, c.tcomp_tops
        ));
    }
    s
}

/// Render Table 5.2.
#[must_use]
pub fn render_table_5_2() -> String {
    let mut s = String::from(
        "Table 5.2 — multiplication Cop per operand size\n\
         device          4-bit   8-bit  16-bit  32-bit\n",
    );
    for (name, row) in ModelReport::table_5_2() {
        s.push_str(&format!(
            "{:<14} {:>6} {:>7} {:>7} {:>7}\n",
            name, row[0], row[1], row[2], row[3]
        ));
    }
    s.push_str("(paper's starred estimates: pPIM 124/1016, DRISA 740, UPMEM 370/570)\n");
    s
}

/// Render Fig. 5.4.
#[must_use]
pub fn render_fig_5_4() -> String {
    let mut s = String::from("Fig. 5.4 — pPIM adds-without-carry pattern per column\n");
    for (x, pattern) in ModelReport::fig_5_4(&[8, 16, 32]) {
        s.push_str(&format!("  {x:>2}-bit: {pattern:?}\n"));
    }
    s
}

/// Render Fig. 5.6.
#[must_use]
pub fn render_fig_5_6() -> String {
    let mut s = String::from(
        "Fig. 5.6 — multiplication cycles, PEs = 2560, TOPs = 100000\n\
         device           4-bit    8-bit   16-bit   32-bit\n",
    );
    for (name, row) in ModelReport::fig_5_6() {
        s.push_str(&format!(
            "{:<14} {:>8.0} {:>8.0} {:>8.0} {:>8.0}\n",
            name, row[0], row[1], row[2], row[3]
        ));
    }
    s
}

/// Render Table 5.3 and the §5.3.1 totals.
#[must_use]
pub fn render_table_5_3() -> String {
    let mut s = String::from(
        "Table 5.3 — memory model (8-bit AlexNet)\n\
         device        Ttransfer    ops/PE     local ops      Tmem\n",
    );
    for (name, tt, opp, local, tmem) in ModelReport::table_5_3() {
        s.push_str(&format!(
            "{:<12} {:>10.2e} {:>9} {:>13} {:>10.3e}\n",
            name, tt, opp, local, tmem
        ));
    }
    s.push_str("\nTtot = Tmem + Tcomp (§5.3.1)\n");
    for (name, t) in ModelReport::alexnet_totals() {
        s.push_str(&format!("  {name:<12} {t:.3e} s\n"));
    }
    s
}

/// Render Table 5.4 / Fig. 5.7.
#[must_use]
pub fn render_table_5_4(rows: &[BenchRow], upmem_label: &str) -> String {
    let mut s = format!(
        "Table 5.4 / Fig. 5.7 — 8-bit CNN inference benchmarking ({upmem_label})\n\
         device           power(W) area(mm2) eBNN lat   eBNN f/sW  eBNN f/smm yolo lat   yolo f/sW  yolo f/smm\n"
    );
    for r in rows {
        s.push_str(&format!("{r}\n"));
    }
    s
}

/// Render the §4.3.4 improvements ablation.
#[must_use]
pub fn render_improvements(rows: &[pim_core::ablations::AblationRow]) -> String {
    let mut s = String::from(
        "Improvements ablation (§4.3.4 proposals)\n\
         configuration                             eBNN/img    YOLO frame  YOLO DPU-compute\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<41} {:>8.3} ms {:>9.1} s {:>12.1} s\n",
            r.name,
            r.ebnn_per_image * 1e3,
            r.yolo_frame,
            r.yolo_dpu_seconds
        ));
    }
    s
}

/// Render the §6.1 mapping comparison.
#[must_use]
pub fn render_mapping_comparison(rows: &[pim_core::ablations::MappingRow]) -> String {
    let mut s = String::from(
        "Mapping comparison (§6.1 future work): Fig. 4.6 row mapping vs frame-per-DPU\n\
         network              weights     fits?  row s/frame  fpd s/frame   row fps    fpd fps\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:>8.1} MB {:>6} {:>11.2} {:>12} {:>9.4} {:>10}\n",
            r.network,
            r.weights_bytes as f64 / 1e6,
            if r.fits_mram { "yes" } else { "NO" },
            r.row_frame_seconds,
            r.fpd_frame_seconds.map_or("-".into(), |v| format!("{v:.2}")),
            r.row_fps,
            r.fpd_fps.map_or("-".into(), |v| format!("{v:.1}")),
        ));
    }
    s
}

/// Render the §6.1 network-size sweep.
#[must_use]
pub fn render_size_sweep(rows: &[pim_core::ablations::SizeSweepRow]) -> String {
    let mut s = String::from(
        "Network-size sweep (§6.1): where does UPMEM start losing?\n\
         input     MACs        UPMEM s/frame  pPIM s/frame   ratio\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>5} {:>11.3e} {:>13.2} {:>13.4} {:>9.0}x\n",
            r.input, r.macs as f64, r.upmem_seconds, r.ppim_seconds, r.ratio
        ));
    }
    s
}

/// Render the §6.1 eBNN image-size limits.
#[must_use]
pub fn render_image_limits(rows: &[pim_core::ablations::ImageSizeRow]) -> String {
    let mut s = String::from(
        "eBNN image-size limits (§6.1)\n\
         dim   slot bytes  imgs/transfer  imgs in WRAM  multi-image?   s/image\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>4} {:>11} {:>14} {:>13} {:>13} {:>9.4}\n",
            r.dim,
            r.slot_bytes,
            r.images_per_transfer,
            r.images_in_wram,
            if r.multi_image_feasible { "yes" } else { "no" },
            r.seconds_per_image
        ));
    }
    s
}

/// Render the eBNN depth sweep.
#[must_use]
pub fn render_depth_sweep(rows: &[pim_core::ablations::DepthSweepRow]) -> String {
    let mut s = String::from(
        "eBNN depth sweep (stacked conv-pool blocks)\n\
         blocks               features  working set  fits?   s/image   accuracy\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:>8} {:>10} B {:>6} {:>9.4} {:>8}%\n",
            format!("{:?}", r.filters),
            r.features,
            r.working_set_bytes,
            if r.fits_wram { "yes" } else { "NO" },
            r.seconds_per_image,
            r.accuracy_pct
        ));
    }
    s
}

/// Render the two-tier validation summary.
#[must_use]
pub fn render_tier_validation(v: &exp::TierValidation) -> String {
    format!(
        "Two-tier validation (16-image eBNN batch)\n\
         \x20 tier-1 generated program: {} cycles (features bit-exact: {})\n\
         \x20 tier-2 -O3 estimate:      {} cycles ({:.2}x of tier-1)\n\
         \x20 tier-2 -O0 estimate:      {} cycles ({:.2}x of tier-1)\n",
        v.tier1_cycles,
        v.bit_exact,
        v.tier2_o3_cycles,
        v.o3_ratio(),
        v.tier2_o0_cycles,
        v.o0_ratio()
    )
}

/// Log-scale ASCII bar chart: one row per `(label, value)`, 40 columns
/// spanning the data's decade range. Used to render the Fig. 5.7 panels.
#[must_use]
pub fn render_log_bars(title: &str, unit: &str, rows: &[(String, f64)]) -> String {
    let mut s = format!("{title} ({unit}, log scale)\n");
    let positives: Vec<f64> = rows.iter().map(|r| r.1).filter(|&v| v > 0.0).collect();
    if positives.is_empty() {
        s.push_str("  (no data)\n");
        return s;
    }
    let lo = positives.iter().copied().fold(f64::INFINITY, f64::min).log10().floor();
    let hi = positives.iter().copied().fold(0.0f64, f64::max).log10().ceil();
    let span = (hi - lo).max(1.0);
    for (label, v) in rows {
        let width =
            if *v > 0.0 { (((v.log10() - lo) / span) * 40.0).round().max(1.0) as usize } else { 0 };
        s.push_str(&format!("  {:<16} {:<40} {:.3e}\n", label, "#".repeat(width), v));
    }
    s
}

/// Render the Fig. 5.7 panels from Table 5.4 rows.
#[must_use]
pub fn render_fig_5_7(rows: &[BenchRow]) -> String {
    let mut s = String::new();
    let col = |f: fn(&BenchRow) -> f64| -> Vec<(String, f64)> {
        rows.iter().map(|r| (r.name.clone(), f(r))).collect()
    };
    s.push_str(&render_log_bars("Fig. 5.7(a) eBNN latency/frame", "s", &col(|r| r.ebnn_latency)));
    s.push('\n');
    s.push_str(&render_log_bars("Fig. 5.7(a) YOLOv3 latency/frame", "s", &col(|r| r.yolo_latency)));
    s.push('\n');
    s.push_str(&render_log_bars(
        "Fig. 5.7(c) eBNN throughput/power",
        "frames/s-W",
        &col(|r| r.ebnn_tp_power),
    ));
    s.push('\n');
    s.push_str(&render_log_bars(
        "Fig. 5.7(c) eBNN throughput/area",
        "frames/s-mm2",
        &col(|r| r.ebnn_tp_area),
    ));
    s.push('\n');
    s.push_str(&render_log_bars(
        "Fig. 5.7(d) YOLOv3 throughput/power",
        "frames/s-W",
        &col(|r| r.yolo_tp_power),
    ));
    s.push('\n');
    s.push_str(&render_log_bars(
        "Fig. 5.7(d) YOLOv3 throughput/area",
        "frames/s-mm2",
        &col(|r| r.yolo_tp_area),
    ));
    s
}
