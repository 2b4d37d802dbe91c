//! The eBNN evaluation scenario (§4.1): a multi-DPU MNIST batch with and
//! without the LUT rewrite of BatchNorm + BinaryActivation.
//!
//! ```sh
//! cargo run --release --example ebnn_mnist_batch [images]
//! ```
//!
//! Reproduces the Fig. 4.3 subroutine-profile comparison and the Fig. 4.4
//! completion-time comparison, then scales the batch across DPUs and
//! reports throughput against the Xeon baseline.

use cpu_baseline::{MeasuredCpu, XeonModel};
use ebnn::mapping::BnPlacement;
use ebnn::{EbnnModel, EbnnPipeline, ModelConfig, SynthMnist};

fn main() {
    let n_images: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("image count must be a number"))
        .unwrap_or(160);
    let model = EbnnModel::generate(ModelConfig::default());
    let dataset = SynthMnist::generate(n_images.div_ceil(10));
    let images = &dataset.images[..n_images];

    // --- Fig. 4.3: subroutine profiles ---
    let f43 = pim_core::experiments::fig_4_3(&model);
    println!(
        "Fig. 4.3(a) — float BN in the DPU: {} distinct subroutines",
        f43.float_profile.distinct
    );
    for (sym, occ) in &f43.float_profile.occ {
        println!("    {sym:<14} #occ {occ}");
    }
    println!("Fig. 4.3(b) — LUT rewrite: {} distinct subroutines", f43.lut_profile.distinct);
    for (sym, occ) in &f43.lut_profile.occ {
        println!("    {sym:<14} #occ {occ}");
    }

    // --- Fig. 4.4: 16-image completion time ---
    let batch16 = &images[..16.min(images.len())];
    let lut = EbnnPipeline::new(model.clone()).infer(batch16).expect("lut run");
    let float = EbnnPipeline::new(model.clone())
        .with_placement(BnPlacement::DpuFloat)
        .infer(batch16)
        .expect("float run");
    println!("\nFig. 4.4 — 16 images on one DPU:");
    println!("    float BN: {:.3} ms", float.dpu_seconds * 1e3);
    println!("    LUT:      {:.3} ms", lut.dpu_seconds * 1e3);
    println!("    speedup:  {:.2}x (paper: 1.4x)", float.dpu_seconds / lut.dpu_seconds);

    // --- Multi-DPU batch ---
    let report = EbnnPipeline::new(model.clone()).infer(images).expect("batch run");
    let correct = images.iter().zip(&report.predictions).filter(|(img, &p)| img.label == p).count();
    println!("\nBatch of {} images over {} DPUs:", images.len(), report.dpus_used);
    println!("    accuracy:       {}/{}", correct, images.len());
    println!("    DPU completion: {:.3} ms", report.dpu_seconds * 1e3);
    println!("    host softmax:   {:.3} ms", report.host_seconds * 1e3);
    println!("    throughput:     {:.0} frames/s", report.frames_per_second());

    // --- Tier-1: the generated DPU program, instruction by instruction ---
    let run =
        ebnn::codegen::run_tier1_batch(&model, batch16, ebnn::BatchSpec::default()).expect("tier1");
    let t1 = &run.report;
    let exact = batch16
        .iter()
        .zip(&run.features)
        .all(|(img, f)| *f == model.features(&model.binarize(&img.pixels)));
    println!("\nTier-1 generated DPU program (16 images, {} tasklets):", batch16.len());
    println!(
        "    {} instructions, {} cycles = {:.3} ms",
        t1.total_instructions(),
        t1.makespan_cycles(),
        t1.makespan_seconds(&dpu_sim::DpuParams::default()) * 1e3
    );
    println!("    features bit-exact vs host reference: {exact}");

    // --- CPU comparison (measured on this machine + deterministic model) ---
    let cpu = MeasuredCpu::new(model).measure_ebnn_rate(200);
    println!("\nCPU baseline on this machine: {cpu:.0} images/s (single core)");
    let default_xeon = XeonModel::default();
    println!(
        "Fig. 4.7(c) speedup vs modelled Xeon at 2560 DPUs: {:.0}x",
        default_xeon.ebnn_seconds(2560 * 16) / report.dpu_seconds.max(1e-12)
    );
}
