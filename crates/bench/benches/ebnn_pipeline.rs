//! Bench for Fig. 4.3 / Fig. 4.4: eBNN with and without the LUT rewrite.

use criterion::{criterion_group, criterion_main, Criterion};
use ebnn::mapping::BnPlacement;
use ebnn::{EbnnModel, EbnnPipeline, ModelConfig};
use std::hint::black_box;

fn bench_fig_4_4(c: &mut Criterion) {
    let model = EbnnModel::generate(ModelConfig::default());
    println!("{}", pim_bench::render_fig_4_4(&pim_core::experiments::fig_4_4(&model)));
    let f43 = pim_core::experiments::fig_4_3(&model);
    println!("{}", pim_bench::render_profile("Fig. 4.3(a) float profile", &f43.float_profile));
    println!("{}", pim_bench::render_profile("Fig. 4.3(b) LUT profile", &f43.lut_profile));

    let images: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let mut g = c.benchmark_group("fig4_4_ebnn_16_images");
    g.sample_size(20);
    g.bench_function("lut", |b| {
        let p = EbnnPipeline::new(model.clone());
        b.iter(|| black_box(p.infer(&images).expect("run").dpu_seconds));
    });
    g.bench_function("float_bn", |b| {
        let p = EbnnPipeline::new(model.clone()).with_placement(BnPlacement::DpuFloat);
        b.iter(|| black_box(p.infer(&images).expect("run").dpu_seconds));
    });
    g.sample_size(10);
    g.bench_function("tier1_generated_program", |b| {
        b.iter(|| {
            let spec = ebnn::BatchSpec::default();
            let run = ebnn::codegen::run_tier1_batch(&model, &images, spec).expect("tier1");
            black_box(run.report.makespan_cycles())
        });
    });
    g.finish();
    println!(
        "{}",
        pim_bench::render_tier_validation(&pim_core::experiments::tier_validation(&model))
    );
}

criterion_group!(benches, bench_fig_4_4);
criterion_main!(benches);
