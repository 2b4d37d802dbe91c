//! Trace a Tier-1 eBNN inference and export it for timeline inspection.
//!
//! ```sh
//! cargo run --release --example trace_inspection [out.json]
//! ```
//!
//! Runs a 24-image MNIST batch through the generated eBNN DPU program on
//! two simulated DPUs with tracing enabled, then:
//!
//! * writes a Chrome trace-event JSON file (default
//!   `target/ebnn_trace.json`) — open it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`: one process track
//!   per DPU with a row per tasklet, DMA and subroutine spans on the
//!   cycle axis, plus a host track of MRAM transfers;
//! * prints the per-phase cycle breakdown and the launch's metrics
//!   registry to stdout.

use ebnn::{EbnnModel, ModelConfig};

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "target/ebnn_trace.json".to_owned());

    let model = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
    let images: Vec<_> =
        (0..24).map(|i| ebnn::mnist::synth_digit(i % 10, (i / 10) as u64)).collect();

    let spec = ebnn::BatchSpec { trace: true, ..ebnn::BatchSpec::default() };
    let traced = ebnn::codegen::run_tier1_batch(&model, &images, spec).expect("traced run");
    let launch = &traced.report;

    println!(
        "Traced {} images over {} DPUs: {} cycles makespan, {} trace events\n",
        images.len(),
        launch.per_dpu.len(),
        launch.makespan_cycles(),
        traced.dpu_traces.iter().map(pim_trace::TraceBuffer::len).sum::<usize>()
            + traced.host_trace.len(),
    );

    println!("{}", pim_trace::cycle_breakdown(&traced.dpu_traces));

    let mut metrics = launch.metrics();
    metrics.counter_add("host.transfer.events", traced.host_trace.len() as u64);
    let metrics_json = serde_json::to_string(&metrics.to_json()).expect("metrics serialize");
    println!("metrics registry:\n{metrics_json}\n");

    let json = pim_trace::chrome_trace_string(&traced.dpu_traces, Some(&traced.host_trace));
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, &json).expect("write trace file");
    println!("Chrome trace written to {out_path} ({} bytes).", json.len());
    println!("Open it at https://ui.perfetto.dev or chrome://tracing.");
}
