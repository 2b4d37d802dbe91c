//! The YOLOv3 evaluation scenario (§4.2): the row-per-DPU GEMM mapping.
//!
//! ```sh
//! cargo run --release --example yolo_pipeline [path/to/network.cfg]
//! ```
//!
//! With a Darknet `.cfg` argument the full-size estimate uses that network
//! instead of the built-in table (try `configs/yolov3-416.cfg`).
//!
//! Runs a scaled-down YOLOv3 *functionally* through simulated DPU MRAM
//! (synthetic weights — detections are structural, not semantic), decodes
//! and NMS-filters the heads, then prints the latency estimate for the full
//! 416×416 network against the paper's 65 s/frame.

use yolo_pim::{darknet53_yolov3, decode_and_nms, tiny_config, LayerSpec, YoloPipeline};

fn main() {
    // --- Functional run: tiny topology, real data through MRAM ---
    let net = tiny_config();
    let input_dim = net.input.h;
    let input: Vec<f32> =
        (0..net.input.len()).map(|i| (((i * 2654435761) % 255) as f32 / 127.5) - 1.0).collect();
    let pipe = YoloPipeline::new(net);
    let (heads, report) = pipe.run(&input).expect("pipeline runs");

    println!("Functional run: {} ({} conv layers on DPUs)", pipe.network.name, report.layers.len());
    for (l, r) in pipe
        .network
        .layers
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, LayerSpec::Conv(_)))
        .zip(&report.layers)
        .map(|((i, _), r)| (i, r))
    {
        println!(
            "    layer {:>2}: M={:<4} N={:<5} K={:<5} -> {} DPUs, {:>9} cycles{}",
            l,
            r.dims.m,
            r.dims.n,
            r.dims.k,
            r.dpus,
            r.kernel.cycles,
            if r.memory_bound { "  [MRAM-bound]" } else { "" }
        );
    }
    let dets = decode_and_nms(&heads, input_dim, 0.6, 0.45);
    println!("    YOLO heads: {}, detections after NMS: {}", heads.len(), dets.len());
    for d in dets.iter().take(5) {
        println!(
            "      box @ ({:5.1},{:5.1}) {:4.1}x{:<4.1} class {} conf {:.2}",
            d.x, d.y, d.w, d.h, d.class, d.confidence
        );
    }

    // --- Tier-1: one layer's GEMM as a real DPU program across DPUs ---
    use yolo_pim::GemmDims;
    let dims = GemmDims { m: 4, n: 64, k: 36 };
    let a: Vec<i16> = (0..dims.m * dims.k).map(|i| ((i * 13) % 41) as i16 - 20).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| ((i * 7) % 61) as i16 - 30).collect();
    let run = yolo_pim::run_tier1_layer(dims, 1, &a, &b, yolo_pim::LayerRunSpec::new(11))
        .expect("tier-1 layer");
    let (c_t1, launch) = (run.c, run.report);
    let mut c_host = vec![0i16; dims.m * dims.n];
    yolo_pim::gemm(dims, 1, &a, &b, &mut c_host);
    println!("\nTier-1 GEMM layer (M={} DPUs, 11 tasklets):", dims.m);
    println!(
        "    {} instructions, makespan {} cycles",
        launch.total_instructions(),
        launch.makespan_cycles()
    );
    println!("    C matches host GEMM: {}", c_t1 == c_host);
    println!(
        "    B-element DMAs per DPU: {} (the §4.3.3 MRAM-bound pattern)",
        launch.per_dpu[0].dma_transfers
    );

    // --- Full-size estimate: the paper's 416×416 frame (or a user .cfg) ---
    let network = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path).expect("readable cfg file");
            let net = yolo_pim::parse_cfg(&path, &text).expect("valid Darknet cfg");
            println!(
                "\nLoaded {}: {} layers, {:.2e} MACs",
                path,
                net.layers.len(),
                net.total_macs() as f64
            );
            net
        }
        None => darknet53_yolov3(),
    };
    let full = YoloPipeline::new(network).estimate();
    println!("\nFull YOLOv3-416 frame estimate (Fig. 4.6 mapping, 11 tasklets, -O3):");
    println!("    total:          {:.1} s   (paper: 65 s)", full.total_seconds());
    println!("    mean layer:     {:.2} s   (paper: ~0.9 s)", full.mean_layer_seconds());
    println!("    max layer:      {:.2} s   (paper: ~6 s)", full.max_layer_seconds());
    println!("    DPU compute:    {:.1} s", full.dpu_seconds());
    println!(
        "    host transfers: {:.1} s  <- every DPU receives the whole B matrix",
        full.host_transfer_seconds()
    );
    let bound = full.layers.iter().filter(|l| l.memory_bound).count();
    println!("    MRAM-bound layers: {}/{} (the §4.3.3 takeaway)", bound, full.layers.len());
}
