//! Sequential and pooled launches of the paper's kernels are one launch.
//!
//! Below its parallel threshold a set runs its DPUs in DPU order on the
//! calling thread; at or above it the launch forks one worker per core
//! (capped at the set size) that claim DPUs off a shared cursor. Nothing
//! a caller reads — the report, every DPU's MRAM, the trace buffers —
//! may tell the two apart; only the scheduling telemetry (`obs.steal.*`)
//! does.

use ebnn::codegen::Tier1Engine;
use ebnn::{EbnnModel, ModelConfig};
use pim_host::{DpuSet, LaunchObservation, LaunchReport, LaunchSpec, ResilientLaunchPolicy};
use pim_trace::TraceBuffer;
use yolo_pim::codegen::RowEngine;
use yolo_pim::gemm::GemmDims;

/// Launch a freshly staged set in every cell of {sequential, pooled} ×
/// {plain, default policy, traced} and check each cell against the
/// first: the same report and MRAM everywhere, the same buffers in every
/// traced cell, and worker telemetry exactly on the pooled side.
fn assert_one_launch<E>(
    name: &str,
    tasklets: usize,
    mut staged: impl FnMut() -> E,
    set_of: fn(&mut E) -> &mut DpuSet,
) {
    let policy = ResilientLaunchPolicy::default();
    let mut first: Option<(LaunchReport, E)> = None;
    let mut first_bufs: Option<Vec<TraceBuffer>> = None;
    for threshold in [usize::MAX, 1] {
        for form in ["plain", "resilient", "traced"] {
            let cell = format!("{name}: threshold={threshold} {form}");
            let mut engine = staged();
            let set = set_of(&mut engine);
            set.set_parallel_threshold(Some(threshold));
            let dpus = set.len();
            let mut obs = LaunchObservation::new();
            let spec = LaunchSpec {
                trace: form == "traced",
                policy: (form == "resilient").then_some(&policy),
                observe: Some(&mut obs),
                ..LaunchSpec::loaded(tasklets)
            };
            let (report, bufs) = set.launch_with(spec).expect("launch");
            assert!(report.fully_served(), "{cell}");

            let m = obs.metrics();
            if threshold == 1 {
                let workers = std::thread::available_parallelism().map_or(4, usize::from).min(dpus);
                assert_eq!(m.counter("obs.steal.launches"), 1, "{cell}");
                assert_eq!(m.counter("obs.steal.claims"), dpus as u64, "{cell}: every DPU once");
                assert_eq!(m.gauge("obs.steal.workers"), Some(workers as f64), "{cell}");
            } else {
                assert_eq!(m.counter("obs.steal.launches"), 0, "{cell}: nothing forked");
            }

            if form == "traced" {
                assert_eq!(bufs.len(), dpus, "{cell}");
                assert_eq!(&bufs, first_bufs.get_or_insert_with(|| bufs.clone()), "{cell}");
            } else {
                assert!(bufs.is_empty(), "{cell}");
            }
            match &mut first {
                None => first = Some((report, engine)),
                Some((want, want_engine)) => {
                    assert_eq!(&report, want, "{cell}");
                    let want_set = set_of(want_engine);
                    let pairs = set_of(&mut engine).system().iter().zip(want_set.system().iter());
                    for ((id, got), (_, want)) in pairs {
                        assert!(got.mram == want.mram, "{cell}: MRAM of {id:?} diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn sequential_and_pooled_launches_of_the_paper_kernels_are_one_launch() {
    // eBNN on one 64-DPU rank, two of its DPUs busy with 16 images each.
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let images: Vec<_> = (0..32).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let rank = || {
        let mut engine = Tier1Engine::new(&model, 64).expect("eBNN engine");
        engine.stage(&model, &images, 0).expect("stage images");
        engine
    };
    assert_one_launch("eBNN rank, 2 busy", 16, rank, Tier1Engine::set_mut);

    // YOLO GEMM rows, one per DPU: 16 rows, and 2 — as many workers as
    // DPUs at most, whatever the core count.
    let dims = GemmDims { m: 16, n: 24, k: 18 };
    let a: Vec<i16> = (0..dims.m * dims.k).map(|i| ((i * 7 % 13) as i16) - 6).collect();
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| ((i * 5 % 11) as i16) - 5).collect();
    for rows in [16, 2] {
        let staged = || {
            let mut engine = RowEngine::new(dims, 1, &b, rows, 3).expect("row engine");
            engine.stage(&a[..rows * dims.k]).expect("stage A rows");
            engine
        };
        assert_one_launch(&format!("YOLO, {rows} rows"), 3, staged, RowEngine::set_mut);
    }
}
