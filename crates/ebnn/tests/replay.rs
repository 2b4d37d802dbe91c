//! Recorded launches on the serving shape: a 256-DPU `Tier1Engine` with
//! one staged image. The 255 idle DPUs boot, DMA the same params, filters
//! and LUT, find `n_images = 0` and halt — bit for bit the same run — so
//! all but the first two of them replay a recording instead of being
//! interpreted, from the first launch on; a traced launch is identical to
//! an untraced one, runs on the fast tier and replays nothing.

use ebnn::codegen::Tier1Engine;
use ebnn::{EbnnModel, ModelConfig};

const DPUS: usize = 256;

#[test]
fn idle_dpus_of_a_sparse_batch_replay_and_traced_launches_do_not() {
    let model = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
    let image = [ebnn::mnist::synth_digit(7, 1)];
    let expected = model.features(&model.binarize(&image[0].pixels));
    let mut engine = Tier1Engine::new(&model, DPUS).expect("eBNN engine");
    // Pinned: the CI engine matrix may force the ambient tier to the
    // reference loop, which never replays.
    engine.set_mut().set_engine(Some(dpu_sim::Engine::Superblock));
    // Sequential: two forked workers can both meet a key before either has
    // recorded it (replay counts are thread-timing dependent when forked).
    engine.set_mut().set_parallel_threshold(Some(usize::MAX));
    let idle_instructions = |launch: &pim_host::LaunchReport| launch.per_dpu[1].instructions;

    let mut first = None;
    for n in 1..=4 {
        engine.stage(&model, &image, 0).expect("stage one image");
        let before = engine.set().system().engine_stats();
        let launch = engine.launch(false, None).expect("launch").0;
        assert!(launch.incidents.is_empty(), "launch {n}: {launch:?}");
        let stats = engine.set().system().engine_stats().since(&before);
        assert_eq!(engine.gather(0).expect("gather").0, vec![expected.clone()], "launch {n}");
        assert_eq!(stats.slots(), launch.total_instructions(), "launch {n}");
        // Launch 1: DPU 1 runs plain, DPU 2 is recorded, 253 replay.
        let hits = if n == 1 { 253 } else { 255 };
        assert_eq!(stats.replay_hits, hits, "launch {n}: {stats:?}");
        assert_eq!(stats.replayed_slots, stats.replay_hits * idle_instructions(&launch));
        assert_eq!(first.get_or_insert(launch.clone()), &launch, "launch {n} repeats launch 1");
    }

    engine.stage(&model, &image, 0).expect("stage one image");
    let before = engine.set().system().engine_stats();
    let (report, buffers) = engine.launch(true, None).expect("traced launch");
    let traced = report.served().expect("every DPU served");
    let stats = engine.set().system().engine_stats().since(&before);
    assert_eq!(Some(&traced), first.as_ref(), "tracing is observational");
    assert_eq!((stats.replay_hits, stats.replayed_slots), (0, 0), "{stats:?}");
    assert_eq!(stats.slots(), traced.total_instructions(), "every DPU was interpreted");
    assert!(stats.reference_slots < stats.slots(), "the fast tier ran it: {stats:?}");
    assert!(buffers.iter().all(|b| !b.is_empty()), "every DPU traced its boot");
}
