//! Recorded launches at set level: the replay table of a program is
//! shared by every DPU — and every pool worker — that runs it, so within
//! one launch the first DPU of a key runs plain, the second is recorded
//! and the rest already replay; replays are validated against each DPU's
//! real memory (so host copies, restores and raw flips need no hooks),
//! and guarded or observed launches walk past the table. Every launch is
//! compared against the same launch on a set pinned to
//! `Engine::Reference`, which never replays.

use dpu_sim::asm::assemble;
use dpu_sim::{DpuId, Engine, EngineStats, FaultConfig, FaultPlan};
use pim_host::{DpuSet, LaunchResult, ResilientLaunchPolicy};

const DPUS: usize = 12;
const TASKLETS: usize = 3;

/// `y = x + x` by DMA, on tasklet 0; the others only meet it at the
/// barrier. Reads `x`, never reads `y`: relaunching without restaging
/// finds the same read set.
fn double_program() -> dpu_sim::Program {
    assemble(
        "me r1\n\
         bne r1, r0, wait\n\
         movi r1, 0x40\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         add r4, r4, r4\n\
         sw r1, 0, r4\n\
         movi r2, 8\n\
         mram.write r1, r2, r3\n\
         wait: barrier\n\
         halt\n",
    )
    .unwrap()
}

/// A set with the program loaded and `x` staged: most DPUs hold the same
/// value (the idle shape), two hold their own. The tier is always pinned:
/// the CI engine matrix may force the ambient one to the reference loop,
/// which never replays.
fn staged_set(threshold: usize, engine: Engine) -> DpuSet {
    let mut set = DpuSet::allocate(DPUS).unwrap();
    set.set_parallel_threshold(Some(threshold));
    set.set_engine(Some(engine));
    set.define_symbol("x", 8).unwrap();
    set.define_symbol("y", 8).unwrap();
    set.copy_scalar_to("x", 21).unwrap();
    set.copy_to_dpu(DpuId(3), "x", 0, &1000u64.to_le_bytes()).unwrap();
    set.copy_to_dpu(DpuId(7), "x", 0, &77u64.to_le_bytes()).unwrap();
    set.load(&double_program()).unwrap();
    set
}

fn assert_same_memory(a: &DpuSet, b: &DpuSet, label: &str) {
    for ((id, ma), (_, mb)) in a.system().iter().zip(b.system().iter()) {
        assert_eq!(ma.mram, mb.mram, "{label}: MRAM of {id:?}");
        assert_eq!(
            ma.wram.slice(0, ma.wram.len()).unwrap(),
            mb.wram.slice(0, mb.wram.len()).unwrap(),
            "{label}: WRAM of {id:?}"
        );
        assert_eq!(ma.dma, mb.dma, "{label}: DMA statistics of {id:?}");
    }
}

/// Launch `set`, returning the result and the launch's residency delta.
fn launch(set: &mut DpuSet) -> (LaunchResult, EngineStats) {
    let before = set.system().engine_stats();
    let result = set.launch_loaded(TASKLETS).expect("launch");
    (result, set.system().engine_stats().since(&before))
}

#[test]
fn sequential_and_pooled_launches_share_one_table_and_match_the_reference() {
    let mut reference = staged_set(usize::MAX, Engine::Reference);
    let mut sequential = staged_set(usize::MAX, Engine::Superblock);
    let mut pooled = staged_set(1, Engine::Superblock);
    for n in 1..=5 {
        let (expected, ref_stats) = launch(&mut reference);
        assert_eq!(ref_stats.replay_hits + ref_stats.replay_records, 0, "reference never replays");
        for (label, set) in [("sequential", &mut sequential), ("pooled", &mut pooled)] {
            let (result, stats) = launch(set);
            assert_eq!(result, expected, "{label} launch {n}");
            assert_same_memory(set, &reference, &format!("{label} launch {n}"));
            assert_eq!(stats.slots(), result.total_instructions(), "{label} launch {n}");
            let replays = (stats.replay_hits, stats.replay_records);
            match (n, label) {
                // DPU 0 runs plain, DPU 1 is recorded, and so is the first
                // sight of each other `x`; everyone else replays.
                (1, "sequential") => assert_eq!(replays, (8, 3), "{stats:?}"),
                (2.., "sequential") => assert_eq!(replays, (DPUS as u64, 0), "{stats:?}"),
                // Pool workers race for the first sightings: with one
                // worker per DPU, launch 1 can be all plain and launch 2
                // all recordings.
                (1 | 2, _) => assert!(replays.0 + replays.1 <= DPUS as u64, "{stats:?}"),
                _ => assert_eq!(replays, (DPUS as u64, 0), "{label} launch {n}: {stats:?}"),
            }
        }
        assert_eq!(sequential.copy_scalar_from(DpuId(3), "y").unwrap(), 2000);
        assert_eq!(pooled.copy_scalar_from(DpuId(0), "y").unwrap(), 42);
    }
}

#[test]
fn host_copies_restores_and_raw_flips_need_no_invalidation() {
    let mut reference = staged_set(usize::MAX, Engine::Reference);
    let mut set = staged_set(usize::MAX, Engine::Superblock);
    let golden = set.snapshot();
    let ref_golden = reference.snapshot();
    {
        let mut step = |label: &str, hits: u64, change: &dyn Fn(&mut DpuSet)| {
            change(&mut set);
            change(&mut reference);
            let (expected, _) = launch(&mut reference);
            let (result, stats) = launch(&mut set);
            assert_eq!(result, expected, "{label}");
            assert_same_memory(&set, &reference, label);
            assert_eq!(stats.replay_hits, hits, "{label}: {stats:?}");
        };
        step("first launch", 8, &|_| {});
        step("second launch", 12, &|_| {});
        step("copy_to_dpu of new input", 11, &|s| {
            s.copy_to_dpu(DpuId(5), "x", 0, &5u64.to_le_bytes()).unwrap();
        });
        step("copy_to of the recorded input", 12, &|s| s.copy_scalar_to("x", 21).unwrap());
        step("copy_to outside the read set", 12, &|s| s.copy_scalar_to("y", 0xdead).unwrap());
        step("raw bit flip in one DPU's input", 11, &|s| {
            s.system_mut().dpu_mut(DpuId(9)).mram.flip_bit_raw(2, 6).unwrap();
        });
    }
    set.restore(&golden).unwrap();
    reference.restore(&ref_golden).unwrap();
    let (expected, _) = launch(&mut reference);
    let (result, stats) = launch(&mut set);
    assert_eq!(result, expected, "restored");
    assert_same_memory(&set, &reference, "restored");
    assert_eq!(stats.replay_hits, 12, "the staged inputs are back: {stats:?}");
}

#[test]
fn guarded_and_observed_launches_bypass_the_table() {
    let mut reference = staged_set(usize::MAX, Engine::Reference);
    let mut set = staged_set(usize::MAX, Engine::Superblock);
    for _ in 0..2 {
        launch(&mut reference);
        launch(&mut set);
    }
    let replay_counters = |set: &DpuSet| {
        let s = set.system().engine_stats();
        (s.replay_hits, s.replay_records, s.replay_abandoned, s.replayed_slots)
    };
    let before = replay_counters(&set);

    // Armed but silent: a plan that could inject and happens not to.
    let silent = FaultPlan::new(FaultConfig { bit_flip_prob: 1e-12, ..FaultConfig::default() });
    let (expected, _) = launch(&mut reference);
    let report = set
        .launch_loaded_resilient(TASKLETS, &ResilientLaunchPolicy::with_faults(silent))
        .expect("armed launch");
    assert_eq!(report.faults_injected(), 0);
    assert_eq!(report.into_launch_result().expect("fully served"), expected);
    assert_same_memory(&set, &reference, "armed");
    assert_eq!(replay_counters(&set), before, "armed launches bypass the table");

    launch(&mut reference);
    let (traced, buffers) = set.launch_loaded_traced(TASKLETS).expect("traced launch");
    assert_eq!(traced, expected);
    assert!(buffers.iter().all(|b| !b.is_empty()));
    assert_same_memory(&set, &reference, "traced");
    assert_eq!(replay_counters(&set), before, "traced launches bypass the table");

    // Unarmed resilient launches are plain launches and replay.
    launch(&mut reference);
    let report = set
        .launch_loaded_resilient(TASKLETS, &ResilientLaunchPolicy::default())
        .expect("zero-fault launch");
    assert_eq!(report.into_launch_result().expect("fully served"), expected);
    assert_same_memory(&set, &reference, "unarmed resilient");
    assert_eq!(replay_counters(&set).0, before.0 + DPUS as u64);

    // ECC changes how MRAM stores and checks data: bypass, same results.
    set.enable_ecc(true);
    reference.enable_ecc(true);
    let with_ecc = replay_counters(&set);
    let (expected_ecc, _) = launch(&mut reference);
    let (result, _) = launch(&mut set);
    assert_eq!(result, expected_ecc);
    assert_eq!(result, expected);
    assert_same_memory(&set, &reference, "ECC on");
    assert_eq!(replay_counters(&set), with_ecc, "ECC-on launches bypass the table");
}

#[test]
fn a_table_lives_and_dies_with_its_decoded_program() {
    // `DpuSet::launch` decodes the program per call: every launch starts
    // from an empty table and learns the same things again.
    let mut reference = staged_set(usize::MAX, Engine::Reference);
    let mut set = staged_set(usize::MAX, Engine::Superblock);
    let program = double_program();
    for n in 1..=3 {
        let expected = reference.launch(&program, TASKLETS).unwrap();
        let before = set.system().engine_stats();
        assert_eq!(set.launch(&program, TASKLETS).unwrap(), expected, "launch {n}");
        assert_same_memory(&set, &reference, &format!("launch {n}"));
        let stats = set.system().engine_stats().since(&before);
        assert_eq!((stats.replay_hits, stats.replay_records), (8, 3), "launch {n}");
    }
}
