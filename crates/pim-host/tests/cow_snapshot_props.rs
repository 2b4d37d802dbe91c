//! Property tests for the COW MRAM arena: snapshot/restore exactness
//! under arbitrary corruption, broadcast-page isolation, and resilient
//! retry bit-identity when faults are injected.

use dpu_sim::asm::assemble;
use dpu_sim::faults::{FaultConfig, FaultPlan};
use dpu_sim::DpuId;
use pim_host::{DpuSet, Incident, ResilientLaunchPolicy};
use proptest::prelude::*;

fn double_program() -> dpu_sim::Program {
    assemble(
        "movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 8\n\
         mram.read r1, r2, r3\n\
         lw r4, r1, 0\n\
         add r4, r4, r4\n\
         sw r1, 0, r4\n\
         mram.write r1, r2, r3\n\
         halt\n",
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Restoring a snapshot reverts arbitrary MRAM corruption exactly:
    /// after random overwrites (the host-level model of bit flips), the
    /// restored image is bit-identical to the captured one.
    #[test]
    fn restore_reverts_arbitrary_mram_corruption(
        data in proptest::collection::vec(any::<u8>(), 8..2048),
        writes in proptest::collection::vec(
            (0usize..192 * 1024, proptest::collection::vec(any::<u8>(), 8..64)),
            1..8,
        ),
    ) {
        let span = 192 * 1024; // three 64 KiB pages
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", span).unwrap();
        let padded = pim_host::pad_to_8(&data);
        set.copy_to_dpu(DpuId(0), "buf", 0, &padded).unwrap();

        let pristine = set.system().dpu(DpuId(0)).mram.clone();
        let snap = set.snapshot();

        // Corrupt: random writes at random offsets (clamped into the span).
        for (addr, bytes) in &writes {
            let addr = (addr & !7).min(span - 64);
            let n = bytes.len() & !7;
            if n > 0 {
                set.copy_to_dpu(DpuId(0), "buf", addr, &bytes[..n]).unwrap();
            }
        }

        set.restore(&snap).unwrap();
        prop_assert_eq!(&set.system().dpu(DpuId(0)).mram, &pristine);
        let mut back = vec![0u8; padded.len()];
        set.copy_from_dpu(DpuId(0), "buf", 0, &mut back).unwrap();
        prop_assert_eq!(back, padded);
    }

    /// A broadcast (`copy_to`) shares whole pages across the set; writing
    /// through one DPU must copy-on-write its private view and never leak
    /// into the other DPUs' images.
    #[test]
    fn broadcast_pages_survive_one_dpu_writes(
        n_dpus in 2usize..8,
        fill in any::<u8>(),
        writer in 0usize..8,
        wdata in proptest::collection::vec(any::<u8>(), 8..256),
        waddr in 0usize..128 * 1024,
    ) {
        let span = 128 * 1024; // two full 64 KiB pages
        let writer = writer % n_dpus;
        let mut set = DpuSet::allocate(n_dpus).unwrap();
        set.define_symbol("w", span).unwrap();
        let image = vec![fill; span];
        set.copy_to("w", 0, &image).unwrap();

        let shared = set.system().mram_residency();
        prop_assert_eq!(shared.distinct_pages, 2, "broadcast stores each page once");

        let n = wdata.len() & !7;
        let addr = (waddr & !7).min(span - 256);
        set.copy_to_dpu(DpuId(writer as u32), "w", addr, &wdata[..n]).unwrap();

        // Every non-writer still reads the pristine broadcast image.
        for d in 0..n_dpus {
            if d == writer {
                continue;
            }
            let mut back = vec![0u8; span];
            set.copy_from_dpu(DpuId(d as u32), "w", 0, &mut back).unwrap();
            prop_assert_eq!(&back, &image, "DPU {} saw the writer's mutation", d);
        }
        // The writer's COW fork adds at most one private copy per touched
        // page; the broadcast pages themselves are still shared.
        let after = set.system().mram_residency();
        prop_assert!(after.distinct_pages <= 2 + 2, "{} pages", after.distinct_pages);
    }

    /// Resilient retry under injected DMA failures and MRAM bit flips:
    /// restoring the external pre-launch snapshot and re-running fault-free
    /// reproduces the clean reference exactly — the fault machinery leaves
    /// no residue — and any DPU served first-try with zero injected faults
    /// already matches the reference.
    #[test]
    fn resilient_retry_with_bitflips_leaves_no_residue(
        seed in any::<u64>(),
        dma_fail in 0.1f64..0.7,
        bit_flip in 0.1f64..0.9,
    ) {
        let n = 6;
        let program = double_program();
        let seeded = |set: &mut DpuSet| {
            set.define_symbol("x", 8).unwrap();
            for i in 0..n {
                set.copy_to_dpu(DpuId(i as u32), "x", 0, &(i as u64 + 1).to_le_bytes())
                    .unwrap();
            }
            set.load(&program).unwrap();
        };

        // Clean reference.
        let mut clean = DpuSet::allocate(n).unwrap();
        seeded(&mut clean);
        clean.launch_loaded(1).unwrap();
        let reference: Vec<u64> =
            (0..n).map(|i| clean.copy_scalar_from(DpuId(i as u32), "x").unwrap()).collect();

        // Faulted run.
        let mut set = DpuSet::allocate(n).unwrap();
        seeded(&mut set);
        let snap = set.snapshot();
        let plan = FaultPlan::new(FaultConfig {
            seed,
            dma_fail_prob: dma_fail,
            bit_flip_prob: bit_flip,
            ..FaultConfig::default()
        });
        let policy =
            ResilientLaunchPolicy { max_retries: 4, ..ResilientLaunchPolicy::with_faults(plan) };
        set.set_parallel_threshold(Some(usize::MAX));
        let report = set.launch_loaded_resilient(1, &policy).unwrap();

        // First-try fault-free serves match the clean reference bit-for-bit.
        let first_try = |r: &Incident| r.attempts == 1 && r.faults.is_empty();
        for (i, &expected) in reference.iter().enumerate() {
            if report.incident(i).is_none_or(|r| first_try(r) && r.served_by.is_none()) {
                prop_assert_eq!(
                    set.copy_scalar_from(DpuId(i as u32), "x").unwrap(),
                    expected,
                    "clean serve diverged on DPU {}",
                    i
                );
            }
        }

        // Roll back and re-run without faults: bit-identical to reference.
        set.restore(&snap).unwrap();
        set.launch_loaded(1).unwrap();
        for (i, &expected) in reference.iter().enumerate() {
            prop_assert_eq!(set.copy_scalar_from(DpuId(i as u32), "x").unwrap(), expected);
        }
    }
}
