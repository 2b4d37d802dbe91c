//! Cross-crate property tests: invariants that hold across the host
//! runtime, the simulator, and the CNN pipelines for arbitrary inputs.

use dpu_sim::DpuId;
use pim_host::{pad_to_8, padded_len, DpuSet, PaddedBuf};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte buffer survives a padded round trip through a DPU's MRAM.
    #[test]
    fn mram_round_trip_any_buffer(data in proptest::collection::vec(any::<u8>(), 1..512)) {
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", padded_len(data.len())).unwrap();
        let padded = PaddedBuf::new(&data);
        set.copy_to("buf", 0, &padded.data).unwrap();
        let mut back = vec![0u8; padded.data.len()];
        set.copy_from_dpu(DpuId(0), "buf", 0, &mut back).unwrap();
        prop_assert_eq!(&back[..data.len()], &data[..]);
    }

    /// Scatter/gather is the identity on per-DPU buffers.
    #[test]
    fn scatter_gather_identity(
        n_dpus in 1usize..6,
        len8 in 1usize..16,
        seed in any::<u64>(),
    ) {
        let len = len8 * 8;
        let mut set = DpuSet::allocate(n_dpus).unwrap();
        set.define_symbol("row", len).unwrap();
        let buffers: Vec<Vec<u8>> = (0..n_dpus)
            .map(|d| (0..len).map(|i| ((seed as usize + d * 31 + i * 7) % 256) as u8).collect())
            .collect();
        set.copy_each("row", 0, len, |dpu| &buffers[dpu.0 as usize]).unwrap();
        let gathered: Vec<Vec<u8>> = (0..n_dpus as u32)
            .map(|d| {
                let mut row = vec![0u8; len];
                set.copy_from_dpu(DpuId(d), "row", 0, &mut row).unwrap();
                row
            })
            .collect();
        prop_assert_eq!(gathered, buffers);
    }

    /// Padding never loses or alters payload bytes and always reaches a
    /// multiple of 8.
    #[test]
    fn padding_is_lossless(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let p = pad_to_8(&data);
        prop_assert_eq!(p.len() % 8, 0);
        prop_assert_eq!(&p[..data.len()], &data[..]);
        prop_assert!(p[data.len()..].iter().all(|&b| b == 0));
    }

    /// The eBNN DPU kernel agrees with the host reference for arbitrary
    /// images under both BN back-ends.
    #[test]
    fn ebnn_kernel_matches_reference_for_random_images(
        pixels in proptest::collection::vec(any::<u8>(), 28 * 28),
    ) {
        use dpu_sim::cost::OpCounts;
        use dpu_sim::Profiler;
        let model = ebnn::EbnnModel::generate(ebnn::ModelConfig {
            filters: 3,
            ..ebnn::ModelConfig::default()
        });
        let img = model.binarize(&pixels);
        let expected = model.features(&img);
        let lut = ebnn::BnLut::for_conv3x3(&model.bn);
        for mode in [ebnn::BnMode::Float(&model.bn), ebnn::BnMode::Lut(&lut)] {
            let mut tally = OpCounts::default();
            let mut prof = Profiler::new();
            let out = ebnn::conv_pool_block(&img, &model.filters, mode, &mut tally, &mut prof);
            prop_assert_eq!(&out.features, &expected);
        }
    }

    /// GEMM row decomposition (the Fig. 4.6 mapping) equals the monolithic
    /// GEMM through simulated MRAM for arbitrary small matrices.
    #[test]
    fn mapped_gemm_equals_host_gemm(
        m in 1usize..4,
        n in 1usize..12,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        use yolo_pim::{gemm, GemmDims, GemmMapping};
        let dims = GemmDims { m, n, k };
        let next = |state: &mut u64| {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((*state >> 33) % 201) as i16 - 100
        };
        let mut state = seed;
        let a: Vec<i16> = (0..m * k).map(|_| next(&mut state)).collect();
        let b: Vec<i16> = (0..k * n).map(|_| next(&mut state)).collect();
        let mut host = vec![0i16; m * n];
        gemm(dims, 1, &a, &b, &mut host);
        let (dpu, report) = GemmMapping::default().run_layer(dims, 1, &a, &b).unwrap();
        prop_assert_eq!(dpu, host);
        prop_assert_eq!(report.dpus, m);
    }

    /// Tier-2 cycle estimates are monotone: more work never costs fewer
    /// cycles, at any tasklet count.
    #[test]
    fn cycle_estimates_monotone_in_work(
        base in 1u64..10_000,
        extra in 1u64..10_000,
        tasklets in 1usize..24,
    ) {
        use dpu_sim::cost::{CycleModel, OpCounts};
        let model = CycleModel::default();
        let mk = |alu: u64| OpCounts { alu, ..OpCounts::default() };
        let small = model.estimate_items(&mk(1), base, tasklets);
        let large = model.estimate_items(&mk(1), base + extra, tasklets);
        prop_assert!(large.cycles >= small.cycles);
    }

    /// The Chapter-5 computation model is monotone in TOPs and antitone in
    /// PEs for every architecture and operand width.
    #[test]
    fn analytic_model_monotonicity(
        tops in 1.0e3f64..1.0e9,
        factor in 1.1f64..10.0,
    ) {
        use pim_model::{OperandBits, Workload};
        for a in pim_model::arch::table_5_4_lineup() {
            if a.name == "UPMEM" { continue; }
            for x in OperandBits::ALL {
                let small = a.latency_nominal(&Workload::custom("s", tops), x);
                let large = a.latency_nominal(&Workload::custom("l", tops * factor), x);
                prop_assert!(large > small, "{} at {:?}", a.name, x);
            }
        }
    }
}
