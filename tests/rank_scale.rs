//! Rank-scale simulation: the eBNN tier-1 conv kernel launched across
//! hundreds-to-thousands of DPUs, with the COW MRAM arena keeping the
//! footprint bounded (broadcast weight pages stored once) and whole-set
//! snapshots replaying bit-identically; and the serving shape, a
//! double-buffered eBNN engine with one busy DPU, whose idle DPUs share
//! the pages their staging writes.
//!
//! The paper's system is 2,560 DPUs over 40 ranks; the `#[ignore]`d smoke
//! test runs that full shape under a peak-RSS ceiling (CI runs it in the
//! `rank-scale` job with `--release -- --ignored`). The 256-DPU variants
//! run in the normal suite.

use dpu_sim::asm::assemble;
use dpu_sim::{DpuId, MRAM_PAGE_BYTES};
use ebnn::bconv::{conv3x3_packed, BinaryFilter, BinaryImage};
use ebnn::codegen::Tier1Engine;
use ebnn::{EbnnModel, ModelConfig, IMAGES_PER_DPU, IMAGE_DIM};
use pim_host::DpuSet;

const IMG_BASE: u32 = 0x100;
const FILTER_BASE: u32 = 0x200;
const OUT_BASE: i32 = 0x300;
const OUT_BYTES: usize = IMAGE_DIM * IMAGE_DIM;

/// The tier-1 eBNN conv kernel (see `tier1_ebnn_kernel.rs`), staged
/// through MRAM: DMA the packed image and filter in, convolve, DMA the
/// 784-byte output map back out.
fn conv_program(in_addr: usize, out_addr: usize) -> dpu_sim::Program {
    assemble(&format!(
        "\
        movi r1, {IMG_BASE}\n\
        movi r2, {in_addr}\n\
        movi r3, 112\n\
        mram.read r1, r2, r3\n\
        movi r1, {FILTER_BASE}\n\
        movi r2, {filter_addr}\n\
        movi r3, 16\n\
        mram.read r1, r2, r3\n\
        movi r9, {FILTER_BASE}\n\
        lw r20, r9, 0\n\
        lw r21, r9, 4\n\
        lw r22, r9, 8\n\
        movi r23, 7\n\
        movi r12, {dim}\n\
        movi r1, 0\n\
        rowloop:\n\
        movi r2, 0\n\
        colloop:\n\
        movi r3, 0\n\
        lsli r4, r1, 2\n\
        addi r4, r4, {img_minus4}\n\
        lw r5, r4, 0\n\
        lsli r5, r5, 1\n\
        lsr r6, r5, r2\n\
        xor r6, r6, r20\n\
        xor r6, r6, r23\n\
        and r6, r6, r23\n\
        popcount r7, r6\n\
        add r3, r3, r7\n\
        lw r5, r4, 4\n\
        lsli r5, r5, 1\n\
        lsr r6, r5, r2\n\
        xor r6, r6, r21\n\
        xor r6, r6, r23\n\
        and r6, r6, r23\n\
        popcount r7, r6\n\
        add r3, r3, r7\n\
        lw r5, r4, 8\n\
        lsli r5, r5, 1\n\
        lsr r6, r5, r2\n\
        xor r6, r6, r22\n\
        xor r6, r6, r23\n\
        and r6, r6, r23\n\
        popcount r7, r6\n\
        add r3, r3, r7\n\
        lsli r3, r3, 1\n\
        addi r3, r3, -9\n\
        lsli r10, r1, 5\n\
        lsli r11, r1, 2\n\
        sub r10, r10, r11\n\
        add r10, r10, r2\n\
        sb r10, {out}, r3\n\
        addi r2, r2, 1\n\
        bne r2, r12, colloop\n\
        addi r1, r1, 1\n\
        bne r1, r12, rowloop\n\
        movi r1, {out}\n\
        movi r2, {out_addr}\n\
        movi r3, {out_len}\n\
        mram.write r1, r2, r3\n\
        halt\n",
        dim = IMAGE_DIM,
        img_minus4 = IMG_BASE - 4,
        out = OUT_BASE,
        filter_addr = in_addr + 112,
        out_len = crate_align8(OUT_BYTES),
    ))
    .expect("conv kernel assembles")
}

fn crate_align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

fn test_image(seed: u32) -> BinaryImage {
    let px: Vec<u8> = (0..IMAGE_DIM * IMAGE_DIM)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed.wrapping_mul(97));
            (h >> 24) as u8
        })
        .collect();
    BinaryImage::from_gray(&px, IMAGE_DIM, IMAGE_DIM, 128)
}

/// Build the broadcast block: image rows + filter at the front, then
/// synthetic weight filler out to a whole number of MRAM pages — the
/// shape of an eBNN deep model's resident weights.
fn broadcast_block(img: &BinaryImage, filter: &BinaryFilter, pages: usize) -> Vec<u8> {
    let mut blk = vec![0u8; pages * MRAM_PAGE_BYTES];
    for (r, &word) in img.rows.iter().enumerate() {
        blk[4 * r..4 * r + 4].copy_from_slice(&word.to_le_bytes());
    }
    for (r, &row) in filter.rows.iter().enumerate() {
        blk[112 + 4 * r..112 + 4 * r + 4].copy_from_slice(&u32::from(row).to_le_bytes());
    }
    for (i, b) in blk.iter_mut().enumerate().skip(128) {
        *b = (i % 253) as u8;
    }
    blk
}

/// Stage, launch, and verify the kernel across `n` DPUs. Returns the set
/// (post-launch) and the number of broadcast pages.
fn launch_at_scale(n: usize) -> (DpuSet, usize) {
    const WEIGHT_PAGES: usize = 16; // 1 MiB of broadcast-resident weights
    let img = test_image(11);
    let filter = BinaryFilter::from_u16(0b101_010_101);
    let mut set = DpuSet::allocate(n).expect("alloc");
    let blk = set.define_symbol("blk", WEIGHT_PAGES * MRAM_PAGE_BYTES).expect("blk");
    let out = set.define_symbol("out", crate_align8(OUT_BYTES)).expect("out");
    set.copy_to("blk", 0, &broadcast_block(&img, &filter, WEIGHT_PAGES)).expect("broadcast");

    let program = conv_program(blk.offset, out.offset);
    set.launch(&program, 1).expect("launch");

    // Spot-check DPUs across the set against the host reference kernel.
    let stride = (n / 7).max(1);
    for d in (0..n).step_by(stride).chain([n - 1]) {
        let mut wire = vec![0u8; crate_align8(OUT_BYTES)];
        set.copy_from_dpu(DpuId(d as u32), "out", 0, &mut wire).expect("gather");
        for (row, col) in [(0usize, 0usize), (13, 13), (27, 27), (5, 21)] {
            let got = wire[row * IMAGE_DIM + col] as i8;
            assert_eq!(got, conv3x3_packed(&img, &filter, row, col), "DPU {d} ({row},{col})");
        }
    }
    (set, WEIGHT_PAGES)
}

/// The serving shape on `n` DPUs: a double-buffered eBNN engine with
/// one busy DPU, staged on both buffers and launched. Every idle DPU
/// receives the same `n_images = 0` record, so after each staging the
/// set holds at most one distinct MRAM page per busy DPU plus a few
/// shared ones; the busy DPU's features match the host model.
fn serving_shape(n: usize) {
    let model = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
    let images: Vec<_> =
        (0..IMAGES_PER_DPU).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();
    let mut engine = Tier1Engine::with_buffers(&model, n, 2, false).expect("engine builds");
    let busy = 1;
    for buf in 0..2 {
        engine.stage(&model, &images, buf).expect("stage");
        let res = engine.set().system().mram_residency();
        assert!(res.distinct_pages <= busy + 4, "buffer {buf}: {res:?}");
    }
    let (report, _) = engine.launch(false, None).expect("launch");
    assert!(report.incidents.is_empty(), "a clean launch");
    let (features, _) = engine.gather(1).expect("gather");
    for (image, got) in images.iter().zip(&features) {
        assert_eq!(*got, model.features(&model.binarize(&image.pixels)));
    }
}

#[test]
fn rank_256_serving_shape_shares_idle_pages() {
    serving_shape(256);
}

fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: usize = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[test]
fn rank_256_launch_is_correct_bounded_and_replayable() {
    let n = 256;
    let (mut set, weight_pages) = launch_at_scale(n);
    assert_eq!(set.system().ranks().len(), 4, "256 DPUs = 4 ranks");

    // The broadcast weight image is stored once; per-DPU private state is
    // a page or two (the output landing page), not 64 MiB.
    let res = set.system().mram_residency();
    assert_eq!(res.logical_bytes, n * 64 * 1024 * 1024);
    assert!(
        res.distinct_pages <= weight_pages + 2 * n,
        "{} distinct pages for {n} DPUs",
        res.distinct_pages
    );
    assert!(
        res.distinct_bytes <= res.logical_bytes / 100,
        "arena {} B should be <1% of dense {} B",
        res.distinct_bytes,
        res.logical_bytes
    );
    assert!(res.shared_savings_bytes() > 0, "broadcast pages are shared");

    // Whole-set snapshot, clobber everywhere, restore: bit-identical.
    let snap = set.snapshot();
    let mut first = vec![0u8; crate_align8(OUT_BYTES)];
    set.copy_from_dpu(DpuId(17), "out", 0, &mut first).unwrap();
    set.copy_to("out", 0, &[0u8; 8]).unwrap();
    set.restore(&snap).unwrap();
    let mut replay = vec![0u8; crate_align8(OUT_BYTES)];
    set.copy_from_dpu(DpuId(17), "out", 0, &mut replay).unwrap();
    assert_eq!(first, replay, "snapshot restore preserves results");
}

/// The paper's full machine: 2,560 DPUs over 40 ranks. Run by the CI
/// `rank-scale` job (`cargo test --release --test rank_scale -- --ignored`);
/// ignored in the default suite for time.
#[test]
#[ignore = "full-scale smoke: run with --release -- --ignored"]
fn rank_2560_smoke_under_memory_ceiling() {
    let n = 2560;
    serving_shape(n);
    let (set, weight_pages) = launch_at_scale(n);
    assert_eq!(set.system().ranks().len(), 40, "2,560 DPUs = 40 ranks");

    let res = set.system().mram_residency();
    assert_eq!(res.logical_bytes, n * 64 * 1024 * 1024); // 160 GiB dense
    assert!(
        res.distinct_pages <= weight_pages + 2 * n,
        "{} distinct pages for {n} DPUs",
        res.distinct_pages
    );
    // The arena holds <0.3% of the dense footprint.
    assert!(
        res.distinct_bytes <= 512 * 1024 * 1024,
        "arena footprint {} B exceeds 512 MiB",
        res.distinct_bytes
    );

    // Whole-process ceiling: well below dense 160 GiB, and about 1.5× the
    // 240 MiB this binary peaks at on x86-64 Linux with the 256-DPU tests
    // running beside this one (190 MiB alone; 2,560 × 64 KiB of dense WRAM
    // is 160 MiB of it), which bounds WRAM + arena + pool + harness.
    const CEILING_MIB: usize = 360;
    if let Some(rss) = peak_rss_bytes() {
        eprintln!("peak RSS {} MiB", rss >> 20);
        assert!(rss < CEILING_MIB << 20, "peak RSS {rss} B exceeds {CEILING_MIB} MiB");
    }
}
