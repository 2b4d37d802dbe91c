//! Tier-1 validation of the eBNN convolution: the binary 3×3 convolution
//! written in actual DPU assembly, executed instruction-by-instruction on
//! the interpreter, must produce bit-identical results to the Rust kernel
//! the Tier-2 pipeline uses — and its cycle count grounds the Tier-2
//! charge model for the conv portion.

use dpu_sim::asm::assemble;
use dpu_sim::Machine;
use ebnn::bconv::{conv3x3_packed, BinaryFilter, BinaryImage};
use ebnn::IMAGE_DIM;

/// WRAM layout used by the kernel.
const IMG_BASE: u32 = 0x100; // 28 packed u32 rows (zero guard words around)
const FILTER_BASE: u32 = 0x200; // 3 u32 words, low 3 bits each
const OUT_BASE: i32 = 0x300; // 28*28 output bytes (conv value as i8)

/// The conv kernel in DPU assembly: one filter over the whole image,
/// SAME padding via zero guard words above and below the row array.
fn conv_program() -> dpu_sim::Program {
    assemble(&format!(
        "\
        movi r9, {FILTER_BASE}\n\
        lw r20, r9, 0        ; filter row 0\n\
        lw r21, r9, 4        ; filter row 1\n\
        lw r22, r9, 8        ; filter row 2\n\
        movi r23, 7          ; 3-bit mask\n\
        movi r12, {dim}\n\
        movi r1, 0           ; row\n\
        rowloop:\n\
        movi r2, 0           ; col\n\
        colloop:\n\
        movi r3, 0           ; matches\n\
        lsli r4, r1, 2\n\
        addi r4, r4, {img_minus4} ; &rows[row-1] (guard word when row=0)\n\
        lw r5, r4, 0         ; fr = 0\n\
        lsli r5, r5, 1\n\
        lsr r6, r5, r2\n\
        xor r6, r6, r20\n\
        xor r6, r6, r23\n\
        and r6, r6, r23\n\
        popcount r7, r6\n\
        add r3, r3, r7\n\
        lw r5, r4, 4         ; fr = 1\n\
        lsli r5, r5, 1\n\
        lsr r6, r5, r2\n\
        xor r6, r6, r21\n\
        xor r6, r6, r23\n\
        and r6, r6, r23\n\
        popcount r7, r6\n\
        add r3, r3, r7\n\
        lw r5, r4, 8         ; fr = 2\n\
        lsli r5, r5, 1\n\
        lsr r6, r5, r2\n\
        xor r6, r6, r22\n\
        xor r6, r6, r23\n\
        and r6, r6, r23\n\
        popcount r7, r6\n\
        add r3, r3, r7\n\
        lsli r3, r3, 1       ; v = 2*matches - 9\n\
        addi r3, r3, -9\n\
        lsli r10, r1, 5      ; out index = row*28 + col\n\
        lsli r11, r1, 2\n\
        sub r10, r10, r11\n\
        add r10, r10, r2\n\
        sb r10, {out}, r3\n\
        addi r2, r2, 1\n\
        bne r2, r12, colloop\n\
        addi r1, r1, 1\n\
        bne r1, r12, rowloop\n\
        halt\n",
        dim = IMAGE_DIM,
        img_minus4 = IMG_BASE - 4,
        out = OUT_BASE,
    ))
    .expect("conv kernel assembles")
}

fn load_inputs(m: &mut Machine, img: &BinaryImage, filter: &BinaryFilter) {
    for (r, &word) in img.rows.iter().enumerate() {
        m.wram.write_u32(IMG_BASE as usize + 4 * r, word).expect("image row");
    }
    for (r, &row) in filter.rows.iter().enumerate() {
        m.wram.write_u32(FILTER_BASE as usize + 4 * r, u32::from(row)).expect("filter row");
    }
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

#[test]
fn assembly_conv_matches_rust_kernel_bitwise() {
    for (seed, fbits) in [(1u32, 0b101_010_101u16), (7, 0b111_000_111), (42, 0b001_110_100)] {
        let img = test_image(seed);
        let filter = BinaryFilter::from_u16(fbits);
        let program = conv_program();
        let mut m = Machine::default();
        load_inputs(&mut m, &img, &filter);
        m.run(&program, 1).expect("kernel runs");
        for row in 0..IMAGE_DIM {
            for col in 0..IMAGE_DIM {
                let got = m.wram.read_u8(OUT_BASE as usize + row * IMAGE_DIM + col).unwrap() as i8;
                let want = conv3x3_packed(&img, &filter, row, col);
                assert_eq!(got, want, "seed {seed} pixel ({row},{col})");
            }
        }
    }
}

#[test]
fn assembly_conv_cycles_ground_the_tier2_charges() {
    // The Tier-2 eBNN kernel charges ~17 ALU + 3 loads + 1 store +
    // addressing per conv output pixel. The real assembly kernel runs 35
    // instructions per pixel — the Tier-2 charge (with -O0 overhead
    // applied) must agree within 2x, which bounds how far the end-to-end
    // eBNN latency can drift.
    let img = test_image(3);
    let filter = BinaryFilter::from_u16(0b010_101_010);
    let program = conv_program();
    let mut m = Machine::default();
    load_inputs(&mut m, &img, &filter);
    let res = m.run(&program, 1).expect("kernel runs");
    let pixels = (IMAGE_DIM * IMAGE_DIM) as u64;
    let instr_per_pixel = res.instructions / pixels;
    assert!(
        (30..=40).contains(&instr_per_pixel),
        "assembly kernel runs {instr_per_pixel} instructions/pixel"
    );
    // Single tasklet: cycles ≈ 11 × instructions.
    let cyc_per_pixel = res.cycles / pixels;
    assert!(
        (instr_per_pixel * 11).abs_diff(cyc_per_pixel) <= 11,
        "cycles/pixel {cyc_per_pixel} vs 11x instructions {instr_per_pixel}"
    );
}

#[test]
fn assembly_conv_scales_with_tasklets() {
    // Run the same kernel with each tasklet handling the whole image into
    // a disjoint output region is unnecessary — here we simply verify the
    // kernel is reentrant across tasklets (all compute the same output)
    // and that 11 tasklets do not change the functional result.
    let img = test_image(5);
    let filter = BinaryFilter::from_u16(0b100_010_001);
    let program = conv_program();
    let mut m = Machine::default();
    load_inputs(&mut m, &img, &filter);
    let res11 = m.run(&program, 11).expect("kernel runs");
    for row in [0usize, 13, 27] {
        for col in [0usize, 13, 27] {
            let got = m.wram.read_u8(OUT_BASE as usize + row * IMAGE_DIM + col).unwrap() as i8;
            assert_eq!(got, conv3x3_packed(&img, &filter, row, col));
        }
    }
    // 11 tasklets doing 11x the work take about as long as 1 tasklet doing
    // it once: the pipeline fills.
    let mut m1 = Machine::default();
    load_inputs(&mut m1, &img, &filter);
    let res1 = m1.run(&program, 1).expect("kernel runs");
    let ratio = res11.cycles as f64 / res1.cycles as f64;
    assert!(ratio < 1.15, "11 tasklets / 1 tasklet cycle ratio {ratio}");
}

#[test]
fn generated_full_program_matches_model_and_tier2_costs() {
    // The generated Tier-1 eBNN program (ebnn::codegen) is the strongest
    // calibration cross-check: functionally identical to the model, and
    // its measured cycles bracket the Tier-2 estimates the way compiler
    // optimization levels should — the O3 estimate within ~20 %, the O0
    // estimate ~2x higher (stack-traffic overhead the generated assembly
    // doesn't have).
    use ebnn::{EbnnModel, EbnnPipeline, ModelConfig};
    let model = EbnnModel::generate(ModelConfig::default()); // 8 filters
    let imgs: Vec<_> = (0..16).map(|i| ebnn::mnist::synth_digit(i % 10, i as u64)).collect();

    let tier1 = ebnn::codegen::run_tier1_batch(&model, &imgs, ebnn::BatchSpec::default()).unwrap();
    for (i, img) in imgs.iter().enumerate() {
        assert_eq!(tier1.features[i], model.features(&model.binarize(&img.pixels)), "image {i}");
    }

    let t1 = tier1.report.makespan_cycles();
    let t2_o0 = EbnnPipeline::new(model.clone()).infer(&imgs).unwrap().makespan_cycles;
    let t2_o3 = EbnnPipeline::new(model)
        .with_opt(pim_host::OptLevel::O3)
        .infer(&imgs)
        .unwrap()
        .makespan_cycles;
    let r_o3 = t2_o3 as f64 / t1 as f64;
    let r_o0 = t2_o0 as f64 / t1 as f64;
    assert!((0.6..=1.4).contains(&r_o3), "O3 estimate / tier1 = {r_o3:.2}");
    assert!((1.5..=3.5).contains(&r_o0), "O0 estimate / tier1 = {r_o0:.2}");
}
