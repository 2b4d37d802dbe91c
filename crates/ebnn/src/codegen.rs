//! Tier-1 code generation: emit the complete eBNN Convolution-Pool DPU
//! program as assembly and run batches through it at instruction level.
//!
//! This is the repository's strongest fidelity path: the same inference the
//! Tier-2 pipeline performs (multi-image-per-DPU, LUT-rewritten BN, §4.1)
//! executes as an actual DPU program — per-tasklet image DMA, a shared
//! filter/LUT load behind a barrier, the bit-packed convolution, LUT
//! activation, and the feature write-back DMA. The integration tests
//! compare its output bit-for-bit against [`crate::model::EbnnModel`] and
//! its cycle counts against the Tier-2 estimates.
//!
//! ## WRAM layout (generated constants)
//!
//! ```text
//! 0x0000  params        n_images, stride, image/feature MRAM bases (16 B)
//! 0x0040  image slots   16 × 128 B (row r of image i at slot+4+4r;
//!                       offsets 0..4 and 116..128 are zero guards, giving
//!                       the conv its −1 padding for free)
//! 0x0840  filters       F × 16 B (3 packed u32 rows + pad)
//! ....    LUT           19 × F bytes
//! ....    features      16 records of F×196 bytes (one byte per feature
//!                       bit), each padded to 8 bytes as written back
//! ```
//!
//! The image and feature **MRAM** base addresses travel in the params
//! record rather than being baked into the program, so a host can stage
//! the next batch into an alternate MRAM buffer while the previous one is
//! still unread — the double-buffered serving mode (`pim-serve`) flips
//! between two image/feature regions with the same loaded program.

use crate::lut::BnLut;
use crate::mnist::GrayImage;
use crate::model::EbnnModel;
use crate::{IMAGES_PER_DPU, IMAGE_DIM, IMAGE_SLOT_BYTES, POOLED_DIM};
use dpu_sim::asm::assemble;
use dpu_sim::{DpuId, Program};
use pim_host::{DpuSet, HostError, LaunchReport, LaunchSpec, ResilientLaunchPolicy};
use pim_trace::TraceBuffer;

/// WRAM addresses used by the generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WramLayout {
    /// The 16-byte params record (see [`params_wire`]): image count,
    /// tasklet stride, image and feature MRAM bases.
    pub params: u32,
    /// First image slot.
    pub images: u32,
    /// First filter record (16 bytes each).
    pub filters: u32,
    /// LUT base.
    pub lut: u32,
    /// First feature byte.
    pub features: u32,
    /// Filter count the layout was built for.
    pub n_filters: u32,
}

impl WramLayout {
    /// Layout for `filters` conv filters.
    ///
    /// # Panics
    /// When `filters` is outside `1..=8`: a wider model's 16-slot feature
    /// region would overflow the data region of WRAM.
    #[must_use]
    pub fn new(filters: usize) -> Self {
        assert!(
            filters > 0 && filters <= 8,
            "codegen supports 1..=8 filters (the 16-slot feature region for wider models would \
             overflow WRAM)"
        );
        let params = 0u32;
        let images = 0x40u32;
        let filters_base = images + (IMAGES_PER_DPU * IMAGE_SLOT_BYTES) as u32;
        let lut = filters_base + 16 * filters as u32;
        let features = (lut + 19 * filters as u32 + 7) & !7;
        let record = (filters * POOLED_DIM * POOLED_DIM).div_ceil(8) * 8;
        let end = features + (IMAGES_PER_DPU * record) as u32;
        assert!(end <= 48 * 1024, "layout overflows the WRAM data region: {end:#x}");
        Self { params, images, filters: filters_base, lut, features, n_filters: filters as u32 }
    }

    /// Feature bytes per image.
    #[must_use]
    pub fn features_per_image(&self) -> u32 {
        self.n_filters * (POOLED_DIM * POOLED_DIM) as u32
    }
}

/// Emit the conv-window evaluation for window copy `idx` (labels must be
/// unique): computes the 3×3 XNOR-popcount value at (`row` in r16,
/// `col` in r17) and folds it into the running max in r9.
fn emit_window(idx: usize) -> String {
    format!(
        "\
        lsli r24, r16, 2\n\
        add r24, r24, r3\n\
        addi r24, r24, -4\n\
        movi r10, 0\n\
        lw r25, r24, 0\n\
        lsli r25, r25, 1\n\
        lsr r25, r25, r17\n\
        xor r25, r25, r20\n\
        xor r25, r25, r23\n\
        and r25, r25, r23\n\
        popcount r26, r25\n\
        add r10, r10, r26\n\
        lw r25, r24, 4\n\
        lsli r25, r25, 1\n\
        lsr r25, r25, r17\n\
        xor r25, r25, r21\n\
        xor r25, r25, r23\n\
        and r25, r25, r23\n\
        popcount r26, r25\n\
        add r10, r10, r26\n\
        lw r25, r24, 8\n\
        lsli r25, r25, 1\n\
        lsr r25, r25, r17\n\
        xor r25, r25, r22\n\
        xor r25, r25, r23\n\
        and r25, r25, r23\n\
        popcount r26, r25\n\
        add r10, r10, r26\n\
        lsli r26, r10, 1\n\
        addi r26, r26, -9\n\
        blt r26, r9, wskip{idx}\n\
        mov r9, r26\n\
        wskip{idx}:\n"
    )
}

/// Generate the complete eBNN conv-pool DPU program for `filters` filters.
///
/// Program phases: (1) every tasklet DMAs its own image slot; tasklet 0
/// additionally DMAs params, filters and LUT; (2) barrier; (3) the
/// conv-pool-LUT loops; (4) per-image feature write-back DMA.
///
/// # Panics
/// When `filters` is outside `1..=8` (see [`WramLayout::new`]) or code
/// generation produces invalid assembly (a bug, not an input condition).
#[must_use]
pub fn tier1_program(filters: usize) -> Program {
    let l = WramLayout::new(filters);
    let fpi_pad = (l.features_per_image() as usize).div_ceil(8) * 8;
    let mut s = String::new();

    // ---- phase 1: shared loads (tasklet 0), then a barrier ----
    s.push_str(&format!(
        "\
        me r1\n\
        bne r1, r0, wait0\n\
        movi r3, {par_w}\n\
        movi r4, {par_m}\n\
        movi r5, 16\n\
        mram.read r3, r4, r5\n\
        movi r3, {fil_w}\n\
        movi r4, {fil_m}\n\
        movi r5, {fil_len}\n\
        mram.read r3, r4, r5\n\
        movi r3, {lut_w}\n\
        movi r4, {lut_m}\n\
        movi r5, {lut_len}\n\
        mram.read r3, r4, r5\n\
        wait0: barrier\n\
        lw r2, r0, {par_w}        ; n_images\n\
        lw r18, r0, {par_w4}      ; n_tasklets (stride)\n\
        movi r14, {nf}\n\
        movi r15, {lut_w}\n\
        movi r28, 14\n\
        movi r30, 196\n\
        mov r31, r1               ; my first image\n\
        imgloop: bge r31, r2, done\n\
        ; DMA image slot r31: MRAM images + idx*128 -> WRAM images + idx*128\n\
        lsli r19, r31, 7\n\
        movi r3, {img_w}\n\
        add r3, r3, r19\n\
        lw r4, r0, {par_w8}\n\
        add r4, r4, r19\n\
        movi r5, {slot}\n\
        mram.read r3, r4, r5\n\
        ; r3 = image rows base (+4 past guard), r4 = feature base\n\
        addi r3, r3, 4\n\
        movi r11, {fpi_pad}\n\
        call __mulsi3 r4, r31, r11\n\
        addi r4, r4, {feat_w}\n\
        movi r5, 0\n\
        jloop:\n\
        lsli r6, r5, 4\n\
        addi r6, r6, {fil_w}\n\
        lw r20, r6, 0\n\
        lw r21, r6, 4\n\
        lw r22, r6, 8\n\
        movi r23, 7\n\
        movi r7, 0\n\
        prloop:\n\
        movi r8, 0\n\
        pcloop:\n\
        movi r9, -128\n",
        par_w = l.params,
        par_w4 = l.params + 4,
        par_w8 = l.params + 8,
        par_m = mram::PARAMS,
        fil_w = l.filters,
        fil_m = mram::FILTERS,
        fil_len = 16 * filters,
        lut_w = l.lut,
        lut_m = mram::LUT,
        lut_len = (19 * filters).div_ceil(8) * 8,
        nf = filters,
        img_w = l.images,
        slot = IMAGE_SLOT_BYTES,
        fpi_pad = fpi_pad,
        feat_w = l.features,
    ));

    // Four unrolled windows: (dr, dc) in {0,1}^2.
    for (idx, (dr, dc)) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
        s.push_str(&format!(
            "\
            lsli r16, r7, 1\n\
            addi r16, r16, {dr}\n\
            lsli r17, r8, 1\n\
            addi r17, r17, {dc}\n",
        ));
        s.push_str(&emit_window(idx));
    }
    s.push_str(
        "\
        ; LUT: idx = (best + 9) * F + j\n\
        addi r9, r9, 9\n\
        mul8 r24, r9, r14\n\
        add r24, r24, r5\n\
        add r24, r24, r15\n\
        lb r25, r24, 0\n\
        ; feature byte at out + j*196 + pr*14 + pc\n\
        mul8 r26, r5, r30\n\
        mul8 r27, r7, r28\n\
        add r26, r26, r27\n\
        add r26, r26, r8\n\
        add r26, r26, r4\n\
        sb r26, 0, r25\n\
        addi r8, r8, 1\n\
        bne r8, r28, pcloop\n\
        addi r7, r7, 1\n\
        bne r7, r28, prloop\n\
        addi r5, r5, 1\n\
        bne r5, r14, jloop\n",
    );

    // ---- write back this image's features, then stride to the next ----
    s.push_str(&format!(
        "\
        movi r11, {fpi_pad}\n\
        call __mulsi3 r12, r31, r11\n\
        lw r13, r0, {par_w12}\n\
        add r13, r13, r12\n\
        mram.write r4, r13, r11\n\
        add r31, r31, r18\n\
        jmp imgloop\n\
        done: halt\n",
        fpi_pad = fpi_pad,
        par_w12 = l.params + 12,
    ));

    let program = assemble(&s).expect("generated eBNN program assembles");
    program.validate().expect("generated eBNN program has valid control flow");
    program
}

/// MRAM symbol offsets used by [`run_tier1_batch`] (allocated with
/// `define_at` so the generated program can hard-code them). Only the
/// params, filter and LUT offsets are baked into the program; the image
/// and feature bases travel *inside* the params record, so alternate
/// buffers (double buffering) live at host-chosen offsets past
/// [`mram::FEATURES`].
pub mod mram {
    /// Params record: `[n_images u32][stride u32][img_base u32][feat_base u32]`.
    pub const PARAMS: u32 = 0;
    /// Default image slots (16 × 128 B) — buffer 0.
    pub const IMAGES: u32 = 16;
    /// Filter records (16 × 16 B capacity).
    pub const FILTERS: u32 = IMAGES + 2048;
    /// LUT (up to 19 × 16 bytes, padded).
    pub const LUT: u32 = FILTERS + 256;
    /// Default feature output (16 × up to 3136 B) — buffer 0.
    pub const FEATURES: u32 = LUT + 312;
}

/// Wire encoding of the 16-byte params record the generated program
/// expects: image count, tasklet stride, and the MRAM base addresses of
/// the image and feature buffers this launch should use.
#[must_use]
pub fn params_wire(n_images: u32, stride: u32, img_base: u32, feat_base: u32) -> [u8; 16] {
    let mut w = [0u8; 16];
    w[0..4].copy_from_slice(&n_images.to_le_bytes());
    w[4..8].copy_from_slice(&stride.to_le_bytes());
    w[8..12].copy_from_slice(&img_base.to_le_bytes());
    w[12..16].copy_from_slice(&feat_base.to_le_bytes());
    w
}

/// Binarize and pack one grayscale image into its 128-byte MRAM slot:
/// a 4-byte zero guard, 28 packed rows of 4 bytes, and a zero tail (the
/// guards give the conv its −1 padding for free).
#[must_use]
pub fn encode_slot(model: &EbnnModel, image: &GrayImage) -> Vec<u8> {
    let img = model.binarize(&image.pixels);
    let mut slot = vec![0u8; IMAGE_SLOT_BYTES];
    slot[4..4 + IMAGE_DIM * 4].copy_from_slice(&img.to_bytes());
    slot
}

/// How [`run_tier1_batch`] runs a batch: the choices a
/// [`pim_host::LaunchSpec`] carries, plus the tasklet count.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSpec<'a> {
    /// Tasklets per DPU, tasklet `t` taking the DPU's images `t, t+T,
    /// t+2T, …` — the knob behind the instruction-level Fig. 4.7(a)
    /// measurement. `None` launches one tasklet per image of the fullest
    /// DPU.
    pub tasklets: Option<usize>,
    /// Record one simulator trace per DPU and the host-transfer log.
    /// Observational: features and report are those of an untraced run.
    pub trace: bool,
    /// Launch under this fault-tolerance policy: a DPU that keeps faulting
    /// is quarantined and its chunk recomputed on a survivor. `None` is
    /// the plain launch, the policy's zero-fault case.
    pub policy: Option<&'a ResilientLaunchPolicy>,
}

/// A Tier-1 batch run by [`run_tier1_batch`].
#[derive(Debug, Clone)]
pub struct Tier1Batch {
    /// Per-image binary feature vectors, in input order — the same even
    /// when some images were computed on a stand-in DPU.
    pub features: Vec<Vec<u8>>,
    /// The launch: per-DPU results (every DPU's work was served),
    /// attempts, injected faults, quarantines and re-dispatches.
    pub report: LaunchReport,
    /// One cycle-stamped trace per DPU, in DPU order (empty unless
    /// [`BatchSpec::trace`]).
    pub dpu_traces: Vec<TraceBuffer>,
    /// Host↔MRAM transfers in order: weight and LUT broadcast, params and
    /// image scatter, feature gather (empty unless [`BatchSpec::trace`]).
    pub host_trace: TraceBuffer,
    /// Input-order indices of images whose home DPU was quarantined and
    /// whose features a surviving DPU computed.
    pub redispatched: Vec<usize>,
}

/// Run a batch of any size through the generated Tier-1 program on a
/// one-shot [`Tier1Engine`]: images are chunked 16 per DPU over as many
/// DPUs as that takes (every DPU runs the same program — the
/// SIMD-across-DPUs model of §3.1), launched once and gathered.
///
/// # Errors
/// Host-runtime failures, or — when some DPU's work went unserved (any
/// fault without a policy; with one, a chunk even re-dispatch could not
/// serve) — the first unserved DPU's error.
///
/// # Panics
/// When `images` is empty, the model has more than 8 filters, or
/// [`BatchSpec::tasklets`] is outside `1..=24`.
pub fn run_tier1_batch(
    model: &EbnnModel,
    images: &[GrayImage],
    spec: BatchSpec<'_>,
) -> Result<Tier1Batch, HostError> {
    assert!(!images.is_empty(), "empty batch");
    let dpus = images.len().div_ceil(IMAGES_PER_DPU);
    let mut engine = Tier1Engine::with_buffers(model, dpus, 1, spec.trace)?;
    let slots: Vec<Vec<u8>> = images.iter().map(|g| encode_slot(model, g)).collect();
    engine.stage_slots(&slots, 0, &vec![true; dpus], spec.tasklets)?;
    let (report, dpu_traces) = engine.launch(spec.trace, spec.policy)?;
    let report = report.served()?;
    let (features, _) = engine.gather(0)?;
    let redispatched = report.items(engine.staged_chunks(0).expect("batch staged")).redispatched;
    let host_trace = engine.set.take_host_trace().unwrap_or_default();
    Ok(Tier1Batch { features, report, dpu_traces, host_trace, redispatched })
}

/// Feature bytes per image for `model`, and the same padded to the 8-byte
/// transfer granule.
fn feature_bytes(model: &EbnnModel) -> (usize, usize) {
    let fpi = WramLayout::new(model.config.filters).features_per_image() as usize;
    (fpi, fpi.div_ceil(8) * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    fn model(filters: usize) -> EbnnModel {
        EbnnModel::generate(ModelConfig { filters, ..ModelConfig::default() })
    }

    #[test]
    fn layout_is_disjoint_and_bounded() {
        for f in [1usize, 4, 8] {
            let l = WramLayout::new(f);
            assert!(l.params < l.images);
            assert!(l.images + 2048 <= l.filters);
            assert!(l.filters + 16 * f as u32 <= l.lut);
            assert!(l.lut + 19 * f as u32 <= l.features);
        }
    }

    #[test]
    fn generated_program_fits_iram() {
        for f in [1usize, 4, 8] {
            let p = tier1_program(f);
            assert!(
                p.iram_bytes() <= dpu_sim::params::IRAM_BYTES,
                "{f} filters: {} bytes",
                p.iram_bytes()
            );
        }
    }

    #[test]
    fn tier1_features_match_model_single_image() {
        let m = model(4);
        let imgs = vec![crate::mnist::synth_digit(7, 1)];
        let run = run_tier1_batch(&m, &imgs, BatchSpec::default()).unwrap();
        let expected = m.features(&m.binarize(&imgs[0].pixels));
        assert_eq!(run.features[0], expected);
        assert!(run.report.makespan_cycles() > 0);
    }

    #[test]
    fn tier1_features_match_model_full_batch() {
        let m = model(2);
        let imgs: Vec<_> = (0..16).map(|i| crate::mnist::synth_digit(i % 10, i as u64)).collect();
        let features = run_tier1_batch(&m, &imgs, BatchSpec::default()).unwrap().features;
        for (i, img) in imgs.iter().enumerate() {
            let expected = m.features(&m.binarize(&img.pixels));
            assert_eq!(features[i], expected, "image {i}");
        }
    }

    #[test]
    fn partial_batches_leave_idle_tasklets_quiet() {
        let m = model(2);
        let imgs: Vec<_> = (0..3).map(|i| crate::mnist::synth_digit(i, 0)).collect();
        let features = run_tier1_batch(&m, &imgs, BatchSpec::default()).unwrap().features;
        assert_eq!(features.len(), 3);
        for (i, img) in imgs.iter().enumerate() {
            assert_eq!(features[i], m.features(&m.binarize(&img.pixels)));
        }
    }
}

#[cfg(test)]
mod tasklet_scaling_tests {
    use super::*;
    use crate::model::ModelConfig;

    #[test]
    fn strided_assignment_is_correct_at_every_tasklet_count() {
        let m = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
        let imgs: Vec<_> = (0..7).map(|i| crate::mnist::synth_digit(i, 2)).collect();
        let expected: Vec<Vec<u8>> =
            imgs.iter().map(|g| m.features(&m.binarize(&g.pixels))).collect();
        for t in [1usize, 2, 3, 7, 11] {
            let spec = BatchSpec { tasklets: Some(t), ..BatchSpec::default() };
            let features = run_tier1_batch(&m, &imgs, spec).unwrap().features;
            assert_eq!(features, expected, "tasklets = {t}");
        }
    }

    #[test]
    fn tier1_tasklet_speedup_shows_fig_4_7a_shape() {
        // Instruction-level Fig. 4.7(a): 16 images, varying tasklets.
        let m = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
        let imgs: Vec<_> = (0..16).map(|i| crate::mnist::synth_digit(i % 10, i as u64)).collect();
        let cycles = |t: usize| {
            let spec = BatchSpec { tasklets: Some(t), ..BatchSpec::default() };
            run_tier1_batch(&m, &imgs, spec).unwrap().report.makespan_cycles()
        };
        let c1 = cycles(1) as f64;
        let (s8, s11, s16) =
            (c1 / cycles(8) as f64, c1 / cycles(11) as f64, c1 / cycles(16) as f64);
        // Plateau between 8 and 11 (both need two 8-image waves), jump at 16.
        assert!(s8 > 6.0, "8-tasklet speedup {s8:.2}");
        assert!((s8 - s11).abs() / s8 < 0.08, "plateau: {s8:.2} vs {s11:.2}");
        assert!(s16 > s11 * 1.2, "16-tasklet jump: {s16:.2} vs {s11:.2}");
    }
}

/// Images staged onto one buffer of a [`Tier1Engine`].
#[derive(Debug, Clone)]
struct StagedMeta {
    /// Images per DPU chunk (all [`IMAGES_PER_DPU`] except possibly the
    /// last; DPUs past the chunk list idle with `n_images = 0`).
    chunk_lens: Vec<usize>,
}

/// A persistent multi-DPU Tier-1 executor: the DPU set is allocated once,
/// the weights and LUT are broadcast once (as shared COW pages), and the
/// program is loaded once — each batch afterwards stages only its params
/// and image slots, launches, and gathers features. Every Tier-1 eBNN
/// batch runs on one: the `pim-serve` runtime keeps it for the life of the
/// service, [`run_tier1_batch`] builds one per batch.
///
/// With `buffers == 2` the engine holds two image/feature MRAM regions
/// and the params record (staged per batch) selects which one a launch
/// reads and writes — so batch *N+1* can be staged while batch *N*'s
/// features are still unread (the double-buffered serving pipeline).
#[derive(Debug)]
pub struct Tier1Engine {
    set: DpuSet,
    dpus: usize,
    fpi: usize,
    fpi_pad: usize,
    img_base: Vec<u32>,
    feat_base: Vec<u32>,
    staged: Vec<Option<StagedMeta>>,
    tasklets: usize,
    golden: pim_host::SetSnapshot,
}

impl Tier1Engine {
    /// Build a single-buffer engine over `dpus` DPUs.
    ///
    /// # Errors
    /// Host-runtime failures (allocation, staging).
    ///
    /// # Panics
    /// When `dpus` is zero or the model has more than 8 filters.
    pub fn new(model: &EbnnModel, dpus: usize) -> Result<Self, HostError> {
        Self::with_buffers(model, dpus, 1, false)
    }

    /// Build an engine with `buffers` (1 or 2) image/feature buffer pairs,
    /// optionally recording host transfers. The MRAM symbols are defined
    /// in order — so they land at the offsets in [`mram`], which the
    /// program hard-codes — then the filters and the LUT are broadcast
    /// and [`tier1_program`] is loaded.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `dpus` is zero, `buffers` is not 1 or 2, or the model has more
    /// than 8 filters.
    pub fn with_buffers(
        model: &EbnnModel,
        dpus: usize,
        buffers: usize,
        trace: bool,
    ) -> Result<Self, HostError> {
        assert!(dpus > 0, "engine needs at least one DPU");
        assert!(buffers == 1 || buffers == 2, "1 or 2 buffers");
        let filters = model.config.filters;
        let (fpi, fpi_pad) = feature_bytes(model);
        let mut set = DpuSet::allocate(dpus)?;
        if trace {
            set.enable_host_tracing();
        }
        set.define_symbol("params", 16)?;
        set.define_symbol("images", 2048)?;
        set.define_symbol("filters", 256)?;
        set.define_symbol("lut", 312)?;
        set.define_symbol("features", IMAGES_PER_DPU * fpi_pad)?;
        let mut img_base = vec![mram::IMAGES];
        let mut feat_base = vec![mram::FEATURES];
        if buffers == 2 {
            img_base.push(set.define_symbol("images_alt", 2048)?.offset as u32);
            feat_base
                .push(set.define_symbol("features_alt", IMAGES_PER_DPU * fpi_pad)?.offset as u32);
        }

        // Shared weights/LUT broadcast once for the life of the engine.
        let mut filter_wire = vec![0u8; 16 * filters];
        for (j, f) in model.filters.iter().enumerate() {
            for (r, &row) in f.rows.iter().enumerate() {
                filter_wire[j * 16 + 4 * r..j * 16 + 4 * r + 4]
                    .copy_from_slice(&u32::from(row).to_le_bytes());
            }
        }
        set.copy_to("filters", 0, &pim_host::pad_to_8(&filter_wire))?;
        let lut = BnLut::for_conv3x3(&model.bn);
        set.copy_to("lut", 0, &pim_host::pad_to_8(&lut.to_bytes()))?;
        set.load(&tier1_program(filters))?;

        // Pristine weights-loaded state. Fault-armed launches can leave
        // quarantined DPUs' MRAM corrupted (their last failed attempt is
        // kept for diagnosis); restoring this snapshot before the next
        // staging guarantees clean weight pages at O(dirty pages) cost.
        let golden = set.snapshot();
        Ok(Self {
            set,
            dpus,
            fpi,
            fpi_pad,
            img_base,
            feat_base,
            staged: vec![None; buffers],
            tasklets: 1,
            golden,
        })
    }

    /// Images one batch can hold (`dpus × 16`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.dpus * IMAGES_PER_DPU
    }

    /// DPUs in the underlying set.
    #[must_use]
    pub fn dpus(&self) -> usize {
        self.dpus
    }

    /// Image/feature buffer pairs (1 = serial, 2 = double-buffered).
    #[must_use]
    pub fn buffers(&self) -> usize {
        self.img_base.len()
    }

    /// Feature bytes produced per image.
    #[must_use]
    pub fn features_per_image(&self) -> usize {
        self.fpi
    }

    /// The underlying set (engine pin, parallel threshold, trace access).
    #[must_use]
    pub fn set(&self) -> &DpuSet {
        &self.set
    }

    /// Mutable access to the underlying set.
    pub fn set_mut(&mut self) -> &mut DpuSet {
        &mut self.set
    }

    /// Restore the pristine weights-loaded state captured at build time.
    /// Staged batches are forgotten. Call after a fault-armed launch
    /// before staging the next batch.
    ///
    /// # Errors
    /// Never in practice (the snapshot matches the set by construction).
    pub fn restore_golden(&mut self) -> Result<(), HostError> {
        self.set.restore(&self.golden)?;
        for s in &mut self.staged {
            *s = None;
        }
        Ok(())
    }

    /// Arm (or disarm) the SEC-DED MRAM sidecar on every DPU, then
    /// refresh the golden snapshot: snapshots carry the ECC state and
    /// sidecar pages with them, so without the refresh the next
    /// [`Tier1Engine::restore_golden`] would silently revert the ECC
    /// setting to what it was at build time.
    pub fn enable_ecc(&mut self, on: bool) {
        self.set.enable_ecc(on);
        self.golden = self.set.snapshot();
    }

    /// Stage up to [`Tier1Engine::capacity`] pre-encoded 128-byte image
    /// slots (see [`encode_slot`]) into buffer `buf`, making it the launch
    /// target. DPUs beyond the staged chunks idle (`n_images = 0`).
    /// Returns the bytes written over the host link.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `slots` is empty or oversized, a slot is not 128 bytes, or
    /// `buf` is out of range.
    pub fn stage_encoded(&mut self, slots: &[Vec<u8>], buf: usize) -> Result<u64, HostError> {
        let live = vec![true; self.dpus];
        self.stage_encoded_live(slots, buf, &live)
    }

    /// [`Tier1Engine::stage_encoded`] restricted to the DPUs marked live:
    /// 16-image chunks land on live DPUs in index order and every other
    /// DPU idles (`n_images = 0`). The serving circuit breaker uses this
    /// to keep traffic off ejected ranks while their pages heal.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `slots` is empty or exceeds the live DPUs' capacity, `live`
    /// does not cover every DPU (or marks none live), a slot is not 128
    /// bytes, or `buf` is out of range.
    pub fn stage_encoded_live(
        &mut self,
        slots: &[Vec<u8>],
        buf: usize,
        live: &[bool],
    ) -> Result<u64, HostError> {
        self.stage_slots(slots, buf, live, None)
    }

    /// [`Tier1Engine::stage_encoded_live`] with the launch's tasklet
    /// count: `Some(t)` strides every DPU's images over `t` tasklets (see
    /// [`BatchSpec::tasklets`]), `None` gives each image of the fullest
    /// chunk its own.
    fn stage_slots(
        &mut self,
        slots: &[Vec<u8>],
        buf: usize,
        live: &[bool],
        tasklets: Option<usize>,
    ) -> Result<u64, HostError> {
        assert!(!slots.is_empty(), "empty batch");
        assert_eq!(live.len(), self.dpus, "live mask must cover every DPU");
        let targets: Vec<usize> = (0..self.dpus).filter(|&d| live[d]).collect();
        assert!(!targets.is_empty(), "at least one DPU must be live");
        assert!(slots.len() <= targets.len() * IMAGES_PER_DPU, "batch exceeds live capacity");
        assert!(buf < self.buffers(), "no such buffer");
        assert!(tasklets.is_none_or(|t| (1..=24).contains(&t)), "tasklets must be 1..=24");
        let img_sym = if buf == 0 { "images" } else { "images_alt" };
        let mut chunk_lens = vec![0usize; self.dpus];
        for (chunk, &d) in slots.chunks(IMAGES_PER_DPU).zip(&targets) {
            chunk_lens[d] = chunk.len();
        }
        let params: Vec<[u8; 16]> = chunk_lens
            .iter()
            .map(|&n| {
                let stride = tasklets.unwrap_or(n.max(1));
                params_wire(n as u32, stride as u32, self.img_base[buf], self.feat_base[buf])
            })
            .collect();
        self.set.copy_each("params", 0, 16, |dpu| &params[dpu.0 as usize])?;
        let mut bytes = 16 * self.dpus as u64;
        for (chunk, &d) in slots.chunks(IMAGES_PER_DPU).zip(&targets) {
            let dpu = DpuId(d as u32);
            for (i, slot) in chunk.iter().enumerate() {
                assert_eq!(slot.len(), IMAGE_SLOT_BYTES, "slot must be 128 bytes");
                self.set.copy_to_dpu(dpu, img_sym, i * IMAGE_SLOT_BYTES, slot)?;
                bytes += IMAGE_SLOT_BYTES as u64;
            }
        }
        self.tasklets =
            tasklets.unwrap_or_else(|| chunk_lens.iter().copied().max().unwrap_or(1).max(1));
        self.staged[buf] = Some(StagedMeta { chunk_lens });
        Ok(bytes)
    }

    /// Binarize, pack and stage raw grayscale images (see
    /// [`Tier1Engine::stage_encoded`]).
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// See [`Tier1Engine::stage_encoded`].
    pub fn stage(
        &mut self,
        model: &EbnnModel,
        images: &[GrayImage],
        buf: usize,
    ) -> Result<u64, HostError> {
        let slots: Vec<Vec<u8>> = images.iter().map(|g| encode_slot(model, g)).collect();
        self.stage_encoded(&slots, buf)
    }

    /// Launch the most recently staged batch, traced (see
    /// [`LaunchSpec::trace`]) and under a fault-tolerance policy if asked
    /// (see [`LaunchSpec::policy`]). [`LaunchReport::items`] maps the
    /// report onto the staged images.
    ///
    /// # Errors
    /// Host-runtime failures (DPU faults, injected or not, are *reported*,
    /// not returned as errors).
    pub fn launch(
        &mut self,
        trace: bool,
        policy: Option<&ResilientLaunchPolicy>,
    ) -> Result<(LaunchReport, Vec<TraceBuffer>), HostError> {
        self.set.launch_with(LaunchSpec { trace, policy, ..LaunchSpec::loaded(self.tasklets) })
    }

    /// Images per DPU chunk staged on `buf`, or `None` when nothing is.
    #[must_use]
    pub fn staged_chunks(&self, buf: usize) -> Option<&[usize]> {
        self.staged.get(buf).and_then(|m| m.as_ref()).map(|m| m.chunk_lens.as_slice())
    }

    /// Gather per-image features (in input order) from buffer `buf` after
    /// a launch, plus the bytes read over the host link. DPUs whose
    /// result is missing (unserved in a degraded resilient launch) still
    /// gather: [`LaunchReport::items`] says which images were served.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `buf` has no staged batch.
    pub fn gather(&self, buf: usize) -> Result<(Vec<Vec<u8>>, u64), HostError> {
        let meta = self.staged[buf].as_ref().expect("no batch staged on this buffer");
        let feat_sym = if buf == 0 { "features" } else { "features_alt" };
        let mut features = Vec::with_capacity(meta.chunk_lens.iter().sum());
        let mut bytes = 0u64;
        for (d, &len) in meta.chunk_lens.iter().enumerate() {
            for i in 0..len {
                let mut wire = vec![0u8; self.fpi_pad];
                self.set.copy_from_dpu(DpuId(d as u32), feat_sym, i * self.fpi_pad, &mut wire)?;
                bytes += self.fpi_pad as u64;
                features.push(wire[..self.fpi].to_vec());
            }
        }
        Ok((features, bytes))
    }
}

#[cfg(test)]
mod multi_dpu_tests {
    use super::*;
    use crate::model::ModelConfig;

    #[test]
    fn forty_images_across_three_dpus() {
        let m = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
        let imgs: Vec<_> =
            (0..40).map(|i| crate::mnist::synth_digit(i % 10, (i / 10) as u64)).collect();
        let run = run_tier1_batch(&m, &imgs, BatchSpec::default()).unwrap();
        let (features, result) = (run.features, run.report);
        assert_eq!(result.per_dpu.len(), 3);
        for (i, img) in imgs.iter().enumerate() {
            assert_eq!(features[i], m.features(&m.binarize(&img.pixels)), "image {i}");
        }
        // The partially-filled third DPU finishes no later than a full one.
        let c: Vec<u64> = result.per_dpu.iter().map(|r| r.cycles).collect();
        assert!(c[2] <= c[0]);
    }
}

#[cfg(test)]
mod traced_tests {
    use super::*;
    use crate::model::ModelConfig;
    use pim_trace::TraceEvent;

    #[test]
    fn traced_multi_dpu_run_is_identical_and_fully_traced() {
        let m = EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() });
        let imgs: Vec<_> =
            (0..24).map(|i| crate::mnist::synth_digit(i % 10, (i / 10) as u64)).collect();
        let plain = run_tier1_batch(&m, &imgs, BatchSpec::default()).unwrap();
        let traced =
            run_tier1_batch(&m, &imgs, BatchSpec { trace: true, ..BatchSpec::default() }).unwrap();
        // Tracing is observational: same features, same cycle counts.
        assert_eq!(traced.features, plain.features);
        assert_eq!(traced.report, plain.report);
        assert!(plain.dpu_traces.is_empty() && plain.host_trace.is_empty());
        let launch = plain.report;
        assert_eq!(traced.dpu_traces.len(), 2);
        for (d, buf) in traced.dpu_traces.iter().enumerate() {
            assert_eq!(
                buf.count_matching(|e| matches!(e, TraceEvent::KernelLaunch { .. })),
                1,
                "DPU {d}"
            );
            assert!(
                buf.count_matching(|e| matches!(e, TraceEvent::DmaTransfer { .. })) > 0,
                "DPU {d} moved images and features over DMA"
            );
            assert_eq!(buf.max_end_cycle(), launch.per_dpu[d].cycles, "DPU {d}");
        }
        // Host log covers broadcast + scatter + gather, in order.
        assert!(!traced.host_trace.is_empty());
        let gathers = traced.host_trace.count_matching(|e| {
            matches!(
                e,
                TraceEvent::HostTransfer { direction: pim_trace::HostDirection::MramToHost, .. }
            )
        });
        assert_eq!(gathers, imgs.len());
    }

    #[test]
    fn traced_single_dpu_matches_untraced() {
        let m = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
        let imgs: Vec<_> = (0..4).map(|i| crate::mnist::synth_digit(i, 1)).collect();
        let spec = BatchSpec { tasklets: Some(2), ..BatchSpec::default() };
        let plain = run_tier1_batch(&m, &imgs, spec).unwrap();
        let traced = run_tier1_batch(&m, &imgs, BatchSpec { trace: true, ..spec }).unwrap();
        assert_eq!(traced.features, plain.features);
        assert_eq!(traced.report, plain.report);
        assert_eq!(traced.dpu_traces.len(), 1);
        assert_eq!(traced.dpu_traces[0].dma_bytes(), plain.report.per_dpu[0].dma_bytes);
    }
}
