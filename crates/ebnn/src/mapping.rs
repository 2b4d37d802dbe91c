//! The multi-image-per-DPU mapping and end-to-end orchestration (§4.1.3).
//!
//! The pipeline reproduces the paper's flow:
//!
//! 1. the host binarizes and bit-packs the images, groups them into batches
//!    of at most [`crate::IMAGES_PER_DPU`] (= 16, the 2048-byte DMA cap),
//!    and scatters one batch per DPU
//!    (`dpu_prepare_xfer`/`dpu_push_xfer`);
//! 2. the LUT (when enabled) is broadcast to every DPU;
//! 3. each DPU copies its batch MRAM→WRAM with a single DMA transfer and
//!    runs one tasklet per image through the Convolution-Pool block;
//! 4. feature maps return to MRAM; the host gathers them and runs the
//!    softmax head serially per image;
//! 5. the report carries the DPU makespan (all DPUs run concurrently), the
//!    merged subroutine profile, and the host-side classification time.

use crate::dpu_kernel::{conv_pool_block, BnMode, KernelOutput};
use crate::lut::BnLut;
use crate::mnist::GrayImage;
use crate::model::EbnnModel;
use crate::IMAGES_PER_DPU;
use dpu_sim::cost::KernelEstimate;
use dpu_sim::{DpuId, DpuParams, Profiler};
use pim_host::{DpuSet, HostError, KernelRun, OptLevel, PaddedBuf};

/// Whether the BN-BinAct block runs in floating point inside the DPU or
/// via the host-built LUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnPlacement {
    /// Float BN inside the DPU (Fig. 4.2(a)).
    DpuFloat,
    /// LUT built on the host, looked up in the DPU (Fig. 4.2(b)).
    HostLut,
}

/// End-to-end eBNN inference pipeline over a simulated DPU set.
#[derive(Debug, Clone)]
pub struct EbnnPipeline {
    /// The model.
    pub model: EbnnModel,
    /// Device parameters.
    pub params: DpuParams,
    /// Compiler optimization level for the DPU program.
    pub opt: OptLevel,
    /// Tasklets per DPU (the paper uses 16: one per image).
    pub tasklets: usize,
    /// BN placement.
    pub placement: BnPlacement,
}

impl EbnnPipeline {
    /// A pipeline with the paper's defaults: 16 tasklets, LUT placement,
    /// `-O0` (the configuration of the Fig. 4.4 comparison).
    #[must_use]
    pub fn new(model: EbnnModel) -> Self {
        Self {
            model,
            params: DpuParams::default(),
            opt: OptLevel::O0,
            tasklets: IMAGES_PER_DPU,
            placement: BnPlacement::HostLut,
        }
    }

    /// Switch BN placement (builder style).
    #[must_use]
    pub fn with_placement(mut self, placement: BnPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Switch tasklet count (builder style).
    ///
    /// # Panics
    /// When outside `1..=24`.
    #[must_use]
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        assert!((1..=24).contains(&tasklets), "tasklets must be 1..=24");
        self.tasklets = tasklets;
        self
    }

    /// Switch optimization level (builder style).
    #[must_use]
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Run inference over a batch of grayscale images.
    ///
    /// # Errors
    /// Host-runtime failures (allocation, transfer, symbol) — none occur
    /// for well-formed inputs.
    pub fn infer(&self, images: &[GrayImage]) -> Result<InferenceReport, HostError> {
        assert!(!images.is_empty(), "empty batch");
        let image_bytes = crate::IMAGE_SLOT_BYTES;
        let batch_cap = IMAGES_PER_DPU;
        let dpus = images.len().div_ceil(batch_cap);
        let features = EbnnModel::feature_count(&self.model.config);
        let feat_wire = KernelOutput::wire_bytes(features);

        let mut set = DpuSet::allocate_with(dpus, self.params)?;
        set.define_symbol("images", batch_cap * image_bytes)?;
        set.define_symbol("n_images", 8)?;
        set.define_symbol("lut", crate::align_up8(19 * self.model.config.filters))?;
        set.define_symbol("features", batch_cap * feat_wire)?;

        // 1. Scatter image batches (prepare/push protocol).
        let packed: Vec<crate::bconv::BinaryImage> =
            images.iter().map(|g| self.model.binarize(&g.pixels)).collect();
        let mut batches = Vec::with_capacity(dpus);
        let mut batch_sizes = Vec::with_capacity(dpus);
        for chunk in packed.chunks(batch_cap) {
            let mut buf = Vec::with_capacity(batch_cap * image_bytes);
            for img in chunk {
                let mut slot = img.to_bytes();
                slot.resize(image_bytes, 0);
                buf.extend_from_slice(&slot);
            }
            batch_sizes.push(chunk.len());
            buf.resize(batch_cap * image_bytes, 0);
            batches.push(buf);
        }
        set.copy_each("images", 0, batch_cap * image_bytes, |dpu| &batches[dpu.0 as usize])?;

        // 2. Broadcast the LUT and per-DPU image counts.
        let lut = BnLut::for_conv3x3(&self.model.bn);
        if self.placement == BnPlacement::HostLut {
            let wire = PaddedBuf::new(&lut.to_bytes());
            set.copy_to("lut", 0, &wire.data)?;
        }
        for (i, &n) in batch_sizes.iter().enumerate() {
            set.copy_to_dpu(DpuId(i as u32), "n_images", 0, &(n as u64).to_le_bytes())?;
        }

        // 3. Per-DPU kernel execution with cycle accounting.
        let mut per_dpu = Vec::with_capacity(dpus);
        let mut profile = Profiler::new();
        let lut_bytes = lut.to_bytes().len();
        for (d, chunk) in packed.chunks(batch_cap).enumerate() {
            let mut run = KernelRun::new(self.params, self.opt, self.tasklets);
            // Batch DMA MRAM→WRAM: one transfer, issued by tasklet 0
            // (≤ 2048 B — the constraint that caps batches at 16 images).
            run.charge_dma(0, chunk.len() * image_bytes);
            if self.placement == BnPlacement::HostLut {
                run.charge_dma(0, crate::align_up8(lut_bytes));
            }
            let mut outputs: Vec<KernelOutput> = Vec::with_capacity(chunk.len());
            for (i, img) in chunk.iter().enumerate() {
                let t = i % self.tasklets;
                let mode = match self.placement {
                    BnPlacement::DpuFloat => BnMode::Float(&self.model.bn),
                    BnPlacement::HostLut => BnMode::Lut(&lut),
                };
                let out =
                    conv_pool_block(img, &self.model.filters, mode, run.tally(t), &mut profile);
                // Feature write-back WRAM→MRAM, charged to the tasklet.
                run.charge_dma(t, feat_wire);
                outputs.push(out);
            }
            // 4. Features land in MRAM for the host to gather.
            for (i, out) in outputs.iter().enumerate() {
                set.copy_to_dpu(DpuId(d as u32), "features", i * feat_wire, &out.to_wire())?;
            }
            per_dpu.push(run.estimate());
        }

        // 5. Host gathers features and classifies serially (§4.1.3).
        let host_start = std::time::Instant::now();
        let mut predictions = Vec::with_capacity(images.len());
        for (d, &n) in batch_sizes.iter().enumerate() {
            for i in 0..n {
                let mut wire = vec![0u8; feat_wire];
                set.copy_from_dpu(DpuId(d as u32), "features", i * feat_wire, &mut wire)?;
                let out = KernelOutput::from_wire(&wire, features);
                predictions.push(self.model.classifier.predict(&out.features));
            }
        }
        let host_seconds = host_start.elapsed().as_secs_f64();

        let makespan_cycles = per_dpu.iter().map(|e| e.cycles).max().unwrap_or(0);
        Ok(InferenceReport {
            predictions,
            dpus_used: dpus,
            per_dpu,
            makespan_cycles,
            dpu_seconds: self.params.cycles_to_seconds(makespan_cycles),
            host_seconds,
            profile,
            mram_residency: set.system().mram_residency(),
        })
    }
}

/// Everything one inference run produced.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Predicted class per input image.
    pub predictions: Vec<usize>,
    /// Number of DPUs the batch was spread over.
    pub dpus_used: usize,
    /// Per-DPU cycle estimates.
    pub per_dpu: Vec<KernelEstimate>,
    /// Cycles until the slowest DPU finished.
    pub makespan_cycles: u64,
    /// DPU completion time in seconds.
    pub dpu_seconds: f64,
    /// Host-side gather + softmax time (wall clock).
    pub host_seconds: f64,
    /// Merged subroutine profile across all DPUs.
    pub profile: Profiler,
    /// COW MRAM arena accounting at gather time: what the batch actually
    /// cost in host memory (broadcast LUT pages stored once) vs the dense
    /// `dpus × 64 MiB` it addresses.
    pub mram_residency: dpu_sim::MramResidency,
}

impl InferenceReport {
    /// Throughput in frames per second of DPU time.
    #[must_use]
    pub fn frames_per_second(&self) -> f64 {
        self.predictions.len() as f64 / self.dpu_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnist::synth_digit;
    use crate::model::ModelConfig;

    fn small_model() -> EbnnModel {
        EbnnModel::generate(ModelConfig { filters: 4, ..ModelConfig::default() })
    }

    fn batch(n: usize) -> Vec<GrayImage> {
        (0..n).map(|i| synth_digit(i % 10, (i / 10) as u64)).collect()
    }

    #[test]
    fn predictions_match_host_reference() {
        let model = small_model();
        let imgs = batch(4);
        let pipe = EbnnPipeline::new(model.clone());
        let rep = pipe.infer(&imgs).unwrap();
        for (img, &pred) in imgs.iter().zip(&rep.predictions) {
            let expected = model.predict(&model.binarize(&img.pixels));
            assert_eq!(pred, expected);
        }
    }

    #[test]
    fn float_and_lut_agree_functionally() {
        let model = small_model();
        let imgs = batch(3);
        let lut = EbnnPipeline::new(model.clone()).infer(&imgs).unwrap();
        let float =
            EbnnPipeline::new(model).with_placement(BnPlacement::DpuFloat).infer(&imgs).unwrap();
        assert_eq!(lut.predictions, float.predictions);
    }

    #[test]
    fn lut_is_faster_than_float_bn() {
        let model = small_model();
        let imgs = batch(16);
        let lut = EbnnPipeline::new(model.clone()).infer(&imgs).unwrap();
        let float =
            EbnnPipeline::new(model).with_placement(BnPlacement::DpuFloat).infer(&imgs).unwrap();
        let speedup = float.dpu_seconds / lut.dpu_seconds;
        assert!(speedup > 1.2, "LUT speedup {speedup:.2} too small");
    }

    #[test]
    fn batches_spill_over_dpus() {
        let model = small_model();
        let rep = EbnnPipeline::new(model).infer(&batch(20)).unwrap();
        assert_eq!(rep.dpus_used, 2);
        assert_eq!(rep.predictions.len(), 20);
        assert_eq!(rep.per_dpu.len(), 2);
        // Second DPU has fewer images, so it finishes no later.
        assert!(rep.per_dpu[1].cycles <= rep.per_dpu[0].cycles);
        // The COW arena stores only touched pages, not 2 x 64 MiB.
        let res = rep.mram_residency;
        assert_eq!(res.logical_bytes, 2 * 64 * 1024 * 1024);
        assert!(res.resident_bytes < res.logical_bytes / 100);
    }

    #[test]
    fn profile_reflects_placement() {
        let model = small_model();
        let imgs = batch(2);
        let lut = EbnnPipeline::new(model.clone()).infer(&imgs).unwrap();
        assert_eq!(lut.profile.distinct_float_subroutines(), 0);
        let float =
            EbnnPipeline::new(model).with_placement(BnPlacement::DpuFloat).infer(&imgs).unwrap();
        assert!(float.profile.distinct_float_subroutines() >= 8);
    }
}
