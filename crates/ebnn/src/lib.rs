//! # ebnn — Embedded Binarized Neural Network on the simulated UPMEM PIM
//!
//! Reproduction of the paper's first CNN implementation (§4.1): a
//! minimalistic eBNN — one binary Convolution-Pool block followed by a
//! host-side classifier — mapped onto DPUs with the **multi-image-per-DPU**
//! scheme:
//!
//! * images are binarized and bit-packed on the host (one `u32` per 28-pixel
//!   row), so a 16-image batch fits in a single ≤2048-byte MRAM→WRAM DMA —
//!   the transfer cap that limits each DPU to 16 concurrent images (§4.1.3);
//! * each DPU runs 16 tasklets, one image per tasklet;
//! * the Convolution-Pool block runs in the DPU; BatchNorm + Binary
//!   Activation either run in the DPU with floating-point subroutines
//!   ([`BnMode::Float`]) or are replaced by a host-built look-up table
//!   ([`BnMode::Lut`]) per the paper's Algorithm 1 — the rewrite that cuts
//!   the subroutine profile from 11+ routines to 2 (Fig. 4.3) and speeds the
//!   16-image batch up by ~1.4× (Fig. 4.4);
//! * the classifier head (fully-connected + softmax) runs on the host, fed
//!   by the binary feature maps read back from MRAM.
//!
//! The MNIST inputs are synthesized ([`mnist`]) — the evaluation measures
//! latency of fixed-shape inference, not accuracy on real digits — but the
//! classifier is given nearest-prototype weights so end-to-end predictions
//! are still meaningful on the synthetic digits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bconv;
pub mod bnorm;
pub mod codegen;
pub mod deep;
pub mod dpu_kernel;
pub mod lut;
pub mod mapping;
pub mod mnist;
pub mod model;
pub mod reference;
pub mod softmax;
pub mod wide;

pub use bconv::{BinaryFilter, BinaryImage, ConvPoolOutput};
pub use bnorm::BatchNorm;
pub use codegen::{run_tier1_batch, BatchSpec, Tier1Batch};
pub use deep::{DeepConfig, DeepEbnn};
pub use dpu_kernel::{conv_pool_block, BnMode, KernelOutput};
pub use lut::BnLut;
pub use mapping::{EbnnPipeline, InferenceReport};
pub use mnist::{synth_digit, SynthMnist};
pub use model::{EbnnModel, ModelConfig};
pub use softmax::Classifier;
pub use wide::WideBinaryImage;

/// MNIST image edge length in pixels.
pub const IMAGE_DIM: usize = 28;

/// Pooled feature-map edge length (2×2 max pool over 28×28).
pub const POOLED_DIM: usize = IMAGE_DIM / 2;

/// Images per DPU: the paper's 16-image cap from the 2048-byte DMA limit
/// (one [`IMAGE_SLOT_BYTES`]-byte slot per image, 16 x 128 = 2048).
pub const IMAGES_PER_DPU: usize = 16;

/// MRAM/WRAM slot per image: 112 bytes of packed rows padded to a
/// power-of-two stride, so a full 16-image batch exactly fills one maximum
/// 2048-byte DMA transfer — the constraint behind the paper's batch size.
pub const IMAGE_SLOT_BYTES: usize = 128;

/// Number of output classes.
pub const CLASSES: usize = 10;

/// Round a byte count up to the 8-byte transfer rule.
#[must_use]
pub fn align_up8(bytes: usize) -> usize {
    bytes.div_ceil(8) * 8
}
