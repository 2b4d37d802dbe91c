//! # yolo-pim — quantized YOLOv3 on the simulated UPMEM PIM
//!
//! Reproduction of the paper's second CNN implementation (§4.2): a
//! fixed-point YOLOv3 whose convolutions are lowered to the GEMM of
//! Algorithm 2 and mapped onto DPUs with the **multi-DPU-per-image** scheme
//! of Fig. 4.6:
//!
//! * convolution → [`im2col()`] → GEMM with `A` the weights (`M×K`, one row
//!   per filter), `B` the unrolled input (`K×N`), `C` the output (`M×N`);
//! * each layer uses `M` DPUs — DPU *i* receives row *i* of `A`, **all** of
//!   `B`, and produces row *i* of `C`;
//! * inside a DPU, tasklets split the inner loop over output columns;
//! * quantization/de-quantization stays on the host (the DPU only sees
//!   fixed point), and Algorithm 2's `absolutemax(ctmp[j]/32, 32767)`
//!   re-scales accumulators into `i16`;
//! * `B` and the `ctmp` accumulator are far too large for WRAM, so the
//!   kernel's accesses overwhelmingly hit MRAM — the §4.3.3 explanation for
//!   YOLOv3's poor showing, reproduced by the cycle model's DMA bounds.
//!
//! [`darknet`] carries the full 416×416 Darknet-53 + YOLOv3-head layer
//! table for latency reproduction, plus scaled-down variants whose data
//! actually flows through simulated MRAM in tests and examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod codegen;
pub mod darknet;
pub mod detect;
pub mod gemm;
pub mod im2col;
pub mod layers;
pub mod mapping;
pub mod quant;
pub mod reference;

pub use cfg::{parse_cfg, to_cfg, CfgError};
pub use codegen::{run_tier1_layer, LayerRunSpec, Tier1Layer};
pub use darknet::{darknet53_yolov3, tiny_config, NetworkConfig};
pub use detect::{decode_and_nms, Detection};
pub use gemm::{gemm, GemmDims};
pub use im2col::im2col;
pub use layers::{Activation, ConvSpec, LayerSpec, Shape};
pub use mapping::{GemmMapping, LayerReport, NetworkReport, YoloPipeline};
pub use quant::{dequantize, quantize, QuantParams};

/// Round a byte count up to the host transfer rule (8 bytes).
#[must_use]
pub fn align8(bytes: usize) -> usize {
    bytes.div_ceil(8) * 8
}
