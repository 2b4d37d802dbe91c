//! The multi-DPU-per-image GEMM mapping (Fig. 4.6) and network-level
//! orchestration.
//!
//! Per layer, the outer loop of Algorithm 2 is unrolled across DPUs: DPU
//! *i* receives row *i* of the weight matrix `A`, the **entire** input
//! matrix `B`, and computes row *i* of the output `C` — so a layer with `M`
//! filters occupies `M` DPUs. Tasklets inside a DPU split the inner loop:
//! tasklet *t* owns every column `j ≡ t (mod T)` ("one column index ... and
//! subsequent multiples", §4.2.3).
//!
//! ## Where the 65 seconds go
//!
//! Two costs dominate, both reproduced by this module:
//!
//! 1. **Host→DPU traffic.** Because every DPU gets all of `B`, a layer
//!    ships `M × |B|` bytes over the host link. Summed over YOLOv3's 75
//!    conv layers that is `2 bytes × total MACs ≈ 65 GB`; at a realistic
//!    ~1 GB/s effective host→MRAM bandwidth this alone accounts for the
//!    paper's 65 s/frame and ≈0.9 s/layer average.
//! 2. **MRAM-resident working set.** `B` and the `ctmp` accumulator exceed
//!    WRAM (§4.3.4 quotes 160 KB of internal buffer against a 5.8 KB
//!    per-tasklet stack), so every inner-loop access is an 8-byte DMA
//!    round-trip — the kernel is memory-bound (§4.3.3).

use crate::darknet::NetworkConfig;
use crate::gemm::{gemm_row, GemmDims};
use crate::im2col::{im2col, Im2colDims};
use crate::layers::{LayerSpec, Shape};
use crate::quant::{dequantize, quantize, QuantParams};
use dpu_sim::cost::KernelEstimate;
use dpu_sim::{DpuId, DpuParams};
use pim_host::{DpuSet, HostError, KernelRun, OptLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Effective host→MRAM bandwidth in bytes/second used for transfer-time
/// accounting. UPMEM's measured host link sustains on the order of
/// 0.3–6 GB/s depending on access pattern (Gómez-Luna et al. 2021); the
/// serial per-DPU copy pattern of this mapping sits near the low end.
pub const DEFAULT_HOST_BW: f64 = 1.0e9;

/// Configuration of the GEMM-on-DPUs mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmMapping {
    /// Device parameters.
    pub params: DpuParams,
    /// Compiler optimization level of the DPU program.
    pub opt: OptLevel,
    /// Tasklets per DPU (the paper saturates at 11).
    pub tasklets: usize,
    /// Host→DPU effective bandwidth, bytes/second.
    pub host_bw: f64,
}

impl Default for GemmMapping {
    fn default() -> Self {
        Self {
            params: DpuParams::default(),
            opt: OptLevel::O3,
            tasklets: 11,
            host_bw: DEFAULT_HOST_BW,
        }
    }
}

impl GemmMapping {
    /// Cycle/time estimate for one conv layer under this mapping, without
    /// materializing data. Every DPU runs the identical kernel (same `B`,
    /// same row length), so one per-DPU estimate covers the layer.
    #[must_use]
    pub fn estimate_layer(&self, dims: GemmDims) -> LayerReport {
        let mut run = KernelRun::new(self.params, self.opt, self.tasklets);
        let t_count = self.tasklets;
        let ctmp_in_wram = self.ctmp_fits_wram(dims);

        // A row: K i16, one up-front DMA into WRAM (it fits: K ≤ 9216).
        run.charge_dma(0, dims.k * 2);

        for t in 0..t_count {
            // Columns owned by tasklet t: j ≡ t (mod T).
            let cols = (dims.n + t_count - 1 - t) / t_count;
            let iters = (dims.k * cols) as u64;
            let tally = run.tally(t);
            // Inner loop body per iteration: the multiply, the accumulate,
            // addressing, and the memory traffic. The B element always
            // comes from MRAM (B never fits WRAM), through the
            // `mram_read` library wrapper (~8 instructions of address
            // arithmetic, bounds masking and word extract around the DMA
            // instruction — what "almost all memory accesses go to MRAM"
            // costs, §4.3.3). The ctmp accumulator read-modify-write goes
            // the same way *unless* the per-tasklet ctmp tile fits the
            // tasklet's WRAM stack budget — the paper's §4.3.4 complaint
            // is precisely that at YOLOv3's widest layers it does not.
            tally.mul16 += iters;
            tally.loops += iters;
            if ctmp_in_wram {
                tally.alu += (3 + 8) * iters;
                tally.load += iters; // ctmp read in WRAM
                tally.store += iters; // ctmp write in WRAM
                tally.mram_transfers += iters;
                tally.mram_bytes += 8 * iters;
            } else {
                tally.alu += (3 + 3 * 8) * iters;
                tally.mram_transfers += 3 * iters;
                tally.mram_bytes += 24 * iters;
            }
            // APART recomputation per k (shared A row in WRAM).
            tally.mul16 += dims.k as u64;
            tally.load += dims.k as u64;
            // Epilogue per owned column: /32 (a shift), clamp, C store.
            tally.alu += 3 * cols as u64;
            tally.mram_transfers += cols as u64;
            tally.mram_bytes += 8 * cols as u64;
        }
        let kernel = run.estimate();
        self.report(dims, kernel)
    }

    /// Whether each tasklet's slice of the `ctmp` accumulator (4 bytes per
    /// owned column) fits in half of its WRAM stack budget. At 64 KiB WRAM
    /// and 11 tasklets the budget is ≈5.8 KiB (§4.3.4), so layers wider
    /// than ≈8000 output pixels spill `ctmp` to MRAM.
    #[must_use]
    pub fn ctmp_fits_wram(&self, dims: GemmDims) -> bool {
        let cols_per_tasklet = dims.n.div_ceil(self.tasklets);
        4 * cols_per_tasklet <= self.params.max_stack_bytes(self.tasklets) / 2
    }

    fn report(&self, dims: GemmDims, kernel: KernelEstimate) -> LayerReport {
        let (a_bytes, b_bytes, c_bytes) = dims.bytes();
        // Every DPU receives the whole B; A and C move one row per DPU.
        let host_bytes = b_bytes * dims.m as u64 + a_bytes + c_bytes;
        let host_transfer_seconds = host_bytes as f64 / self.host_bw;
        let dpu_seconds = kernel.seconds(&self.params);
        LayerReport {
            dims,
            dpus: dims.m,
            memory_bound: kernel.is_memory_bound(),
            kernel,
            dpu_seconds,
            host_bytes,
            host_transfer_seconds,
            total_seconds: dpu_seconds + host_transfer_seconds,
            measured_host_bytes: 0,
        }
    }

    /// Move one layer's GEMM through a simulated DPU set's MRAM without
    /// executing a kernel: scatter `A` rows, broadcast `B`, compute each
    /// `C` row on the host with [`gemm_row`] and write it into its DPU's
    /// MRAM, then gather `C`. The report's host bytes are the transfers
    /// that really happened; its timing is [`GemmMapping::estimate_layer`].
    /// The row kernel itself runs in [`crate::codegen::RowEngine`]. Use
    /// with small dims.
    ///
    /// # Errors
    /// Host-runtime failures (allocation beyond 2560 DPUs, transfer
    /// violations).
    ///
    /// # Panics
    /// When slice lengths don't match `dims`.
    pub fn run_layer(
        &self,
        dims: GemmDims,
        alpha: i32,
        a: &[i16],
        b: &[i16],
    ) -> Result<(Vec<i16>, LayerReport), HostError> {
        assert_eq!(a.len(), dims.m * dims.k, "A shape mismatch");
        assert_eq!(b.len(), dims.k * dims.n, "B shape mismatch");
        let mut set = DpuSet::allocate_with(dims.m, self.params)?;
        let a_row_bytes = crate::align8(dims.k * 2);
        let b_bytes = crate::align8(dims.k * dims.n * 2);
        let c_row_bytes = crate::align8(dims.n * 2);
        set.define_symbol("a_row", a_row_bytes)?;
        set.define_symbol("b", b_bytes)?;
        set.define_symbol("c_row", c_row_bytes)?;
        set.define_symbol("n_cols", 8)?;

        // Scatter A rows; broadcast B (Eq. 3.1); send true N (8-byte rule).
        let rows: Vec<Vec<u8>> = a.chunks(dims.k).map(|row| pim_host::to_wire(row).data).collect();
        set.copy_each("a_row", 0, a_row_bytes, |dpu| &rows[dpu.0 as usize])?;
        set.copy_values_to("b", b)?;
        set.copy_scalar_to("n_cols", dims.n as u64)?;

        // Each DPU's C row, computed on the host and written into MRAM.
        for i in 0..dims.m {
            let mut c_row = vec![0i16; dims.n];
            gemm_row(dims, alpha, &a[i * dims.k..(i + 1) * dims.k], b, &mut c_row);
            set.copy_values_to_dpu(DpuId(i as u32), "c_row", 0, &c_row)?;
        }

        // Gather C (Eq. 3.2/3.3 in the FROM direction).
        let mut c = vec![0i16; dims.m * dims.n];
        for i in 0..dims.m {
            let row: Vec<i16> = set.copy_values_from_dpu(DpuId(i as u32), "c_row", 0, dims.n)?;
            c[i * dims.n..(i + 1) * dims.n].copy_from_slice(&row);
        }
        let mut report = self.estimate_layer(dims);
        report.measured_host_bytes = set.total_bytes_to_dpus();
        Ok((c, report))
    }
}

impl GemmMapping {
    /// Estimate the *alternative* mapping the paper's future work proposes
    /// (§6.1): one whole frame per DPU, emulating the eBNN
    /// multi-image-per-DPU method, with different frames on different DPUs.
    ///
    /// The catch the analysis exposes: the full YOLOv3 weight set
    /// (≈123 MB at `i16`) exceeds the 64 MB MRAM, so the mapping is
    /// *infeasible* at full scale — which is exactly why the paper's
    /// implementation spread single frames across DPUs instead. For
    /// scaled-down networks whose weights fit, the mapping wins decisively
    /// on system throughput: weights are broadcast once and each frame
    /// ships only its input over the host link, instead of `M × |B|` per
    /// layer.
    #[must_use]
    pub fn estimate_frame_per_dpu(
        &self,
        network: &crate::darknet::NetworkConfig,
    ) -> FramePerDpuReport {
        let layers = network.conv_layers();
        let weights_bytes: u64 = layers.iter().map(|(_, _, _, d)| d.bytes().0).sum();
        // Activations double-buffer: the two largest consecutive tensors.
        let shapes = network.shapes();
        let max_act: u64 = shapes.iter().map(|s| (s.len() * 2) as u64).max().unwrap_or(0);
        let fits_mram = weights_bytes + 2 * max_act + (network.input.len() * 2) as u64
            <= self.params.mram_bytes as u64;

        // One DPU computes every GEMM of the frame sequentially.
        let mut frame_cycles = 0u64;
        for (_, _, _, dims) in &layers {
            let mut run = KernelRun::new(self.params, self.opt, self.tasklets);
            let ctmp_in_wram = self.ctmp_fits_wram(*dims);
            for t in 0..self.tasklets {
                let cols = (dims.n + self.tasklets - 1 - t) / self.tasklets;
                let iters = (dims.m * dims.k * cols) as u64;
                let tally = run.tally(t);
                tally.mul16 += iters;
                tally.loops += iters;
                if ctmp_in_wram {
                    // B element + A element from MRAM, ctmp in WRAM.
                    tally.alu += (3 + 2 * 8) * iters;
                    tally.load += iters;
                    tally.store += iters;
                    tally.mram_transfers += 2 * iters;
                    tally.mram_bytes += 16 * iters;
                } else {
                    tally.alu += (3 + 4 * 8) * iters;
                    tally.mram_transfers += 4 * iters;
                    tally.mram_bytes += 32 * iters;
                }
                let out = (dims.m * cols) as u64;
                tally.alu += 3 * out;
                tally.mram_transfers += out;
                tally.mram_bytes += 8 * out;
            }
            frame_cycles += run.estimate().cycles;
        }
        let frame_seconds = self.params.cycles_to_seconds(frame_cycles);
        let input_bytes_per_frame = (network.input.len() * 2) as u64;
        let dpus = dpu_sim::params::SYSTEM_DPUS as f64;
        // Steady-state: all DPUs hold the weights and chew independent
        // frames; the host link only carries inputs and detections.
        let compute_fps = dpus / frame_seconds;
        let link_fps = self.host_bw / input_bytes_per_frame as f64;
        FramePerDpuReport {
            weights_bytes,
            fits_mram,
            frame_cycles,
            frame_seconds,
            input_bytes_per_frame,
            system_frames_per_second: compute_fps.min(link_fps),
        }
    }
}

/// Analysis of the frame-per-DPU mapping (future work §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FramePerDpuReport {
    /// Total weight bytes the DPU must hold resident.
    pub weights_bytes: u64,
    /// Whether weights + activations fit the 64 MB MRAM.
    pub fits_mram: bool,
    /// Cycles for one frame on one DPU.
    pub frame_cycles: u64,
    /// Seconds for one frame on one DPU.
    pub frame_seconds: f64,
    /// Host-link bytes per frame in steady state (input only).
    pub input_bytes_per_frame: u64,
    /// Steady-state system throughput with all 2560 DPUs busy
    /// (compute- or host-link-bound, whichever is lower).
    pub system_frames_per_second: f64,
}

/// Timing report of one conv layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// GEMM dimensions.
    pub dims: GemmDims,
    /// DPUs occupied (= filter count).
    pub dpus: usize,
    /// Per-DPU kernel estimate (all DPUs are symmetric).
    pub kernel: KernelEstimate,
    /// DPU compute time (all DPUs concurrent).
    pub dpu_seconds: f64,
    /// Bytes moved over the host link for this layer.
    pub host_bytes: u64,
    /// Host link time.
    pub host_transfer_seconds: f64,
    /// Layer completion time.
    pub total_seconds: f64,
    /// Whether the DPU kernel is DMA-bound (§4.3.3).
    pub memory_bound: bool,
    /// Host bytes actually moved when the layer ran functionally through
    /// simulated MRAM (0 for estimate-only reports) — a cross-check of
    /// `host_bytes`.
    pub measured_host_bytes: u64,
}

/// Timing report of a whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkReport {
    /// Network name.
    pub name: String,
    /// Per-conv-layer reports in execution order.
    pub layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Total frame latency in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.total_seconds).sum()
    }

    /// Mean conv-layer latency (the paper quotes ≈0.9 s).
    #[must_use]
    pub fn mean_layer_seconds(&self) -> f64 {
        self.total_seconds() / self.layers.len() as f64
    }

    /// Slowest conv layer (the paper quotes ≈6 s).
    #[must_use]
    pub fn max_layer_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.total_seconds).fold(0.0, f64::max)
    }

    /// Aggregate DPU compute seconds.
    #[must_use]
    pub fn dpu_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.dpu_seconds).sum()
    }

    /// Aggregate host transfer seconds.
    #[must_use]
    pub fn host_transfer_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.host_transfer_seconds).sum()
    }

    /// Steady-state frames/second with double buffering: the host streams
    /// frame `i+1`'s matrices while the DPUs compute frame `i`, so the
    /// period is the larger of the two totals rather than their sum. For
    /// this mapping the link dominates, so pipelining buys only
    /// `1 + compute/transfer` ≈ 15 % — quantifying why the paper's
    /// bottleneck cannot be hidden by overlap.
    #[must_use]
    pub fn pipelined_fps(&self) -> f64 {
        1.0 / self.host_transfer_seconds().max(self.dpu_seconds())
    }
}

/// One decoded YOLO-head output (still fixed-point upstream).
#[derive(Debug, Clone, PartialEq)]
pub struct YoloHeadOutput {
    /// Layer index of the head.
    pub layer: usize,
    /// Feature shape at the head.
    pub shape: Shape,
    /// De-quantized activations, channel-major.
    pub data: Vec<f32>,
    /// Anchors of this head.
    pub anchors: Vec<(f32, f32)>,
}

/// End-to-end YOLOv3 pipeline over the simulated system.
#[derive(Debug, Clone)]
pub struct YoloPipeline {
    /// The network table.
    pub network: NetworkConfig,
    /// The GEMM mapping configuration.
    pub mapping: GemmMapping,
    /// Weight generation seed (weights are synthetic; see `DESIGN.md`).
    pub seed: u64,
}

impl YoloPipeline {
    /// Pipeline with default mapping over the given network.
    #[must_use]
    pub fn new(network: NetworkConfig) -> Self {
        Self { network, mapping: GemmMapping::default(), seed: 0x01f }
    }

    /// Timing-only estimate of a full frame (no data materialized) — the
    /// path used for the full 416×416 network.
    #[must_use]
    pub fn estimate(&self) -> NetworkReport {
        let layers = self
            .network
            .conv_layers()
            .into_iter()
            .map(|(_, _, _, dims)| self.mapping.estimate_layer(dims))
            .collect();
        NetworkReport { name: self.network.name.clone(), layers }
    }

    /// Functionally execute a frame through simulated DPUs (use scaled-down
    /// configs). Returns the YOLO-head outputs plus the timing report.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `input` doesn't match the network's input shape.
    pub fn run(&self, input: &[f32]) -> Result<(Vec<YoloHeadOutput>, NetworkReport), HostError> {
        let in_shape = self.network.input;
        assert_eq!(input.len(), in_shape.len(), "input shape mismatch");
        let q = QuantParams::for_range(4.0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let shapes = self.network.shapes();
        let mut outputs: Vec<Vec<i16>> = Vec::with_capacity(self.network.layers.len());
        let mut heads = Vec::new();
        let mut reports = Vec::new();
        let mut prev: Vec<i16> = quantize(input, q);
        let mut prev_shape = in_shape;

        for (idx, layer) in self.network.layers.iter().enumerate() {
            let out_shape = shapes[idx];
            let out: Vec<i16> = match layer {
                LayerSpec::Conv(spec) => {
                    let dims = spec.gemm_dims(prev_shape);
                    // Synthetic weights: small ints so accumulators stay
                    // in range after the /32 rescale.
                    let a: Vec<i16> =
                        (0..dims.m * dims.k).map(|_| rng.gen_range(-16..=16)).collect();
                    let b = im2col(
                        &prev,
                        Im2colDims {
                            channels: prev_shape.c,
                            height: prev_shape.h,
                            width: prev_shape.w,
                            kernel: spec.size,
                            stride: spec.stride,
                            pad: spec.pad,
                        },
                    );
                    let (mut c, report) = self.mapping.run_layer(dims, 1, &a, &b)?;
                    reports.push(report);
                    for v in &mut c {
                        *v = spec.activation.apply_i16(*v);
                    }
                    c
                }
                LayerSpec::Shortcut { from } => {
                    let other = &outputs[*from];
                    prev.iter().zip(other).map(|(&x, &y)| x.saturating_add(y)).collect()
                }
                LayerSpec::Route { layers } => {
                    let mut v = Vec::new();
                    for &l in layers {
                        v.extend_from_slice(&outputs[l]);
                    }
                    v
                }
                LayerSpec::MaxPool { size, stride, pad } => {
                    let mut v = vec![i16::MIN; out_shape.len()];
                    for c in 0..prev_shape.c {
                        for oy in 0..out_shape.h {
                            for ox in 0..out_shape.w {
                                let mut best = i16::MIN;
                                for ky in 0..*size {
                                    for kx in 0..*size {
                                        let iy = (oy * stride + ky) as isize - (*pad / 2) as isize;
                                        let ix = (ox * stride + kx) as isize - (*pad / 2) as isize;
                                        if iy >= 0
                                            && ix >= 0
                                            && (iy as usize) < prev_shape.h
                                            && (ix as usize) < prev_shape.w
                                        {
                                            best = best.max(
                                                prev[(c * prev_shape.h + iy as usize)
                                                    * prev_shape.w
                                                    + ix as usize],
                                            );
                                        }
                                    }
                                }
                                v[(c * out_shape.h + oy) * out_shape.w + ox] = best;
                            }
                        }
                    }
                    v
                }
                LayerSpec::Upsample => {
                    let mut v = vec![0i16; out_shape.len()];
                    for c in 0..prev_shape.c {
                        for y in 0..out_shape.h {
                            for x in 0..out_shape.w {
                                v[(c * out_shape.h + y) * out_shape.w + x] =
                                    prev[(c * prev_shape.h + y / 2) * prev_shape.w + x / 2];
                            }
                        }
                    }
                    v
                }
                LayerSpec::Yolo { anchors } => {
                    heads.push(YoloHeadOutput {
                        layer: idx,
                        shape: prev_shape,
                        data: dequantize(&prev, q),
                        anchors: anchors.clone(),
                    });
                    prev.clone()
                }
            };
            outputs.push(out.clone());
            prev = out;
            prev_shape = out_shape;
        }
        Ok((heads, NetworkReport { name: self.network.name.clone(), layers: reports }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::darknet::{darknet53_yolov3, tiny_config};
    use crate::gemm::gemm;

    #[test]
    fn run_layer_matches_host_gemm() {
        let mapping = GemmMapping::default();
        let dims = GemmDims { m: 4, n: 10, k: 6 };
        let a: Vec<i16> = (0..24).map(|i| (i * 7 % 50 - 25) as i16).collect();
        let b: Vec<i16> = (0..60).map(|i| (i * 13 % 60 - 30) as i16).collect();
        let (c_dpu, report) = mapping.run_layer(dims, 2, &a, &b).unwrap();
        let mut c_host = vec![0i16; 40];
        gemm(dims, 2, &a, &b, &mut c_host);
        assert_eq!(c_dpu, c_host);
        assert_eq!(report.dpus, 4);
        assert!(report.memory_bound, "GEMM kernel must be MRAM-bound");
    }

    #[test]
    fn measured_host_traffic_tracks_the_estimate() {
        // The functional path's actual host-link bytes must agree with the
        // analytic `host_bytes` (the functional path additionally carries
        // the C rows *to* MRAM on the kernel's behalf, so it can exceed
        // the estimate slightly, never the reverse by much).
        let mapping = GemmMapping::default();
        let dims = GemmDims { m: 6, n: 40, k: 12 };
        let a = vec![1i16; dims.m * dims.k];
        let b = vec![2i16; dims.k * dims.n];
        let (_, report) = mapping.run_layer(dims, 1, &a, &b).unwrap();
        assert!(report.measured_host_bytes > 0);
        let ratio = report.measured_host_bytes as f64 / report.host_bytes as f64;
        assert!((0.8..2.0).contains(&ratio), "measured/estimated = {ratio}");
    }

    #[test]
    fn estimate_scales_with_dims() {
        let mapping = GemmMapping::default();
        let small = mapping.estimate_layer(GemmDims { m: 8, n: 100, k: 72 });
        let big = mapping.estimate_layer(GemmDims { m: 8, n: 400, k: 72 });
        assert!(big.kernel.cycles > 3 * small.kernel.cycles);
        // Same per-DPU work, more DPUs => same DPU time, more host bytes.
        let wide = mapping.estimate_layer(GemmDims { m: 16, n: 100, k: 72 });
        assert_eq!(wide.kernel.cycles, small.kernel.cycles);
        assert!(wide.host_bytes > small.host_bytes);
    }

    #[test]
    fn threading_helps_until_eleven() {
        let dims = GemmDims { m: 1, n: 3300, k: 64 };
        let time = |t: usize| {
            let m = GemmMapping { tasklets: t, ..GemmMapping::default() };
            m.estimate_layer(dims).dpu_seconds
        };
        let t1 = time(1);
        let t4 = time(4);
        let t11 = time(11);
        let t16 = time(16);
        let t24 = time(24);
        assert!(t4 < t1 / 2.0, "4 tasklets should cut time by >2x");
        assert!(t11 < t4, "11 beats 4");
        // Past the 11-stage pipeline the speedup flattens out (Fig. 4.7a):
        // most of the remaining headroom is the DMA-stall fraction.
        let s11 = t1 / t11;
        let s16 = t1 / t16;
        let s24 = t1 / t24;
        assert!(s16 < s11 * 1.25, "16 tasklets barely beat 11: {s11:.1} vs {s16:.1}");
        assert!(s24 < s11 * 1.35, "24 tasklets barely beat 11: {s11:.1} vs {s24:.1}");
    }

    #[test]
    fn full_network_estimate_matches_paper_shape() {
        let pipe = YoloPipeline::new(darknet53_yolov3());
        let rep = pipe.estimate();
        assert_eq!(rep.layers.len(), 75);
        let total = rep.total_seconds();
        // Paper: 65 s/frame, ≈0.9 s mean layer. Same order of magnitude.
        assert!(total > 20.0 && total < 200.0, "total {total}");
        assert!(rep.mean_layer_seconds() > 0.25, "mean {}", rep.mean_layer_seconds());
        assert!(rep.max_layer_seconds() < 10.0);
        // Host transfer dominates DPU compute — the mapping's bottleneck.
        assert!(rep.host_transfer_seconds() > rep.dpu_seconds());
    }

    #[test]
    fn tiny_network_runs_end_to_end() {
        let net = tiny_config();
        let pipe = YoloPipeline::new(net.clone());
        let input: Vec<f32> = (0..net.input.len()).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
        let (heads, report) = pipe.run(&input).unwrap();
        assert_eq!(heads.len(), 2);
        assert_eq!(report.layers.len(), net.conv_count());
        assert_eq!(heads[0].shape.c, 18);
        assert!(heads[0].data.iter().any(|&v| v != 0.0), "head output all zero");
    }

    #[test]
    fn deterministic_runs() {
        let net = tiny_config();
        let input: Vec<f32> = vec![0.25; net.input.len()];
        let (h1, _) = YoloPipeline::new(net.clone()).run(&input).unwrap();
        let (h2, _) = YoloPipeline::new(net).run(&input).unwrap();
        assert_eq!(h1, h2);
    }
}

#[cfg(test)]
mod frame_per_dpu_tests {
    use super::*;
    use crate::darknet::{darknet53_yolov3, darknet53_yolov3_scaled};

    #[test]
    fn full_yolov3_weights_overflow_mram() {
        // §6.1: "the difficulty of fitting one image into a DPU" — the
        // full model's i16 weights are ~123 MB against 64 MB MRAM.
        let r = GemmMapping::default().estimate_frame_per_dpu(&darknet53_yolov3());
        assert!(r.weights_bytes > 100_000_000, "weights {}", r.weights_bytes);
        assert!(!r.fits_mram);
    }

    #[test]
    fn halved_network_fits_and_wins_on_throughput() {
        let mapping = GemmMapping::default();
        let net = darknet53_yolov3_scaled(2, 416);
        let frame = mapping.estimate_frame_per_dpu(&net);
        assert!(frame.fits_mram, "half-width weights {} must fit", frame.weights_bytes);
        // Row mapping: one frame at a time, transfer-dominated.
        let row = YoloPipeline { network: net, mapping, seed: 0 }.estimate();
        let row_fps = 1.0 / row.total_seconds();
        assert!(
            frame.system_frames_per_second > 10.0 * row_fps,
            "frame-per-DPU {} fps vs row {} fps",
            frame.system_frames_per_second,
            row_fps
        );
        // But its single-frame latency is far worse (one DPU does all MACs).
        assert!(frame.frame_seconds > row.dpu_seconds());
    }

    #[test]
    fn ctmp_fit_threshold_matches_stack_budget() {
        let mapping = GemmMapping::default();
        // 13x13 head layers fit; 104x104 backbone layers do not.
        assert!(mapping.ctmp_fits_wram(GemmDims { m: 1024, n: 169, k: 4608 }));
        assert!(!mapping.ctmp_fits_wram(GemmDims { m: 128, n: 10816, k: 576 }));
    }
}

#[cfg(test)]
mod pipelining_tests {
    use super::*;
    use crate::darknet::darknet53_yolov3;

    #[test]
    fn pipelined_fps_bounded_by_the_link() {
        let rep = YoloPipeline::new(darknet53_yolov3()).estimate();
        let serial_fps = 1.0 / rep.total_seconds();
        let pipelined = rep.pipelined_fps();
        assert!(pipelined > serial_fps, "overlap must help");
        // But not by much: the link is ~6x the compute, so the ceiling is
        // ~(1 + compute/transfer) of the serial rate.
        let bound = serial_fps * (1.0 + rep.dpu_seconds() / rep.host_transfer_seconds()) * 1.01;
        assert!(pipelined <= bound, "pipelined {pipelined} vs bound {bound}");
    }
}
