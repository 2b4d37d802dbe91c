//! The benchmark's workloads and the two paper kernels they run on.
//!
//! A [`Spec`] fixes everything about a workload except the seed: kernel,
//! set size, pipeline mode, traffic shape and offered rate, fault
//! campaign. A [`Kernel`] turns a spec and a seed into the real serving
//! engine plus a pool of inputs and their host-oracle outputs, and into
//! the bare engine the per-layer probes drive.

use dpu_sim::{DpuId, FaultConfig, FaultPlan, Program};
use ebnn::codegen::{encode_slot, params_wire, tier1_program, Tier1Engine};
use ebnn::model::{EbnnModel, ModelConfig};
use pim_host::{DpuSet, LinkFaultPlan, LinkPolicy, ResilientLaunchPolicy};
use pim_serve::{
    splitmix64, BatchEngine, BreakerConfig, EbnnServeEngine, PipelineMode, Rng64, ServeConfig,
    YoloServeEngine,
};
use std::collections::BTreeMap;
use std::time::Instant;
use yolo_pim::codegen::{gemm_row_program, RowEngine};
use yolo_pim::gemm::{gemm_row, GemmDims};

/// Which paper kernel a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// eBNN multi-image-per-DPU XNOR/popcount conv (tier-1 program).
    Ebnn {
        /// Binary conv filters.
        filters: usize,
    },
    /// Algorithm-2 GEMM, one `A` row per DPU.
    Yolo {
        /// Columns of `B` and `C`.
        n: usize,
        /// Inner dimension.
        k: usize,
        /// Tasklets per DPU.
        tasklets: usize,
    },
}

/// Traffic shape; the offered rate is fixed per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Independent users: arrivals follow the seeded schedule.
    Open {
        /// Mean inter-arrival gap in simulated cycles.
        mean_gap: u64,
        /// Items per request, uniform on `lo..=hi`.
        items: (u64, u64),
    },
    /// Callers that wait for their reply before sending the next request.
    Closed {
        /// Concurrent clients.
        clients: u64,
        /// Mean think time in simulated cycles.
        think: u64,
        /// Items per request.
        items: u64,
    },
}

/// Fault campaign of the guarded path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chaos {
    /// Per-attempt probability a DPU is offline.
    pub offline: f64,
    /// Per-transfer probability a DMA aborts.
    pub dma: f64,
    /// Per-transfer probability of a single bit flip.
    pub flip: f64,
    /// Per-attempt probability of a hang.
    pub hang: f64,
    /// Per-attempt probability a host transfer lands corrupted.
    pub link_corrupt: f64,
    /// Per-attempt probability a host transfer aborts.
    pub link_fail: f64,
    /// DPUs per circuit-breaker rank.
    pub breaker_rank_dpus: usize,
    /// A DPU that is offline on every attempt. The random faults alone
    /// quarantine a DPU so rarely that a few more or fewer of them move
    /// every simulated metric by a tenth from seed to seed; a scripted
    /// dead DPU exercises quarantine, redispatch, golden-snapshot restore
    /// and the breaker's eject/probe cycle in every batch, steadily.
    pub dead_dpu: u32,
}

/// One workload, fully specified up to the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the set.
    pub why: &'static str,
    /// Kernel served.
    pub model: Model,
    /// DPUs in the serving set.
    pub dpus: usize,
    /// Serving pipeline shape.
    pub pipeline: PipelineMode,
    /// Traffic shape and rate.
    pub load: Load,
    /// Requests per measured round (one round = one `serve` call).
    pub requests: u64,
    /// Requests of the warm-up `serve` call that ends set-up.
    pub warmup_requests: u64,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Head-of-line deadline in simulated cycles.
    pub max_batch_delay: u64,
    /// Fault campaign, when this is the guarded path.
    pub chaos: Option<Chaos>,
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ebnn_rank64",
        why: "the ROADMAP's named shape: one 64-DPU rank of eBNN, double-buffered, open loop; \
              nearly all host time is dpu-sim interpreting the barrier/DMA/popcount kernel",
        model: Model::Ebnn { filters: 1 },
        dpus: 64,
        pipeline: PipelineMode::Double,
        load: Load::Open { mean_gap: 20_000, items: (8, 24) },
        requests: 300,
        warmup_requests: 60,
        queue_capacity: 64,
        max_batch_delay: 500_000,
        chaos: None,
    },
    Spec {
        name: "yolo_rows16",
        why: "the same simulator used differently: YOLO GEMM rows with one 2-byte DMA per \
              multiply, serial pipeline, closed loop, requests split across two batches",
        model: Model::Yolo { n: 169, k: 144, tasklets: 11 },
        dpus: 16,
        pipeline: PipelineMode::Serial,
        load: Load::Closed { clients: 4, think: 200_000, items: 32 },
        requests: 8,
        warmup_requests: 1,
        queue_capacity: 64,
        max_batch_delay: 500_000,
        chaos: None,
    },
    Spec {
        name: "ebnn_chaos16",
        why: "the guarded path beside the plain one: ECC, CRC-checked transfers with link \
              faults, DPU faults, resilient retry/restore/redispatch and the circuit breaker",
        model: Model::Ebnn { filters: 1 },
        dpus: 16,
        pipeline: PipelineMode::Double,
        load: Load::Open { mean_gap: 100_000, items: (4, 12) },
        requests: 300,
        warmup_requests: 100,
        queue_capacity: 64,
        max_batch_delay: 2_000_000,
        chaos: Some(Chaos {
            offline: 0.002,
            dma: 0.004,
            flip: 0.02,
            hang: 0.004,
            link_corrupt: 0.01,
            link_fail: 0.005,
            breaker_rank_dpus: 4,
            dead_dpu: 5,
        }),
    },
    Spec {
        name: "ebnn_rank2560_sparse",
        why: "the paper's full 2,560-DPU machine under sparse traffic: deadline cuts of 1-2 \
              requests, so idle-DPU dispatch, allocation, set-up and memory dominate, not \
              interpretation",
        model: Model::Ebnn { filters: 1 },
        dpus: 2560,
        pipeline: PipelineMode::Double,
        load: Load::Open { mean_gap: 700_000, items: (8, 24) },
        requests: 80,
        warmup_requests: 16,
        queue_capacity: 64,
        max_batch_delay: 500_000,
        chaos: None,
    },
];

/// Look a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Independent seed streams derived from the run seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Model weights / `B` matrix.
    Model,
    /// Input pool.
    Pool,
    /// DPU fault plan.
    Faults,
    /// Link fault plan.
    Link,
    /// Warm-up traffic.
    Warmup,
    /// Measured round `i`'s traffic.
    Round(u64),
}

/// The seed of `stream` under run seed `seed`.
#[must_use]
pub fn derive_seed(seed: u64, stream: Stream) -> u64 {
    let tag = match stream {
        Stream::Model => 1,
        Stream::Pool => 2,
        Stream::Faults => 3,
        Stream::Link => 4,
        Stream::Warmup => 5,
        Stream::Round(i) => 0x1_0000 + i,
    };
    splitmix64(splitmix64(seed) ^ tag)
}

impl Spec {
    /// The serving-loop configuration; never consults the environment.
    #[must_use]
    pub fn serve_config(&self, record_outputs: bool) -> ServeConfig {
        ServeConfig {
            queue_capacity: self.queue_capacity,
            max_batch_delay: self.max_batch_delay,
            pipeline: self.pipeline,
            record_outputs,
            breaker: self.chaos.map(|c| BreakerConfig {
                rank_dpus: c.breaker_rank_dpus,
                ..BreakerConfig::default()
            }),
            ..ServeConfig::default()
        }
    }

    /// The fault-tolerant launch policy of the guarded path.
    #[must_use]
    pub fn launch_policy(&self, seed: u64) -> Option<ResilientLaunchPolicy> {
        self.chaos.map(|c| {
            ResilientLaunchPolicy::with_faults(FaultPlan::new(FaultConfig {
                seed: derive_seed(seed, Stream::Faults),
                dpu_offline_prob: c.offline,
                dma_fail_prob: c.dma,
                bit_flip_prob: c.flip,
                hang_prob: c.hang,
                forced_offline: vec![c.dead_dpu],
                ..FaultConfig::default()
            }))
        })
    }

    /// The checked-transfer policy of the guarded path. Six retries keep
    /// the chance that a transfer exhausts them (a hard `serve` error)
    /// below 1e-12 at these fault rates.
    #[must_use]
    pub fn link_policy(&self, seed: u64) -> Option<LinkPolicy> {
        self.chaos.map(|c| LinkPolicy {
            max_retries: 6,
            ..LinkPolicy::with_faults(LinkFaultPlan {
                seed: derive_seed(seed, Stream::Link),
                corrupt_prob: c.link_corrupt,
                fail_prob: c.link_fail,
            })
        })
    }
}

/// Host time of the set-up phases, for the per-layer budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildPhases {
    /// Generating the DPU program (`tier1_program` / `gemm_row_program`).
    pub codegen_ms: f64,
    /// Encoding one pool item (`encode_slot`); 0 for kernels whose
    /// inputs need no encoding.
    pub encode_us_per_item: f64,
    /// Building the serving engine (allocate, broadcast, load, snapshot).
    pub engine_new_ms: f64,
}

/// A bare engine with direct access to its [`DpuSet`], for probes.
pub trait Rig {
    /// The set.
    fn set(&self) -> &DpuSet;
    /// The set, mutably.
    fn set_mut(&mut self) -> &mut DpuSet;
    /// Tasklets a full batch launches with.
    fn tasklets(&self) -> usize;
    /// DPUs the launch probes keep busy: at most one 64-DPU rank, so a
    /// 2,560-DPU rig does not interpret 40,960 images.
    fn busy_dpus(&self) -> usize {
        self.set().len().min(64)
    }
    /// Items that fill [`Rig::busy_dpus`].
    fn busy_items(&self) -> usize;
    /// Stage the first `items` items of the full batch; returns bytes
    /// sent.
    fn stage(&mut self, items: usize) -> u64;
    /// Stage "no work" on every DPU; `false` when the kernel has no
    /// idle path (every DPU always computes).
    fn stage_idle(&mut self) -> bool;
    /// Gather the staged batch; returns bytes read.
    fn gather(&mut self) -> u64;
}

/// One of the paper's kernels behind the serving engine.
pub trait Kernel: Sized {
    /// The serving engine.
    type Engine: BatchEngine<Item = Self::Item, Output = Self::Output>;
    /// A staged work item.
    type Item: Clone;
    /// A gathered result.
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// Generate the model and the input pool from `seed`.
    fn generate(spec: &Spec, seed: u64) -> Self;
    /// The input pool requests draw from.
    fn pool(&self) -> &[Self::Item];
    /// Host-oracle output of one pool item, computed without the DPU
    /// path.
    fn oracle(&self, item: &Self::Item) -> Self::Output;
    /// Build the serving engine as the workload configures it.
    fn engine(&self, spec: &Spec, seed: u64) -> Self::Engine;
    /// The serving engine's set.
    fn engine_set(engine: &Self::Engine) -> &DpuSet;
    /// The DPU program this kernel loads.
    fn program(&self) -> Program;
    /// Host time to encode one pool item, in microseconds.
    fn encode_us_per_item(&self) -> f64;
    /// A bare engine over `dpus` DPUs for the probes.
    fn rig(&self, dpus: usize, buffers: usize) -> Box<dyn Rig>;
}

/// Everything set-up produces.
pub struct Built<K: Kernel> {
    /// Model and pool.
    pub kernel: K,
    /// The serving engine.
    pub engine: K::Engine,
    /// Host time of the phases.
    pub phases: BuildPhases,
}

/// Model generate + pool encode + engine build.
pub fn build<K: Kernel>(spec: &Spec, seed: u64) -> Built<K> {
    let kernel = K::generate(spec, seed);
    let t = Instant::now();
    std::hint::black_box(kernel.program());
    let codegen_ms = t.elapsed().as_secs_f64() * 1e3;
    let encode_us_per_item = kernel.encode_us_per_item();
    let t = Instant::now();
    let engine = kernel.engine(spec, seed);
    let engine_new_ms = t.elapsed().as_secs_f64() * 1e3;
    Built { kernel, engine, phases: BuildPhases { codegen_ms, encode_us_per_item, engine_new_ms } }
}

/// Items per pool: enough variety that DPUs hold different data, small
/// enough that the oracle table is cheap.
const POOL_ITEMS: u64 = 64;

/// The eBNN kernel: model, raw images and their encoded slots.
pub struct EbnnKernel {
    model: EbnnModel,
    images: Vec<ebnn::mnist::GrayImage>,
    slots: Vec<Vec<u8>>,
    features: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl Kernel for EbnnKernel {
    type Engine = EbnnServeEngine;
    type Item = Vec<u8>;
    type Output = Vec<u8>;

    fn generate(spec: &Spec, seed: u64) -> Self {
        let Model::Ebnn { filters } = spec.model else { panic!("not an eBNN workload") };
        let model = EbnnModel::generate(ModelConfig {
            filters,
            seed: derive_seed(seed, Stream::Model),
            ..ModelConfig::default()
        });
        let mut rng = Rng64::new(derive_seed(seed, Stream::Pool));
        let images: Vec<_> = (0..POOL_ITEMS)
            .map(|i| ebnn::mnist::synth_digit((i % 10) as usize, rng.range(0, 1 << 32)))
            .collect();
        let slots: Vec<Vec<u8>> = images.iter().map(|g| encode_slot(&model, g)).collect();
        // The oracle works on the raw image, not on the slot the DPU
        // sees, so a broken `encode_slot` cannot hide behind itself.
        let features = images
            .iter()
            .zip(&slots)
            .map(|(g, slot)| (slot.clone(), model.features(&model.binarize(&g.pixels))))
            .collect();
        Self { model, images, slots, features }
    }

    fn pool(&self) -> &[Vec<u8>] {
        &self.slots
    }

    fn oracle(&self, item: &Vec<u8>) -> Vec<u8> {
        self.features[item].clone()
    }

    fn engine(&self, spec: &Spec, seed: u64) -> EbnnServeEngine {
        let mut engine =
            EbnnServeEngine::new(&self.model, spec.dpus, spec.pipeline, spec.launch_policy(seed))
                .expect("eBNN serving engine builds");
        if spec.chaos.is_some() {
            engine.enable_ecc(true);
            engine.inner_mut().set_mut().set_link_policy(spec.link_policy(seed));
        }
        engine
    }

    fn engine_set(engine: &EbnnServeEngine) -> &DpuSet {
        engine.inner().set()
    }

    fn program(&self) -> Program {
        tier1_program(self.model.config.filters)
    }

    fn encode_us_per_item(&self) -> f64 {
        let t = Instant::now();
        for g in &self.images {
            std::hint::black_box(encode_slot(&self.model, std::hint::black_box(g)));
        }
        t.elapsed().as_secs_f64() * 1e6 / self.images.len() as f64
    }

    fn rig(&self, dpus: usize, buffers: usize) -> Box<dyn Rig> {
        let engine = Tier1Engine::with_buffers(&self.model, dpus, buffers, false)
            .expect("eBNN probe engine builds");
        let full: Vec<Vec<u8>> =
            (0..engine.capacity()).map(|i| self.slots[i % self.slots.len()].clone()).collect();
        Box::new(EbnnRig { engine, full })
    }
}

struct EbnnRig {
    engine: Tier1Engine,
    full: Vec<Vec<u8>>,
}

impl Rig for EbnnRig {
    fn set(&self) -> &DpuSet {
        self.engine.set()
    }

    fn set_mut(&mut self) -> &mut DpuSet {
        self.engine.set_mut()
    }

    fn tasklets(&self) -> usize {
        ebnn::IMAGES_PER_DPU
    }

    fn busy_items(&self) -> usize {
        self.busy_dpus() * ebnn::IMAGES_PER_DPU
    }

    fn stage(&mut self, items: usize) -> u64 {
        self.engine.stage_encoded(&self.full[..items], 0).expect("stage eBNN batch")
    }

    fn stage_idle(&mut self) -> bool {
        // What the serving engine writes to a DPU with no chunk: a
        // params record with `n_images = 0`.
        let idle = params_wire(0, 1, ebnn::codegen::mram::IMAGES, ebnn::codegen::mram::FEATURES);
        for d in 0..self.engine.dpus() {
            self.engine
                .set_mut()
                .copy_to_dpu(DpuId(d as u32), "params", 0, &idle)
                .expect("stage idle params");
        }
        true
    }

    fn gather(&mut self) -> u64 {
        self.engine.gather(0).expect("gather eBNN batch").1
    }
}

/// The YOLO GEMM-row kernel: `B`, and a pool of `A` rows.
pub struct YoloKernel {
    dims: GemmDims,
    alpha: i32,
    tasklets: usize,
    b: Vec<i16>,
    rows: Vec<Vec<i16>>,
}

impl Kernel for YoloKernel {
    type Engine = YoloServeEngine;
    type Item = Vec<i16>;
    type Output = Vec<i16>;

    fn generate(spec: &Spec, seed: u64) -> Self {
        let Model::Yolo { n, k, tasklets } = spec.model else { panic!("not a YOLO workload") };
        let dims = GemmDims { m: spec.dpus, n, k };
        // Small Q-format values: products stay far from the ±32767 clamp,
        // so a wrong accumulation shows instead of saturating away.
        let value = |rng: &mut Rng64| rng.range(0, 126) as i16 - 63;
        let mut rng = Rng64::new(derive_seed(seed, Stream::Model));
        let b = (0..k * n).map(|_| value(&mut rng)).collect();
        let mut rng = Rng64::new(derive_seed(seed, Stream::Pool));
        let rows = (0..POOL_ITEMS).map(|_| (0..k).map(|_| value(&mut rng)).collect()).collect();
        Self { dims, alpha: 1, tasklets, b, rows }
    }

    fn pool(&self) -> &[Vec<i16>] {
        &self.rows
    }

    fn oracle(&self, item: &Vec<i16>) -> Vec<i16> {
        let mut c = vec![0i16; self.dims.n];
        gemm_row(self.dims, self.alpha, item, &self.b, &mut c);
        c
    }

    fn engine(&self, spec: &Spec, seed: u64) -> YoloServeEngine {
        YoloServeEngine::new(
            self.dims,
            self.alpha,
            &self.b,
            spec.dpus,
            self.tasklets,
            spec.launch_policy(seed),
        )
        .expect("YOLO serving engine builds")
    }

    fn engine_set(engine: &YoloServeEngine) -> &DpuSet {
        engine.inner().set()
    }

    fn program(&self) -> Program {
        gemm_row_program(self.dims)
    }

    fn encode_us_per_item(&self) -> f64 {
        0.0
    }

    fn rig(&self, dpus: usize, _buffers: usize) -> Box<dyn Rig> {
        let engine = RowEngine::new(self.dims, self.alpha, &self.b, dpus, self.tasklets)
            .expect("YOLO probe engine builds");
        let full = (0..dpus).flat_map(|i| self.rows[i % self.rows.len()].iter().copied()).collect();
        Box::new(YoloRig { engine, full, tasklets: self.tasklets })
    }
}

struct YoloRig {
    engine: RowEngine,
    full: Vec<i16>,
    tasklets: usize,
}

impl Rig for YoloRig {
    fn set(&self) -> &DpuSet {
        self.engine.set()
    }

    fn set_mut(&mut self) -> &mut DpuSet {
        self.engine.set_mut()
    }

    fn tasklets(&self) -> usize {
        self.tasklets
    }

    fn busy_items(&self) -> usize {
        self.busy_dpus()
    }

    fn stage(&mut self, items: usize) -> u64 {
        self.engine.stage(&self.full[..items * self.engine.dims().k]).expect("stage GEMM batch")
    }

    fn stage_idle(&mut self) -> bool {
        false
    }

    fn gather(&mut self) -> u64 {
        self.engine.gather().expect("gather GEMM batch").1
    }
}
