//! The engine abstraction the service batches onto, plus the eBNN and
//! YOLO implementations over their persistent batch-slicing engines.

use crate::pipeline::PipelineMode;
use crate::traffic::splitmix64;
use ebnn::codegen::Tier1Engine;
use ebnn::model::EbnnModel;
use pim_host::{HostError, LaunchReport, ResilientLaunchPolicy, ServeHealth};
use yolo_pim::codegen::RowEngine;
use yolo_pim::gemm::GemmDims;

/// Per-item gathered results (`None` = lost item) plus bytes read on
/// the host link.
pub type Gathered<O> = (Vec<Option<O>>, u64);

/// What one launch did, in the units the scheduler needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRun {
    /// DPU compute makespan in simulated cycles.
    pub compute_cycles: u64,
    /// Items recomputed on a survivor after their home DPU quarantined.
    pub redispatched_items: usize,
    /// Items lost outright (quarantined, not redispatched) — their
    /// requests complete degraded.
    pub lost_items: usize,
    /// DPUs quarantined during this launch (circuit-breaker telemetry).
    pub quarantined_dpus: Vec<u32>,
    /// DPUs that served healthy-after-repair: retries consumed or
    /// single-bit errors corrected by ECC scrub / DMA verify-on-read.
    pub repaired_dpus: Vec<u32>,
    /// DPUs that had items staged this batch (probation probes are
    /// confirmed only by batches that actually landed work).
    pub active_dpus: Vec<u32>,
}

/// A persistent rank-batch executor the serving loop drives: stage items
/// into one of `buffers()` MRAM buffers, launch, gather. Implementations
/// own the fault policy (deriving a fresh per-batch fault seed) and the
/// golden-snapshot recovery story behind [`BatchEngine::dirty`].
pub trait BatchEngine {
    /// One staged work item (an encoded eBNN image slot, a GEMM row).
    type Item;
    /// One gathered result.
    type Output;

    /// Items one batch can hold.
    fn capacity(&self) -> usize;
    /// DPUs in the serving set.
    fn dpus(&self) -> usize;
    /// MRAM buffer pairs (2 enables the double-buffered schedule).
    fn buffers(&self) -> usize;

    /// Stage `items` into buffer `buf`; returns bytes written on the host
    /// link.
    ///
    /// # Errors
    /// Host-runtime failures.
    fn stage(&mut self, items: &[Self::Item], buf: usize) -> Result<u64, HostError>;

    /// Restrict staging to the DPUs marked live — the circuit breaker's
    /// ejection hook. Engines that cannot mask their staging ignore the
    /// hint (the default does nothing).
    fn set_live_mask(&mut self, live: &[bool]) {
        let _ = live;
    }

    /// Launch the last-staged buffer's batch; `seq` is the batch sequence
    /// number (mixed into the fault seed so each batch draws fresh
    /// faults).
    ///
    /// # Errors
    /// Host-runtime failures (injected faults degrade, they don't error).
    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError>;

    /// Gather buffer `buf`'s results in staging order (`None` = lost
    /// item), plus bytes read on the host link.
    ///
    /// # Errors
    /// Host-runtime failures.
    fn gather(&mut self, buf: usize) -> Result<Gathered<Self::Output>, HostError>;

    /// Whether a fault-armed launch left quarantined DPUs' MRAM dirty —
    /// the service restores the golden snapshot before the next staging.
    fn dirty(&self) -> bool;

    /// Restore the pristine weights-loaded state (forgets staged
    /// batches; the service flushes pending readbacks first).
    ///
    /// # Errors
    /// Host-runtime failures.
    fn restore(&mut self) -> Result<(), HostError>;

    /// Does nothing and reports no recompiled blocks. Kept only because
    /// the frozen `benchmark/src/decor.rs` overrides it; the
    /// benchmark-contract change of ROADMAP item 1 deletes it.
    ///
    /// # Errors
    /// None.
    fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError> {
        let _ = min_entries;
        Ok(0)
    }
}

/// Derive a per-batch policy: same retry/backoff knobs, fault seed mixed
/// with the batch sequence so each batch draws a fresh (but still fully
/// deterministic) fault pattern.
fn per_batch_policy(base: &ResilientLaunchPolicy, seq: u64) -> ResilientLaunchPolicy {
    let mut p = base.clone();
    if let Some(plan) = &p.faults {
        let cfg = plan.config().clone();
        let mixed = dpu_sim::FaultConfig { seed: splitmix64(cfg.seed ^ seq), ..cfg };
        p.faults = Some(dpu_sim::FaultPlan::new(mixed));
    }
    p
}

/// What `report` — the launch of a batch whose DPU `d` held `chunks[d]`
/// items — means to the scheduler, and which items were served (in
/// staging order). An engine without a policy does not degrade
/// (`degrades` unset): its first DPU fault fails the batch.
fn account(
    report: LaunchReport,
    chunks: &[usize],
    degrades: bool,
) -> Result<(BatchRun, Vec<bool>), HostError> {
    let report = if degrades { report } else { report.served()? };
    let items = report.items(chunks);
    let dpu = |d: usize| u32::try_from(d).expect("dpu index fits");
    let run = BatchRun {
        compute_cycles: report.makespan_cycles(),
        redispatched_items: items.redispatched.len(),
        lost_items: items.served.iter().filter(|&&ok| !ok).count(),
        quarantined_dpus: report.quarantined().into_iter().map(|d| d.0).collect(),
        repaired_dpus: (0..report.per_dpu.len())
            .filter(|&d| report.health(d) == ServeHealth::HealthyAfterRepair)
            .map(dpu)
            .collect(),
        active_dpus: (0..chunks.len()).filter(|&d| chunks[d] > 0).map(dpu).collect(),
    };
    Ok((run, items.served))
}

/// Pair gathered outputs with the served mask of their launch (`None`:
/// no launch masked them); unserved items come back `None`.
fn mask<O>(all: Vec<O>, served: Option<&Vec<bool>>) -> Vec<Option<O>> {
    match served {
        Some(served) => all.into_iter().zip(served).map(|(o, &ok)| ok.then_some(o)).collect(),
        None => all.into_iter().map(Some).collect(),
    }
}

/// eBNN tier-1 serving engine: items are 128-byte encoded image slots
/// (see [`ebnn::codegen::encode_slot`]), outputs are per-image feature
/// bytes. Double-buffered when built with [`PipelineMode::Double`].
pub struct EbnnServeEngine {
    inner: Tier1Engine,
    policy: Option<ResilientLaunchPolicy>,
    /// Per-buffer per-item served mask from the last launch into it.
    served: Vec<Option<Vec<bool>>>,
    active: usize,
    dirty: bool,
    /// Circuit-breaker liveness: staging skips DPUs marked dead.
    live: Vec<bool>,
}

impl EbnnServeEngine {
    /// Build over `dpus` DPUs; `policy` arms fault-tolerant launches.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// See [`Tier1Engine::with_buffers`].
    pub fn new(
        model: &EbnnModel,
        dpus: usize,
        pipeline: PipelineMode,
        policy: Option<ResilientLaunchPolicy>,
    ) -> Result<Self, HostError> {
        let buffers = match pipeline {
            PipelineMode::Double => 2,
            PipelineMode::Serial => 1,
        };
        let inner = Tier1Engine::with_buffers(model, dpus, buffers, false)?;
        let served = vec![None; buffers];
        Ok(Self { inner, policy, served, active: 0, dirty: false, live: vec![true; dpus] })
    }

    /// The wrapped batch-slicing engine.
    #[must_use]
    pub fn inner(&self) -> &Tier1Engine {
        &self.inner
    }

    /// Mutable access to the wrapped engine (post-run integrity audits:
    /// a final scrub of the serving set).
    pub fn inner_mut(&mut self) -> &mut Tier1Engine {
        &mut self.inner
    }

    /// Arm (or disarm) the SEC-DED MRAM sidecar on the serving set —
    /// delegates to [`Tier1Engine::enable_ecc`], which also refreshes
    /// the golden snapshot so mid-run restores keep the setting.
    pub fn enable_ecc(&mut self, on: bool) {
        self.inner.enable_ecc(on);
    }
}

impl BatchEngine for EbnnServeEngine {
    type Item = Vec<u8>;
    type Output = Vec<u8>;

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn dpus(&self) -> usize {
        self.inner.dpus()
    }

    fn buffers(&self) -> usize {
        self.inner.buffers()
    }

    fn stage(&mut self, items: &[Vec<u8>], buf: usize) -> Result<u64, HostError> {
        self.active = buf;
        self.served[buf] = None;
        self.inner.stage_encoded_live(items, buf, &self.live)
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        assert_eq!(live.len(), self.live.len(), "mask must cover every DPU");
        self.live.copy_from_slice(live);
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let chunks =
            self.inner.staged_chunks(self.active).expect("launch without staging").to_vec();
        let policy = self.policy.as_ref().map(|base| per_batch_policy(base, seq));
        let (report, _) = self.inner.launch(false, policy.as_ref())?;
        let (run, served) = account(report, &chunks, policy.is_some())?;
        self.dirty |= !run.quarantined_dpus.is_empty();
        self.served[self.active] = Some(served);
        Ok(run)
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<Vec<u8>>, HostError> {
        let (all, bytes) = self.inner.gather(buf)?;
        Ok((mask(all, self.served[buf].as_ref()), bytes))
    }

    fn dirty(&self) -> bool {
        self.dirty
    }

    fn restore(&mut self) -> Result<(), HostError> {
        self.inner.restore_golden()?;
        for s in &mut self.served {
            *s = None;
        }
        self.dirty = false;
        Ok(())
    }
}

/// YOLO row-GEMM serving engine: items are `A` rows (`k` values each),
/// outputs are `C` rows (`n` values each). Single-buffered — the GEMM
/// program bakes its MRAM bases — so the service schedules it serially.
pub struct YoloServeEngine {
    inner: RowEngine,
    policy: Option<ResilientLaunchPolicy>,
    served: Option<Vec<bool>>,
    dirty: bool,
    live: Vec<bool>,
}

impl YoloServeEngine {
    /// Build over `dpus` DPUs computing rows against the broadcast `b`.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// See [`RowEngine::new`].
    pub fn new(
        dims: GemmDims,
        alpha: i32,
        b: &[i16],
        dpus: usize,
        tasklets: usize,
        policy: Option<ResilientLaunchPolicy>,
    ) -> Result<Self, HostError> {
        let inner = RowEngine::new(dims, alpha, b, dpus, tasklets)?;
        Ok(Self { inner, policy, served: None, dirty: false, live: vec![true; dpus] })
    }

    /// The wrapped batch-slicing engine.
    #[must_use]
    pub fn inner(&self) -> &RowEngine {
        &self.inner
    }

    /// Arm (or disarm) the SEC-DED MRAM sidecar on the serving set —
    /// delegates to [`RowEngine::enable_ecc`].
    pub fn enable_ecc(&mut self, on: bool) {
        self.inner.enable_ecc(on);
    }
}

impl BatchEngine for YoloServeEngine {
    type Item = Vec<i16>;
    type Output = Vec<i16>;

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn dpus(&self) -> usize {
        self.inner.capacity()
    }

    fn buffers(&self) -> usize {
        1
    }

    fn stage(&mut self, items: &[Vec<i16>], buf: usize) -> Result<u64, HostError> {
        assert_eq!(buf, 0, "row engine is single-buffered");
        self.served = None;
        let k = self.inner.dims().k;
        let mut flat = Vec::with_capacity(items.len() * k);
        for row in items {
            assert_eq!(row.len(), k, "row length must be k");
            flat.extend_from_slice(row);
        }
        self.inner.stage_live(&flat, &self.live)
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        assert_eq!(live.len(), self.live.len(), "mask must cover every DPU");
        self.live.copy_from_slice(live);
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let chunks = self.inner.staged_chunks().to_vec();
        let policy = self.policy.as_ref().map(|base| per_batch_policy(base, seq));
        let (report, _) = self.inner.launch(false, policy.as_ref())?;
        let (run, served) = account(report, &chunks, policy.is_some())?;
        self.dirty |= !run.quarantined_dpus.is_empty();
        self.served = Some(served);
        Ok(run)
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<Vec<i16>>, HostError> {
        assert_eq!(buf, 0, "row engine is single-buffered");
        let (flat, bytes) = self.inner.gather()?;
        let rows = flat.chunks(self.inner.dims().n).map(<[i16]>::to_vec).collect();
        Ok((mask(rows, self.served.as_ref()), bytes))
    }

    fn dirty(&self) -> bool {
        self.dirty
    }

    fn restore(&mut self) -> Result<(), HostError> {
        self.inner.restore_golden()?;
        self.served = None;
        self.dirty = false;
        Ok(())
    }
}
