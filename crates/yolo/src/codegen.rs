//! Tier-1 code generation for the GEMM row kernel: Algorithm 2's inner
//! loops as a complete DPU program with tasklet-strided columns, executed
//! across a multi-DPU set under the Fig. 4.6 mapping.
//!
//! Together with `ebnn::codegen` this closes the loop on both CNN paths:
//! the exact orchestration the paper describes — row-of-`A` scatter,
//! whole-`B` broadcast, per-DPU row kernels, `C`-row gather — runs at
//! instruction level and is checked bit-for-bit against the host GEMM.
//!
//! ## WRAM layout
//!
//! ```text
//! 0x0000  params     n, k, alpha, tasklet stride (4 × u32)
//! 0x0040  A row      K × i16 (chunk-DMA'd by tasklet 0)
//! ....    C row      N × i16 (written by all tasklets, strided)
//! ....    staging    8 bytes per tasklet for B-element DMAs
//! ```

use crate::gemm::GemmDims;
use dpu_sim::asm::assemble;
use dpu_sim::{DpuId, Program};
use pim_host::{DpuSet, HostError, LaunchReport, LaunchSpec, ResilientLaunchPolicy};
use pim_trace::TraceBuffer;

/// MRAM symbol offsets (sequential `define_symbol` order).
pub mod mram {
    /// `n, k, alpha, stride` (4 × u32).
    pub const PARAMS: u32 = 0;
    /// The DPU's row of `A`.
    pub const A_ROW: u32 = 16;
    /// Start of `B` for capacity `a_cap` (computed at runtime).
    #[must_use]
    pub fn b_base(a_cap: u32) -> u32 {
        A_ROW + a_cap
    }
}

/// WRAM addresses for the given dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmWramLayout {
    /// Params block.
    pub params: u32,
    /// A-row base.
    pub a_row: u32,
    /// C-row base.
    pub c_row: u32,
    /// Per-tasklet staging slots.
    pub staging: u32,
}

impl GemmWramLayout {
    /// Layout for one GEMM row kernel.
    ///
    /// # Panics
    /// When `A` + `C` rows overflow the WRAM data region.
    #[must_use]
    pub fn new(dims: GemmDims) -> Self {
        let params = 0u32;
        let a_row = 0x40u32;
        let a_bytes = ((dims.k * 2).div_ceil(8) * 8) as u32;
        let c_row = a_row + a_bytes;
        let c_bytes = ((dims.n * 2).div_ceil(8) * 8) as u32;
        let staging = c_row + c_bytes;
        let end = staging + 24 * 8;
        assert!(end <= 48 * 1024, "A+C rows overflow WRAM: {end:#x}");
        Self { params, a_row, c_row, staging }
    }
}

/// Generate the strided GEMM row program for the given dimensions.
///
/// Tasklet `t` computes columns `t, t+T, t+2T, …` (the paper's "one column
/// index and subsequent multiples"). `B` stays in MRAM — every element is
/// an 8-byte-granule DMA, reproducing the memory-bound behaviour §4.3.3
/// describes.
///
/// # Panics
/// When the WRAM layout overflows (use small layers; see
/// [`GemmWramLayout::new`]).
#[must_use]
pub fn gemm_row_program(dims: GemmDims) -> Program {
    let l = GemmWramLayout::new(dims);
    let s = format!(
        "\
        me r1\n\
        bne r1, r0, wait0\n\
        ; tasklet 0: params, then the A row in 2048-byte chunks\n\
        movi r3, {par_w}\n\
        movi r4, {par_m}\n\
        movi r5, 16\n\
        mram.read r3, r4, r5\n\
        movi r6, 0              ; offset\n\
        movi r7, {a_bytes}\n\
        aloop: bge r6, r7, adone\n\
        sub r8, r7, r6\n\
        movi r9, 2048\n\
        blt r8, r9, asmall\n\
        mov r8, r9\n\
        asmall:\n\
        movi r3, {a_w}\n\
        add r3, r3, r6\n\
        movi r4, {a_m}\n\
        add r4, r4, r6\n\
        mram.read r3, r4, r8\n\
        add r6, r6, r8\n\
        jmp aloop\n\
        adone:\n\
        wait0: barrier\n\
        lw r2, r0, {par_w}      ; n\n\
        lw r3, r0, {par_w_k}    ; k\n\
        lw r14, r0, {par_w_al}  ; alpha\n\
        lw r18, r0, {par_w_st}  ; stride\n\
        ; staging slot for my B-element DMAs\n\
        lsli r19, r1, 3\n\
        addi r19, r19, {stage}\n\
        mov r6, r1              ; j = id\n\
        jloop: bge r6, r2, jend\n\
        movi r7, 0              ; acc\n\
        movi r8, 0              ; kk\n\
        kloop: bge r8, r3, kend\n\
        ; A[kk] from WRAM, sign-extended\n\
        lsli r10, r8, 1\n\
        addi r10, r10, {a_w}\n\
        lh r11, r10, 0\n\
        lsli r11, r11, 16\n\
        asri r11, r11, 16\n\
        call __mulsi3 r11, r11, r14   ; APART = alpha * A[kk]\n\
        ; B[kk*n + j]: one 2-byte DMA from MRAM\n\
        call __mulsi3 r12, r8, r2\n\
        add r12, r12, r6\n\
        lsli r12, r12, 1\n\
        addi r12, r12, {b_m}\n\
        movi r13, 2\n\
        mram.read r19, r12, r13\n\
        lh r13, r19, 0\n\
        lsli r13, r13, 16\n\
        asri r13, r13, 16\n\
        call __mulsi3 r13, r13, r11\n\
        add r7, r7, r13\n\
        addi r8, r8, 1\n\
        jmp kloop\n\
        kend:\n\
        ; C[j] = absolutemax(acc / 32, 32767)\n\
        movi r10, 32\n\
        call __divsi3 r7, r7, r10\n\
        movi r11, 32767\n\
        blt r7, r11, nohi\n\
        mov r7, r11\n\
        nohi:\n\
        movi r12, -32767\n\
        bge r7, r12, nolo\n\
        mov r7, r12\n\
        nolo:\n\
        lsli r10, r6, 1\n\
        addi r10, r10, {c_w}\n\
        sh r10, 0, r7\n\
        add r6, r6, r18\n\
        jmp jloop\n\
        jend: barrier\n\
        bne r1, r0, done\n\
        ; tasklet 0: write C back in chunks\n\
        movi r6, 0\n\
        movi r7, {c_bytes}\n\
        movi r9, 2048\n\
        closet: bge r6, r7, done\n\
        sub r8, r7, r6\n\
        blt r8, r9, csmall\n\
        mov r8, r9\n\
        csmall:\n\
        movi r3, {c_w}\n\
        add r3, r3, r6\n\
        movi r4, {c_m}\n\
        add r4, r4, r6\n\
        mram.write r3, r4, r8\n\
        add r6, r6, r8\n\
        jmp closet\n\
        done: halt\n",
        par_w = l.params,
        par_w_k = l.params + 4,
        par_w_al = l.params + 8,
        par_w_st = l.params + 12,
        par_m = mram::PARAMS,
        a_w = l.a_row,
        a_m = mram::A_ROW,
        a_bytes = (dims.k * 2).div_ceil(8) * 8,
        b_m = mram::b_base(((dims.k * 2).div_ceil(8) * 8) as u32),
        stage = l.staging,
        c_w = l.c_row,
        c_m = mram::b_base(((dims.k * 2).div_ceil(8) * 8) as u32)
            + ((dims.k * dims.n * 2).div_ceil(8) * 8) as u32,
        c_bytes = (dims.n * 2).div_ceil(8) * 8,
    );
    let program = assemble(&s).expect("generated GEMM program assembles");
    program.validate().expect("generated GEMM program has valid control flow");
    program
}

/// How [`run_tier1_layer`] runs a layer: its tasklet count and the choices
/// a [`pim_host::LaunchSpec`] carries.
#[derive(Debug, Clone, Copy)]
pub struct LayerRunSpec<'a> {
    /// Tasklets per DPU; tasklet `t` computes columns `t, t+T, …`.
    pub tasklets: usize,
    /// Record one simulator trace per DPU and the host-transfer log.
    /// Observational: `C` and the report are those of an untraced run.
    pub trace: bool,
    /// Launch under this fault-tolerance policy: a quarantined DPU's row
    /// is recomputed on a survivor. `None` is the plain launch, the
    /// policy's zero-fault case.
    pub policy: Option<&'a ResilientLaunchPolicy>,
}

impl LayerRunSpec<'_> {
    /// A plain, untraced run on `tasklets` tasklets.
    #[must_use]
    pub fn new(tasklets: usize) -> Self {
        Self { tasklets, trace: false, policy: None }
    }
}

/// A Tier-1 GEMM layer run by [`run_tier1_layer`].
#[derive(Debug, Clone)]
pub struct Tier1Layer {
    /// The `M×N` output matrix, row-major — the same even when some rows
    /// were computed on a stand-in DPU.
    pub c: Vec<i16>,
    /// The launch: per-DPU results (every DPU's row was served),
    /// attempts, injected faults, quarantines and re-dispatches.
    pub report: LaunchReport,
    /// One cycle-stamped trace per DPU (= per `A` row), empty unless
    /// [`LayerRunSpec::trace`].
    pub dpu_traces: Vec<TraceBuffer>,
    /// Host↔MRAM transfers: `B` broadcast, `A`-row scatter, `C`-row
    /// gather (empty unless [`LayerRunSpec::trace`]).
    pub host_trace: TraceBuffer,
    /// Output rows whose home DPU was quarantined and whose values a
    /// surviving DPU computed.
    pub redispatched: Vec<usize>,
    /// COW MRAM arena accounting after the gather: the broadcast `B`
    /// matrix's whole pages are stored once across the row-per-DPU set.
    pub mram_residency: dpu_sim::MramResidency,
}

/// Execute one conv layer's GEMM at instruction level under the Fig. 4.6
/// mapping on a one-shot [`RowEngine`]: `dims.m` DPUs, each loaded with
/// its `A` row and the whole `B`, running [`gemm_row_program`] once.
///
/// # Errors
/// Host-runtime failures, or — when some DPU's row went unserved (any
/// fault without a policy; with one, a row even re-dispatch could not
/// serve) — the first unserved DPU's error.
///
/// # Panics
/// When slice shapes don't match `dims`, `tasklets` is outside `1..=24`,
/// or the layout overflows WRAM.
pub fn run_tier1_layer(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    spec: LayerRunSpec<'_>,
) -> Result<Tier1Layer, HostError> {
    assert_eq!(a.len(), dims.m * dims.k, "A shape mismatch");
    let mut engine = RowEngine::build(dims, alpha, b, dims.m, spec.tasklets, spec.trace)?;
    engine.stage(a)?;
    let (report, dpu_traces) = engine.launch(spec.trace, spec.policy)?;
    let report = report.served()?;
    let (c, _) = engine.gather()?;
    let redispatched = report.items(&vec![1; dims.m]).redispatched;
    let host_trace = engine.set.take_host_trace().unwrap_or_default();
    let mram_residency = engine.set.system().mram_residency();
    Ok(Tier1Layer { c, report, dpu_traces, host_trace, redispatched, mram_residency })
}

/// Bytes of one `A` row on the wire: `K` halfwords, padded to the 8-byte
/// transfer granule.
fn a_row_cap(dims: GemmDims) -> usize {
    (dims.k * 2).div_ceil(8) * 8
}

/// A persistent row-GEMM executor: the DPU set is allocated once, the
/// shared `B` matrix and params are broadcast once (COW pages shared
/// across the set), and the program is loaded once — each batch then only
/// scatters its `A` rows, launches, and gathers `C` rows. Every Tier-1
/// YOLO layer runs on one: the `pim-serve` runtime keeps it for the life
/// of the service, [`run_tier1_layer`] builds one per layer. Unlike the
/// eBNN-side `Tier1Engine` it has a single A/C buffer pair (the GEMM
/// program bakes its MRAM bases), so the serving pipeline schedules it
/// serially.
#[derive(Debug)]
pub struct RowEngine {
    set: DpuSet,
    dims: GemmDims,
    dpus: usize,
    tasklets: usize,
    /// Rows staged on each DPU for the next launch (0 or 1).
    chunks: Vec<usize>,
    golden: pim_host::SetSnapshot,
}

impl RowEngine {
    /// Build an engine over `dpus` DPUs computing rows of `A × B` (shapes
    /// from `dims`; `dims.m` is ignored — the batch size is `dpus`).
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `dpus` is zero, `b` doesn't match `dims`, `tasklets` is
    /// outside `1..=24`, or the WRAM layout overflows.
    pub fn new(
        dims: GemmDims,
        alpha: i32,
        b: &[i16],
        dpus: usize,
        tasklets: usize,
    ) -> Result<Self, HostError> {
        Self::build(dims, alpha, b, dpus, tasklets, false)
    }

    /// [`RowEngine::new`], optionally recording host transfers: the four
    /// MRAM symbols defined in [`mram`] order, the params record and `B`
    /// broadcast, and [`gemm_row_program`] loaded.
    fn build(
        dims: GemmDims,
        alpha: i32,
        b: &[i16],
        dpus: usize,
        tasklets: usize,
        trace: bool,
    ) -> Result<Self, HostError> {
        assert!(dpus > 0, "engine needs at least one DPU");
        assert_eq!(b.len(), dims.k * dims.n, "B shape mismatch");
        assert!((1..=24).contains(&tasklets), "tasklets must be 1..=24");
        let mut set = DpuSet::allocate(dpus)?;
        if trace {
            set.enable_host_tracing();
        }
        set.define_symbol("params", 16)?;
        set.define_symbol("a_row", a_row_cap(dims))?;
        set.define_symbol("b", (dims.k * dims.n * 2).div_ceil(8) * 8)?;
        set.define_symbol("c_row", (dims.n * 2).div_ceil(8) * 8)?;

        let mut params = Vec::with_capacity(16);
        for v in [dims.n as u32, dims.k as u32, alpha as u32, tasklets as u32] {
            params.extend_from_slice(&v.to_le_bytes());
        }
        set.copy_to("params", 0, &params)?;
        set.copy_values_to("b", b)?;
        set.load(&gemm_row_program(dims))?;
        let golden = set.snapshot();
        Ok(Self { set, dims, dpus, tasklets, chunks: vec![0; dpus], golden })
    }

    /// Rows one batch can hold (= DPUs).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.dpus
    }

    /// The GEMM dimensions this engine was generated for.
    #[must_use]
    pub fn dims(&self) -> GemmDims {
        self.dims
    }

    /// The underlying set (engine pin, parallel threshold).
    #[must_use]
    pub fn set(&self) -> &DpuSet {
        &self.set
    }

    /// Mutable access to the underlying set.
    pub fn set_mut(&mut self) -> &mut DpuSet {
        &mut self.set
    }

    /// Restore the pristine `B`-loaded state captured at build time (see
    /// the eBNN engine's golden-snapshot rationale: fault-armed launches
    /// can leave quarantined DPUs' MRAM corrupted).
    ///
    /// # Errors
    /// Never in practice (the snapshot matches the set by construction).
    pub fn restore_golden(&mut self) -> Result<(), HostError> {
        self.set.restore(&self.golden)?;
        self.chunks.fill(0);
        Ok(())
    }

    /// Arm (or disarm) the SEC-DED MRAM sidecar on every DPU, then
    /// refresh the golden snapshot so [`RowEngine::restore_golden`] keeps
    /// the setting (as the eBNN engine's `enable_ecc` does).
    pub fn enable_ecc(&mut self, on: bool) {
        self.set.enable_ecc(on);
        self.golden = self.set.snapshot();
    }

    /// Scatter up to [`RowEngine::capacity`] `A` rows (`rows.len()` must
    /// be a multiple of `dims.k`), row `i` on DPU `i`. DPUs beyond the
    /// staged rows get an all-zero row; their `C` rows are not gathered.
    /// Returns the bytes written over the host link.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `rows` is empty, not a whole number of rows, or oversized.
    pub fn stage(&mut self, rows: &[i16]) -> Result<u64, HostError> {
        self.stage_live(rows, &vec![true; self.dpus])
    }

    /// [`RowEngine::stage`] onto the DPUs marked live (the serving
    /// circuit breaker's mask): row `i` on the `i`-th live DPU.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// As [`RowEngine::stage`], or when `live` does not cover every DPU.
    pub fn stage_live(&mut self, rows: &[i16], live: &[bool]) -> Result<u64, HostError> {
        assert!(!rows.is_empty(), "empty batch");
        assert_eq!(rows.len() % self.dims.k, 0, "A rows must be whole");
        assert_eq!(live.len(), self.dpus, "live mask must cover every DPU");
        let targets: Vec<usize> = (0..self.dpus).filter(|&d| live[d]).collect();
        assert!(rows.len() / self.dims.k <= targets.len(), "batch exceeds live capacity");
        let a_cap = a_row_cap(self.dims);
        let mut wire = vec![vec![0u8; a_cap]; self.dpus];
        self.chunks.fill(0);
        for (row, &d) in rows.chunks(self.dims.k).zip(&targets) {
            wire[d] = pim_host::to_wire(row).data;
            self.chunks[d] = 1;
        }
        self.set.copy_each("a_row", 0, a_cap, |dpu| &wire[dpu.0 as usize])?;
        Ok((a_cap * self.dpus) as u64)
    }

    /// Launch the staged batch, traced (see [`LaunchSpec::trace`]) and
    /// under a fault-tolerance policy if asked (see
    /// [`LaunchSpec::policy`]). [`LaunchReport::items`] maps the report
    /// onto the staged rows, one per DPU.
    ///
    /// # Errors
    /// Host-runtime failures (DPU faults, injected or not, are reported,
    /// not returned as errors).
    pub fn launch(
        &mut self,
        trace: bool,
        policy: Option<&ResilientLaunchPolicy>,
    ) -> Result<(LaunchReport, Vec<TraceBuffer>), HostError> {
        self.set.launch_with(LaunchSpec { trace, policy, ..LaunchSpec::loaded(self.tasklets) })
    }

    /// Gather the staged rows' `C` outputs in staging order, plus the
    /// bytes read over the host link.
    ///
    /// # Errors
    /// Host-runtime failures.
    pub fn gather(&self) -> Result<(Vec<i16>, u64), HostError> {
        let n = self.dims.n;
        let mut c = Vec::new();
        for d in (0..self.dpus).filter(|&d| self.chunks[d] > 0) {
            c.extend(self.set.copy_values_from_dpu::<i16>(DpuId(d as u32), "c_row", 0, n)?);
        }
        let bytes = (c.len() / n * ((n * 2).div_ceil(8) * 8)) as u64;
        Ok((c, bytes))
    }

    /// Rows staged on each DPU for the next launch (0 or 1), in DPU
    /// order: the `chunks` of [`LaunchReport::items`].
    #[must_use]
    pub fn staged_chunks(&self) -> &[usize] {
        &self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn pseudo(seed: &mut u64) -> i16 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 33) % 401) as i16 - 200
    }

    #[test]
    fn tier1_layer_matches_host_gemm() {
        let dims = GemmDims { m: 3, n: 10, k: 6 };
        let mut s = 7u64;
        let a: Vec<i16> = (0..dims.m * dims.k).map(|_| pseudo(&mut s)).collect();
        let b: Vec<i16> = (0..dims.k * dims.n).map(|_| pseudo(&mut s)).collect();
        let mut want = vec![0i16; dims.m * dims.n];
        gemm(dims, 2, &a, &b, &mut want);
        let run = run_tier1_layer(dims, 2, &a, &b, LayerRunSpec::new(4)).unwrap();
        assert_eq!(run.c, want);
        assert_eq!(run.report.per_dpu.len(), 3);
    }

    #[test]
    fn tier1_layer_correct_at_every_tasklet_count() {
        let dims = GemmDims { m: 2, n: 7, k: 4 };
        let mut s = 13u64;
        let a: Vec<i16> = (0..dims.m * dims.k).map(|_| pseudo(&mut s)).collect();
        let b: Vec<i16> = (0..dims.k * dims.n).map(|_| pseudo(&mut s)).collect();
        let mut want = vec![0i16; dims.m * dims.n];
        gemm(dims, 1, &a, &b, &mut want);
        for t in [1usize, 2, 3, 7, 11] {
            let got = run_tier1_layer(dims, 1, &a, &b, LayerRunSpec::new(t)).unwrap().c;
            assert_eq!(got, want, "tasklets = {t}");
        }
    }

    #[test]
    fn tier1_layer_is_memory_bound_like_the_model_says() {
        // The per-element B DMAs dominate: DMA stall cycles exceed a third
        // of total cycles even with the pipeline busy.
        let dims = GemmDims { m: 1, n: 64, k: 32 };
        let a: Vec<i16> = (0..dims.k).map(|i| (i as i16 % 20) - 10).collect();
        let b: Vec<i16> = (0..dims.k * dims.n).map(|i| (i as i16 % 30) - 15).collect();
        let run = run_tier1_layer(dims, 1, &a, &b, LayerRunSpec::new(11)).unwrap();
        let r = &run.report.per_dpu[0];
        assert!(r.dma_transfers as usize >= dims.k * dims.n, "per-element B DMAs");
    }

    #[test]
    fn program_fits_iram_for_real_layer_shapes() {
        // The head layers (13x13) are the ones small enough for Tier-1 runs.
        let p = gemm_row_program(GemmDims { m: 1, n: 169, k: 1024 });
        assert!(p.iram_bytes() <= dpu_sim::params::IRAM_BYTES);
    }
}

#[cfg(test)]
mod traced_tests {
    use super::*;
    use pim_trace::TraceEvent;

    #[test]
    fn traced_layer_is_identical_and_records_per_dpu_traces() {
        let dims = GemmDims { m: 2, k: 4, n: 3 };
        let a: Vec<i16> = (0..8).map(|v| v - 3).collect();
        let b: Vec<i16> = (0..12).map(|v| 2 - v).collect();
        let plain = run_tier1_layer(dims, 1, &a, &b, LayerRunSpec::new(2)).unwrap();
        let spec = LayerRunSpec { trace: true, ..LayerRunSpec::new(2) };
        let traced = run_tier1_layer(dims, 1, &a, &b, spec).unwrap();
        assert_eq!(traced.c, plain.c);
        assert_eq!(traced.report, plain.report);
        assert_eq!(traced.dpu_traces.len(), dims.m);
        for (d, buf) in traced.dpu_traces.iter().enumerate() {
            assert_eq!(buf.max_end_cycle(), plain.report.per_dpu[d].cycles, "DPU {d}");
            assert!(
                buf.count_matching(|e| matches!(e, TraceEvent::DmaTransfer { .. })) > 0,
                "DPU {d}"
            );
        }
        assert!(!traced.host_trace.is_empty());
    }
}
