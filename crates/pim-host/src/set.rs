//! DPU set allocation and broadcast transfers.
//!
//! A [`DpuSet`] is the host's handle on a group of simulated DPUs, mirroring
//! `dpu_alloc` / `dpu_copy_to` / `dpu_copy_from` / `dpu_launch` from the
//! UPMEM SDK. All DPUs of a set share the same symbol layout (they run the
//! same program); broadcast copies ([`DpuSet::copy_to`], the paper's
//! Eq. 3.1) write identical bytes to every DPU, while per-DPU copies
//! ([`DpuSet::copy_to_dpu`] and the scatter [`DpuSet::copy_each`])
//! write distinct buffers.

use crate::crc32c::crc32c;
use crate::error::{HostError, Result};
use crate::launch::DEFAULT_PARALLEL_THRESHOLD;
use crate::link::{LinkPolicy, LinkStats};
use crate::symbol::{Symbol, SymbolTable};
use dpu_sim::{CowMemory, DpuId, DpuParams, Engine, ExecProgram, Mram, PimSystem, ScrubReport};
use pim_trace::{HostDirection, TraceBuffer, TraceEvent, TraceSink};

/// A host-allocated set of DPUs with a shared symbol table.
#[derive(Debug)]
pub struct DpuSet {
    system: PimSystem,
    symbols: SymbolTable,
    loaded: Option<ExecProgram>,
    engine: Option<Engine>,
    parallel_threshold: Option<usize>,
    xfer_stats: std::collections::BTreeMap<String, TransferStats>,
    // `RefCell` because gather paths (`copy_from_dpu`) take `&self`; host
    // transfers are strictly host-thread-sequential, so no contention.
    host_trace: Option<std::cell::RefCell<HostTrace>>,
    // Checked-transfer state (CRC framing + link fault injection), same
    // `RefCell` rationale as `host_trace`.
    link: Option<std::cell::RefCell<LinkState>>,
}

/// Mutable state of the checked-transfer layer.
#[derive(Debug)]
struct LinkState {
    policy: LinkPolicy,
    /// Monotone transfer sequence number: the determinism axis of link
    /// fault draws (each logical transfer gets a fresh draw site).
    seq: u64,
    stats: LinkStats,
}

/// Recording state for host↔MRAM transfer events.
#[derive(Debug, Default)]
struct HostTrace {
    buffer: TraceBuffer,
    seq: u64,
}

/// Host-link traffic accumulated for one symbol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Bytes sent host → DPUs (broadcasts count once per DPU reached).
    pub to_dpu_bytes: u64,
    /// Bytes read DPUs → host.
    pub from_dpu_bytes: u64,
    /// Individual transfer operations.
    pub operations: u64,
}

impl DpuSet {
    /// Allocate `n` DPUs with default device parameters.
    ///
    /// # Errors
    /// [`HostError::BadAllocation`] when `n` is zero or exceeds the 2560-DPU
    /// system.
    pub fn allocate(n: usize) -> Result<Self> {
        Self::allocate_with(n, DpuParams::default())
    }

    /// Allocate `n` DPUs with explicit device parameters.
    ///
    /// # Errors
    /// [`HostError::BadAllocation`] when `n` is zero or exceeds the system.
    pub fn allocate_with(n: usize, params: DpuParams) -> Result<Self> {
        if n == 0 || n > dpu_sim::params::SYSTEM_DPUS {
            return Err(HostError::BadAllocation { requested: n });
        }
        Ok(Self {
            system: PimSystem::new(n, params),
            symbols: SymbolTable::new(),
            loaded: None,
            engine: None,
            parallel_threshold: None,
            xfer_stats: std::collections::BTreeMap::new(),
            host_trace: None,
            link: None,
        })
    }

    /// Arm checked transfers: every subsequent host↔DPU copy is framed
    /// with a CRC-32C, verified on the receiving side, and retried with
    /// exponential backoff under `policy` (which may also carry a seeded
    /// [`crate::link::LinkFaultPlan`] to inject link faults). `None`
    /// restores plain unchecked transfers.
    pub fn set_link_policy(&mut self, policy: Option<LinkPolicy>) {
        self.link = policy.map(|policy| {
            std::cell::RefCell::new(LinkState { policy, seq: 0, stats: LinkStats::default() })
        });
    }

    /// The checked-transfer policy currently armed, if any.
    #[must_use]
    pub fn link_policy(&self) -> Option<LinkPolicy> {
        self.link.as_ref().map(|cell| cell.borrow().policy)
    }

    /// Telemetry accumulated by checked transfers so far (zeroed when
    /// checked transfers were never armed).
    #[must_use]
    pub fn link_stats(&self) -> LinkStats {
        self.link.as_ref().map(|cell| cell.borrow().stats).unwrap_or_default()
    }

    /// Turn the MRAM SEC-DED sidecar on (or off) for every DPU of the
    /// set. See [`CowMemory::set_ecc_shared`]: enabling back-fills codes
    /// for resident pages, each distinct page encoded once, so DPUs that
    /// share a page share its sidecar.
    pub fn enable_ecc(&mut self, on: bool) {
        CowMemory::set_ecc_shared(on, self.system.iter_mut().map(|(_, dpu)| &mut *dpu.mram));
    }

    /// Whether the set's MRAM ECC sidecar is enabled (uniform across the
    /// set; reports DPU 0's state).
    #[must_use]
    pub fn ecc_enabled(&self) -> bool {
        self.system.dpu(DpuId(0)).mram.ecc_enabled()
    }

    /// Scrub every DPU's resident MRAM pages against the ECC sidecar,
    /// repairing single-bit errors in place, and return the merged
    /// report. Each distinct (page, sidecar) pair is decoded once
    /// ([`CowMemory::scrub_shared`]). A no-op (empty report) when ECC is
    /// off.
    pub fn scrub_all(&mut self) -> ScrubReport {
        CowMemory::scrub_shared(self.system.iter_mut().map(|(_, dpu)| &mut *dpu.mram))
    }

    /// Total MRAM words repaired inline by DMA verify-on-read across the
    /// set (monotone; see [`dpu_sim::IntegrityCounters`]).
    #[must_use]
    pub fn dma_corrected_total(&self) -> u64 {
        (0..self.system.len())
            .map(|i| self.system.dpu(DpuId(i as u32)).integrity.dma_corrected)
            .sum()
    }

    /// Start recording every host↔MRAM transfer as a
    /// [`TraceEvent::HostTransfer`]. Events carry a monotonic sequence
    /// number (host transfers have no DPU cycle stamp) and the symbol,
    /// byte count, direction and target DPU (`None` for broadcasts).
    pub fn enable_host_tracing(&mut self) {
        if self.host_trace.is_none() {
            self.host_trace = Some(std::cell::RefCell::new(HostTrace::default()));
        }
    }

    /// Stop recording host transfers and hand back everything recorded
    /// since [`DpuSet::enable_host_tracing`], or `None` when tracing was
    /// never enabled.
    pub fn take_host_trace(&mut self) -> Option<TraceBuffer> {
        self.host_trace.take().map(|cell| cell.into_inner().buffer)
    }

    fn record_host(&self, direction: HostDirection, symbol: &str, bytes: u64, dpu: Option<u32>) {
        if let Some(cell) = &self.host_trace {
            let mut t = cell.borrow_mut();
            let seq = t.seq;
            t.seq += 1;
            t.buffer.record(TraceEvent::HostTransfer {
                direction,
                symbol: symbol.to_owned(),
                bytes,
                dpu,
                seq,
            });
        }
    }

    /// Number of DPUs in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.system.len()
    }

    /// True when the set is empty (never happens after allocation).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.system.is_empty()
    }

    /// Device parameters of the set.
    #[must_use]
    pub fn params(&self) -> DpuParams {
        self.system.params
    }

    /// The shared symbol table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Define a new MRAM symbol on every DPU of the set.
    ///
    /// # Errors
    /// See [`SymbolTable::define`].
    pub fn define_symbol(&mut self, name: &str, capacity: usize) -> Result<Symbol> {
        self.symbols.define(name, capacity)
    }

    /// Borrow the underlying system (for Tier-2 kernels that need raw MRAM
    /// access).
    #[must_use]
    pub fn system(&self) -> &PimSystem {
        &self.system
    }

    /// Mutably borrow the underlying system.
    pub fn system_mut(&mut self) -> &mut PimSystem {
        &mut self.system
    }

    /// Environment variable overriding the default parallel-launch
    /// threshold (the set size below which launches run on the calling
    /// thread), mirroring [`Engine::ENV_VAR`]. Unparseable values fall
    /// back to the built-in default.
    pub const PARALLEL_THRESHOLD_ENV: &'static str = "PIM_HOST_PARALLEL_THRESHOLD";

    /// Pin this set's parallel-launch threshold (`None` restores the
    /// ambient default, which honors [`DpuSet::PARALLEL_THRESHOLD_ENV`]).
    /// Sets smaller than the threshold launch sequentially on the calling
    /// thread; larger sets fork one worker per core for the launch.
    pub fn set_parallel_threshold(&mut self, threshold: Option<usize>) {
        self.parallel_threshold = threshold;
    }

    /// The effective parallel-launch threshold: the pinned value, else the
    /// environment override, else the built-in default.
    #[must_use]
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold.unwrap_or_else(|| {
            std::env::var(Self::PARALLEL_THRESHOLD_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(DEFAULT_PARALLEL_THRESHOLD)
        })
    }

    /// Split-borrow what one launch needs: the system and the loaded
    /// program.
    pub(crate) fn launch_parts(&mut self) -> (&mut PimSystem, Option<&ExecProgram>) {
        (&mut self.system, self.loaded.as_ref())
    }

    /// Load a program onto every DPU of the set (`dpu_load`): validates
    /// control flow and the IRAM footprint once and decodes the program
    /// into its [`ExecProgram`] execution form — including the superblock
    /// decomposition the interpreter's fast path dispatches from — kept for
    /// [`DpuSet::launch_loaded`]. The SDK's load-once/launch-many pattern —
    /// launches of the loaded program skip validation, decoding, and
    /// superblock analysis.
    ///
    /// # Errors
    /// [`HostError::Dpu`] when the program is malformed or exceeds IRAM.
    pub fn load(&mut self, program: &dpu_sim::Program) -> Result<()> {
        let exec = ExecProgram::compile(program)?;
        let iram = self.system.params.iram_bytes;
        if exec.iram_bytes() > iram {
            return Err(HostError::Dpu(dpu_sim::Error::ProgramTooLarge {
                bytes: exec.iram_bytes(),
                iram_bytes: iram,
            }));
        }
        self.loaded = Some(exec);
        Ok(())
    }

    /// The currently loaded program, if any.
    #[must_use]
    pub fn loaded_program(&self) -> Option<&dpu_sim::Program> {
        self.loaded.as_ref().map(ExecProgram::source)
    }

    /// Pin the execution engine every launch from this set uses
    /// (`None` restores the ambient default, which honors the
    /// `PIM_SIM_ENGINE` environment override — see
    /// [`Engine::effective`]).
    pub fn set_engine(&mut self, engine: Option<Engine>) {
        self.engine = engine;
    }

    /// The engine pinned by [`DpuSet::set_engine`], if any.
    #[must_use]
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    fn check_dpu(&self, dpu: DpuId) -> Result<()> {
        if (dpu.0 as usize) < self.system.len() {
            Ok(())
        } else {
            Err(HostError::NoSuchDpu { index: dpu.0, len: self.system.len() })
        }
    }

    /// Broadcast `src` to `symbol` at `symbol_offset` on **every** DPU
    /// (`dpu_copy_to`, Eq. 3.1). `src` must obey the 8-byte rule — use
    /// [`crate::align::PaddedBuf`] for arbitrary payloads.
    ///
    /// The bytes land through one set-wide write
    /// ([`CowMemory::write_shared`]): DPUs whose touched pages started out
    /// as one storage end up holding one page between them, whole or
    /// partial, so a rank-wide weight or LUT image costs one copy of
    /// itself instead of one per DPU; a DPU that later writes such a page
    /// gets its own copy transparently.
    ///
    /// Checked, each DPU's leg then injects and verifies its copy
    /// independently. A DPU whose copy fails verification rewrites only
    /// its own range (copy-on-write privatizes just that DPU's pages), so
    /// the common clean case keeps one shared image across the whole set.
    ///
    /// # Errors
    /// Alignment, symbol and bounds violations.
    pub fn copy_to(&mut self, symbol: &str, symbol_offset: usize, src: &[u8]) -> Result<()> {
        let addr = self.symbols.resolve(symbol, symbol_offset, src.len())?;
        CowMemory::write_shared(addr, self.system.iter_mut().map(|(_, d)| (&mut *d.mram, src)))?;
        if let Some(link) = &self.link {
            let mut link = link.borrow_mut();
            let seq = link.begin();
            let frame = crc32c(src);
            for (id, dpu) in self.system.iter_mut() {
                let mram = &mut dpu.mram;
                link.leg(seq, id.0, src.len(), symbol, |n, attempt| {
                    if n > 0 {
                        // Relaunch this DPU's leg from the host image.
                        mram.write(addr, src)?;
                    }
                    let Attempt::Landed(corrupt) = attempt else { return Ok(false) };
                    landed_verifies(mram, addr, src.len(), corrupt, frame)
                })?;
            }
        }
        let dpus = self.system.len() as u64;
        self.count_transfer(symbol, src.len() as u64 * dpus, dpus);
        // A broadcast is one host-link operation reaching every DPU.
        self.record_host(
            HostDirection::HostToMram,
            symbol,
            (src.len() * self.system.len()) as u64,
            None,
        );
        Ok(())
    }

    /// Copy `src` to a single DPU's `symbol` at `symbol_offset`.
    ///
    /// Checked, an injected link fault lands through the normal write
    /// path, so with ECC enabled the sidecar is refreshed over the
    /// corrupt byte — a link error is *not* a storage error, and only the
    /// CRC frame (never the ECC) may catch it.
    ///
    /// # Errors
    /// Alignment, symbol, bounds, or unknown-DPU violations.
    pub fn copy_to_dpu(
        &mut self,
        dpu: DpuId,
        symbol: &str,
        symbol_offset: usize,
        src: &[u8],
    ) -> Result<()> {
        self.check_dpu(dpu)?;
        let addr = self.symbols.resolve(symbol, symbol_offset, src.len())?;
        self.write_leg(dpu, addr, symbol, src)?;
        self.count_transfer(symbol, src.len() as u64, 1);
        Ok(())
    }

    /// Copy a different `len`-byte buffer to `symbol` at `symbol_offset`
    /// on every DPU (`dpu_prepare_xfer` + `dpu_push_xfer`, Eqs. 3.2–3.3):
    /// DPU `d`, in DPU order, receives the first `len` bytes of `src(d)`.
    ///
    /// The symbol is resolved and the alignment checked once, and the
    /// traffic counted once, with the totals of one
    /// [`DpuSet::copy_to_dpu`] per DPU, and traced, each DPU records its
    /// own host-transfer event. Unchecked, the bytes land through one
    /// set-wide write, so runs of DPUs that receive equal buffers — the
    /// idle DPUs of a batch — share the pages they write. Checked, each
    /// DPU's leg is exactly `copy_to_dpu`'s: it claims its own transfer
    /// sequence number and CRC frame in DPU order, and may be corrupted
    /// and retried on its own.
    ///
    /// # Errors
    /// [`HostError::XferShort`] when some `src(d)` is shorter than `len`
    /// (the first such DPU), and alignment, symbol and bounds violations,
    /// all before any DPU is written. A link integrity failure stops the
    /// copy at its DPU: the DPUs before it are written and counted.
    pub fn copy_each<'a>(
        &mut self,
        symbol: &str,
        symbol_offset: usize,
        len: usize,
        src: impl Fn(DpuId) -> &'a [u8],
    ) -> Result<()> {
        let mut dpus = (0..self.system.len() as u32).map(DpuId);
        if let Some(dpu) = dpus.clone().find(|&dpu| src(dpu).len() < len) {
            return Err(HostError::XferShort { dpu: dpu.0, len: src(dpu).len(), push: len });
        }
        let addr = self.symbols.resolve(symbol, symbol_offset, len)?;
        if self.link.is_none() {
            let legs = self.system.iter_mut().map(|(id, d)| (&mut *d.mram, &src(id)[..len]));
            CowMemory::write_shared(addr, legs)?;
            for dpu in dpus {
                self.record_host(HostDirection::HostToMram, symbol, len as u64, Some(dpu.0));
            }
            let n = self.system.len();
            self.count_transfer(symbol, (len * n) as u64, n as u64);
            return Ok(());
        }
        let mut written = 0;
        let outcome = dpus.try_for_each(|dpu| {
            self.write_leg(dpu, addr, symbol, &src(dpu)[..len])?;
            written += 1;
            Ok(())
        });
        if written > 0 {
            self.count_transfer(symbol, (len * written) as u64, written as u64);
        }
        outcome
    }

    /// One DPU's leg of a host → DPU copy of `src` to MRAM `addr`: the
    /// write (checked under a link policy) and its host-trace event.
    /// [`DpuSet::copy_to_dpu`] and checked scatters run it.
    fn write_leg(&mut self, dpu: DpuId, addr: usize, symbol: &str, src: &[u8]) -> Result<()> {
        let mram = &mut self.system.dpu_mut(dpu).mram;
        match &self.link {
            Some(link) => {
                let mut link = link.borrow_mut();
                let (seq, frame) = (link.begin(), crc32c(src));
                link.leg(seq, dpu.0, src.len(), symbol, |_, attempt| {
                    let Attempt::Landed(corrupt) = attempt else { return Ok(false) };
                    mram.write(addr, src)?;
                    landed_verifies(mram, addr, src.len(), corrupt, frame)
                })?;
            }
            None => mram.write(addr, src)?,
        }
        self.record_host(HostDirection::HostToMram, symbol, src.len() as u64, Some(dpu.0));
        Ok(())
    }

    /// Read `dst.len()` bytes from a single DPU's `symbol` at
    /// `symbol_offset` (`dpu_copy_from`).
    ///
    /// Checked, the sender frames the true MRAM bytes with their CRC, the
    /// link may corrupt the received copy in `dst`, and the receiver
    /// verifies before accepting. On failure `dst` is zeroed so a caller
    /// that ignores the error cannot consume the corrupt payload.
    ///
    /// # Errors
    /// Alignment, symbol, bounds, or unknown-DPU violations.
    pub fn copy_from_dpu(
        &self,
        dpu: DpuId,
        symbol: &str,
        symbol_offset: usize,
        dst: &mut [u8],
    ) -> Result<()> {
        self.check_dpu(dpu)?;
        let addr = self.symbols.resolve(symbol, symbol_offset, dst.len())?;
        let mram = &self.system.dpu(dpu).mram;
        match &self.link {
            Some(link) => {
                let mut link = link.borrow_mut();
                let seq = link.begin();
                let verified = link.leg(seq, dpu.0, dst.len(), symbol, |_, attempt| {
                    let Attempt::Landed(corrupt) = attempt else { return Ok(false) };
                    mram.read(addr, dst)?;
                    let frame = crc32c(dst);
                    if let Some((byte, bit)) = corrupt {
                        dst[byte] ^= 1 << bit;
                    }
                    Ok(crc32c(dst) == frame)
                });
                if verified.is_err() {
                    dst.fill(0);
                }
                verified?;
            }
            None => mram.read(addr, dst)?,
        }
        // `xfer_stats` counts only the host→DPU direction (it dominates
        // every workload here, and this method is `&self`); the trace log,
        // behind a `RefCell`, records gathers too.
        self.record_host(HostDirection::MramToHost, symbol, dst.len() as u64, Some(dpu.0));
        Ok(())
    }

    /// Broadcast a scalar (the idiom used to communicate unpadded lengths,
    /// §3.2): writes the 8-byte little-endian encoding of `value`.
    ///
    /// # Errors
    /// Symbol and bounds violations.
    pub fn copy_scalar_to(&mut self, symbol: &str, value: u64) -> Result<()> {
        self.copy_to(symbol, 0, &value.to_le_bytes())
    }

    /// Account one host → DPU copy to `symbol`. Looks the symbol up before
    /// inserting it: a serving batch makes thousands of copies to a key
    /// that already exists, and `entry` would allocate its `String` for
    /// each of them.
    fn count_transfer(&mut self, symbol: &str, bytes: u64, operations: u64) {
        let stats = match self.xfer_stats.get_mut(symbol) {
            Some(stats) => stats,
            None => self.xfer_stats.entry(symbol.to_owned()).or_default(),
        };
        stats.to_dpu_bytes += bytes;
        stats.operations += operations;
    }

    /// Per-symbol host-link traffic so far (host → DPU direction).
    #[must_use]
    pub fn transfer_stats(&self) -> &std::collections::BTreeMap<String, TransferStats> {
        &self.xfer_stats
    }

    /// Total host → DPU bytes across all symbols.
    #[must_use]
    pub fn total_bytes_to_dpus(&self) -> u64 {
        self.xfer_stats.values().map(|s| s.to_dpu_bytes).sum()
    }

    /// Read back a scalar from one DPU.
    ///
    /// # Errors
    /// Symbol, bounds, or unknown-DPU violations.
    pub fn copy_scalar_from(&self, dpu: DpuId, symbol: &str) -> Result<u64> {
        let mut b = [0u8; 8];
        self.copy_from_dpu(dpu, symbol, 0, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// How one attempt of a checked transfer leg fared on the link.
enum Attempt {
    /// Aborted before landing (the SDK's transient `DPU_ERR_DRIVER`).
    Aborted,
    /// Landed, with the `(byte, bit)` the link flipped on the way, if any.
    Landed(Option<(usize, u8)>),
}

impl LinkState {
    /// Begin one logical checked transfer: claim the sequence number all
    /// its legs draw their faults at.
    fn begin(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// The retry loop every checked transfer leg of `len` bytes to `dpu`
    /// runs. Attempt `n` first charges retry `n`'s backoff — so a leg's
    /// charges sum to [`LinkPolicy::cumulative_backoff`] of its retries,
    /// saturating — then draws whether it aborts and, if not, which bit it
    /// corrupts, and hands that to `leg`, which moves the bytes and
    /// reports whether the CRC-32C frame verified. Every draw and every
    /// [`LinkStats`] field is accounted here.
    fn leg(
        &mut self,
        seq: u64,
        dpu: u32,
        len: usize,
        symbol: &str,
        mut leg: impl FnMut(u32, Attempt) -> Result<bool>,
    ) -> Result<()> {
        let (policy, stats) = (self.policy, &mut self.stats);
        for n in 0..=policy.max_retries {
            if n > 0 {
                stats.retries += 1;
                let charge = policy.cumulative_backoff(n) - policy.cumulative_backoff(n - 1);
                stats.backoff_cycles = stats.backoff_cycles.saturating_add(charge);
            }
            if policy.faults.is_some_and(|p| p.fails(seq, dpu, n)) {
                leg(n, Attempt::Aborted)?;
                stats.aborted_attempts += 1;
                continue;
            }
            let corrupt = policy.faults.and_then(|p| p.corrupts(seq, dpu, n, len));
            if leg(n, Attempt::Landed(corrupt))? {
                stats.transfers += 1;
                stats.bytes_verified += len as u64;
                return Ok(());
            }
            stats.crc_mismatches += 1;
        }
        stats.exhausted += 1;
        Err(HostError::LinkIntegrity {
            symbol: symbol.to_owned(),
            dpu,
            attempts: policy.max_retries + 1,
        })
    }
}

/// Flip the link's corrupted bit, if any, in the `len` bytes that landed
/// at `addr`, then read them back and check them against `frame`.
fn landed_verifies(
    mram: &mut Mram,
    addr: usize,
    len: usize,
    corrupt: Option<(usize, u8)>,
    frame: u32,
) -> Result<bool> {
    if let Some((byte, bit)) = corrupt {
        let mut b = [0u8];
        mram.read(addr + byte, &mut b)?;
        b[0] ^= 1 << bit;
        mram.write(addr + byte, &b)?;
    }
    let mut back = vec![0u8; len];
    mram.read(addr, &mut back)?;
    Ok(crc32c(&back) == frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_bounds() {
        assert!(matches!(DpuSet::allocate(0), Err(HostError::BadAllocation { .. })));
        assert!(matches!(DpuSet::allocate(4000), Err(HostError::BadAllocation { .. })));
        assert_eq!(DpuSet::allocate(16).unwrap().len(), 16);
    }

    #[test]
    fn broadcast_reaches_every_dpu() {
        let mut set = DpuSet::allocate(4).unwrap();
        set.define_symbol("buf", 64).unwrap();
        set.copy_to("buf", 8, &[9u8; 16]).unwrap();
        for i in 0..4 {
            let mut out = [0u8; 16];
            set.copy_from_dpu(DpuId(i), "buf", 8, &mut out).unwrap();
            assert_eq!(out, [9u8; 16]);
        }
    }

    #[test]
    fn per_dpu_copy_is_isolated() {
        let mut set = DpuSet::allocate(3).unwrap();
        set.define_symbol("buf", 16).unwrap();
        set.copy_to_dpu(DpuId(1), "buf", 0, &[5u8; 8]).unwrap();
        let mut out = [0u8; 8];
        set.copy_from_dpu(DpuId(0), "buf", 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 8]);
        set.copy_from_dpu(DpuId(1), "buf", 0, &mut out).unwrap();
        assert_eq!(out, [5u8; 8]);
    }

    #[test]
    fn unknown_dpu_rejected() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("buf", 16).unwrap();
        let r = set.copy_to_dpu(DpuId(5), "buf", 0, &[0u8; 8]);
        assert!(matches!(r, Err(HostError::NoSuchDpu { index: 5, len: 2 })));
    }

    #[test]
    fn misaligned_broadcast_rejected() {
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", 16).unwrap();
        assert!(matches!(set.copy_to("buf", 0, &[0u8; 5]), Err(HostError::Alignment { .. })));
    }

    #[test]
    fn scalar_round_trip() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("n_images", 8).unwrap();
        set.copy_scalar_to("n_images", 784).unwrap();
        assert_eq!(set.copy_scalar_from(DpuId(1), "n_images").unwrap(), 784);
    }
}

#[cfg(test)]
mod checked_transfer_tests {
    use super::*;
    use crate::link::{LinkFaultPlan, LinkPolicy};
    use dpu_sim::MRAM_PAGE_BYTES;

    fn filled(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
    }

    #[test]
    fn clean_checked_transfers_verify_and_count() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("buf", 64).unwrap();
        set.set_link_policy(Some(LinkPolicy::default()));
        let payload = filled(32, 3);
        set.copy_to_dpu(DpuId(0), "buf", 0, &payload).unwrap();
        let mut back = vec![0u8; 32];
        set.copy_from_dpu(DpuId(0), "buf", 0, &mut back).unwrap();
        assert_eq!(back, payload);
        let s = set.link_stats();
        assert!(s.clean(), "{s:?}");
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes_verified, 64);
        // Disarming restores plain transfers (stats stop accumulating).
        set.set_link_policy(None);
        set.copy_to_dpu(DpuId(0), "buf", 0, &payload).unwrap();
        assert_eq!(set.link_stats(), crate::link::LinkStats::default());
    }

    #[test]
    fn corrupted_write_is_caught_by_crc_and_repaired_by_retry() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("buf", 1024).unwrap();
        let plan = LinkFaultPlan { seed: 13, corrupt_prob: 0.5, fail_prob: 0.0 };
        set.set_link_policy(Some(LinkPolicy { max_retries: 8, ..LinkPolicy::with_faults(plan) }));
        let payload = filled(512, 7);
        for i in 0..8 {
            set.copy_to_dpu(DpuId(i % 2), "buf", 0, &payload).unwrap();
        }
        let s = set.link_stats();
        assert!(s.crc_mismatches > 0, "seed 13 at 0.5 must corrupt some attempt: {s:?}");
        assert_eq!(s.retries, s.crc_mismatches, "every mismatch costs exactly one retry");
        assert!(s.backoff_cycles > 0);
        assert_eq!(s.exhausted, 0);
        // The landed data is the true payload, not the corrupted frame.
        let mut back = vec![0u8; 512];
        set.set_link_policy(None);
        set.copy_from_dpu(DpuId(0), "buf", 0, &mut back).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn dead_link_with_seventy_retries_exhausts_and_saturates_backoff() {
        // 70 retries double the backoff past 2^64: the charges must
        // saturate, not shift out of range.
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", 64).unwrap();
        let dead = LinkFaultPlan { seed: 1, corrupt_prob: 0.0, fail_prob: 1.0 };
        let policy = LinkPolicy { max_retries: 70, ..LinkPolicy::with_faults(dead) };
        set.set_link_policy(Some(policy));
        for _ in 0..2 {
            let r = set.copy_to_dpu(DpuId(0), "buf", 0, &filled(32, 5));
            assert!(
                matches!(r, Err(HostError::LinkIntegrity { dpu: 0, attempts: 71, .. })),
                "{r:?}"
            );
        }
        let s = set.link_stats();
        assert_eq!((s.retries, s.aborted_attempts, s.exhausted), (140, 142, 2));
        assert_eq!(policy.cumulative_backoff(70), u64::MAX);
        assert_eq!(s.backoff_cycles, u64::MAX, "{s:?}");
        assert_eq!(s.transfers, 0);
    }

    #[test]
    fn corrupted_read_retries_until_the_frame_verifies() {
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", 256).unwrap();
        let payload = filled(256, 11);
        set.copy_to_dpu(DpuId(0), "buf", 0, &payload).unwrap();
        let plan = LinkFaultPlan { seed: 4, corrupt_prob: 0.6, fail_prob: 0.2 };
        set.set_link_policy(Some(LinkPolicy { max_retries: 16, ..LinkPolicy::with_faults(plan) }));
        for _ in 0..8 {
            let mut back = vec![0u8; 256];
            set.copy_from_dpu(DpuId(0), "buf", 0, &mut back).unwrap();
            assert_eq!(back, payload, "verified read must hand back true bytes");
        }
        let s = set.link_stats();
        assert!(s.crc_mismatches > 0 || s.aborted_attempts > 0, "faults must fire: {s:?}");
        assert_eq!(s.exhausted, 0);
        assert_eq!(s.transfers, 8);
    }

    #[test]
    fn persistent_corruption_exhausts_retries_and_zeroes_the_read() {
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", 64).unwrap();
        let payload = filled(64, 1);
        set.copy_to_dpu(DpuId(0), "buf", 0, &payload).unwrap();
        // Every attempt corrupts: no frame can ever verify.
        let plan = LinkFaultPlan { seed: 1, corrupt_prob: 1.0, fail_prob: 0.0 };
        set.set_link_policy(Some(LinkPolicy { max_retries: 3, ..LinkPolicy::with_faults(plan) }));
        let mut back = vec![0xAAu8; 64];
        let err = set.copy_from_dpu(DpuId(0), "buf", 0, &mut back).unwrap_err();
        assert!(matches!(err, HostError::LinkIntegrity { dpu: 0, attempts: 4, .. }), "{err:?}");
        assert_eq!(back, vec![0u8; 64], "failed read must not leak a corrupt payload");
        let s = set.link_stats();
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.crc_mismatches, 4);
    }

    #[test]
    fn checked_broadcast_repairs_corrupt_legs_and_keeps_clean_pages_shared() {
        let mut set = DpuSet::allocate(4).unwrap();
        set.define_symbol("w", 2 * MRAM_PAGE_BYTES).unwrap();
        let image: Vec<u8> = (0..2 * MRAM_PAGE_BYTES).map(|i| (i % 249) as u8).collect();
        // Seed 6 at 0.3 corrupts DPUs 1 and 3 on the first attempt and
        // leaves 0 and 2 clean — the shape this test needs.
        let plan = LinkFaultPlan { seed: 6, corrupt_prob: 0.3, fail_prob: 0.0 };
        set.set_link_policy(Some(LinkPolicy { max_retries: 8, ..LinkPolicy::with_faults(plan) }));
        set.copy_to("w", 0, &image).unwrap();
        let s = set.link_stats();
        assert_eq!(s.transfers, 4, "one verified leg per DPU");
        assert!(s.crc_mismatches > 0, "seed 6 at 0.3 must corrupt some leg: {s:?}");
        set.set_link_policy(None);
        for i in 0..4 {
            let mut back = vec![0u8; image.len()];
            set.copy_from_dpu(DpuId(i), "w", 0, &mut back).unwrap();
            assert_eq!(back, image, "DPU {i}");
        }
        // Only corrupted legs privatized their pages; the rest still
        // share the broadcast image.
        let res = set.system().mram_residency();
        assert!(res.distinct_pages < res.resident_pages, "some sharing must survive: {res:?}");
    }

    #[test]
    fn link_corruption_is_caught_by_crc_even_with_ecc_enabled() {
        // A link error corrupts the frame *after* the sidecar refresh, so
        // ECC sees a self-consistent (wrong) word and only the CRC frame
        // can catch it — the two layers guard different fault domains.
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("buf", 64).unwrap();
        set.enable_ecc(true);
        let plan = LinkFaultPlan { seed: 3, corrupt_prob: 0.7, fail_prob: 0.0 };
        set.set_link_policy(Some(LinkPolicy { max_retries: 16, ..LinkPolicy::with_faults(plan) }));
        let payload = filled(64, 9);
        for _ in 0..6 {
            set.copy_to_dpu(DpuId(0), "buf", 0, &payload).unwrap();
        }
        assert!(set.link_stats().crc_mismatches > 0, "{:?}", set.link_stats());
        // After CRC-verified repair the storage is consistent: nothing
        // for the scrubber to fix or report.
        let rep = set.scrub_all();
        assert_eq!((rep.corrected(), rep.uncorrectable.len()), (0, 0), "{rep:?}");
    }

    /// Satellite regression: a storage-cell error on one DPU of a
    /// broadcast-shared page must privatize that DPU's copy before
    /// corrupting it — the other DPUs' (shared) pages stay bit-exact,
    /// and an ECC scrub of the victim repairs it in place.
    #[test]
    fn raw_flip_on_shared_broadcast_page_stays_isolated_to_one_dpu() {
        let mut set = DpuSet::allocate(4).unwrap();
        set.define_symbol("w", MRAM_PAGE_BYTES).unwrap();
        set.enable_ecc(true);
        let image: Vec<u8> = (0..MRAM_PAGE_BYTES).map(|i| (i % 253) as u8).collect();
        set.copy_to("w", 0, &image).unwrap();

        let addr = set.symbols().resolve("w", 128, 8).unwrap();
        set.system_mut().dpu_mut(DpuId(2)).mram.flip_bit_raw(addr, 5).unwrap();

        for i in 0..4u32 {
            let mut back = vec![0u8; MRAM_PAGE_BYTES];
            set.copy_from_dpu(DpuId(i), "w", 0, &mut back).unwrap();
            if i == 2 {
                assert_ne!(back, image, "victim must observe its own corruption");
            } else {
                assert_eq!(back, image, "DPU {i} must not see DPU 2's fault");
            }
        }
        // The scrubber repairs the victim from its (shared-at-install)
        // sidecar; afterwards all four DPUs agree again.
        let report = set.scrub_all();
        assert_eq!((report.corrected_data, report.corrected()), (1, 1), "{report:?}");
        assert!(report.uncorrectable.is_empty(), "{report:?}");
        let mut back = vec![0u8; MRAM_PAGE_BYTES];
        set.copy_from_dpu(DpuId(2), "w", 0, &mut back).unwrap();
        assert_eq!(back, image, "scrub restored the victim bit-exactly");
    }
}

#[cfg(test)]
mod transfer_stats_tests {
    use super::*;

    #[test]
    fn broadcast_counts_once_per_dpu() {
        let mut set = DpuSet::allocate(4).unwrap();
        set.define_symbol("b", 64).unwrap();
        set.copy_to("b", 0, &[0u8; 32]).unwrap();
        let s = set.transfer_stats()["b"];
        assert_eq!(s.to_dpu_bytes, 32 * 4);
        assert_eq!(s.operations, 4);
    }

    #[test]
    fn per_dpu_copies_accumulate_per_symbol() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("a", 16).unwrap();
        set.define_symbol("b", 16).unwrap();
        set.copy_to_dpu(DpuId(0), "a", 0, &[0u8; 8]).unwrap();
        set.copy_to_dpu(DpuId(1), "a", 0, &[0u8; 16]).unwrap();
        set.copy_to_dpu(DpuId(0), "b", 0, &[0u8; 8]).unwrap();
        assert_eq!(set.transfer_stats()["a"].to_dpu_bytes, 24);
        assert_eq!(set.transfer_stats()["b"].to_dpu_bytes, 8);
        assert_eq!(set.total_bytes_to_dpus(), 32);
    }

    #[test]
    fn copy_each_scatters_len_bytes_in_dpu_order() {
        let mut set = DpuSet::allocate(3).unwrap();
        set.define_symbol("row", 16).unwrap();
        let rows: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; 16]).collect();
        set.copy_each("row", 0, 8, |dpu| &rows[dpu.0 as usize]).unwrap();
        for i in 0..3u32 {
            let mut out = [0u8; 16];
            set.copy_from_dpu(DpuId(i), "row", 0, &mut out).unwrap();
            assert_eq!(out[..8], [(i + 1) as u8; 8], "DPU {i} holds its own row");
            assert_eq!(out[8..], [0u8; 8], "bytes past the push length are untouched");
        }
        assert_eq!(
            (set.transfer_stats()["row"].to_dpu_bytes, set.transfer_stats()["row"].operations),
            (24, 3)
        );
    }

    #[test]
    fn short_second_buffer_is_reported_before_any_dpu_is_written() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("row", 8).unwrap();
        let rows = [vec![7u8; 8], vec![9u8; 4]];
        let err = set.copy_each("row", 0, 8, |dpu| &rows[dpu.0 as usize]).unwrap_err();
        assert_eq!(err, HostError::XferShort { dpu: 1, len: 4, push: 8 });
        let mut out = [0xAAu8; 8];
        set.copy_from_dpu(DpuId(0), "row", 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 8], "DPU 0's symbol is untouched");
    }
}

#[cfg(test)]
mod host_trace_tests {
    use super::*;
    use dpu_sim::MRAM_PAGE_BYTES;
    use pim_trace::TraceEvent;

    #[test]
    fn disabled_by_default() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("x", 8).unwrap();
        set.copy_scalar_to("x", 1).unwrap();
        assert!(set.take_host_trace().is_none());
    }

    #[test]
    fn records_all_directions_with_monotonic_seq() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("x", 16).unwrap();
        set.enable_host_tracing();
        set.copy_to("x", 0, &[0u8; 8]).unwrap(); // broadcast: 8 B x 2 DPUs
        set.copy_to_dpu(DpuId(1), "x", 8, &[0u8; 8]).unwrap();
        let mut out = [0u8; 8];
        set.copy_from_dpu(DpuId(0), "x", 0, &mut out).unwrap();
        let trace = set.take_host_trace().expect("enabled");
        let events = trace.events();
        assert_eq!(events.len(), 3);
        match &events[0] {
            TraceEvent::HostTransfer { direction, bytes, dpu, seq, symbol } => {
                assert_eq!(*direction, HostDirection::HostToMram);
                assert_eq!(*bytes, 16); // 8 bytes to each of 2 DPUs
                assert_eq!(*dpu, None);
                assert_eq!(*seq, 0);
                assert_eq!(symbol, "x");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &events[2] {
            TraceEvent::HostTransfer { direction, dpu, seq, .. } => {
                assert_eq!(*direction, HostDirection::MramToHost);
                assert_eq!(*dpu, Some(0));
                assert_eq!(*seq, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scatters_are_traced_through_the_copy_paths() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("row", 8).unwrap();
        set.enable_host_tracing();
        let rows = [[1u8; 8], [2u8; 8]];
        set.copy_each("row", 0, 8, |dpu| &rows[dpu.0 as usize]).unwrap();
        for d in 0..2 {
            set.copy_from_dpu(DpuId(d), "row", 0, &mut [0u8; 8]).unwrap();
        }
        let trace = set.take_host_trace().expect("enabled");
        let to = trace.count_matching(|e| {
            matches!(e, TraceEvent::HostTransfer { direction: HostDirection::HostToMram, .. })
        });
        let from = trace.count_matching(|e| {
            matches!(e, TraceEvent::HostTransfer { direction: HostDirection::MramToHost, .. })
        });
        assert_eq!((to, from), (2, 2));
    }

    fn tiny_program() -> dpu_sim::Program {
        dpu_sim::asm::assemble("movi r1, 7\nhalt\n").unwrap()
    }

    #[test]
    fn parallel_threshold_resolves_pin_then_env_then_default() {
        // The variable may be set for the whole run (CI's dispatch axis):
        // assert the default only when it is not, and put it back after.
        let ambient = std::env::var(DpuSet::PARALLEL_THRESHOLD_ENV).ok();
        let mut set = DpuSet::allocate(2).unwrap();
        if ambient.is_none() {
            assert_eq!(set.parallel_threshold(), crate::launch::DEFAULT_PARALLEL_THRESHOLD);
        }
        set.set_parallel_threshold(Some(9));
        assert_eq!(set.parallel_threshold(), 9);

        // Env override sits between the pin and the default. Scheduling
        // never changes results, so a transient env read elsewhere is
        // harmless.
        std::env::set_var(DpuSet::PARALLEL_THRESHOLD_ENV, "13");
        assert_eq!(set.parallel_threshold(), 9, "pin wins over env");
        set.set_parallel_threshold(None);
        assert_eq!(set.parallel_threshold(), 13);
        match ambient {
            Some(value) => std::env::set_var(DpuSet::PARALLEL_THRESHOLD_ENV, value),
            None => std::env::remove_var(DpuSet::PARALLEL_THRESHOLD_ENV),
        }
    }

    #[test]
    fn threshold_gates_the_fork_join() {
        fn observed<'a>(
            program: &'a dpu_sim::Program,
            obs: &'a mut crate::LaunchObservation,
        ) -> crate::LaunchSpec<'a> {
            crate::LaunchSpec { observe: Some(obs), ..crate::LaunchSpec::adhoc(program, 2) }
        }
        let program = tiny_program();

        // Below threshold: sequential path, no steal launch recorded.
        let mut seq = DpuSet::allocate(8).unwrap();
        seq.set_parallel_threshold(Some(usize::MAX));
        let mut obs = crate::LaunchObservation::new();
        seq.launch_with(observed(&program, &mut obs)).unwrap();
        assert!(obs.metrics().counters().all(|(k, _)| k != "obs.steal.launches"));

        // Pinned low: even a 2-DPU set forks.
        let mut par = DpuSet::allocate(2).unwrap();
        par.set_parallel_threshold(Some(1));
        let mut obs = crate::LaunchObservation::new();
        par.launch_with(observed(&program, &mut obs)).unwrap();
        let steals =
            obs.metrics().counters().find(|(k, _)| *k == "obs.steal.launches").map(|(_, v)| v);
        assert_eq!(steals, Some(1));
    }

    #[test]
    fn broadcast_shares_every_page_it_writes_unaligned_edges_too() {
        // "pad" shifts "w" to a page-unaligned base address.
        let mut set = DpuSet::allocate(4).unwrap();
        set.define_symbol("pad", 8).unwrap();
        set.define_symbol("w", 2 * MRAM_PAGE_BYTES).unwrap();
        let image: Vec<u8> = (0..2 * MRAM_PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        set.copy_to("w", 0, &image).unwrap();

        for i in 0..4 {
            let mut back = vec![0u8; image.len()];
            set.copy_from_dpu(DpuId(i), "w", 0, &mut back).unwrap();
            assert_eq!(back, image, "DPU {i}");
        }
        // The image touches three pages — a partial head, one full page, a
        // partial tail — and all four DPUs share each of them.
        let res = set.system().mram_residency();
        assert_eq!((res.distinct_pages, res.resident_pages), (3, 3 * 4), "{res:?}");
        // A scatter's run of equal buffers shares its head page too: the
        // odd one out writes its own, the other three one between them.
        let rows = [[1u8; 8], [2; 8], [2; 8], [2; 8]];
        set.copy_each("pad", 0, 8, |dpu| &rows[dpu.0 as usize]).unwrap();
        let res = set.system().mram_residency();
        assert_eq!((res.distinct_pages, res.resident_pages), (4, 3 * 4), "{res:?}");
    }
}
