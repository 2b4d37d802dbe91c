//! The DPU interpreter: executes [`Program`]s over the simulated memories
//! with exact pipeline timing.
//!
//! All tasklets run the *same* program (the DPU's SIMT model, paper §3.1),
//! distinguished only by [`crate::isa::Instr::TaskletId`]. The interpreter
//! asks the [`Pipeline`] which tasklet issues next, executes one instruction
//! for it, and reports total cycles, instruction count, DMA statistics, a
//! subroutine profile and every performance-counter reading.
//!
//! Every instruction has one definition. The boundary ops (`halt`, DMA,
//! perf counter, barrier, mutex) live in `Interp::step`; every inline op —
//! loads and stores, control flow, `call` and `trace` — lives in
//! `Interp::exec_inline`, which both the reference loop and the batched
//! fast paths call. The register-file and control-flow ops among them are
//! rows of one table, `exec::match_ops!`, which `exec_inline`, the
//! superblock replay and the lane groups of `crate::lanes` expand.
//!
//! ## The Fig. 3.1 microbenchmark harness
//!
//! [`crate::asm::profile_harness`] reproduces the paper's
//! cycle-per-operation methodology: a program arms the perfcounter, executes
//! `-O0`-style code for one operation (operand loads from stack slots, the
//! operation, a store), reads the counter and halts. The harness carries 24
//! overhead issue slots (perfcounter library calls, operand setup with
//! `movi` pairs for 32-bit maxima, stack traffic) so that with the
//! single-tasklet issue rate of one instruction per 11 cycles the measured
//! totals reproduce Table 3.1 within ~1.5 % (see [`crate::subroutines`]).

use crate::chunk::{ChunkPolicy, Shadow, MAX_TRACKED_TASKLETS};
use crate::engine_stats::EngineStats;
use crate::error::{Error, Result};
use crate::exec::{self, match_ops, no_flow, ExecInstr, ExecProgram, Superblocks, OP_COUNT};
use crate::faults::{AttemptFaults, DmaFault, FaultKind};
use crate::isa::{Instr, Program, Reg};
use crate::lanes::{Aborted, Lanes};
use crate::memory::{DmaEngine, LinearMemory, Mram, Wram};
use crate::params::{DpuParams, REGS_PER_TASKLET};
use crate::perfcounter::PerfCounter;
use crate::pipeline::Pipeline;
use crate::profiler::{CycleAttribution, Profiler};
use crate::replay::{Lookup, Recorder, ReplayKey, Space, REPLAY_MAX_SLOTS};
use crate::subroutines::Subroutine;
use pim_trace::{DmaDirection, NullSink, TraceEvent, TraceSink};
use std::sync::Arc;

/// Default cycle budget for [`Machine::run`]; generous enough for every
/// kernel in the repository while still catching infinite loops.
pub const DEFAULT_CYCLE_BUDGET: u64 = 50_000_000_000;

/// Interpreter engine tiers: the reference loop and one fast tier. Both
/// produce bit-identical observable results — cycles, histograms, traces,
/// memory, error sites — which the golden and proptest identity suites
/// pin; the selection only trades simplicity of the executing loop for
/// speed.
///
/// Selection is explicit via [`RunSpec::engine`] (and `pim-host`'s
/// `DpuSet::set_engine`) or ambient via
/// [`Engine::effective`], which consults the `PIM_SIM_ENGINE` environment
/// variable and otherwise defaults to the superblock engine. Profiled runs
/// always take the reference loop regardless of selection; traced runs
/// take the selected tier but never replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The per-instruction reference loop: one pick, one budget check,
    /// one fetch-dispatch per issue slot — the semantic source of truth
    /// every observable figure is defined by.
    Reference,
    /// The superblock engine: memoized straight-line blocks, batched
    /// periodic rotations and tasklet-major chunks over the pre-decoded
    /// stream.
    #[default]
    Superblock,
}

impl Engine {
    /// An alias of [`Engine::Superblock`], kept only because the frozen
    /// `benchmark/src/probes.rs` names it; the benchmark-contract change
    /// of ROADMAP item 1 deletes it. [`Engine::from_name`] does not parse
    /// `compiled`.
    #[allow(non_upper_case_globals)]
    pub const Compiled: Self = Self::Superblock;

    /// Environment variable consulted by [`Engine::effective`]; valid
    /// values are the [`Engine::name`]s.
    pub const ENV_VAR: &'static str = "PIM_SIM_ENGINE";

    /// Parse an engine name as used by the env/config override.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" => Some(Self::Reference),
            "superblock" => Some(Self::Superblock),
            _ => None,
        }
    }

    /// The canonical name: `reference` or `superblock`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Superblock => "superblock",
        }
    }

    /// The ambient engine: `PIM_SIM_ENGINE` when set to a valid name, the
    /// default tier otherwise. Read fresh on every call — never cached —
    /// so the CI engine matrix and test harnesses can force a tier per
    /// process.
    #[must_use]
    pub fn effective() -> Self {
        std::env::var(Self::ENV_VAR).ok().and_then(|v| Self::from_name(&v)).unwrap_or_default()
    }
}

/// Statistics of one program run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Total elapsed cycles including final pipeline drain.
    pub cycles: u64,
    /// Instructions issued (subroutine bodies included).
    pub instructions: u64,
    /// Issue slots left idle (pipeline under-utilisation).
    pub idle_cycles: u64,
    /// Cycles spent in MRAM DMA transfers.
    pub dma_cycles: u64,
    /// Number of DMA transfers.
    pub dma_transfers: u64,
    /// Bytes moved over DMA.
    pub dma_bytes: u64,
    /// Every value read through `perfcounter_get`, in execution order.
    pub perf_reads: Vec<u64>,
    /// DPU log: `(tasklet, value)` pairs emitted by `trace`, in execution
    /// order (the host-side `dpu_log_read` view).
    pub trace: Vec<(usize, u32)>,
    /// Executed-instruction histogram by mnemonic class (subroutine bodies
    /// count as one `call` plus their issue slots in `instructions`).
    pub op_histogram: std::collections::BTreeMap<&'static str, u64>,
    /// Subroutine occurrence profile of the run.
    pub profile: Profiler,
    /// Instructions issued by each tasklet (index = tasklet id); the basis
    /// of the tasklet-occupancy metric.
    pub issue_per_tasklet: Vec<u64>,
}

impl RunResult {
    /// Wall-clock seconds at the device frequency in `params`.
    #[must_use]
    pub fn seconds(&self, params: &DpuParams) -> f64 {
        params.cycles_to_seconds(self.cycles)
    }
}

/// What watches a run slot by slot. The two observers are exclusive — a
/// profiled run records no events — so one run takes at most one.
pub enum Observe<'a> {
    /// Nothing: the only choice replay serves.
    Off,
    /// Record cycle-stamped [`TraceEvent`]s into the sink as the kernel
    /// executes. A disabled sink (see [`TraceSink::is_enabled`]) is `Off`.
    Trace(&'a mut dyn TraceSink),
    /// Attribute every elapsed cycle to its superblock-partition piece
    /// (and, for burst slots, the in-flight subroutine). The attribution
    /// may accumulate several runs of the same program.
    Profile(&'a mut CycleAttribution),
}

/// How to run a program on a [`Machine`]: the argument of
/// [`Machine::execute`].
pub struct RunSpec<'a> {
    /// Hardware threads to start.
    pub tasklets: usize,
    /// Cycles after which the run fails with
    /// [`Error::CycleBudgetExceeded`].
    pub budget: u64,
    /// The engine tier; `None` takes the ambient [`Engine::effective`].
    pub engine: Option<Engine>,
    /// The run's observer, if any.
    pub observe: Observe<'a>,
}

impl RunSpec<'_> {
    /// An unobserved run of `tasklets` threads on the ambient engine under
    /// [`DEFAULT_CYCLE_BUDGET`].
    #[must_use]
    pub fn new(tasklets: usize) -> Self {
        Self { tasklets, budget: DEFAULT_CYCLE_BUDGET, engine: None, observe: Observe::Off }
    }
}

#[derive(Debug, Clone, Copy)]
struct Tasklet {
    pc: u32,
    regs: [u32; REGS_PER_TASKLET],
    /// Remaining pure-issue slots of an in-flight subroutine body.
    burst: u64,
}

impl Tasklet {
    fn new() -> Self {
        Self { pc: 0, regs: [0; REGS_PER_TASKLET], burst: 0 }
    }

    fn get(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn set(&mut self, r: Reg, v: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }
}

/// One simulated DPU: memories, DMA engine and pipeline-accurate interpreter.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Device parameters in force.
    pub params: DpuParams,
    /// Working RAM (shared by all tasklets): a copy-on-write image, which
    /// a run privatizes once, at its start.
    pub wram: Wram,
    /// Main RAM (host-visible).
    pub mram: Mram,
    /// DMA engine between MRAM and WRAM.
    pub dma: DmaEngine,
    perf: PerfCounter,
    /// Faults armed for the next run attempt, if any (see [`crate::faults`]).
    faults: Option<AttemptFaults>,
    /// Integrity events observed by the machine (monotone; the host
    /// reads per-launch deltas).
    pub integrity: IntegrityCounters,
    /// Engine residency of every run so far (see [`Machine::engine_stats`]).
    engine_stats: EngineStats,
}

/// Integrity events the machine itself observed and handled.
///
/// Populated only when MRAM ECC is enabled (see
/// [`crate::CowMemory::set_ecc`]); zero otherwise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Single-bit corrections applied at the DMA read site: MRAM source
    /// words repaired via SEC-DED, plus landed WRAM destinations
    /// re-copied after an in-flight corruption.
    pub dma_corrected: u64,
}

/// Full architectural state of one DPU, captured by [`Machine::snapshot`].
///
/// MRAM is held as an O(pages) copy-on-write snapshot
/// ([`crate::MemorySnapshot`]) and WRAM as a reference to its
/// copy-on-write image ([`Wram`]), so neither copies a byte; the DMA
/// statistics and the perf counter are copied outright. Restoring one of
/// these onto its machine and re-running the same program reproduces the
/// original run bit-for-bit — the unit of deterministic replay.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    wram: Wram,
    mram: crate::MemorySnapshot,
    dma: DmaEngine,
    perf: PerfCounter,
}

impl MachineSnapshot {
    /// Materialized MRAM pages this snapshot pins (shared pages count
    /// here once per snapshot; system-wide deduplication is
    /// [`crate::PimSystem::mram_residency`]'s job).
    #[must_use]
    pub fn mram_resident_pages(&self) -> usize {
        self.mram.resident_pages()
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new(DpuParams::default())
    }
}

impl Machine {
    /// A machine with the given device parameters.
    #[must_use]
    pub fn new(params: DpuParams) -> Self {
        Self {
            params,
            wram: Wram::new(params.wram_bytes),
            mram: Mram::new(params.mram_bytes),
            dma: DmaEngine::new(
                params.dma_setup_cycles,
                params.dma_bytes_per_cycle,
                crate::params::DMA_MAX_TRANSFER_BYTES,
            ),
            perf: PerfCounter::new(),
            faults: None,
            integrity: IntegrityCounters::default(),
            engine_stats: EngineStats::default(),
        }
    }

    /// Which execution mode retired each issue slot of every run this
    /// machine has executed, and how its tasklet-major chunks fared.
    /// Monotone, like [`Machine::integrity`]: hosts read per-launch
    /// deltas ([`EngineStats::since`]). Observational only — the figures
    /// depend on the [`Engine`] tier, which [`RunResult`] never does.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// The perf counter as the last run left it (every launch resets it
    /// first, so this is that run's state alone).
    #[must_use]
    pub fn perf(&self) -> PerfCounter {
        self.perf
    }

    /// Arm a set of injected faults for the next run. The machine consults
    /// them at launch (offline / hang clamp) and at every DMA transfer;
    /// everything that fires is logged inside the armed [`AttemptFaults`].
    pub fn arm_faults(&mut self, faults: AttemptFaults) {
        self.faults = Some(faults);
    }

    /// Disarm fault injection, returning the armed state with its log of
    /// what fired (if anything was armed).
    pub fn disarm_faults(&mut self) -> Option<AttemptFaults> {
        self.faults.take()
    }

    /// Capture the machine's full architectural state. WRAM costs a
    /// reference to its image (the next write on either side copies it);
    /// MRAM costs O(pages) thanks to copy-on-write
    /// ([`crate::CowMemory::snapshot`]); DMA statistics and the perf
    /// counter ride along so a restored machine replays bit-identically.
    ///
    /// Armed faults are *not* captured: they are per-attempt transients
    /// armed by the host around each run.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            wram: self.wram.clone(),
            mram: self.mram.snapshot(),
            dma: self.dma,
            perf: self.perf,
        }
    }

    /// Restore the state captured by [`Machine::snapshot`], sharing its
    /// WRAM image and MRAM pages. Re-running the same program (and, for
    /// resilient launches, the same fault seed) from a restored snapshot
    /// reproduces results, cycle counts and traces exactly. Clears any
    /// armed faults.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the snapshot came from a machine with
    /// different memory capacities.
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<()> {
        if snap.wram.len() != self.wram.len() {
            return Err(Error::OutOfBounds {
                kind: "WRAM",
                addr: 0,
                len: snap.wram.len(),
                size: self.wram.len(),
            });
        }
        self.mram.restore(&snap.mram)?;
        self.wram.clone_from(&snap.wram);
        self.dma = snap.dma;
        self.perf = snap.perf;
        self.faults = None;
        Ok(())
    }

    /// Run `exec` as `spec` says: the one entry every run goes through.
    ///
    /// Tracing and profiling are purely observational — the returned
    /// [`RunResult`] (cycles, instructions, histograms, DPU log) is
    /// bit-identical to an unobserved run, which the identity tests pin —
    /// and unobserved runs share none of their bookkeeping. Profiled runs
    /// take the per-instruction reference loop, trading the fast tier's
    /// speed for per-slot attribution; traced runs keep the fast tier.
    ///
    /// The result is shared: a replayed run returns its recording's own
    /// `Arc`, so the idle DPUs of a launch hold one result between them
    /// instead of one deep copy each.
    ///
    /// # Errors
    /// Any interpreter fault ([`Error::PcOutOfRange`], memory bounds,
    /// [`Error::CycleBudgetExceeded`] after `spec.budget` cycles, …).
    pub fn execute(&mut self, exec: &ExecProgram, spec: RunSpec<'_>) -> Result<Arc<RunResult>> {
        self.run_code(exec, spec)
    }

    /// Run `program` on `tasklets` hardware threads until all halt, under
    /// [`DEFAULT_CYCLE_BUDGET`] on the ambient engine.
    ///
    /// Decodes `program` on every call, without validating it: branch
    /// targets stay runtime-checked ([`Error::PcOutOfRange`] only if
    /// executed). Launch-many callers decode once ([`ExecProgram`]) and
    /// use [`Machine::run_exec`] or [`Machine::execute`].
    ///
    /// # Errors
    /// See [`Machine::execute`].
    pub fn run(&mut self, program: &Program, tasklets: usize) -> Result<RunResult> {
        self.run_exec(&ExecProgram::decode(program), tasklets)
    }

    /// [`Machine::run`] on a pre-decoded program.
    ///
    /// # Errors
    /// See [`Machine::execute`].
    pub fn run_exec(&mut self, exec: &ExecProgram, tasklets: usize) -> Result<RunResult> {
        self.execute(exec, RunSpec::new(tasklets)).map(Arc::unwrap_or_clone)
    }

    /// [`Machine::run_exec`] on an explicit engine tier instead of the
    /// ambient [`Engine::effective`] selection. Both tiers are
    /// observationally identical; see [`Engine`].
    ///
    /// # Errors
    /// See [`Machine::execute`].
    pub fn run_exec_engine(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        engine: Engine,
    ) -> Result<RunResult> {
        self.execute(exec, RunSpec { engine: Some(engine), ..RunSpec::new(tasklets) })
            .map(Arc::unwrap_or_clone)
    }

    /// The interpreter core over a decoded instruction stream.
    ///
    /// Sets up an [`Interp`] and runs the selected [`Engine`] over it:
    ///
    /// * the **reference loop** ([`Interp::run_reference`]) — one
    ///   `Pipeline::pick` per issue slot, exactly the semantics every
    ///   observable figure is defined by. Profiled runs always take it
    ///   regardless of `engine`, since they attribute every slot;
    /// * the **superblock engine** ([`Interp::run_fast`]) — fast-forwards
    ///   whole straight-line blocks and closed-form tasklet rotations in
    ///   one dispatch, observationally invisible by construction (see the
    ///   per-method proofs and `docs/PERFORMANCE.md`). Traced runs take it
    ///   too: their events come from boundary ops, which it executes in
    ///   reference-identical slots, and from calls, which it stamps with
    ///   their scheduled issue cycle.
    ///
    /// A plain launch on the fast tier first looks in the program's replay
    /// table for a recorded run of the same key whose read set equals this
    /// machine's memory, and on a match applies its write set and returns
    /// its result without setting up an [`Interp`] at all; a short run
    /// that finds none is recorded as it executes (see [`crate::replay`]).
    fn run_code(&mut self, exec: &ExecProgram, spec: RunSpec<'_>) -> Result<Arc<RunResult>> {
        let RunSpec { tasklets, budget, engine, observe } = spec;
        let (code, sb) = (exec.code(), exec.superblocks());
        let mut null = NullSink;
        let (sink, profile): (&mut dyn TraceSink, Option<&mut CycleAttribution>) = match observe {
            Observe::Off => (&mut null, None),
            Observe::Trace(sink) => (sink, None),
            Observe::Profile(attr) => (&mut null, Some(attr)),
        };
        // Attribution is per slot, so a profiled run is a reference run
        // whatever tier was asked for.
        let engine = match profile {
            Some(_) => Engine::Reference,
            None => engine.unwrap_or_else(Engine::effective),
        };
        if tasklets == 0 || tasklets > self.params.max_tasklets {
            return Err(Error::BadTaskletCount {
                requested: tasklets,
                max: self.params.max_tasklets,
            });
        }
        let iram_bytes = code.len() * crate::isa::INSTR_BYTES;
        if iram_bytes > self.params.iram_bytes {
            return Err(Error::ProgramTooLarge {
                bytes: iram_bytes,
                iram_bytes: self.params.iram_bytes,
            });
        }

        // A launch resets the perf counter: state armed by a previous run
        // on this machine — including one that faulted or whose host
        // worker panicked mid-kernel — must not leak into this run's
        // `perfcounter_get` reads.
        self.perf = PerfCounter::new();

        let mut budget = budget;
        if let Some(f) = self.faults.as_mut() {
            if f.offline() {
                f.log(FaultKind::DpuOffline, 0);
                return Err(Error::DpuOffline);
            }
            if let Some(hang) = f.hang_after() {
                // An injected hang is a run that never halts; the clamped
                // budget is the watchdog cutting it off.
                budget = budget.min(hang);
            }
        }

        // Recorded launches, on the plain path only. Armed faults, a live
        // sink, the profiler and MRAM ECC all observe or perturb the run
        // slot by slot, and the reference loop stays the definition the
        // other tiers (and their replays) are compared against.
        let replay = (engine != Engine::Reference
            && self.faults.is_none()
            && !sink.is_enabled()
            && !self.mram.ecc_enabled())
        .then(|| {
            let key = ReplayKey {
                tasklets,
                params: self.params,
                dma_timing: self.dma.timing(),
                wram_len: self.wram.len(),
                mram_len: self.mram.len(),
            };
            (exec.replay(), key)
        });
        let mut recorder = None;
        if let Some((table, key)) = &replay {
            match table.lookup(key, &mut self.wram, &mut self.mram, budget) {
                Lookup::Hit { result, perf } => {
                    self.dma.total_cycles += result.dma_cycles;
                    self.dma.transfers += result.dma_transfers;
                    self.dma.total_bytes += result.dma_bytes;
                    self.perf = perf;
                    self.engine_stats.replayed_slots += result.instructions;
                    self.engine_stats.replay_hits += 1;
                    return Ok(result);
                }
                Lookup::Record => recorder = Some(Box::new(Recorder::new(&self.wram))),
                Lookup::Unseen => {}
            }
        }
        let recording = recorder.is_some();

        let dma_cycles_before = self.dma.total_cycles;
        let dma_transfers_before = self.dma.transfers;
        let dma_bytes_before = self.dma.total_bytes;

        let mut interp = Interp::new(self, sink, exec, tasklets, budget, recorder);
        if interp.sink.is_enabled() {
            interp.sink.record(TraceEvent::KernelLaunch { tasklets: tasklets as u8, cycle: 0 });
        }

        // Profiled runs take the reference path, which attributes every
        // slot. Traced runs need no such thing: every event but subroutine
        // entry is recorded by a boundary op inside `step`, and the fast
        // engine flushes the pipeline before each boundary slot; a `call`
        // stamps its entry with its issue cycle in the batch schedule. So
        // the events carry the reference loop's cycles.
        let outcome = if let Some(attr) = profile {
            attr.prepare(sb, tasklets);
            let mut slots = AttributedSlots::new(attr, code, interp.pipeline.elapsed());
            interp.run_reference::<false, _>(&mut slots)
        } else if engine == Engine::Reference {
            interp.run_reference::<false, _>(&mut ())
        } else if recording {
            // Reference-identical slots while the recording stays open; if
            // it is abandoned, the fast engine takes the run over where it
            // stands (and returns at once from a finished one).
            interp.run_reference::<true, _>(&mut ()).and_then(|()| interp.run_fast())
        } else {
            interp.run_fast()
        };
        // Whatever no batched mode claimed went through a per-slot pick.
        let mut stats = interp.stats;
        stats.reference_slots = interp.pipeline.issued() - stats.batched_slots();
        interp.machine.engine_stats += stats;
        if let Err(e) = outcome {
            if let Error::CycleBudgetExceeded { budget: hit } = e {
                if let Some(f) = interp.machine.faults.as_mut() {
                    if f.hang_after() == Some(hit) {
                        f.log(FaultKind::TaskletHang { budget: hit }, hit);
                    }
                }
            }
            return Err(e);
        }

        let recorder = interp.recorder.take();
        let mut result = std::mem::take(&mut interp.result);
        result.op_histogram = exec::fold_histogram(&interp.op_counts);
        result.cycles = interp.pipeline.elapsed();
        result.instructions = interp.pipeline.issued();
        result.idle_cycles = interp.pipeline.idle_cycles();
        result.issue_per_tasklet = interp.pipeline.issued_per_tasklet().to_vec();
        // Hands the WRAM image back to the machine.
        drop(interp);
        result.dma_cycles = self.dma.total_cycles - dma_cycles_before;
        result.dma_transfers = self.dma.transfers - dma_transfers_before;
        result.dma_bytes = self.dma.total_bytes - dma_bytes_before;
        if sink.is_enabled() {
            sink.record(TraceEvent::KernelComplete {
                cycle: result.cycles,
                instructions: result.instructions,
            });
        }
        let result = Arc::new(result);
        if let Some((table, key)) = &replay {
            if let Some(recorder) = recorder {
                let rec = recorder.finish(&self.wram, &self.mram, Arc::clone(&result), self.perf);
                table.insert(key, rec);
                self.engine_stats.replay_records += 1;
            } else if !recording && result.instructions <= REPLAY_MAX_SLOTS {
                // Recording starts at the second sighting, so a program's
                // first run of a key is exactly a run without a table.
                table.note_short_run(key);
            }
        }
        Ok(result)
    }
}

/// In-flight state of one kernel run.
///
/// Scheduling state is tracked incrementally — `live` (non-halted),
/// `parked` (at a barrier) and `runnable_count` are counters updated at
/// state transitions rather than flag vectors rescanned every issue slot —
/// and the op histogram is a fixed-size array indexed by opcode id, folded
/// into the public `BTreeMap` once at run end. With a single tasklet the
/// mutex/barrier machinery is bypassed entirely: a barrier releases
/// immediately and a lock can never block, so neither needs bookkeeping.
struct Interp<'a> {
    machine: &'a mut Machine,
    /// The machine's WRAM image for the run, privatized and moved out at
    /// the start (`machine.wram` holds an empty placeholder meanwhile) and
    /// handed back on drop, so loads and stores never see a reference
    /// count.
    wram: LinearMemory,
    sink: &'a mut dyn TraceSink,
    code: &'a [ExecInstr],
    sb: &'a Superblocks,
    budget: u64,
    pipeline: Pipeline,
    threads: Vec<Tasklet>,
    /// First cycle at which the DMA engine's shared streaming port
    /// (2 bytes/cycle) is free: concurrent transfers from different
    /// tasklets serialize their data movement, while the fixed setup
    /// latency overlaps.
    dma_stream_free: u64,
    single: bool,
    runnable: Vec<bool>,
    /// Non-halted tasklets. Every live, non-runnable tasklet is either
    /// parked at a barrier or blocked on a mutex, so `live - parked` is
    /// the mutex-blocked population.
    live: usize,
    runnable_count: usize,
    /// Tasklets waiting at a barrier. Parked tasklets are temporarily not
    /// runnable; when every live tasklet is parked, all release. Tasklets
    /// blocked on a mutex count as live, so a barrier cannot release past
    /// them (matching hardware semantics — and making a mutex held across
    /// a barrier a detectable deadlock).
    parked: usize,
    at_barrier: Vec<bool>,
    op_counts: [u64; OP_COUNT],
    /// Hardware mutexes: owner per id, a flat table indexed by the 8-bit
    /// mutex id — lock/unlock sit on the scheduler hot path, where hashing
    /// would dominate the critical section. Built by the first
    /// `mutex.lock`, so kernels that never lock pay nothing per launch.
    mutex_owner: Vec<Option<usize>>,
    /// Blocked `(mutex id, tasklet)` pairs in arrival order: the first
    /// entry of an id is the head of its FIFO wait queue. At most one
    /// entry per tasklet, so a scan beats 256 queues built per launch.
    mutex_waiters: Vec<(u8, usize)>,
    result: RunResult,
    /// Reused allocations for the rotation fast path's schedule (issue
    /// order and first-round issue cycles).
    order_scratch: Vec<usize>,
    at_scratch: Vec<u64>,
    /// Ascending list of exactly the runnable tasklet indices, maintained
    /// incrementally at every transition so `Pipeline::pick_from` probes
    /// only live candidates instead of scanning every tasklet's flag.
    active: Vec<usize>,
    /// Per-slot picks still to take before the rotation is probed again,
    /// and the hold-off the next short batch earns (see
    /// [`Interp::run_fast`]).
    probe_hold: u64,
    probe_backoff: u64,
    /// Set whenever the runnable set changes (halt, barrier park/release,
    /// mutex block/wake); cleared at the top of the fast engine's mode
    /// loop so the per-slot path knows when to re-evaluate its mode.
    sched_changed: bool,
    /// Slots retired per batched mode and chunk outcomes of this run
    /// (`reference_slots` is filled in by subtraction at run end).
    stats: EngineStats,
    /// WRAM access tags and store undo log of the current tasklet-major
    /// chunk (see [`Interp::try_chunk`]).
    shadow: Shadow,
    /// Chunk length and stand-off, persisted across rotation batches.
    chunk_policy: ChunkPolicy,
    /// The current chunk's register files as lanes, allocated by the
    /// run's first chunk.
    lanes: Option<Box<Lanes>>,
    /// The read and write sets of this run while it is being recorded for
    /// replay (see [`crate::replay`]). Last and boxed: one cold pointer,
    /// so the hot fields above keep their layout.
    recorder: Option<Box<Recorder>>,
}

/// Issue-slot classification used by the batched fast paths.
enum SlotKind {
    /// An inline (schedule-neutral) instruction was dispatched; its pick
    /// is accounted to the current batch.
    Advanced,
    /// The instruction needs scheduler or timing machinery (it can change
    /// the runnable set, stall, or read the clock); nothing was executed
    /// and no pick was consumed.
    Boundary,
}

/// Outcome of one [`Interp::try_rotation`] attempt.
enum Rotation {
    /// This many slots (at least one) were retired.
    Advanced(u64),
    /// A schedule holds but the very next slot is a boundary instruction
    /// (or overruns the budget): take it per slot, then a retry may
    /// succeed immediately.
    Blocked,
    /// No periodic schedule from here: the next picks depend on
    /// round-robin tie-breaking and have not settled into an orbit.
    Unscheduled,
}

/// Rotation batches shorter than this many slots do not repay their probe.
const MIN_ROTATION_BATCH: u64 = 8;
/// Ceiling of the probe hold-off, in per-slot picks: how late a kernel
/// that turns rotation-friendly is noticed.
const MAX_PROBE_HOLD: u64 = 64;

/// Number of addressable hardware mutexes (the id is a byte).
const MUTEX_IDS: usize = 256;

/// Opcode classes the batched fast paths may dispatch with a *deferred*
/// pipeline update: ops that always occupy exactly one issue slot and
/// cannot change the runnable set, stall, or observe the clock. A `call`
/// qualifies: its burst is picks of the same tasklet that execute nothing,
/// which every batched mode retires, and its trace event is stamped from
/// the batch schedule. Indexed by [`exec::op_id`]; exactly the ops
/// [`Interp::exec_inline`] executes (enforced by a unit test).
const INLINE_OP: [bool; OP_COUNT] = [
    true,  // nop
    false, // halt — ends the tasklet, changes the runnable set
    true,  // movi
    true,  // mov
    true,  // add (+ addi)
    true,  // sub
    true,  // and
    true,  // or
    true,  // xor
    true,  // lsl (+ lsli)
    true,  // lsr (+ lsri)
    true,  // asr (+ asri)
    true,  // mul8
    true,  // popcount
    true,  // load — may fault, but faults flush the batch first
    true,  // store
    false, // mram.read — stalls the tasklet on the DMA engine
    false, // mram.write
    true,  // branch — control flow is data, not scheduling
    true,  // jump (+ jal, jr)
    true,  // call — one slot, then a burst of picks that execute nothing
    false, // perf — reads the pipeline clock at its own issue slot
    true,  // me (tasklet id)
    true,  // trace
    false, // barrier — parks the tasklet
    false, // mutex — may block or wake tasklets
];

/// Expands a [`match_ops!`] register-file row for tasklet `$th` (index
/// `$t`).
macro_rules! on_tasklet {
    ($th:ident, $t:ident;
     $rd:ident, $ra:expr, $rb:expr, |$a:pat_param, $b:pat_param, $id:pat_param| $value:expr) => {{
        let ($a, $b, $id): (u32, u32, u32) = ($th.get($ra), $th.get($rb), $t as u32);
        $th.set($rd, $value)
    }};
}

/// Expands a [`match_ops!`] control-flow row for tasklet `$th`, whose
/// next pc goes to `$next`.
macro_rules! jump_tasklet {
    ($th:ident, $next:ident;
     $rd:expr, $ra:expr, $rb:expr, |$a:pat_param, $b:pat_param, $pc:pat_param| $value:expr) => {{
        let ($a, $b, $pc): (u32, u32, u32) = ($th.get($ra), $th.get($rb), $th.pc);
        let (link, next) = $value;
        $th.set($rd, link);
        $next = next;
    }};
}

/// What [`Interp::run_reference`] tells of each issue slot, before the
/// slot executes. `now` is the makespan after the slot's pick.
trait SlotObserver {
    /// Tasklet `t` spends the slot inside a subroutine body.
    fn burst(&mut self, t: usize, now: u64);
    /// Tasklet `t` issues the instruction at `pc` (possibly out of range:
    /// the fetch that follows faults).
    fn issue(&mut self, t: usize, pc: usize, now: u64);
}

/// No observer: both calls vanish.
impl SlotObserver for () {
    #[inline(always)]
    fn burst(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn issue(&mut self, _: usize, _: usize, _: u64) {}
}

/// Per-slot cycle attribution: each slot is charged the makespan delta it
/// advanced the pipeline by (`elapsed` is monotone across picks, so the
/// deltas telescope exactly to the final cycle count). The delta lands on
/// the issued instruction's partition piece, or on the in-flight
/// subroutine for burst slots; idle and stall gaps are charged to the
/// instruction that waited behind them.
struct AttributedSlots<'a> {
    attr: &'a mut CycleAttribution,
    /// The subroutine each pc calls, if any — one table lookup per slot
    /// instead of loading and matching the decoded instruction (which
    /// `step` will load again anyway).
    callsub: Vec<Option<&'static str>>,
    last: u64,
}

impl<'a> AttributedSlots<'a> {
    fn new(attr: &'a mut CycleAttribution, code: &[ExecInstr], start: u64) -> Self {
        let callsub = code
            .iter()
            .map(|c| match c.instr {
                Instr::CallSub { sub, .. } => Some(sub.symbol()),
                _ => None,
            })
            .collect();
        Self { attr, callsub, last: start }
    }

    fn delta(&mut self, now: u64) -> u64 {
        let delta = now - self.last;
        self.last = now;
        delta
    }
}

impl SlotObserver for AttributedSlots<'_> {
    fn burst(&mut self, t: usize, now: u64) {
        let delta = self.delta(now);
        self.attr.record_burst(t, delta);
    }

    fn issue(&mut self, t: usize, pc: usize, now: u64) {
        let delta = self.delta(now);
        // An out-of-range pc is about to fault in `step`; leave its slot
        // unattributed rather than index past the partition.
        if let Some(&callsub) = self.callsub.get(pc) {
            self.attr.record_slot(t, pc, delta);
            if let Some(symbol) = callsub {
                self.attr.begin_burst(t, pc, symbol);
            }
        }
    }
}

impl Drop for Interp<'_> {
    /// Hand the WRAM image back to the machine, also from a run that
    /// faulted or panicked.
    fn drop(&mut self) {
        let dense = std::mem::replace(&mut self.wram, LinearMemory::new("WRAM", 0));
        self.machine.wram.put(dense);
    }
}

impl<'a> Interp<'a> {
    /// A run of `exec` on `tasklets` fresh tasklets of `machine`, nothing
    /// issued yet.
    fn new(
        machine: &'a mut Machine,
        sink: &'a mut dyn TraceSink,
        exec: &'a ExecProgram,
        tasklets: usize,
        budget: u64,
        recorder: Option<Box<Recorder>>,
    ) -> Self {
        let code = exec.code();
        let live = if code.is_empty() { 0 } else { tasklets };
        Interp {
            wram: machine.wram.take(),
            pipeline: Pipeline::with_stages(tasklets, u64::from(machine.params.pipeline_stages)),
            threads: vec![Tasklet::new(); tasklets],
            dma_stream_free: 0,
            single: tasklets == 1,
            runnable: vec![live > 0; tasklets],
            live,
            runnable_count: live,
            parked: 0,
            at_barrier: vec![false; tasklets],
            op_counts: [0; OP_COUNT],
            mutex_owner: Vec::new(),
            mutex_waiters: Vec::new(),
            result: RunResult::default(),
            order_scratch: Vec::new(),
            at_scratch: Vec::new(),
            active: (0..live).collect(),
            probe_hold: 0,
            probe_backoff: 1,
            sched_changed: false,
            stats: EngineStats::default(),
            shadow: Shadow::default(),
            chunk_policy: ChunkPolicy::default(),
            lanes: None,
            code,
            sb: exec.superblocks(),
            budget,
            machine,
            sink,
            recorder,
        }
    }

    /// Release a full barrier when every live tasklet is parked. (A lone
    /// tasklet never parks — its barriers release at the issue slot.)
    fn release_full_barrier(&mut self) {
        for (r, b) in self.runnable.iter_mut().zip(self.at_barrier.iter_mut()) {
            if *b {
                *b = false;
                *r = true;
            }
        }
        self.runnable_count += self.parked;
        self.parked = 0;
        self.active.clear();
        self.active.extend((0..self.runnable.len()).filter(|&t| self.runnable[t]));
        self.sched_changed = true;
    }

    /// Remove tasklet `t` from the compact runnable list (it halted,
    /// parked, or blocked).
    fn active_remove(&mut self, t: usize) {
        if let Ok(i) = self.active.binary_search(&t) {
            self.active.remove(i);
        }
        self.sched_changed = true;
    }

    /// Insert tasklet `t` into the compact runnable list (it woke).
    fn active_insert(&mut self, t: usize) {
        if let Err(i) = self.active.binary_search(&t) {
            self.active.insert(i, t);
        }
        self.sched_changed = true;
    }

    /// The per-instruction reference loop: one `Pipeline::pick`, one
    /// budget check, one fetch-dispatch per issue slot. Every observable
    /// figure (cycles, traces, histograms, Deadlock accounting) is defined
    /// by this loop; [`Interp::run_fast`] must match it bit-for-bit.
    ///
    /// With `RECORDING` the loop also runs the slots of a run being
    /// recorded for replay, and returns early — run unfinished — once the
    /// recording has been abandoned.
    ///
    /// `slots` is told of every issue slot before it executes. It only
    /// *observes*: whatever it is, the run's results are those of the
    /// `()` instantiation, which compiles to the loop with no observer.
    fn run_reference<const RECORDING: bool, O: SlotObserver>(
        &mut self,
        slots: &mut O,
    ) -> Result<()> {
        loop {
            if RECORDING && !self.recording_open() {
                return Ok(());
            }
            if !self.single && self.parked > 0 && self.parked == self.live {
                self.release_full_barrier();
            }
            if self.runnable_count == 0 {
                if self.live == 0 {
                    return Ok(()); // clean completion
                }
                return Err(Error::Deadlock {
                    at_barrier: self.parked,
                    on_mutex: self.live - self.parked,
                });
            }
            let Some(t) = self.pipeline.pick(&self.runnable) else { return Ok(()) };
            let now = self.pipeline.elapsed();
            if now > self.budget {
                return Err(Error::CycleBudgetExceeded { budget: self.budget });
            }
            let th = &mut self.threads[t];
            if th.burst > 0 {
                th.burst -= 1;
                slots.burst(t, now);
                continue;
            }
            slots.issue(t, th.pc as usize, now);
            self.step(t)?;
        }
    }

    /// Whether this run is (still) being recorded; abandons the recording
    /// first if the run has outgrown [`REPLAY_MAX_SLOTS`].
    fn recording_open(&mut self) -> bool {
        if self.pipeline.issued() > REPLAY_MAX_SLOTS {
            self.abandon_recording();
        }
        self.recorder.is_some()
    }

    /// Drop the open recording, if any; the run carries on unrecorded.
    fn abandon_recording(&mut self) {
        if self.recorder.take().is_some() {
            self.stats.replay_abandoned += 1;
        }
    }

    /// Feed one memory access to the open recording, if any; an access the
    /// recorder cannot take abandons it. Called from the memory arms of
    /// [`Interp::step`] and the untracked [`Interp::exec_inline`]: while a
    /// recording is open every instruction goes through `step`.
    fn record(&mut self, access: impl FnOnce(&mut Recorder, &LinearMemory) -> bool) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            if !access(rec, &self.wram) {
                self.abandon_recording();
            }
        }
    }

    /// The superblock engine. Same observable semantics as
    /// [`Interp::run_reference`], reached through three accelerated paths:
    ///
    /// * **sole mode** — exactly one runnable tasklet (the other tasklets
    ///   halted, parked, or blocked; DMA-stalled tasklets stay runnable,
    ///   so one runnable truly means one issuer): inline instructions,
    ///   burst slots and memoized superblocks dispatch in a batch whose
    ///   picks flush as one `advance_periodic`, and the `pick` probe is
    ///   skipped entirely;
    /// * **rotation mode** — two or more runnable tasklets whose next
    ///   picks follow a closed-form periodic schedule
    ///   ([`Pipeline::periodic_schedule`]: at least `stages` of them each
    ///   ready at its round-robin slot, or at most `stages` with distinct
    ///   ready times inside one pipeline depth) or a verified orbit
    ///   ([`Pipeline::orbit_schedule`]: more than `stages` of them in the
    ///   permuted order DMA skew leaves behind): the dispatcher provably
    ///   issues them cyclically, so inline instructions and burst slots
    ///   dispatch in a batch whose picks flush as one `advance_periodic`
    ///   — whole rounds at a time where possible, tasklet-major
    ///   ([`Interp::try_chunk`]) when the tasklets have diverged;
    /// * otherwise reference-identical slots execute via `pick_from`
    ///   over the compact runnable list until the runnable set changes
    ///   or the probe hold-off runs out, and the loop re-evaluates.
    ///
    /// Event-driven cycle skipping needs no extra code here:
    /// `Pipeline::pick` commits the minimum ready cycle directly, so the
    /// clock already jumps over windows where every runnable tasklet is
    /// DMA-stalled; the fast paths above remove the *per-instruction
    /// re-picking* that remained.
    fn run_fast(&mut self) -> Result<()> {
        loop {
            if !self.single && self.parked > 0 && self.parked == self.live {
                self.release_full_barrier();
            }
            if self.runnable_count == 0 {
                if self.live == 0 {
                    return Ok(());
                }
                return Err(Error::Deadlock {
                    at_barrier: self.parked,
                    on_mutex: self.live - self.parked,
                });
            }
            self.sched_changed = false;
            if self.runnable_count == 1 {
                let t = self.active[0];
                self.run_sole(t)?;
                continue;
            }
            if self.probe_hold == 0 {
                // Slots retired, and the least hold-off if that was few.
                let (retired, least_hold) = match self.try_rotation()? {
                    Rotation::Advanced(slots) => (slots, 0),
                    // The next slot is a boundary instruction: step over
                    // it below.
                    Rotation::Blocked => (0, 0),
                    // The next picks hang on round-robin tie-breaks, and a
                    // skewed pipeline can stay that way for many slots:
                    // hold off for a round at least.
                    Rotation::Unscheduled => (0, self.runnable_count as u64),
                };
                if retired >= MIN_ROTATION_BATCH {
                    self.probe_backoff = 1;
                    continue;
                }
                // A probe that retires next to nothing costs more than the
                // slots it saves. Boot and halt phases and lock convoys
                // change the runnable set every few instructions for
                // thousands of slots on end, so the hold-off doubles while
                // batches stay short (and outlives runnable-set changes),
                // which bounds the wasted probes at O(1) per slot; one
                // long batch resets it.
                self.probe_hold = self.probe_backoff.max(least_hold);
                self.probe_backoff = (self.probe_backoff * 2).min(MAX_PROBE_HOLD);
            }
            // Reference-identical slots. The scheduling predicates above
            // (barrier release, deadlock, mode choice) are functions of
            // the runnable set alone, so slots repeat without re-evaluating
            // them until a dispatch changes it or the hold-off has run out
            // and a rotation retry may pay off.
            loop {
                let Some(t) = self.pipeline.pick_from(&self.active) else { return Ok(()) };
                if self.pipeline.elapsed() > self.budget {
                    return Err(Error::CycleBudgetExceeded { budget: self.budget });
                }
                let th = &mut self.threads[t];
                if th.burst > 0 {
                    th.burst -= 1;
                } else {
                    self.step(t)?;
                }
                self.probe_hold -= 1;
                if self.sched_changed || self.probe_hold == 0 {
                    break;
                }
            }
        }
    }

    /// Sole-runnable mode: tasklet `t` is the only one the dispatcher can
    /// pick, so every issue lands exactly `stages` after the previous one
    /// and the pipeline update for a run of inline instructions and burst
    /// slots is a closed form: pick `k` of the batch issues at
    /// `first + k * stages`. The batch loop dispatches them (whole
    /// memoized superblocks and burst remainders at a time where
    /// possible) with the pipeline untouched, then flushes the accumulated
    /// `k` picks as one `advance_periodic`; boundary instructions flush
    /// first and take a reference-identical slot. Inline ops cannot change
    /// the runnable set, so the mode only needs re-checking after a
    /// boundary dispatch.
    ///
    /// Budget semantics match the reference exactly: after `k` issues the
    /// reference's post-pick check sees `elapsed = first + k*stages`, so
    /// the batch is capped at the picks whose `elapsed` stays inside the
    /// budget, and once none is left the overrunning pick is issued singly
    /// so the error surfaces with identical partial state.
    fn run_sole(&mut self, t: usize) -> Result<()> {
        while self.runnable_count == 1 && self.runnable[t] {
            let stages = self.pipeline.stages();
            let first = self.pipeline.next_issue_at(t);
            // Picks whose post-issue `elapsed` stays inside the budget.
            let k_cap = self
                .budget
                .checked_sub(stages)
                .map_or(0, |limit| Pipeline::periodic_slots_through(&[first], stages, limit));
            if k_cap == 0 {
                // The next pick overruns the budget no matter what the
                // instruction is; issue it singly and surface the error.
                self.pipeline.pick_sole(t);
                return Err(Error::CycleBudgetExceeded { budget: self.budget });
            }
            let (k, last) = self.advance_inline(t, k_cap, |k| first + k * stages);
            match last {
                Ok(SlotKind::Advanced) => self.flush_sole(t, k),
                Ok(SlotKind::Boundary) => {
                    if k > 0 {
                        self.flush_sole(t, k);
                    }
                    self.pipeline.pick_sole(t);
                    if self.pipeline.elapsed() > self.budget {
                        return Err(Error::CycleBudgetExceeded { budget: self.budget });
                    }
                    self.step(t)?;
                }
                Err(e) => {
                    // The faulting instruction consumed its pick before
                    // the dispatch failed, exactly as in the reference.
                    self.flush_sole(t, k + 1);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Flush `k >= 1` batched sole-mode picks of tasklet `t`.
    fn flush_sole(&mut self, t: usize, k: u64) {
        let first = self.pipeline.next_issue_at(t);
        self.pipeline.advance_periodic(&[t], &[first], self.pipeline.stages(), k);
        self.stats.sole_slots += k;
    }

    /// Run tasklet `t` *on its own* for up to `quota >= 1` issue slots
    /// without touching the pipeline: sole mode's inner dispatch. Pending
    /// burst slots retire first, then memoized superblocks, then single
    /// inline ops; a block that would overrun the quota is skipped, so the
    /// per-op path below it guarantees progress and the quota is met
    /// exactly. `issue_at(k)` is the cycle the batch's pick `k` issues at,
    /// read only by a traced `call`.
    ///
    /// Returns the slots retired and how the run ended: `Advanced` when
    /// the quota was met, otherwise the classification of the instruction
    /// that stopped it (not retired, except that a fault leaves its op
    /// counted and pc on the faulting instruction, like [`Interp::step`]).
    fn advance_inline(
        &mut self,
        t: usize,
        quota: u64,
        issue_at: impl Fn(u64) -> u64,
    ) -> (u64, Result<SlotKind>) {
        let mut k: u64 = 0;
        while k < quota {
            let burst = self.threads[t].burst;
            if burst > 0 {
                let slots = burst.min(quota - k);
                self.threads[t].burst -= slots;
                k += slots;
                continue;
            }
            let pc = self.threads[t].pc as usize;
            let len = u64::from(self.sb.len_at(pc));
            if len >= 2 && k + len <= quota {
                self.apply_block(t, pc, len as usize);
                k += len;
                continue;
            }
            match self.dispatch_slot_inline(t, |_| issue_at(k)) {
                Ok(SlotKind::Advanced) => k += 1,
                last => return (k, last),
            }
        }
        (k, Ok(SlotKind::Advanced))
    }

    /// Attempt a batched rotation over the runnable tasklets.
    ///
    /// Entry precondition: [`Pipeline::periodic_schedule`] finds a closed
    /// form — at least `stages` tasklets each ready at its round-robin
    /// slot (zero idle), or at most `stages` with distinct ready times
    /// inside one pipeline depth (`stages - r` idle cycles per round) —
    /// or, failing both with more than `stages` runnable,
    /// [`Pipeline::orbit_schedule`] verifies the permuted rotation DMA
    /// skew left them in ([`Interp::try_orbit`]).
    /// The dispatcher then provably issues them cyclically for as long as
    /// every dispatched instruction is inline (or a burst slot, which
    /// consumes a pick without a fetch), so the batch loop runs with the
    /// pipeline frozen and flushes the accumulated `m` slots as one
    /// `advance_periodic`. Runnable tasklets a DMA stall keeps out of the
    /// schedule bound the batch at their ready time, like the budget does.
    /// The first boundary instruction ends the batch *before* its slot;
    /// re-entry then stops at that tasklet with nothing retired and the
    /// outer loop takes one reference-identical slot for it. Mid-rotation
    /// exits are safe: the flushed ready times still satisfy the entry
    /// precondition for the rotated order on the next attempt.
    ///
    /// Because only the *number* of slots each tasklet retires reaches the
    /// pipeline, whole rounds may be retired in any internal order whose
    /// functional effects match the slot-by-slot one. At a round boundary
    /// the loop tries whole rounds of burst slots, then a tasklet-major
    /// chunk ([`Interp::try_chunk`]); the per-slot dispatch below them is
    /// both the general case and the path every rolled-back chunk replays
    /// on.
    fn try_rotation(&mut self) -> Result<Rotation> {
        let stages = self.pipeline.stages();
        // A pick at cycle `c` leaves `elapsed = c + stages`.
        let Some(last_cycle) = self.budget.checked_sub(stages) else {
            return Ok(Rotation::Blocked);
        };
        if last_cycle < self.pipeline.current_cycle() {
            // The next pick overruns the budget; let it.
            return Ok(Rotation::Blocked);
        }
        let mut order = std::mem::take(&mut self.order_scratch);
        let mut at = std::mem::take(&mut self.at_scratch);
        let outcome = match self.pipeline.periodic_schedule(&self.active, &mut order, &mut at) {
            Some((period, horizon)) => {
                self.run_rotation(&order, &at, period, last_cycle.min(horizon - 1))
            }
            None if self.active.len() as u64 > stages => {
                self.try_orbit(&mut order, &mut at, last_cycle)
            }
            None => Ok(Rotation::Unscheduled),
        };
        self.order_scratch = order;
        self.at_scratch = at;
        outcome
    }

    /// [`Interp::try_rotation`] when no closed form fits more runnable
    /// tasklets than stages: rotate on the orbit
    /// [`Pipeline::orbit_schedule`] verifies, if it finds one. A miss is
    /// paced like any other failed probe.
    #[cold]
    fn try_orbit(
        &mut self,
        order: &mut Vec<usize>,
        at: &mut Vec<u64>,
        last_cycle: u64,
    ) -> Result<Rotation> {
        // Whatever the schedule, no batch starts on a boundary instruction,
        // and more tasklets than stages tend to reach theirs together (a
        // GEMM row's 12 to 24 tasklets queue at their DMAs in consecutive
        // slots, and found-but-blocked orbits cost those rows 20–40 %):
        // one scan for the next pick spares them the O(r²) probe, and
        // answering as the closed forms just did keeps their pacing.
        let next = self.pipeline.next_pick(&self.active).expect("tasklets are runnable");
        let th = &self.threads[next];
        let inline = |pc: u32| self.code.get(pc as usize).is_some_and(|c| INLINE_OP[c.op as usize]);
        if th.burst == 0 && !inline(th.pc) {
            return Ok(Rotation::Unscheduled);
        }
        self.stats.orbit_probes += 1;
        let Some((period, horizon)) = self.pipeline.orbit_schedule(&self.active, order, at) else {
            self.stats.orbit_misses += 1;
            return Ok(Rotation::Unscheduled);
        };
        let issued = self.pipeline.issued();
        let outcome = self.run_rotation(order, at, period, last_cycle.min(horizon - 1));
        self.stats.orbit_slots += self.pipeline.issued() - issued;
        outcome
    }

    /// The batch loop of [`Interp::try_rotation`]: retire slots of the
    /// schedule `(order, at, period)` that issue no later than
    /// `last_cycle`, up to the first boundary instruction.
    fn run_rotation(
        &mut self,
        order: &[usize],
        at: &[u64],
        period: u64,
        last_cycle: u64,
    ) -> Result<Rotation> {
        let r = order.len();
        let m_allowed = Pipeline::periodic_slots_through(at, period, last_cycle);
        let mut m: u64 = 0;
        // Of `m`, the slots retired by whole-round paths (each also counted
        // under its own mode in `stats`); the rest went slot by slot.
        let mut bulk: u64 = 0;
        let mut pos: usize = 0;
        let outcome = loop {
            if m >= m_allowed {
                break Ok(());
            }
            if pos == 0 {
                // Whole rounds the budget still covers.
                let rounds_left = (m_allowed - m) / r as u64;
                if self.threads[order[0]].burst > 0 {
                    // Every tasklet mid-burst: burst slots consume a pick
                    // and nothing else, so `min(burst)` whole rounds
                    // retire as one subtraction per tasklet.
                    let rounds = order.iter().map(|&t| self.threads[t].burst).min().unwrap_or(0);
                    let rounds = rounds.min(rounds_left);
                    if rounds > 0 {
                        for &t in order {
                            self.threads[t].burst -= rounds;
                        }
                        let retired = rounds * r as u64;
                        self.stats.burst_batch_slots += retired;
                        bulk += retired;
                        m += retired;
                        continue;
                    }
                } else {
                    let issued = self.pipeline.issued() + m;
                    if let Some(k) = self.chunk_policy.rounds_for(issued, rounds_left) {
                        if self.try_chunk(order, k, issued) {
                            let retired = k * r as u64;
                            self.stats.chunk_slots += retired;
                            bulk += retired;
                            m += retired;
                            continue;
                        }
                    }
                }
            }
            let t = order[pos];
            if self.threads[t].burst > 0 {
                self.threads[t].burst -= 1;
                m += 1;
            } else {
                // Pick `m` of the batch, position `m % r` of its round.
                let issue_at = |_: &Pipeline| at[pos] + (m / r as u64) * period;
                match self.dispatch_slot_inline(t, issue_at) {
                    Ok(SlotKind::Advanced) => m += 1,
                    Ok(SlotKind::Boundary) => break Ok(()),
                    Err(e) => {
                        // Count the faulting instruction's pick, as above.
                        m += 1;
                        break Err(e);
                    }
                }
            }
            pos += 1;
            if pos == r {
                pos = 0;
            }
        };
        if m > 0 {
            self.pipeline.advance_periodic(order, at, period, m);
            self.stats.rotation_slots += m - bulk;
            if (r as u64) < self.pipeline.stages() {
                self.stats.undersaturated_slots += m;
            }
        }
        outcome.map(|()| if m > 0 { Rotation::Advanced(m) } else { Rotation::Blocked })
    }

    /// Let every tasklet in `order` run `k` inline instructions off the
    /// round-robin order — as lane groups ([`crate::lanes`]): the
    /// tasklets at one pc share each decode — and commit the result if
    /// that is indistinguishable from `k` round-robin rounds. `issued` is
    /// the slot count retired so far (for the stand-off clock). Returns
    /// whether the chunk committed; if not, every architectural effect
    /// has been undone and the caller replays the slots one by one.
    ///
    /// **Why reordering is sound.** Inside a chunk every dispatched
    /// instruction is an [`INLINE_OP`] other than `call`: one slot, no
    /// effect on scheduling, no burst. The pipeline update therefore
    /// depends only on how many slots each tasklet retires, which `k`
    /// rounds fix at `k` each.
    /// Register files and pcs are private, and the histogram is a sum, so
    /// the only cross-tasklet channels are WRAM and the DPU log. If no
    /// WRAM word is stored by one tasklet and accessed by another within
    /// the chunk, every load sees either pre-chunk memory or its own
    /// tasklet's earlier store in *both* orders (by induction over the
    /// round-robin order: identical load values give identical
    /// instruction streams, hence identical access sets), and every word
    /// ends holding its single writer's last store. [`Shadow`] checks
    /// exactly that, at word granularity, as the accesses happen, and
    /// flags an overlap whichever access comes first — so it holds for
    /// any interleaving of the chunk's tasklets, the lanes' included.
    ///
    /// **Rollback contract.** A chunk commits only if every tasklet
    /// retired exactly `k` instructions; only then are the lanes' register
    /// files and pcs written back. A boundary instruction, a `call`, a
    /// conflict, a `trace`, a memory fault or an out-of-range pc drops the
    /// lanes, restores `op_counts` from the checkpoint and replays the
    /// store log backwards; nothing else is mutable from inline ops.
    /// The per-slot loop then reaches the same instruction in reference
    /// order, so error sites and partial state are untouched by the
    /// attempt. Budget exactness is the caller's: `k` rounds fit.
    fn try_chunk(&mut self, order: &[usize], k: u64, issued: u64) -> bool {
        if self.threads.len() > MAX_TRACKED_TASKLETS
            || order.iter().any(|&t| self.threads[t].burst > 0)
        {
            return false;
        }
        let saved_counts = self.op_counts;
        self.shadow.begin(self.wram.len());
        let threads = &self.threads;
        let lanes = self.lanes.get_or_insert_with(Lanes::new);
        lanes.load(order, k, |t| (&threads[t].regs, threads[t].pc));
        match lanes.run(self.code, self.sb, &mut self.wram, &mut self.shadow, &mut self.op_counts) {
            Ok(steps) => {
                for (l, &t) in order.iter().enumerate() {
                    let th = &mut self.threads[t];
                    th.pc = lanes.store(l, &mut th.regs);
                }
                self.stats.chunk_lane_steps += steps;
                self.stats.chunk_lane_slots += k * order.len() as u64;
                self.stats.chunk_commits += 1;
                self.chunk_policy.committed();
                true
            }
            Err(Aborted { reason, slots }) => {
                self.op_counts = saved_counts;
                self.shadow.rollback(&mut self.wram);
                self.stats.record_abort(reason, slots);
                self.chunk_policy.aborted(issued);
                false
            }
        }
    }

    /// Dispatch one instruction for tasklet `t` *without touching the
    /// pipeline*, for the batched fast paths: the caller has reserved the
    /// issue slot and will flush the pipeline update for the whole batch.
    /// Only [`INLINE_OP`] classes execute ([`Interp::exec_inline`], which
    /// reads the slot's issue cycle off `issue_cycle`); anything else
    /// returns [`SlotKind::Boundary`] untouched.
    fn dispatch_slot_inline(
        &mut self,
        t: usize,
        issue_cycle: impl FnOnce(&Pipeline) -> u64,
    ) -> Result<SlotKind> {
        let pc = self.threads[t].pc as usize;
        let code = self.code;
        let slot = code.get(pc).ok_or(Error::PcOutOfRange { pc, len: code.len() })?;
        if !INLINE_OP[slot.op as usize] {
            return Ok(SlotKind::Boundary);
        }
        self.op_counts[slot.op as usize] += 1;
        self.exec_inline(t, &slot.instr, issue_cycle)
    }

    /// Execute `instr` for tasklet `t` if it is an [`INLINE_OP`], its op
    /// already counted: the one definition of every inline instruction,
    /// shared by [`Interp::step`] and the batched fast paths. Any other
    /// instruction returns [`SlotKind::Boundary`] untouched; classifying
    /// here lets `step` reach every inline op through one jump table. A
    /// fault (bad load/store address) leaves pc on the faulting
    /// instruction.
    ///
    /// A `call` sets the tasklet's burst to the rest of the subroutine's
    /// slots, which the caller's loop retires as picks that execute
    /// nothing; a traced one records its entry at `issue_cycle`, the
    /// cycle the caller's schedule issues this slot at (evaluated only
    /// then, so untraced runs never compute it).
    ///
    /// Loads and stores feed the open replay recording, if any. (Inside a
    /// tasklet-major chunk the same instructions run as lane groups,
    /// [`crate::lanes`].)
    #[inline(always)]
    fn exec_inline(
        &mut self,
        t: usize,
        instr: &Instr,
        issue_cycle: impl FnOnce(&Pipeline) -> u64,
    ) -> Result<SlotKind> {
        let th = &mut self.threads[t];
        let mut next_pc = th.pc.wrapping_add(1);
        match_ops!(*instr, on_tasklet!(th, t), jump_tasklet!(th, next_pc), {
            Instr::Load { width, rd, ra, off } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                let v = self.wram.load(addr, width)?;
                self.record(|rec, wram| {
                    let loaded = wram.slice(addr, width.bytes());
                    loaded.is_ok_and(|now| rec.read(Space::Wram, addr, now))
                });
                self.threads[t].set(rd, v);
            }
            Instr::Store { width, ra, off, rs } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                let v = th.get(rs);
                self.wram.store(addr, width, v)?;
                self.record(|rec, _| rec.write(Space::Wram, addr, width.bytes()));
            }
            Instr::Trace { ra } => {
                let v = th.get(ra);
                self.result.trace.push((t, v));
            }
            Instr::CallSub { sub, rd, ra, rb } => {
                let (a, b) = (th.get(ra), th.get(rb));
                if matches!(sub, Subroutine::Divsi3 | Subroutine::Modsi3) && b == 0 {
                    return Err(Error::DivisionByZero { pc: th.pc as usize });
                }
                th.set(rd, sub.eval(a, b));
                th.burst = sub.instruction_count().saturating_sub(1);
                self.result.profile.record(sub);
                if self.sink.is_enabled() {
                    self.sink.record(TraceEvent::SubroutineEnter {
                        tasklet: t as u8,
                        symbol: sub.symbol(),
                        cycle: issue_cycle(&self.pipeline),
                        instructions: sub.instruction_count() as u32,
                    });
                }
            }
            _ => return Ok(SlotKind::Boundary),
        });
        self.threads[t].pc = next_pc;
        Ok(SlotKind::Advanced)
    }

    /// Execute `count` superblock instructions for tasklet `t` starting at
    /// `pc`, using the memoized head histogram when the span is exactly a
    /// memoized block.
    fn apply_block(&mut self, t: usize, pc: usize, count: usize) {
        if let Some(meta) = self.sb.head_meta(pc) {
            if meta.len as usize == count {
                for &(op, c) in &meta.op_counts {
                    self.op_counts[op as usize] += u64::from(c);
                }
                let th = &mut self.threads[t];
                for slot in &self.code[pc..pc + count] {
                    apply_pure(th, t, &slot.instr);
                }
                th.pc = (pc + count) as u32;
                return;
            }
        }
        self.apply_seq(t, pc, count);
    }

    /// Execute `count` superblock instructions for tasklet `t` starting at
    /// `pc`, folding op counts inline (mid-block entry or partial span).
    fn apply_seq(&mut self, t: usize, pc: usize, count: usize) {
        let th = &mut self.threads[t];
        for slot in &self.code[pc..pc + count] {
            self.op_counts[slot.op as usize] += 1;
            apply_pure(th, t, &slot.instr);
        }
        th.pc = (pc + count) as u32;
    }

    /// Fetch and dispatch one instruction for tasklet `t`. The caller has
    /// already picked the issue slot and checked the budget. Inline ops
    /// execute in [`Interp::exec_inline`]; the boundary ops are defined
    /// here.
    fn step(&mut self, t: usize) -> Result<()> {
        let pc = self.threads[t].pc as usize;
        let code = self.code;
        let slot = code.get(pc).ok_or(Error::PcOutOfRange { pc, len: code.len() })?;
        self.op_counts[slot.op as usize] += 1;
        if let SlotKind::Advanced = self.exec_inline(t, &slot.instr, pipeline_issue_cycle)? {
            return Ok(());
        }
        let th = &mut self.threads[t];
        let mut next_pc = th.pc.wrapping_add(1);
        let instr = slot.instr;
        match instr {
            Instr::Halt => {
                self.runnable[t] = false;
                self.runnable_count -= 1;
                self.live -= 1;
                self.active_remove(t);
            }
            Instr::MramRead { wram, mram, len } | Instr::MramWrite { wram, mram, len } => {
                let w = th.get(wram) as usize;
                let m = th.get(mram) as usize;
                let l = th.get(len) as usize;
                let is_read = matches!(instr, Instr::MramRead { .. });
                // Both interpreter engines route every DMA through this
                // site (the op is a scheduling boundary), so one injection
                // hook covers all execution modes.
                let fault = self.machine.faults.as_mut().and_then(|f| f.on_dma(l));
                if fault == Some(DmaFault::Fail) {
                    let cycle = pipeline_issue_cycle(&self.pipeline);
                    if let Some(f) = self.machine.faults.as_mut() {
                        f.log(FaultKind::DmaFail, cycle);
                    }
                    return Err(Error::DmaFault { pc, bytes: l });
                }
                let cycles = if is_read {
                    self.machine.dma.read(&self.machine.mram, &mut self.wram, m, w, l)?
                } else {
                    self.machine.dma.write(&mut self.machine.mram, &self.wram, m, w, l)?
                };
                self.record(|rec, wram| {
                    // In either direction the moved bytes now sit at `w`.
                    wram.slice(w, l).is_ok_and(|moved| {
                        if is_read {
                            rec.read(Space::Mram, m, moved) && rec.write(Space::Wram, w, l)
                        } else {
                            rec.read(Space::Wram, w, moved) && rec.write(Space::Mram, m, l)
                        }
                    })
                });
                let setup = self.machine.params.dma_setup_cycles;
                let stream = cycles.saturating_sub(setup);
                let issue = pipeline_issue_cycle(&self.pipeline);
                let start = issue.max(self.dma_stream_free);
                self.dma_stream_free = start + stream;
                // The issuing tasklet blocks for queueing + setup + its
                // own streaming time.
                self.pipeline.stall(t, (start - issue) + setup + stream);
                if let Some(f @ (DmaFault::FlipBit { .. } | DmaFault::FlipBits2 { .. })) = fault {
                    let (byte, bits, n) = match f {
                        DmaFault::FlipBit { byte, bit } => (byte, [bit, 0], 1),
                        DmaFault::FlipBits2 { byte, bit_a, bit_b } => (byte, [bit_a, bit_b], 2),
                        DmaFault::Fail => unreachable!("Fail returned above"),
                    };
                    // The flip(s) land in the transfer's destination as
                    // the data arrives: WRAM for reads, MRAM for writes.
                    // MRAM flips are *storage* errors: they bypass the
                    // SEC-DED sidecar (and break COW first), so the
                    // scrubber sees a code/data mismatch to repair.
                    let done = start + setup + stream;
                    for &bit in &bits[..n] {
                        let kind = if is_read {
                            let addr = w + byte;
                            self.wram.flip_bit(addr, bit)?;
                            FaultKind::WramBitFlip { addr: addr as u32, bit }
                        } else {
                            let addr = m + byte;
                            self.machine.mram.flip_bit_raw(addr, bit)?;
                            FaultKind::MramBitFlip { addr: addr as u32, bit }
                        };
                        if let Some(f) = self.machine.faults.as_mut() {
                            f.log(kind, done);
                        }
                    }
                }
                if is_read && self.machine.mram.ecc_enabled() {
                    // Verify-on-read: repair single-bit storage errors in
                    // the source words (surface multi-bit ones), then
                    // re-check the landed bytes against the trusted
                    // source so in-flight corruption is caught too.
                    let repaired = self.machine.mram.verify_range(m, l)?;
                    self.machine.integrity.dma_corrected += repaired;
                    let src = self.machine.mram.to_vec(m, l)?;
                    if self.wram.slice(w, l)? != src.as_slice() {
                        self.wram.write(w, &src)?;
                        self.machine.integrity.dma_corrected += 1;
                    }
                }
                if self.sink.is_enabled() {
                    self.sink.record(TraceEvent::DmaTransfer {
                        tasklet: t as u8,
                        direction: if matches!(instr, Instr::MramRead { .. }) {
                            DmaDirection::MramToWram
                        } else {
                            DmaDirection::WramToMram
                        },
                        bytes: l as u32,
                        start_cycle: start,
                        cycles: setup + stream,
                    });
                }
            }
            Instr::PerfConfig => {
                // `pipeline.pick` already advanced time past this issue;
                // the counter bases on the issue cycle itself.
                self.machine.perf.config(pipeline_issue_cycle(&self.pipeline));
            }
            Instr::PerfRead { rd } => {
                let v = self.machine.perf.read(pipeline_issue_cycle(&self.pipeline));
                self.threads[t].set(rd, (v & 0xffff_ffff) as u32);
                self.result.perf_reads.push(v);
            }
            Instr::Barrier => {
                if self.single {
                    // A lone live tasklet satisfies the barrier at its
                    // own arrival: no park, immediate release.
                    if self.sink.is_enabled() {
                        self.sink.record(TraceEvent::TaskletBarrier {
                            tasklet: t as u8,
                            cycle: pipeline_issue_cycle(&self.pipeline),
                            released: true,
                        });
                    }
                } else {
                    self.at_barrier[t] = true;
                    self.runnable[t] = false;
                    self.runnable_count -= 1;
                    self.parked += 1;
                    self.active_remove(t);
                    if self.sink.is_enabled() {
                        self.sink.record(TraceEvent::TaskletBarrier {
                            tasklet: t as u8,
                            cycle: pipeline_issue_cycle(&self.pipeline),
                            released: self.parked == self.live,
                        });
                    }
                }
            }
            Instr::MutexLock { id } => {
                // A lone tasklet always acquires immediately; no state
                // to track since no other tasklet can observe the lock.
                if !self.single {
                    if self.mutex_owner.is_empty() {
                        self.mutex_owner.resize(MUTEX_IDS, None);
                    }
                    if let Some(owner) = self.mutex_owner[id as usize] {
                        if owner != t {
                            // Block until released; re-execute the lock on
                            // wake (pc stays on this instruction).
                            self.mutex_waiters.push((id, t));
                            self.runnable[t] = false;
                            self.runnable_count -= 1;
                            self.active_remove(t);
                            next_pc = self.threads[t].pc;
                        }
                        // Re-locking an owned mutex is a no-op (the real
                        // hardware would deadlock; the simulator is lenient
                        // so generated code can be defensive).
                    } else {
                        self.mutex_owner[id as usize] = Some(t);
                    }
                }
            }
            Instr::MutexUnlock { id } => {
                // (Before the first lock the table is empty: nothing owned.)
                if !self.single && self.mutex_owner.get(id as usize) == Some(&Some(t)) {
                    self.mutex_owner[id as usize] = None;
                    if let Some(i) = self.mutex_waiters.iter().position(|&(m, _)| m == id) {
                        let (_, next) = self.mutex_waiters.remove(i);
                        self.runnable[next] = true;
                        self.runnable_count += 1;
                        self.active_insert(next);
                    }
                }
            }
            _ => unreachable!("exec_inline executes every inline op"),
        }
        self.threads[t].pc = next_pc;
        Ok(())
    }
}

/// Apply one superblock instruction to tasklet `th` (= tasklet index `t`).
/// The superblock classifier guarantees no other variant reaches here.
#[inline(always)]
fn apply_pure(th: &mut Tasklet, t: usize, instr: &Instr) {
    match_ops!(*instr, on_tasklet!(th, t), no_flow!(), {
        _ => debug_assert!(false, "non-superblock op {instr:?} in a superblock"),
    });
}

/// The cycle at which the most recent instruction issued.
fn pipeline_issue_cycle(p: &Pipeline) -> u64 {
    // `elapsed` = last_issue + stages.
    p.elapsed().saturating_sub(p.stages())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Instr as I, Reg, Width};
    use crate::subroutines::Subroutine;

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    #[test]
    fn inline_op_table_matches_classification() {
        // Dispatch every variant on a fresh interpreter: exactly the
        // `INLINE_OP` classes execute inline, both ways round.
        let exec = ExecProgram::decode(&Program::new(vec![I::Halt]));
        for instr in exec::all_variants() {
            let mut machine = Machine::default();
            let mut sink = NullSink;
            let mut interp = Interp::new(&mut machine, &mut sink, &exec, 2, u64::MAX, None);
            let advanced = match interp.exec_inline(0, &instr, pipeline_issue_cycle) {
                Ok(kind) => matches!(kind, SlotKind::Advanced),
                Err(e) => panic!("{instr:?} faulted: {e:?}"),
            };
            assert_eq!(
                advanced,
                INLINE_OP[exec::op_id(&instr) as usize],
                "INLINE_OP disagrees with exec_inline for {instr:?}"
            );
        }
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum 1..=10 into r2.
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 10 },
            I::Movi { rd: r(2), imm: 0 },
            I::Add { rd: r(2), ra: r(2), rb: r(1) },
            I::Addi { rd: r(1), ra: r(1), imm: -1 },
            I::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 2 },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(2) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 55);
        // 2 setup + 10×3 loop + store + halt = 34 issue slots.
        assert_eq!(res.instructions, 34);
        assert_eq!(res.cycles, 33 * 11 + 11);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let p = Program::new(vec![
            I::Movi { rd: r(0), imm: 42 },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(0) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.wram.write_u32(0, 7).unwrap();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 0);
    }

    #[test]
    fn tasklets_write_disjoint_slots() {
        // Each tasklet stores its id at wram[4*id].
        let p = Program::new(vec![
            I::TaskletId { rd: r(1) },
            I::Lsli { rd: r(2), ra: r(1), sh: 2 },
            I::Store { width: Width::W, ra: r(2), off: 0, rs: r(1) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.run(&p, 8).unwrap();
        for id in 0..8u32 {
            assert_eq!(m.wram.read_u32(4 * id as usize).unwrap(), id);
        }
    }

    #[test]
    fn subroutine_burst_costs_issue_slots() {
        let body = |with_sub: bool| {
            let op = if with_sub {
                I::CallSub { sub: Subroutine::Mulsf3, rd: r(3), ra: r(1), rb: r(2) }
            } else {
                I::Add { rd: r(3), ra: r(1), rb: r(2) }
            };
            Program::new(vec![
                I::Movi { rd: r(1), imm: 1067450368 }, // 1.5f32 bits... any value
                I::Movi { rd: r(2), imm: 1075838976 },
                op,
                I::Halt,
            ])
        };
        let mut m1 = Machine::default();
        let cheap = m1.run(&body(false), 1).unwrap();
        let mut m2 = Machine::default();
        let costly = m2.run(&body(true), 1).unwrap();
        let extra = Subroutine::Mulsf3.instruction_count() - 1;
        assert_eq!(costly.instructions, cheap.instructions + extra);
        assert_eq!(costly.cycles, cheap.cycles + extra * 11);
        assert_eq!(costly.profile.occurrences(Subroutine::Mulsf3), 1);
    }

    #[test]
    fn mul8_is_hardware_and_correct() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 0x1_02 }, // low byte 0x02
            I::Movi { rd: r(2), imm: 0xff },
            I::Mul8 { rd: r(3), ra: r(1), rb: r(2) },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(3) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 2 * 255);
    }

    #[test]
    fn dma_round_trip_and_stall_accounting() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 0 },    // wram addr
            I::Movi { rd: r(2), imm: 4096 }, // mram addr
            I::Movi { rd: r(3), imm: 2048 }, // len
            I::MramRead { wram: r(1), mram: r(2), len: r(3) },
            I::Load { width: Width::W, rd: r(4), ra: r(1), off: 0 },
            I::Addi { rd: r(4), ra: r(4), imm: 1 },
            I::Store { width: Width::W, ra: r(1), off: 0, rs: r(4) },
            I::MramWrite { wram: r(1), mram: r(2), len: r(3) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.mram.write_u32(4096, 41).unwrap();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(m.mram.read_u32(4096).unwrap(), 42);
        assert_eq!(res.dma_transfers, 2);
        assert_eq!(res.dma_bytes, 4096);
        assert_eq!(res.dma_cycles, 2 * 1049);
        // The two DMA stalls dominate: 9 instructions but > 2000 cycles.
        assert!(res.cycles > 2 * 1049);
    }

    #[test]
    fn perfcounter_measures_bracketed_region() {
        let p = Program::new(vec![
            I::PerfConfig,
            I::Nop,
            I::Nop,
            I::Nop,
            I::PerfRead { rd: r(5) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.perf_reads, vec![44]); // 4 instructions × 11 cycles
    }

    /// `Machine::run` goes through [`ExecProgram::decode`], so branch
    /// targets are checked when executed, not up front. (Its other
    /// difference from a loaded program's run — a table that lives for one
    /// call never replays — is pinned by the oracle's table-lifetime
    /// predicate.)
    #[test]
    fn run_checks_branch_targets_when_executed() {
        let never_taken = Program::new(vec![
            I::Branch { cond: Cond::Ne, ra: r(0), rb: r(0), target: 99 },
            I::Halt,
        ]);
        assert!(matches!(ExecProgram::compile(&never_taken), Err(Error::PcOutOfRange { .. })));
        let mut m = Machine::default();
        assert_eq!(m.run(&never_taken, 2).unwrap().instructions, 4);
        let taken = Program::new(vec![I::Jump { target: 99 }]);
        assert_eq!(m.run(&taken, 1).unwrap_err(), Error::PcOutOfRange { pc: 99, len: 1 });
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let p = Program::new(vec![I::Jump { target: 0 }]);
        let mut m = Machine::default();
        let err = m
            .execute(&ExecProgram::decode(&p), RunSpec { budget: 10_000, ..RunSpec::new(1) })
            .unwrap_err();
        assert!(matches!(err, Error::CycleBudgetExceeded { budget: 10_000 }));
    }

    #[test]
    fn division_by_zero_is_reported() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 5 },
            I::CallSub { sub: Subroutine::Divsi3, rd: r(2), ra: r(1), rb: r(0) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        assert!(matches!(m.run(&p, 1), Err(Error::DivisionByZero { pc: 1 })));
    }

    #[test]
    fn bad_tasklet_count_rejected() {
        let p = Program::new(vec![I::Halt]);
        let mut m = Machine::default();
        assert!(matches!(m.run(&p, 0), Err(Error::BadTaskletCount { .. })));
        assert!(matches!(m.run(&p, 25), Err(Error::BadTaskletCount { .. })));
        assert!(m.run(&p, 24).is_ok());
    }

    #[test]
    fn program_too_large_for_iram() {
        let p = Program::new(vec![I::Nop; 24 * 1024 / 8 + 1]);
        let mut m = Machine::default();
        assert!(matches!(m.run(&p, 1), Err(Error::ProgramTooLarge { .. })));
    }

    #[test]
    fn jal_jr_subroutine_linkage() {
        // main: jal r31, func; store r9; halt. func: movi r9, 99; jr r31.
        let p = Program::new(vec![
            I::Jal { rd: r(31), target: 3 },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(9) },
            I::Halt,
            I::Movi { rd: r(9), imm: 99 },
            I::Jr { ra: r(31) },
        ]);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 99);
    }

    #[test]
    fn popcount_counts_bits() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 0b1011_0110 },
            I::Popcount { rd: r(2), ra: r(1) },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(2) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 5);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn trace_records_values_in_execution_order() {
        let p = assemble(
            "movi r1, 10\n\
             loop: trace r1\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        let values: Vec<u32> = res.trace.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=10).rev().collect::<Vec<u32>>());
        assert!(res.trace.iter().all(|&(t, _)| t == 0));
    }

    #[test]
    fn trace_tags_the_emitting_tasklet() {
        let p = assemble("me r1\ntrace r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 4).unwrap();
        let mut pairs = res.trace.clone();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }
}

#[cfg(test)]
mod trace_sink_tests {
    use super::*;
    use crate::asm::assemble;
    use pim_trace::TraceBuffer;

    fn dma_heavy_program() -> Program {
        assemble(
            "me r1\n\
             lsli r2, r1, 8\n\
             movi r3, 64\n\
             mram.read r2, r2, r3\n\
             call __mulsi3 r4, r3, r3\n\
             barrier\n\
             mram.write r2, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    #[test]
    fn traced_run_records_all_event_kinds() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let mut buf = TraceBuffer::new();
        let res = m
            .execute(
                &ExecProgram::decode(&p),
                RunSpec { observe: Observe::Trace(&mut buf), ..RunSpec::new(4) },
            )
            .unwrap();
        let launches = buf.count_matching(|e| matches!(e, TraceEvent::KernelLaunch { .. }));
        let completes = buf.count_matching(|e| matches!(e, TraceEvent::KernelComplete { .. }));
        let dmas = buf.count_matching(|e| matches!(e, TraceEvent::DmaTransfer { .. }));
        let subs = buf.count_matching(|e| matches!(e, TraceEvent::SubroutineEnter { .. }));
        let barriers = buf.count_matching(|e| matches!(e, TraceEvent::TaskletBarrier { .. }));
        assert_eq!(launches, 1);
        assert_eq!(completes, 1);
        assert_eq!(dmas, 8, "4 tasklets × (read + write)");
        assert_eq!(subs, 4);
        assert_eq!(barriers, 4);
        assert_eq!(buf.dma_bytes(), res.dma_bytes);
        assert_eq!(buf.dma_cycles(), res.dma_cycles);
    }

    #[test]
    fn trace_max_end_cycle_equals_run_cycles() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let mut buf = TraceBuffer::new();
        let res = m
            .execute(
                &ExecProgram::decode(&p),
                RunSpec { observe: Observe::Trace(&mut buf), ..RunSpec::new(3) },
            )
            .unwrap();
        assert_eq!(buf.max_end_cycle(), res.cycles);
    }

    #[test]
    fn exactly_one_barrier_arrival_releases() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let mut buf = TraceBuffer::new();
        m.execute(
            &ExecProgram::decode(&p),
            RunSpec { observe: Observe::Trace(&mut buf), ..RunSpec::new(4) },
        )
        .unwrap();
        let released =
            buf.count_matching(|e| matches!(e, TraceEvent::TaskletBarrier { released: true, .. }));
        assert_eq!(released, 1);
    }

    #[test]
    fn per_tasklet_issue_counts_cover_all_instructions() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let res = m.run(&p, 4).unwrap();
        assert_eq!(res.issue_per_tasklet.len(), 4);
        assert_eq!(res.issue_per_tasklet.iter().sum::<u64>(), res.instructions);
        assert!(res.issue_per_tasklet.iter().all(|&n| n > 0));
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn barrier_orders_producer_before_consumers() {
        // Tasklet 0 writes a value, everyone barriers, all read it.
        // Without the barrier the consumers would race ahead (tasklet 0's
        // store happens thousands of cycles into its long setup loop).
        let p = assemble(
            "me r1\n\
             bne r1, r0, wait\n\
             movi r2, 500        ; producer: long setup loop\n\
             spin: addi r2, r2, -1\n\
             bne r2, r0, spin\n\
             movi r3, 77\n\
             sw r0, 0x40, r3     ; publish\n\
             wait: barrier\n\
             lw r4, r0, 0x40     ; every tasklet reads after the barrier\n\
             lsli r5, r1, 2\n\
             addi r5, r5, 0x80\n\
             sw r5, 0, r4\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 8).unwrap();
        for t in 0..8 {
            assert_eq!(m.wram.read_u32(0x80 + 4 * t).unwrap(), 77, "tasklet {t}");
        }
    }

    #[test]
    fn single_tasklet_barrier_is_a_noop() {
        let p = assemble("movi r1, 5\nbarrier\naddi r1, r1, 1\nsw r0, 0, r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 6);
    }

    #[test]
    fn halted_tasklets_do_not_block_a_barrier() {
        // Odd tasklets halt immediately; even ones barrier and proceed.
        let p = assemble(
            "me r1\n\
             movi r2, 1\n\
             and r3, r1, r2\n\
             bne r3, r0, out\n\
             barrier\n\
             movi r4, 9\n\
             lsli r5, r1, 2\n\
             sw r5, 0x40, r4\n\
             out: halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 4).unwrap();
        assert_eq!(m.wram.read_u32(0x40).unwrap(), 9);
        assert_eq!(m.wram.read_u32(0x48).unwrap(), 9);
        assert_eq!(m.wram.read_u32(0x44).unwrap(), 0); // tasklet 1 halted
    }

    #[test]
    fn consecutive_barriers_work() {
        let p = assemble(
            "me r1\n\
             barrier\n\
             barrier\n\
             barrier\n\
             lsli r2, r1, 2\n\
             movi r3, 1\n\
             sw r2, 0, r3\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 6).unwrap();
        for t in 0..6 {
            assert_eq!(m.wram.read_u32(4 * t).unwrap(), 1);
        }
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn histogram_counts_executed_not_static_instructions() {
        let p = assemble(
            "movi r1, 5\n\
             loop: addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.op_histogram["movi"], 1);
        assert_eq!(res.op_histogram["add"], 5); // addi executes 5 times
        assert_eq!(res.op_histogram["branch"], 5);
        assert_eq!(res.op_histogram["halt"], 1);
    }

    #[test]
    fn histogram_counts_subroutine_calls_once() {
        let p = assemble("movi r1, 3\ncall __mulsf3 r2, r1, r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.op_histogram["call"], 1);
        // ...while the issue-slot count reflects the full body.
        assert!(res.instructions > 200);
    }
}

#[cfg(test)]
mod mutex_tests {
    use super::*;
    use crate::asm::assemble;

    /// The classic race: N tasklets each add 1 to a shared counter 50
    /// times with a load-add-store sequence. Without the mutex the
    /// interleaved sequences lose updates; with it, the count is exact.
    fn counter_program(locked: bool) -> Program {
        let (lock, unlock) = if locked { ("mutex.lock 3\n", "mutex.unlock 3\n") } else { ("", "") };
        assemble(&format!(
            "movi r2, 50\n\
             loop:\n\
             {lock}\
             lw r3, r0, 0x40\n\
             addi r3, r3, 1\n\
             sw r0, 0x40, r3\n\
             {unlock}\
             addi r2, r2, -1\n\
             bne r2, r0, loop\n\
             halt\n"
        ))
        .unwrap()
    }

    #[test]
    fn mutex_makes_shared_counter_exact() {
        let mut m = Machine::default();
        m.run(&counter_program(true), 8).unwrap();
        assert_eq!(m.wram.read_u32(0x40).unwrap(), 8 * 50);
    }

    #[test]
    fn without_mutex_updates_are_lost() {
        let mut m = Machine::default();
        m.run(&counter_program(false), 8).unwrap();
        let got = m.wram.read_u32(0x40).unwrap();
        assert!(got < 8 * 50, "race must lose updates, got {got}");
        assert!(got >= 50, "at least one tasklet's worth survives");
    }

    #[test]
    fn waiters_wake_fifo_and_all_finish() {
        // Every tasklet takes the same mutex once; completion proves no
        // lost wakeups.
        let p = assemble(
            "me r1\n\
             mutex.lock 0\n\
             lw r3, r0, 0x40\n\
             addi r3, r3, 1\n\
             sw r0, 0x40, r3\n\
             mutex.unlock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 24).unwrap();
        assert_eq!(m.wram.read_u32(0x40).unwrap(), 24);
    }

    #[test]
    fn relock_by_owner_is_lenient() {
        let p = assemble(
            "mutex.lock 1\nmutex.lock 1\nmutex.unlock 1\nmovi r1, 7\nsw r0, 0, r1\nhalt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 7);
    }

    #[test]
    fn unlock_of_unowned_mutex_is_ignored() {
        let p = assemble("mutex.unlock 9\nmovi r1, 5\nsw r0, 0, r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        m.run(&p, 2).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 5);
    }
}

#[cfg(test)]
mod barrier_mutex_interaction_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn barrier_waits_for_mutex_blocked_tasklets() {
        // Tasklet 0 grabs the mutex, spins, releases, then barriers.
        // Tasklets 1.. must first take the mutex (blocking on t0), then
        // barrier. If the barrier released while they were mutex-blocked,
        // the final store would be unordered.
        let p = assemble(
            "me r1\n\
             bne r1, r0, others\n\
             mutex.lock 0\n\
             movi r2, 300\n\
             spin: addi r2, r2, -1\n\
             bne r2, r0, spin\n\
             movi r3, 1\n\
             sw r0, 0x40, r3      ; publish inside the lock\n\
             mutex.unlock 0\n\
             jmp sync\n\
             others:\n\
             mutex.lock 0\n\
             lw r4, r0, 0x40      ; must see t0's publish\n\
             lsli r5, r1, 2\n\
             sw r5, 0x80, r4\n\
             mutex.unlock 0\n\
             sync: barrier\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 6).unwrap();
        for t in 1..6 {
            assert_eq!(m.wram.read_u32(0x80 + 4 * t).unwrap(), 1, "tasklet {t}");
        }
    }

    #[test]
    fn mutex_held_across_barrier_deadlocks_detectably() {
        // Tasklet 0 locks and goes to the barrier while holding the mutex;
        // the others need the mutex before their barrier → deadlock, which
        // must surface as a budget error rather than a hang or bogus
        // release.
        let p = assemble(
            "me r1\n\
             bne r1, r0, others\n\
             mutex.lock 0\n\
             barrier\n\
             mutex.unlock 0\n\
             halt\n\
             others:\n\
             mutex.lock 0\n\
             mutex.unlock 0\n\
             barrier\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m
            .execute(&ExecProgram::decode(&p), RunSpec { budget: 50_000, ..RunSpec::new(3) })
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 1, on_mutex: 2 }), "got {err}");
    }
}

#[cfg(test)]
mod deadlock_accounting_tests {
    //! Regression tests that the `Error::Deadlock` populations derived from
    //! the incremental live/parked counters stay exact.

    use super::*;
    use crate::asm::assemble;

    #[test]
    fn cross_mutex_deadlock_counts_only_mutex_blockers() {
        // Tasklet 0: lock 0, spin, lock 1. Tasklet 1: lock 1, spin, lock 0.
        // Both spins overlap, so each tasklet holds its first mutex when it
        // requests the other's → pure mutex deadlock, nobody at a barrier.
        let p = assemble(
            "me r1\n\
             bne r1, r0, second\n\
             mutex.lock 0\n\
             movi r2, 20\n\
             s0: addi r2, r2, -1\n\
             bne r2, r0, s0\n\
             mutex.lock 1\n\
             halt\n\
             second:\n\
             mutex.lock 1\n\
             movi r2, 20\n\
             s1: addi r2, r2, -1\n\
             bne r2, r0, s1\n\
             mutex.lock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m
            .execute(&ExecProgram::decode(&p), RunSpec { budget: 100_000, ..RunSpec::new(2) })
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 0, on_mutex: 2 }), "got {err}");
    }

    #[test]
    fn mixed_barrier_and_mutex_deadlock_splits_populations() {
        // Tasklet 0 parks at the barrier holding mutex 0; tasklets 1 and 2
        // block on that mutex; tasklet 3 parks at the barrier. The barrier
        // can never fill (two live tasklets are mutex-blocked) → deadlock
        // with two parked and two blocked.
        let p = assemble(
            "me r1\n\
             movi r2, 3\n\
             bne r1, r2, not3\n\
             barrier\n\
             halt\n\
             not3:\n\
             bne r1, r0, waiters\n\
             mutex.lock 0\n\
             barrier\n\
             halt\n\
             waiters:\n\
             mutex.lock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m
            .execute(&ExecProgram::decode(&p), RunSpec { budget: 100_000, ..RunSpec::new(4) })
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 2, on_mutex: 2 }), "got {err}");
    }

    #[test]
    fn deadlock_counts_ignore_halted_tasklets() {
        // Of four tasklets, two halt immediately. Tasklet 0 parks at the
        // barrier holding mutex 0 and tasklet 1 blocks on that mutex: the
        // deadlock populations must count only the two live tasklets.
        let p = assemble(
            "me r1\n\
             movi r2, 2\n\
             blt r1, r2, low\n\
             halt\n\
             low:\n\
             bne r1, r0, waiter\n\
             mutex.lock 0\n\
             barrier\n\
             halt\n\
             waiter:\n\
             mutex.lock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m
            .execute(&ExecProgram::decode(&p), RunSpec { budget: 100_000, ..RunSpec::new(4) })
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 1, on_mutex: 1 }), "got {err}");
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::faults::{FaultConfig, FaultPlan};

    /// DMA a word in, double it, DMA it back out.
    fn dma_program() -> Program {
        assemble(
            "movi r1, 0\n\
             movi r2, 0\n\
             movi r3, 8\n\
             mram.read r1, r2, r3\n\
             lw r4, r1, 0\n\
             add r4, r4, r4\n\
             sw r1, 0, r4\n\
             mram.write r1, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::new(config)
    }

    #[test]
    fn offline_fault_fails_the_launch_and_logs() {
        let mut m = Machine::default();
        m.arm_faults(
            plan(FaultConfig { forced_offline: vec![0], ..Default::default() }).attempt(0, 0),
        );
        let err = m.run(&dma_program(), 1).unwrap_err();
        assert_eq!(err, Error::DpuOffline);
        let log = m.disarm_faults().unwrap();
        assert_eq!(log.injected().len(), 1);
        assert_eq!(log.injected()[0].kind.label(), "dpu_offline");
    }

    #[test]
    fn dma_fail_aborts_with_site_and_logs() {
        let mut m = Machine::default();
        m.arm_faults(
            plan(FaultConfig { seed: 1, dma_fail_prob: 1.0, ..Default::default() }).attempt(0, 0),
        );
        let err = m.run(&dma_program(), 1).unwrap_err();
        assert!(matches!(err, Error::DmaFault { bytes: 8, .. }), "got {err}");
        let log = m.disarm_faults().unwrap();
        assert_eq!(log.injected()[0].kind.label(), "dma_fail");
    }

    #[test]
    fn bit_flip_corrupts_the_result_and_logs_the_site() {
        // Clean run: 21 doubles to 42.
        let mut clean = Machine::default();
        clean.mram.write(0, &21u64.to_le_bytes()).unwrap();
        clean.run(&dma_program(), 1).unwrap();
        let mut out = [0u8; 8];
        clean.mram.read(0, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out), 42);

        // Same run with every DMA flipping one destination bit.
        let mut faulty = Machine::default();
        faulty.mram.write(0, &21u64.to_le_bytes()).unwrap();
        faulty.arm_faults(
            plan(FaultConfig { seed: 9, bit_flip_prob: 1.0, ..Default::default() }).attempt(0, 0),
        );
        faulty.run(&dma_program(), 1).unwrap();
        let log = faulty.disarm_faults().unwrap();
        assert_eq!(log.injected().len(), 2, "one flip per DMA transfer");
        let labels: Vec<&str> = log.injected().iter().map(|f| f.kind.label()).collect();
        assert_eq!(labels, vec!["wram_bit_flip", "mram_bit_flip"]);
        assert!(log.injected()[0].cycle > 0, "flip is stamped at DMA completion");
        faulty.mram.read(0, &mut out).unwrap();
        assert_ne!(u64::from_le_bytes(out), 42, "corruption must be observable");
    }

    #[test]
    fn injected_hang_surfaces_as_clamped_budget_exhaustion() {
        // An endless loop would normally run to the caller's budget; with a
        // hang injected the run is cut off at the drawn cycle instead.
        let p = assemble("top:\njmp top\n").unwrap();
        let mut m = Machine::default();
        let armed =
            plan(FaultConfig { seed: 3, hang_prob: 1.0, ..Default::default() }).attempt(0, 0);
        let hang_at = armed.hang_after().unwrap();
        m.arm_faults(armed);
        let err = m
            .execute(&ExecProgram::decode(&p), RunSpec { budget: 10_000_000, ..RunSpec::new(1) })
            .unwrap_err();
        assert_eq!(err, Error::CycleBudgetExceeded { budget: hang_at });
        let log = m.disarm_faults().unwrap();
        assert_eq!(log.injected()[0].kind.label(), "tasklet_hang");
    }

    #[test]
    fn hang_does_not_fire_when_the_kernel_finishes_first() {
        let mut m = Machine::default();
        let armed =
            plan(FaultConfig { seed: 5, hang_prob: 1.0, ..Default::default() }).attempt(0, 0);
        m.arm_faults(armed);
        // The DMA program halts within a few hundred cycles, below any
        // drawn hang cutoff >= 500.
        let r = m.run(&dma_program(), 1);
        if let Ok(res) = &r {
            assert!(res.cycles < 500);
            assert!(m.disarm_faults().unwrap().injected().is_empty());
        } else {
            // A cutoff below the kernel's runtime would hang it instead —
            // not possible here, but keep the assertion honest.
            panic!("kernel should finish before the minimum hang cutoff: {r:?}");
        }
    }

    #[test]
    fn perf_counter_does_not_leak_across_runs() {
        // Run 1 arms the perf counter early and never reads it.
        let arm = assemble("perf.config\nhalt\n").unwrap();
        // Run 2 burns cycles, then reads the counter without arming it:
        // a fresh launch must read 0, not the elapsed time since run 1's
        // stale arming.
        let read_late = assemble(
            "movi r1, 200\n\
             top:\n\
             addi r1, r1, -1\n\
             bne r1, r0, top\n\
             perf.read r4\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&arm, 1).unwrap();
        let r = m.run(&read_late, 1).unwrap();
        assert_eq!(r.perf_reads, vec![0], "perf state leaked across launches");
    }
}
