//! Launching Tier-1 programs on a DPU set.
//!
//! `dpu_launch` runs the loaded program on every DPU of a set; the DPUs
//! execute independently and the host synchronizes on completion (paper
//! §3.1: SIMD across DPUs, SIMT across tasklets). The simulator runs the
//! per-DPU interpreters on host threads (they share nothing), then reports
//! per-DPU statistics plus the set-level figures the paper quotes: the
//! *makespan* (slowest DPU — the batch completes "at the max time for one
//! DPU", §4.1.3) and a merged subroutine profile.

use crate::error::{HostError, Result};
use crate::observe::LaunchObservation;
use crate::resilient::{launch_core, LaunchReport, ResilientLaunchPolicy};
use crate::set::DpuSet;
use dpu_sim::{ExecProgram, PimSystem, Program};
use pim_trace::TraceBuffer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The program a launch runs.
#[derive(Debug, Clone, Copy)]
pub enum LaunchProgram<'a> {
    /// The program installed with [`DpuSet::load`] — the SDK's
    /// load-once/launch-many pattern. Runs the stored execution form
    /// directly: no re-validation, no clone, no re-analysis.
    Loaded,
    /// This program, validated and decoded for this launch alone.
    Adhoc(&'a Program),
}

/// One launch of a DPU set: the argument of [`DpuSet::launch_with`].
#[derive(Debug)]
pub struct LaunchSpec<'a> {
    /// What to run.
    pub program: LaunchProgram<'a>,
    /// Tasklets per DPU.
    pub tasklets: usize,
    /// Collect one [`TraceBuffer`] of cycle-stamped simulator events per
    /// DPU (buffer `i` belongs to DPU `i`): kernel launch/complete, every
    /// MRAM DMA, subroutine entries, barrier arrivals and injected faults.
    /// Observational: the report is identical to an untraced launch's.
    pub trace: bool,
    /// Retry, quarantine and re-dispatch under this policy (see
    /// [`crate::resilient`]). `None` is the plain launch: one attempt per
    /// DPU under the default cycle budget, nothing injected, nothing
    /// re-dispatched — observationally what a zero-fault policy does.
    pub policy: Option<&'a ResilientLaunchPolicy>,
    /// Feed the launch, the engine residency of its runs and — when
    /// worker threads ran it — the steal distribution into this
    /// observation.
    pub observe: Option<&'a mut LaunchObservation>,
}

impl<'a> LaunchSpec<'a> {
    /// A plain, untraced, unobserved launch of the loaded program.
    #[must_use]
    pub fn loaded(tasklets: usize) -> Self {
        Self { program: LaunchProgram::Loaded, tasklets, trace: false, policy: None, observe: None }
    }

    /// A plain, untraced, unobserved launch of `program`.
    #[must_use]
    pub fn adhoc(program: &'a Program, tasklets: usize) -> Self {
        Self { program: LaunchProgram::Adhoc(program), ..Self::loaded(tasklets) }
    }
}

impl DpuSet {
    /// Run a program on every DPU of the set and wait for completion
    /// (`dpu_launch`): the one entry every launch goes through.
    ///
    /// DPUs are simulated in parallel on one worker thread per core when
    /// the set is large enough for the spawn to pay off. Per-DPU faults are
    /// reported in the [`LaunchReport`], not as `Err`;
    /// [`LaunchReport::served`] turns the first of them into one. The
    /// trace buffers are empty unless [`LaunchSpec::trace`].
    ///
    /// # Errors
    /// [`crate::HostError::Symbol`] when [`LaunchProgram::Loaded`] finds
    /// nothing loaded, [`crate::HostError::Dpu`] when an
    /// [`LaunchProgram::Adhoc`] program is malformed.
    pub fn launch_with(
        &mut self,
        spec: LaunchSpec<'_>,
    ) -> Result<(LaunchReport, Vec<TraceBuffer>)> {
        let LaunchSpec { program, tasklets, trace, policy, observe } = spec;
        let engine = self.engine();
        let threshold = self.parallel_threshold();
        let (system, loaded) = self.launch_parts();
        let adhoc;
        let exec = match program {
            LaunchProgram::Loaded => loaded.ok_or_else(|| HostError::Symbol {
                name: "<program>".to_owned(),
                problem: "no program loaded; call DpuSet::load first",
            })?,
            LaunchProgram::Adhoc(program) => {
                adhoc = ExecProgram::compile(program)?;
                &adhoc
            }
        };
        let engine_before = observe.as_ref().map(|_| system.engine_stats());
        let (report, buffers, steal) =
            launch_core(system, tasklets, trace, engine, policy, threshold, |dpu, run| {
                dpu.execute(exec, run)
            });
        // A plain launch that faulted is an error to its caller, not a
        // launch to account.
        let accounted = policy.is_some() || report.fully_served();
        if let Some((obs, before)) = observe.zip(engine_before).filter(|_| accounted) {
            obs.record(&report, policy.is_some());
            obs.record_engine(&system.engine_stats().since(&before));
            if let Some(stats) = steal {
                obs.record_steal(&stats);
            }
        }
        Ok((report, buffers))
    }

    /// Run `program` with `tasklets` threads on every DPU of the set and
    /// wait for completion.
    ///
    /// # Errors
    /// The first DPU fault encountered (in DPU order).
    pub fn launch(&mut self, program: &Program, tasklets: usize) -> Result<LaunchReport> {
        self.launch_with(LaunchSpec::adhoc(program, tasklets))?.0.served()
    }

    /// Launch the program previously installed with [`DpuSet::load`].
    ///
    /// # Errors
    /// [`crate::HostError::Symbol`] when nothing is loaded; otherwise as
    /// [`DpuSet::launch`].
    pub fn launch_loaded(&mut self, tasklets: usize) -> Result<LaunchReport> {
        self.launch_with(LaunchSpec::loaded(tasklets))?.0.served()
    }

    /// [`DpuSet::launch_loaded`] with per-DPU tracing (see
    /// [`LaunchSpec::trace`]).
    ///
    /// # Errors
    /// As [`DpuSet::launch_loaded`].
    pub fn launch_loaded_traced(
        &mut self,
        tasklets: usize,
    ) -> Result<(LaunchReport, Vec<TraceBuffer>)> {
        let (report, buffers) =
            self.launch_with(LaunchSpec { trace: true, ..LaunchSpec::loaded(tasklets) })?;
        Ok((report.served()?, buffers))
    }

    /// Fault-tolerant launch of the loaded program under `policy` — the
    /// resilient counterpart of [`DpuSet::launch_loaded`].
    ///
    /// # Errors
    /// [`crate::HostError::Symbol`] when nothing is loaded; per-DPU faults
    /// are reported in the [`LaunchReport`], not as `Err`.
    pub fn launch_loaded_resilient(
        &mut self,
        tasklets: usize,
        policy: &ResilientLaunchPolicy,
    ) -> Result<LaunchReport> {
        let spec = LaunchSpec { policy: Some(policy), ..LaunchSpec::loaded(tasklets) };
        self.launch_with(spec).map(|(report, _)| report)
    }
}

/// Below the threshold a launch runs on the calling thread: spawning a
/// worker costs more than it saves on tiny sets. The effective value is a
/// per-set tunable ([`DpuSet::set_parallel_threshold`]) with a
/// process-wide environment override ([`DpuSet::PARALLEL_THRESHOLD_ENV`]),
/// mirroring [`dpu_sim::Engine::effective`]; this constant is the fallback, picked
/// by the sweep recorded in `docs/PERFORMANCE.md`.
pub(crate) const DEFAULT_PARALLEL_THRESHOLD: usize = 4;

/// How the work-stealing scheduler distributed one launch's DPU jobs
/// over its worker threads.
///
/// Purely observational scheduling telemetry: which worker simulated
/// which DPU depends on host thread timing, so these numbers vary from
/// run to run (unlike every simulated figure) and are excluded from the
/// deterministic launch results. [`crate::LaunchObservation`] aggregates
/// them under `obs.steal.*` and `obs.pool.*`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Jobs claimed by each worker thread (index = worker; the calling
    /// thread is the last).
    pub claims: Vec<u64>,
    /// Jobs the launch handed out (= DPUs simulated) — its queue depth.
    pub queued: u64,
}

impl StealStats {
    /// Worker threads that ran the launch, the calling thread included.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.claims.len()
    }

    /// Total jobs claimed (= DPUs simulated).
    #[must_use]
    pub fn total_claims(&self) -> u64 {
        self.claims.iter().sum()
    }
}

/// Run `job` once per DPU: in DPU order on the calling thread below
/// `threshold` DPUs, else as one fork-join — one worker per available
/// core (capped at the set size), the calling thread the last of them,
/// every worker claiming DPUs one at a time off one shared cursor so a
/// few expensive DPUs cannot idle the rest. The one place a launch
/// chooses between the two; no thread outlives the call.
///
/// `job` receives the DPU index, the DPU and its element of `buffers`
/// (`None` past the end: an untraced launch passes no buffers at all
/// rather than build 2,560 to throw away), and must not unwind. Outcomes
/// come back in DPU order regardless of which worker ran what, with the
/// workers' claims when there were workers.
pub(crate) fn dispatch<R, F>(
    system: &mut PimSystem,
    threshold: usize,
    buffers: &mut [TraceBuffer],
    job: F,
) -> (Vec<R>, Option<StealStats>)
where
    R: Send,
    F: Fn(usize, &mut dpu_sim::Machine, Option<&mut TraceBuffer>) -> R + Sync,
{
    struct Slot<'a, R> {
        dpu: &'a mut dpu_sim::Machine,
        buf: Option<&'a mut TraceBuffer>,
        outcome: Option<R>,
    }

    let n = system.len();
    let mut buffers = buffers.iter_mut();
    let dpus = system.iter_mut().map(|(_, dpu)| (dpu, buffers.next()));
    if n < threshold {
        return (dpus.enumerate().map(|(i, (dpu, buf))| job(i, dpu, buf)).collect(), None);
    }
    let slots: Vec<Mutex<Slot<R>>> =
        dpus.map(|(dpu, buf)| Mutex::new(Slot { dpu, buf, outcome: None })).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut claimed = 0;
        loop {
            // `Relaxed`: the cursor only hands out indexes; the state they
            // name passes through the slot mutexes and the scope's joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return claimed };
            // Each index is claimed exactly once, so the lock is always
            // uncontended; it exists to hand the `&mut` state to whichever
            // worker drew the index.
            let mut slot = slot.lock().expect("job mutex poisoned");
            let Slot { dpu, buf, outcome } = &mut *slot;
            *outcome = Some(job(i, dpu, buf.as_deref_mut()));
            claimed += 1;
        }
    };
    let workers = std::thread::available_parallelism().map_or(4, usize::from).min(n);
    let claims = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let own = worker();
        let mut claims: Vec<u64> =
            spawned.into_iter().map(|h| h.join().expect("jobs do not unwind")).collect();
        claims.push(own);
        claims
    });
    let outcomes = slots
        .into_iter()
        .map(|m| {
            let slot = m.into_inner().expect("job mutex poisoned");
            slot.outcome.expect("every DPU index was claimed by a worker")
        })
        .collect();
    (outcomes, Some(StealStats { claims, queued: n as u64 }))
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload.downcast_ref::<&str>().map(|s| (*s).to_owned()).unwrap_or_else(|| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "panic payload was not a string".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HostError;
    use dpu_sim::asm::assemble;
    use dpu_sim::DpuId;

    /// Program: read scalar at MRAM symbol offset 0 (via DMA), double it,
    /// write it back.
    fn double_program() -> Program {
        assemble(
            "movi r1, 0      ; wram addr\n\
             movi r2, 0      ; mram addr\n\
             movi r3, 8      ; len\n\
             mram.read r1, r2, r3\n\
             lw r4, r1, 0\n\
             add r4, r4, r4\n\
             sw r1, 0, r4\n\
             mram.write r1, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    #[test]
    fn launch_runs_all_dpus() {
        let mut set = DpuSet::allocate(8).unwrap();
        set.define_symbol("x", 8).unwrap();
        for i in 0..8u32 {
            set.copy_to_dpu(DpuId(i), "x", 0, &u64::from(i + 1).to_le_bytes()).unwrap();
        }
        let res = set.launch(&double_program(), 1).unwrap();
        assert_eq!(res.per_dpu.len(), 8);
        for i in 0..8u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
        assert!(res.makespan_cycles() > 0);
        assert_eq!(res.makespan_cycles(), res.per_dpu[0].cycles); // identical work
    }

    #[test]
    fn load_then_launch_many_times() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("x", 8).unwrap();
        set.copy_scalar_to("x", 1).unwrap();
        set.load(&double_program()).unwrap();
        for expected in [2u64, 4, 8] {
            set.launch_loaded(1).unwrap();
            assert_eq!(set.copy_scalar_from(DpuId(0), "x").unwrap(), expected);
        }
    }

    #[test]
    fn launch_loaded_without_load_errors() {
        let mut set = DpuSet::allocate(1).unwrap();
        let err = set.launch_loaded(1).unwrap_err();
        assert!(err.to_string().contains("no program loaded"));
    }

    #[test]
    fn load_rejects_bad_programs_eagerly() {
        let mut set = DpuSet::allocate(1).unwrap();
        let bad = Program::new(vec![dpu_sim::Instr::Jump { target: 9 }]);
        assert!(set.load(&bad).is_err());
        // An ad-hoc launch validates the same way, before any DPU runs.
        assert!(matches!(set.launch(&bad, 1), Err(HostError::Dpu(_))));
        let huge = Program::new(vec![dpu_sim::Instr::Nop; 4000]);
        assert!(set.load(&huge).is_err());
    }

    #[test]
    fn merged_profile_aggregates_dpus() {
        let mut set = DpuSet::allocate(4).unwrap();
        let p = assemble("movi r1, 6\nmovi r2, 7\ncall __mulsi3 r3, r1, r2\nhalt\n").unwrap();
        let res = set.launch(&p, 1).unwrap();
        let prof = res.merged_profile();
        assert_eq!(prof.occurrences(dpu_sim::Subroutine::Mulsi3), 4);
    }

    /// Regression: a worker panic mid-launch must not poison per-machine
    /// state for subsequent launches. The panicked wave here leaves every
    /// machine with an *armed* perf counter; before `run_code` reset the
    /// counter at run start, the next launch's `perf.read` would observe
    /// the stale armed epoch instead of its own.
    #[test]
    fn relaunch_after_worker_panic_reads_clean_state() {
        let mut set = DpuSet::allocate(6).unwrap();
        set.system_mut().dpu_mut(DpuId(2)).mram.write_u32(0, 1).unwrap();
        let arming =
            ExecProgram::compile(&dpu_sim::asm::assemble("perf.config\nhalt\n").unwrap()).unwrap();
        let (report, _, _) = launch_core(set.system_mut(), 1, false, None, None, 0, |dpu, run| {
            let r = dpu.execute(&arming, run);
            if dpu.mram.read_u32(0).unwrap() == 1 {
                panic!("injected mid-launch failure");
            }
            r
        });
        assert_eq!(report.quarantined(), [DpuId(2)]);
        assert!(matches!(report.served(), Err(HostError::WorkerPanic { .. })));

        // Relaunch on the same (partly poisoned) set: every DPU's perf
        // read must start from zero, including the one whose worker died.
        let reader = dpu_sim::asm::assemble(
            "movi r1, 200\n\
             loop:\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             perf.read r4\n\
             halt\n",
        )
        .unwrap();
        set.load(&reader).unwrap();
        let res = set.launch_loaded(1).unwrap();
        assert_eq!(res.per_dpu.len(), 6);
        for (i, r) in res.per_dpu.iter().enumerate() {
            assert_eq!(r.perf_reads, vec![0], "DPU {i} leaked perf state across launches");
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use dpu_sim::asm::assemble;
    use pim_trace::TraceEvent;

    /// DMA in, a multiply subroutine, a barrier, DMA out — every simulator
    /// event kind fires.
    fn traced_program() -> Program {
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
    fn per_dpu_buffers_cover_all_dpus_in_order() {
        let mut set = DpuSet::allocate(5).unwrap();
        set.load(&traced_program()).unwrap();
        let (res, bufs) = set.launch_loaded_traced(2).unwrap();
        assert_eq!(bufs.len(), res.per_dpu.len());
        for (r, b) in res.per_dpu.iter().zip(&bufs) {
            // Identical work on every DPU: each buffer's end stamp is its
            // own DPU's cycle count.
            assert_eq!(b.max_end_cycle(), r.cycles);
            assert_eq!(b.dma_bytes(), r.dma_bytes);
            assert_eq!(b.count_matching(|e| matches!(e, TraceEvent::KernelLaunch { .. })), 1);
        }
    }

    #[test]
    fn metrics_snapshot_reflects_launch() {
        let mut set = DpuSet::allocate(4).unwrap();
        let res = set.launch(&traced_program(), 2).unwrap();
        let m = res.metrics();
        assert_eq!(m.counter("launch.instructions"), res.total_instructions());
        assert_eq!(
            m.counter("launch.dma.bytes"),
            res.per_dpu.iter().map(|r| r.dma_bytes).sum::<u64>()
        );
        assert_eq!(m.gauge("launch.dpus"), Some(4.0));
        assert_eq!(m.gauge("launch.makespan_cycles"), Some(res.makespan_cycles() as f64));
        let occ = m.histogram("tasklet.occupancy").expect("observed");
        assert_eq!(occ.count(), 4 * 2); // 4 DPUs x 2 tasklets
                                        // Shares within one DPU sum to 1; the mean over all is 1/tasklets.
        assert!((occ.mean().unwrap() - 0.5).abs() < 1e-9);
        let ipc = m.gauge("launch.ipc").expect("set");
        assert!(ipc > 0.0);
    }

    proptest::proptest! {
        /// The satellite invariant: the set's makespan equals the largest
        /// end stamp over every per-DPU trace span, at any set shape.
        #[test]
        fn makespan_equals_max_trace_end_cycle(
            dpus in 1usize..7,
            tasklets in 1usize..5,
        ) {
            let mut set = DpuSet::allocate(dpus).unwrap();
            set.load(&traced_program()).unwrap();
            let (res, bufs) = set.launch_loaded_traced(tasklets).unwrap();
            let max_end = bufs.iter().map(pim_trace::TraceBuffer::max_end_cycle).max().unwrap();
            proptest::prop_assert_eq!(res.makespan_cycles(), max_end);
        }
    }
}

/// A DPU whose simulation panics, on both dispatch paths. (Which DPU's
/// error a faulting launch reports, in every way to spell a launch, is the
/// differential oracle's set layer, `tests/oracle/set.rs`.)
#[cfg(test)]
mod launch_matrix_tests {
    use super::*;
    use crate::error::HostError;
    use dpu_sim::asm::assemble;
    use dpu_sim::{DpuId, Engine};

    const DPUS: usize = 6;
    const TASKLETS: usize = 3;

    /// DMA the DPU's scalar in, a multiply subroutine, a barrier, a loop
    /// as long as the scalar, DMA the product out: every simulator event
    /// kind fires and every DPU costs differently.
    fn work_program() -> Program {
        assemble(
            "me r1\n\
             lsli r2, r1, 8\n\
             movi r3, 8\n\
             mram.read r2, r0, r3\n\
             lw r4, r2, 0\n\
             call __mulsi3 r5, r4, r4\n\
             barrier\n\
             spin:\n\
             addi r4, r4, -1\n\
             bne r4, r0, spin\n\
             sw r2, 0, r5\n\
             lsli r6, r1, 3\n\
             addi r6, r6, 8\n\
             mram.write r2, r6, r3\n\
             halt\n",
        )
        .unwrap()
    }

    /// A set whose DPU `i` holds `i + 1` at MRAM offset 0.
    fn seeded_set() -> DpuSet {
        let mut set = DpuSet::allocate(DPUS).unwrap();
        for (i, (_, dpu)) in set.system_mut().iter_mut().enumerate() {
            dpu.mram.write(0, &(i as u64 + 1).to_le_bytes()).unwrap();
        }
        set
    }

    /// A panic inside one DPU's simulation is that DPU's error — on the
    /// calling thread as on the workers, with or without a policy — and
    /// the other DPUs are served.
    #[test]
    fn a_panicking_simulation_is_a_worker_panic_on_both_dispatch_paths() {
        let exec = ExecProgram::compile(&work_program()).unwrap();
        let default = ResilientLaunchPolicy::default();
        for pooled in [false, true] {
            for policy in [None, Some(&default)] {
                let cell = format!("pooled={pooled} policy={}", policy.is_some());
                let mut set = seeded_set();
                let threshold = if pooled { 0 } else { usize::MAX };
                let engine = Some(Engine::default());
                let (report, _, steal) = launch_core(
                    set.system_mut(),
                    TASKLETS,
                    false,
                    engine,
                    policy,
                    threshold,
                    |dpu, run| {
                        assert!(dpu.mram.read_u32(0).unwrap() != 4, "injected failure on DPU 3");
                        dpu.execute(&exec, run)
                    },
                );
                assert_eq!(steal.is_some(), pooled, "{cell}");
                assert_eq!(report.quarantined(), [DpuId(3)], "{cell}");
                assert_eq!(report.incidents.len(), 1, "{cell}: the other DPUs are served");
                assert_eq!(report.incidents[0].attempts, if policy.is_some() { 3 } else { 1 });
                match report.served() {
                    Err(HostError::WorkerPanic { detail }) => {
                        assert!(detail.contains("injected failure on DPU 3"), "{cell}: {detail}");
                    }
                    other => panic!("{cell}: {other:?}"),
                }
            }
        }
    }
}
