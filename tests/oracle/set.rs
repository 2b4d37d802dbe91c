//! The set layer: one multi-DPU input through every cell of
//! [`DpuSet::launch_with`].
//!
//! A set is staged once with ECC off and once with ECC armed before
//! staging, and each DPU's machine-layer reference is the reference loop
//! run three times on its staged machine. Every cell of form {loaded, ad
//! hoc} × dispatch {sequential, forked} × policy {none, zero-fault,
//! default, default terms with a zero plan, seeded} × ECC {off, on} ×
//! trace {off, on} then launches a fresh copy of the set three times, so
//! workers share recordings across DPUs and launches (once for the ad hoc
//! form, whose decoded program lives for one launch). Without a policy and
//! under a zero-fault one — and under default terms on an input whose
//! every DPU is served — every launch reports the same [`LaunchReport`]
//! (the whole report, not just its results) and leaves every DPU as its
//! reference left it; default terms that retry, and a seeded policy,
//! agree with their own kind in report, trace buffers and memory.

use crate::generate::Generated;
use crate::machine::{replay_counters, same, seeded, Aftermath};
use dpu_sim::faults::FaultConfig;
use dpu_sim::{DmaEngine, Engine, ExecProgram, FaultPlan, Machine, Mram, Program, RunSpec, Wram};
use pim_host::{
    DpuSet, HostError, LaunchObservation, LaunchReport, LaunchSpec, ResilientLaunchPolicy,
};
use pim_trace::TraceBuffer;
use std::collections::BTreeMap;

/// Launches per cell.
const LAUNCHES: usize = 3;

/// A program plus the set it starts on.
pub struct SetInput {
    pub name: String,
    pub program: Program,
    pub tasklets: usize,
    /// Every DPU as staged: with ECC off, and with ECC armed first.
    pub staged: [Vec<Machine>; 2],
    /// Seed of the seeded policy's fault plan.
    pub seed: u64,
}

impl SetInput {
    /// A generated program on `dpus` DPUs, DPU `i` holding [`seeded`]
    /// memory of salt `i`.
    pub fn generated(g: Generated, dpus: usize, seed: u64) -> Self {
        let staged = [false, true].map(|ecc| (0..dpus as u32).map(|i| seeded(i, ecc)).collect());
        let name = format!("{dpus} DPUs, {} tasklets, {:?}", g.tasklets, g.program);
        Self { name, program: g.program, tasklets: g.tasklets, staged, seed }
    }

    /// The DPUs of `set` as staged (`[ECC off, ECC on]`).
    pub fn staged(name: &str, tasklets: usize, sets: [&DpuSet; 2], seed: u64) -> Self {
        let program = sets[0].loaded_program().expect("a loaded program").clone();
        let staged = sets.map(|set| set.system().iter().map(|(_, m)| m.clone()).collect());
        Self { name: name.to_owned(), program, tasklets, staged, seed }
    }

    /// A fresh set holding the staged DPUs, the program loaded.
    fn set(&self, ecc: bool) -> DpuSet {
        let staged = &self.staged[usize::from(ecc)];
        let mut set = DpuSet::allocate(staged.len()).unwrap();
        for ((_, dpu), m) in set.system_mut().iter_mut().zip(staged) {
            dpu.clone_from(m);
        }
        set.load(&self.program).unwrap();
        set
    }
}

/// The seeded policy: DMA failures, offline DPUs and bit flips, retried
/// and re-dispatched.
fn seeded_policy(seed: u64) -> ResilientLaunchPolicy {
    let plan = FaultPlan::new(FaultConfig {
        seed,
        dma_fail_prob: 0.2,
        dpu_offline_prob: 0.2,
        bit_flip_prob: 0.3,
        ..FaultConfig::default()
    });
    ResilientLaunchPolicy {
        max_retries: 2,
        backoff_cycles: 500,
        ..ResilientLaunchPolicy::with_faults(plan)
    }
}

/// Each DPU's memory after a launch.
type Memory = Vec<(Wram, Mram, DmaEngine)>;

/// What a launch must report, trace and leave behind.
#[derive(Default)]
struct Expected {
    report: Option<LaunchReport>,
    buffers: Option<Vec<TraceBuffer>>,
    memory: Option<Memory>,
}

fn memory(set: &DpuSet) -> Memory {
    set.system().iter().map(|(_, m)| (m.wram.clone(), m.mram.clone(), m.dma)).collect()
}

/// Which launches must agree: every plain-terms launch (none, zero-fault,
/// and default terms on an input whose every DPU is served) with the
/// reference; default terms that retry, and a seeded policy, with their
/// own kind across the other axes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Group {
    Plain,
    Retrying,
    Seeded,
}

/// Every cell of `input`.
pub fn check(input: &SetInput) {
    let dpus = input.staged[0].len();
    // Machine-layer references, per ECC setting, launch and DPU.
    let exec = ExecProgram::decode(&input.program);
    let spec = || RunSpec { engine: Some(Engine::Reference), ..RunSpec::new(input.tasklets) };
    let references: Vec<Vec<Vec<Aftermath>>> = input
        .staged
        .iter()
        .map(|staged| {
            let mut machines = staged.clone();
            let mut launch = || {
                let run = |m: &mut Machine| {
                    let outcome = m.execute(&exec, spec());
                    Aftermath::of(m, outcome)
                };
                machines.iter_mut().map(run).collect()
            };
            (0..LAUNCHES).map(|_| launch()).collect()
        })
        .collect();
    // Whether every DPU is served in every launch: then a policy's retries
    // and re-dispatch have nothing to do.
    let served = references.iter().map(|l| l.iter().flatten().all(|a| a.outcome.is_ok()));
    let served: Vec<bool> = served.collect();

    // The plain launch's own terms, with a plan that injects nothing.
    let zero = ResilientLaunchPolicy {
        max_retries: 0,
        redispatch: false,
        ..ResilientLaunchPolicy::with_faults(FaultPlan::none())
    };
    let default = ResilientLaunchPolicy::default();
    let armed_zero = ResilientLaunchPolicy::with_faults(FaultPlan::none());
    let seeded = seeded_policy(input.seed);
    let policies = [
        ("none", None),
        ("zero-fault", Some(&zero)),
        ("default", Some(&default)),
        ("default terms, armed zero", Some(&armed_zero)),
        ("seeded", Some(&seeded)),
    ];
    let mut cells = Vec::new();
    for ecc in [false, true] {
        for policy in policies {
            for trace in [false, true] {
                for adhoc in [false, true] {
                    cells.extend([false, true].map(|forked| (ecc, policy, trace, adhoc, forked)));
                }
            }
        }
    }
    // What each launch must report, trace and leave behind: one for every
    // plain-terms launch, one per ECC setting for the others.
    let mut expected: BTreeMap<(Group, bool, usize), Expected> = BTreeMap::new();
    for (ecc, (policy_name, policy), trace, adhoc, forked) in cells {
        let mut set = input.set(ecc);
        set.set_parallel_threshold(Some(if forked { 1 } else { usize::MAX }));
        // An ad hoc launch decodes its program afresh, so a second one
        // shares no recording with the first: one launch is its cell.
        let launches = if adhoc { 1 } else { LAUNCHES };
        for (launch, references) in references[usize::from(ecc)].iter().enumerate().take(launches) {
            let cell = format!(
                "{}: ecc={ecc} policy={policy_name} trace={trace} adhoc={adhoc} forked={forked} \
                 launch {launch}",
                input.name
            );
            let group = match policy_name {
                "seeded" => Group::Seeded,
                "default" | "default terms, armed zero" if !served[usize::from(ecc)] => {
                    Group::Retrying
                }
                _ => Group::Plain,
            };
            let mut obs = LaunchObservation::new();
            let before = set.system().engine_stats();
            let form = if adhoc {
                LaunchSpec::adhoc(&input.program, input.tasklets)
            } else {
                LaunchSpec::loaded(input.tasklets)
            };
            let spec = LaunchSpec { trace, policy, observe: Some(&mut obs), ..form };
            let (report, buffers) = set.launch_with(spec).expect("launch");
            let stats = set.system().engine_stats().since(&before);
            assert_eq!(buffers.len(), if trace { dpus } else { 0 }, "{cell}");
            // Armed attempts bypass the table; only a re-dispatch pass
            // (after a quarantine) runs clean.
            if trace || ecc || (group == Group::Seeded && report.quarantined.is_empty()) {
                assert_eq!(replay_counters(&stats), [0; 4], "{cell}: bypasses the table");
            }
            if policy.is_some() || report.fully_served() {
                let m = obs.metrics();
                let workers = std::thread::available_parallelism().map_or(4, usize::from).min(dpus);
                let steal = [m.counter("obs.steal.launches"), m.counter("obs.steal.claims")];
                let want = if forked { [1, dpus as u64] } else { [0, 0] };
                assert_eq!(steal, want, "{cell}: every DPU claimed once");
                let want = forked.then_some(workers as f64);
                assert_eq!(m.gauge("obs.steal.workers"), want, "{cell}");
            }
            let key = (group, group != Group::Plain && ecc, launch);
            let want = expected.entry(key).or_default();
            assert!(same(&mut want.report, &report), "{cell}: report");
            assert!(!trace || same(&mut want.buffers, &buffers), "{cell}: trace buffers");
            if group != Group::Plain {
                assert!(same(&mut want.memory, &memory(&set)), "{cell}: memory");
                if launch == 0 {
                    // A first attempt nothing was injected into is a plain run.
                    for (d, (served, r)) in report.per_dpu.iter().zip(references).enumerate() {
                        if served.attempts == 1 && served.faults.is_empty() {
                            let want = r.outcome.as_ref().ok();
                            assert_eq!(served.result.as_ref(), want, "{cell}, DPU {d}: silent");
                        }
                    }
                }
                continue;
            }
            if report.fully_served() {
                let results = report.per_dpu.iter().filter_map(|r| r.result.as_ref());
                let instructions: u64 = results.map(|r| r.instructions).sum();
                assert_eq!(stats.slots(), instructions, "{cell}: modes partition the slots");
            }
            assert!(report.degraded.is_empty(), "{cell}: nothing re-dispatched");
            let dpus = set.system().iter().zip(&report.per_dpu).zip(references);
            for (d, (((_, m), served), r)) in dpus.enumerate() {
                let cell = format!("{cell}, DPU {d}");
                assert_eq!(served.result.as_ref(), r.outcome.as_ref().ok(), "{cell}");
                assert_eq!(
                    served.last_error,
                    r.outcome.clone().err().map(HostError::Dpu),
                    "{cell}"
                );
                let once = (served.attempts, served.served_by, served.backoff_cycles);
                assert_eq!(once, (1, None, 0), "{cell}: one attempt");
                assert!(served.faults.is_empty(), "{cell}: nothing injected");
                if let (Some(b), Ok(r)) = (buffers.get(d), &r.outcome) {
                    assert_eq!(
                        (b.max_end_cycle(), b.dma_bytes()),
                        (r.cycles, r.dma_bytes),
                        "{cell}"
                    );
                }
                Aftermath::of(m, r.outcome.clone()).assert_is(r, &cell);
            }
        }
        if ecc && policy_name != "seeded" {
            let scrub = set.scrub_all();
            assert!(scrub.clean(), "{}: the scrub repaired {scrub:?}", input.name);
        }
    }
}
