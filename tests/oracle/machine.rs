//! The machine layer: one input through every cell of
//! [`Machine::execute`].
//!
//! Each input runs once on the reference loop, then through every valid
//! cell of engine {Reference, Superblock, ambient} × sighting {first,
//! recorded, replayed, replayed on changed inputs} × faults {unarmed,
//! armed with a zero plan, armed with a seeded plan} × MRAM ECC {off, on}
//! × observer {off, trace, profile}, to completion and again under a
//! budget that cuts the run short. Every cell leaves the reference's
//! [`Aftermath`] — a seeded-plan cell the reference loop's under the same
//! plan, a changed-input sighting the reference loop's on that memory.
//!
//! The sighting axis is the replay table's: only a plain launch (fast
//! tier, unarmed, ECC off, unobserved) consults it, so the four sightings
//! run plain, on a program decoded afresh for each engine. Every other
//! cell then runs against the table the sightings left — which holds a
//! recording of this very run when the run is short — and must leave its
//! counters where they were.

use crate::generate::Generated;
use dpu_sim::faults::FaultConfig;
use dpu_sim::machine::DEFAULT_CYCLE_BUDGET;
use dpu_sim::perfcounter::PerfCounter;
use dpu_sim::{
    CycleAttribution, DmaEngine, Engine, EngineStats, Error, ExecProgram, FaultPlan, InjectedFault,
    Machine, Mram, Observe, Program, RunResult, RunSpec, ScrubReport, Wram,
};
use pim_trace::{NullSink, TraceBuffer};
use std::sync::Arc;

/// Slots past which a run is never recorded for replay.
const REPLAY_MAX_SLOTS: u64 = 1024;

/// A program plus the machine it starts on.
pub struct Input {
    pub name: String,
    pub program: Program,
    pub tasklets: usize,
    /// The machine it starts on.
    pub start: Machine,
    /// The same memory, seeded after MRAM ECC was turned on.
    pub ecc: Machine,
    /// `start` with other bytes where the program reads.
    pub changed: Machine,
    /// The budget of the run to completion.
    pub budget: u64,
    /// The cut budget, in thousandths of the completed run's cycles.
    pub cut_permille: u64,
    /// Seed of the armed-seeded cells' fault plan.
    pub seed: u64,
}

impl Input {
    /// A generated program on [`seeded`] machines.
    pub fn generated(g: Generated, cut_permille: u64, seed: u64) -> Self {
        Self {
            name: format!("{} tasklets, {:?}", g.tasklets, g.program),
            budget: g.budget,
            program: g.program,
            tasklets: g.tasklets,
            start: seeded(0, false),
            ecc: seeded(0, true),
            changed: seeded(1, false),
            cut_permille,
            seed,
        }
    }

    /// A staged DPU: `ecc` is the same DPU staged with ECC on, `input` the
    /// MRAM span whose bytes the changed-input sighting flips.
    pub fn staged(
        name: &str,
        program: Program,
        tasklets: usize,
        [start, ecc]: [Machine; 2],
        input: std::ops::Range<usize>,
        cut_permille: u64,
    ) -> Self {
        let mut changed = start.clone();
        let bytes = changed.mram.to_vec(input.start, input.len()).unwrap();
        changed
            .mram
            .write(input.start, &bytes.iter().map(|b| b ^ 0xff).collect::<Vec<_>>())
            .unwrap();
        Self {
            name: name.to_owned(),
            program,
            tasklets,
            start,
            ecc,
            changed,
            budget: DEFAULT_CYCLE_BUDGET,
            cut_permille,
            seed: 7,
        }
    }
}

/// A machine whose first 4 KiB of MRAM and WRAM hold a pattern of `salt`
/// (so loads of never-written memory observe real data), written after
/// MRAM ECC was set to `ecc`.
pub fn seeded(salt: u32, ecc: bool) -> Machine {
    let mut m = Machine::default();
    m.mram.set_ecc(ecc);
    let mram: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(37) ^ (salt * 0x9e)) as u8).collect();
    m.mram.write(0, &mram).unwrap();
    let wram: Vec<u8> =
        (0..0x1000u32).map(|i| ((i.wrapping_mul(29) >> 2) ^ (salt * 0x3b)) as u8).collect();
    m.wram.write(0, &wram).unwrap();
    m
}

/// The seeded plan of the armed-seeded cells.
fn seeded_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed,
        dma_fail_prob: 0.1,
        bit_flip_prob: 0.3,
        hang_prob: 0.1,
        ..FaultConfig::default()
    })
}

/// Everything a run leaves behind that the host or a later launch can
/// observe: the outcome, both memories, the DMA statistics, the perf
/// counter and the faults an armed run injected.
#[derive(Debug, Clone, PartialEq)]
pub struct Aftermath {
    pub outcome: Result<RunResult, Error>,
    pub wram: Wram,
    pub mram: Mram,
    pub dma: DmaEngine,
    pub perf: PerfCounter,
    pub faults: Vec<InjectedFault>,
}

impl Aftermath {
    /// What `m` holds after a run that returned `outcome`.
    pub fn of(m: &Machine, outcome: Result<RunResult, Error>) -> Self {
        Self {
            outcome,
            wram: m.wram.clone(),
            mram: m.mram.clone(),
            dma: m.dma,
            perf: m.perf(),
            faults: Vec::new(),
        }
    }

    /// Assert `self` is `want`, naming the first field that differs.
    #[track_caller]
    pub fn assert_is(&self, want: &Self, cell: &str) {
        assert_eq!(self.outcome, want.outcome, "{cell}: outcome");
        assert_eq!(self.faults, want.faults, "{cell}: injected faults");
        assert!(self.wram == want.wram, "{cell}: WRAM");
        assert!(self.mram == want.mram, "{cell}: MRAM");
        assert_eq!(self.dma, want.dma, "{cell}: DMA statistics");
        assert_eq!(self.perf, want.perf, "{cell}: perf counter");
    }
}

/// The fault axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    Unarmed,
    Zero,
    Seeded,
}

/// The observer axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    Off,
    Trace,
    Profile,
}

/// One cell: `engine` `None` is the ambient engine.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub engine: Option<Engine>,
    pub faults: Faults,
    pub ecc: bool,
    pub watch: Watch,
}

impl Cell {
    /// The plain launch on `engine`.
    pub fn plain(engine: Option<Engine>) -> Self {
        Self { engine, faults: Faults::Unarmed, ecc: false, watch: Watch::Off }
    }

    /// The tier the run actually takes.
    fn resolved(self) -> Engine {
        match self.watch {
            Watch::Profile => Engine::Reference,
            _ => self.engine.unwrap_or_else(Engine::effective),
        }
    }
}

/// One cell's run: what it left, its engine residency, what it observed
/// and, with ECC on, what a scrub afterwards repaired.
pub struct Run {
    pub after: Aftermath,
    pub stats: EngineStats,
    pub events: TraceBuffer,
    pub attribution: CycleAttribution,
    pub scrub: Option<ScrubReport>,
}

/// Run `exec` on a copy of `machine` as `cell` says.
pub fn run(
    exec: &ExecProgram,
    machine: &Machine,
    tasklets: usize,
    budget: u64,
    cell: Cell,
    seed: u64,
) -> Run {
    let mut m = machine.clone();
    match cell.faults {
        Faults::Unarmed => {}
        Faults::Zero => m.arm_faults(FaultPlan::none().attempt(0, 0)),
        Faults::Seeded => m.arm_faults(seeded_plan(seed).attempt(0, 0)),
    }
    let (mut events, mut attribution) = (TraceBuffer::new(), CycleAttribution::new());
    let mut disabled = NullSink;
    let observe = match cell.watch {
        // The ambient engine's unobserved cells pass a disabled sink, the
        // other way to say "no observer": it must be the same run.
        Watch::Off if cell.engine.is_none() => Observe::Trace(&mut disabled),
        Watch::Off => Observe::Off,
        Watch::Trace => Observe::Trace(&mut events),
        Watch::Profile => Observe::Profile(&mut attribution),
    };
    let before = m.engine_stats();
    let spec = RunSpec { budget, engine: cell.engine, observe, ..RunSpec::new(tasklets) };
    let outcome = m.execute(exec, spec);
    let stats = m.engine_stats().since(&before);
    let faults = m.disarm_faults().map(|log| log.injected().to_vec());
    assert_eq!(faults.is_some(), cell.faults != Faults::Unarmed, "{cell:?}: armed state");
    let after = Aftermath {
        faults: faults.unwrap_or_default(),
        ..Aftermath::of(&m, outcome.map(Arc::unwrap_or_clone))
    };
    let scrub = m.mram.ecc_enabled().then(|| m.mram.scrub());
    Run { after, stats, events, attribution, scrub }
}

/// The replay counters of `s`.
pub fn replay_counters(s: &EngineStats) -> [u64; 4] {
    [s.replay_hits, s.replay_records, s.replay_abandoned, s.replayed_slots]
}

/// A sighting of a plain run, in the order they run; `Again` is one more
/// after every other cell has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sighting {
    First,
    Recorded,
    Replayed,
    Changed,
    Again,
}

/// What the replay table may have done on a plain sighting on `engine`;
/// `fresh` when the program was decoded just before the first sighting.
fn assert_table(sighting: Sighting, fresh: bool, engine: Engine, r: &Run, cell: &str) {
    let [hits, records, abandoned, replayed] = replay_counters(&r.stats);
    let ways = (hits, records, abandoned);
    let cell = format!("{cell}: {:?}", r.stats);
    let instructions = r.after.outcome.as_ref().map_or(0, |result| result.instructions);
    assert_eq!(replayed, hits * instructions, "{cell}");
    match (&r.after.outcome, sighting) {
        _ if engine == Engine::Reference => assert_eq!(ways, (0, 0, 0), "{cell}: reference"),
        // A run that fails is never noted, so its next sightings run plain.
        (Err(_), Sighting::First | Sighting::Recorded | Sighting::Replayed) if fresh => {
            assert_eq!(ways, (0, 0, 0), "{cell}: a failing run is never noted");
        }
        (Err(_), _) => assert_eq!((hits, records), (0, 0), "{cell}: a failing run is not recorded"),
        // A long run is never recorded, but once the changed-input
        // sighting has left a shorter run's recording it walks past it.
        _ if instructions > REPLAY_MAX_SLOTS => {
            let walked_past = u64::from(sighting == Sighting::Again);
            assert!(hits + records == 0 && abandoned <= walked_past, "{cell}: long");
        }
        (_, Sighting::First) if fresh => assert_eq!(ways, (0, 0, 0), "{cell}: runs plain"),
        (_, Sighting::Recorded) if fresh => {
            assert_eq!((hits, records + abandoned), (0, 1), "{cell}")
        }
        // Kept and replayed, or abandoned again: never a third way.
        (_, Sighting::Replayed | Sighting::Again) => {
            assert_eq!((hits + abandoned, records), (1, 0), "{cell}")
        }
        _ => assert!(hits + records + abandoned <= 1, "{cell}: one way per run"),
    }
    if r.after.outcome.is_ok() {
        assert_eq!(r.stats.slots(), instructions, "{cell}: modes partition the slots");
    }
}

/// Whether `got` equals what `want` holds, filling it with `got` when it
/// holds nothing yet.
pub fn same<T: Clone + PartialEq>(want: &mut Option<T>, got: &T) -> bool {
    want.get_or_insert_with(|| got.clone()) == got
}

/// Every cell of `input` to completion and under its cut budget; returns
/// the reference aftermath of the run to completion.
pub fn check(input: &Input) -> Aftermath {
    let execs = [ExecProgram::decode(&input.program), ExecProgram::decode(&input.program)];
    let whole = check_at(input, input.budget, &execs, true);
    let cycles = whole.outcome.as_ref().map_or(input.budget, |r| r.cycles);
    check_at(input, cycles.saturating_mul(input.cut_permille) / 1000, &execs, false);
    whole
}

/// Every cell of `input` under `budget`, the sightings on `execs` (one
/// per fast engine; `fresh` when they have never run). Returns the
/// reference aftermath.
fn check_at(input: &Input, budget: u64, execs: &[ExecProgram; 2], fresh: bool) -> Aftermath {
    let label = |cell: &dyn std::fmt::Debug| format!("{}: budget {budget}, {cell:?}", input.name);
    let run = |exec, machine, cell| run(exec, machine, input.tasklets, budget, cell, input.seed);
    let [reference, changed] = [&input.start, &input.changed].map(|machine| {
        let r = run(&execs[0], machine, Cell::plain(Some(Engine::Reference)));
        assert_eq!(replay_counters(&r.stats), [0; 4], "{}", label(&"reference"));
        r.after
    });
    let sight = |exec, engine, sighting| {
        let cell = Cell::plain(engine);
        let (machine, want) = match sighting {
            Sighting::Changed => (&input.changed, &changed),
            _ => (&input.start, &reference),
        };
        let r = run(exec, machine, cell);
        let label = label(&(engine, sighting));
        r.after.assert_is(want, &label);
        assert_table(sighting, fresh, cell.resolved(), &r, &label);
    };
    use Sighting::{Changed, First, Recorded, Replayed};
    for (exec, engine) in execs.iter().zip([Some(Engine::Superblock), None]) {
        for sighting in [First, Recorded, Replayed, Changed] {
            sight(exec, engine, sighting);
        }
    }

    // Everything else, keyed by what defines its expectations: the plain
    // reference for unarmed and zero-plan cells, the reference loop under
    // the seeded plan (with ECC off, and on) for seeded cells.
    let mut expected: [Option<Aftermath>; 3] = [Some(reference.clone()), None, None];
    let mut events: [Option<TraceBuffer>; 3] = Default::default();
    let mut attributions: [Option<CycleAttribution>; 3] = Default::default();
    let mut scrubs: [Option<ScrubReport>; 3] = Default::default();
    for cell in guarded_cells() {
        let key = if cell.faults == Faults::Seeded { 1 + usize::from(cell.ecc) } else { 0 };
        let label = label(&cell);
        let r = run(&execs[0], if cell.ecc { &input.ecc } else { &input.start }, cell);
        r.after.assert_is(expected[key].get_or_insert_with(|| r.after.clone()), &label);
        assert_eq!(replay_counters(&r.stats), [0; 4], "{label}: bypasses the table");
        if let Some(scrub) = &r.scrub {
            assert!(key > 0 || scrub.clean(), "{label}: the scrub repaired {scrub:?}");
            assert!(same(&mut scrubs[key], scrub), "{label}: {scrub:?}");
        }
        let Ok(result) = &r.after.outcome else { continue };
        if cell.resolved() == Engine::Superblock {
            assert_eq!(r.stats.slots(), result.instructions, "{label}: modes partition the slots");
        }
        if cell.watch == Watch::Trace {
            assert!(same(&mut events[key], &r.events), "{label}: trace events");
            assert_eq!(r.events.max_end_cycle(), result.cycles, "{label}");
        }
        if cell.watch == Watch::Profile {
            assert_attribution_sums(&r.attribution, result, &label);
            assert!(same(&mut attributions[key], &r.attribution), "{label}: attribution");
        }
    }
    // The recording every other cell walked past still replays.
    sight(&execs[0], Some(Engine::Superblock), Sighting::Again);
    reference
}

/// Every cell but the plain ones (the reference and the sightings), each
/// context's reference-loop cells first so they define it. A profiled run
/// takes the reference loop whatever engine it asks for, so a context's
/// profile cells are one run: it asks for the ambient engine.
fn guarded_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for faults in [Faults::Unarmed, Faults::Zero, Faults::Seeded] {
        for ecc in [false, true] {
            for engine in [Some(Engine::Reference), Some(Engine::Superblock), None] {
                for watch in [Watch::Off, Watch::Trace, Watch::Profile] {
                    let plain = faults == Faults::Unarmed && !ecc && watch == Watch::Off;
                    if !plain && (watch != Watch::Profile || engine.is_none()) {
                        cells.push(Cell { engine, faults, ecc, watch });
                    }
                }
            }
        }
    }
    cells
}

/// The attribution of one completed run partitions its cycles and slots
/// over the blocks and the subroutine bursts.
#[track_caller]
pub fn assert_attribution_sums(attr: &CycleAttribution, result: &RunResult, cell: &str) {
    assert_eq!(attr.total_cycles(), result.cycles, "{cell}: attribution sums to the cycles");
    let block_cycles: u64 = attr.blocks().iter().map(|b| b.cycles).sum();
    let sub_cycles: u64 = attr.subroutines().map(|(_, _, s)| s.cycles).sum();
    assert_eq!(block_cycles + sub_cycles, result.cycles, "{cell}");
    let block_slots: u64 = attr.blocks().iter().map(|b| b.slots).sum();
    let sub_slots: u64 = attr.subroutines().map(|(_, _, s)| s.slots).sum();
    assert_eq!(block_slots + sub_slots, result.instructions, "{cell}");
}
