//! The serve layer: seeded traffic through every cell of [`serve`].
//!
//! An input is a traffic shape: seeded open- and closed-loop arrivals with
//! dense and sparse gaps, a scripted run of edge cases (zero-item
//! requests, a request larger than one batch, a drained last request),
//! empty traffic, and scripted bursts past the queue bound. Each is served
//! by both serving engines ([`ebnn_side`], [`yolo_side`]) over pipeline
//! {serial, double} (the GEMM engine is single-buffered, so serial only)
//! × ECC {off, on} × faults {none, the chaos campaign's `offline`
//! scenario under its retry terms}. On one burst input a fault cell also
//! takes DPU 0 offline at every attempt, its work re-dispatched; on the
//! other no launch is retried or re-dispatched, so a DPU offline at one
//! launch loses its items there and serves again at a later one, and a
//! circuit breaker over ranks of one DPU ejects, probes and readmits it.
//!
//! Every cell keeps the serve contract:
//! - **items**: every served item is its host reference's
//!   ([`EbnnModel::features`], [`gemm_row`]); an item is lost only under
//!   faults, and its request completes degraded;
//! - **books**: requests = accepted + rejected, every admitted request
//!   completes exactly once (and the traffic hears it once), the batches
//!   carry exactly the admitted items, none on a DPU the breaker ejected,
//!   and each batch's lost items are the ones its launch reported; the
//!   breaker's gauges agree with its trips and probes;
//! - **repeat**: a second run is identical in every report field and every
//!   batch's bytes and cycles;
//! - **isolated requests**: a request alone in its batch, with the service
//!   idle when it arrives and the next request arriving after it is read
//!   back, finishes exactly its deadline wait + stage + compute + readback
//!   after its arrival, from the bytes and cycles [`Books`] records.
//!
//! Across the pipeline axis (the eBNN engine's), on open-loop traffic with
//! nothing shed, no request finishes later double-buffered than serial.

use dpu_sim::FaultConfig;
use ebnn::codegen::encode_slot;
use ebnn::{EbnnModel, ModelConfig};
use pim_bench::chaos;
use pim_host::{HostError, ResilientLaunchPolicy};
use pim_serve::{
    serve, BatchEngine, BatchRun, BreakerConfig, ClosedLoop, Completion, EbnnServeEngine, Gathered,
    LinkModel, OpenLoop, Overloaded, PipelineMode, Request, Rng64, ServeConfig, ServeReport,
    Traffic, TrafficStep, YoloServeEngine,
};
use pim_trace::keys;
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use yolo_pim::gemm::{gemm_row, GemmDims};

/// Requests per generated input.
const REQUESTS: u64 = 24;
/// DPUs each engine serves on.
const DPUS: usize = 2;
/// Seed of the traffic, the items and the scenario's fault plans.
const SEED: u64 = 0x5E27E;
/// Mean gaps between requests: many per batch, or one per batch with the
/// service idle in between.
const DENSE: u64 = 20_000;
const SPARSE: u64 = 20_000_000;
/// Items per generated request.
const ITEMS: (u64, u64) = (1, 3);
/// Share of launches a flaky DPU is offline at.
const FLAKY: f64 = 0.5;
/// A scripted item count meaning one item more than a batch holds.
const OVERSIZE: usize = usize::MAX;

/// How requests arrive.
enum Shape {
    /// Seeded open-loop arrivals, `gap` cycles apart on average.
    Open { gap: u64 },
    /// Seeded closed-loop clients thinking `think` cycles between requests.
    Closed { clients: u64, think: u64 },
    /// Scripted requests: arrival and item count.
    Script(Vec<(u64, usize)>),
}

/// One traffic input.
pub struct ServeInput {
    name: &'static str,
    shape: Shape,
    queue_capacity: usize,
    /// How the fault cells' DPUs are sick, beyond the scenario.
    sick: Option<Sick>,
    /// What its cells must show between them, so no law holds vacuously.
    shows: fn(&Seen) -> bool,
}

/// How a fault cell's DPUs are sick.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sick {
    /// DPU 0 is offline at every attempt; its work is re-dispatched to a
    /// survivor.
    Redispatched,
    /// Each DPU is offline at a [`FLAKY`] share of launches, which are
    /// neither retried nor re-dispatched: its work is lost, and it heals
    /// at a later launch. A circuit breaker over ranks of one DPU ejects a
    /// rank that loses twice in four batches (shrinking packing and
    /// admission to the live one) and readmits it after a clean probe.
    Flaky,
}

impl ServeInput {
    fn new(name: &'static str, shape: Shape) -> Self {
        let shows = |s: &Seen| s.faulted > 0;
        Self { name, shape, queue_capacity: 64, sick: None, shows }
    }

    /// `rounds` rounds 10 M cycles apart of one request, cut at its
    /// deadline, and a burst of three arriving during its staging, past a
    /// queue bound of two.
    fn bursts(name: &'static str, rounds: u64, sick: Sick, shows: fn(&Seen) -> bool) -> Self {
        let burst = ServeConfig::default().max_batch_delay + 1;
        let rounds = (0..rounds).flat_map(|k| {
            let t = k * SPARSE / 2;
            [(t, 1), (t + burst, 1), (t + burst, 1), (t + burst, 1)]
        });
        let shape = Shape::Script(rounds.collect());
        Self { queue_capacity: 2, sick: Some(sick), shows, ..Self::new(name, shape) }
    }

    fn open_loop(&self) -> bool {
        !matches!(self.shape, Shape::Closed { .. })
    }
}

/// The traffic inputs.
pub fn inputs() -> Vec<ServeInput> {
    let sparse = |s: &Seen| s.isolated > 0 && s.faulted > 0;
    let edges = [(0, 0), (0, OVERSIZE), (10, 1), (10, 0), (SPARSE, 2), (2 * SPARSE, 0)];
    vec![
        ServeInput::new("open, dense", Shape::Open { gap: DENSE }),
        ServeInput {
            shows: sparse,
            ..ServeInput::new("open, sparse", Shape::Open { gap: SPARSE })
        },
        ServeInput::new("closed, dense", Shape::Closed { clients: 4, think: DENSE }),
        ServeInput {
            shows: sparse,
            ..ServeInput::new("closed, sparse", Shape::Closed { clients: 1, think: SPARSE })
        },
        ServeInput {
            shows: |s| s.splits > 0 && s.empty_requests > 0 && s.isolated > 0,
            ..ServeInput::new("edge cases", Shape::Script(edges.to_vec()))
        },
        ServeInput {
            shows: |_| true,
            ..ServeInput::new("empty traffic", Shape::Script(Vec::new()))
        },
        ServeInput::bursts("bursts, DPU 0 offline, re-dispatched", 3, Sick::Redispatched, |s| {
            s.rejected > 0 && s.redispatched > 0 && s.lost == 0
        }),
        ServeInput::bursts("bursts, flaky DPUs behind the breaker", 6, Sick::Flaky, |s| {
            s.lost > 0 && s.shrunk > 0 && s.readmits > 0 && s.healed > 0
        }),
    ]
}

/// One cell: how the engine runs the traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    pipeline: PipelineMode,
    ecc: bool,
    faults: bool,
}

impl Cell {
    fn all(pipelines: &[PipelineMode]) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &pipeline in pipelines {
            for ecc in [false, true] {
                cells.extend([false, true].map(|faults| Cell { pipeline, ecc, faults }));
            }
        }
        cells
    }

    /// The campaign's `offline` scenario under its retry terms, made sick
    /// as `input` says.
    fn policy(&self, input: &ServeInput) -> Option<ResilientLaunchPolicy> {
        let index = chaos::SCENARIOS.iter().position(|&s| s == "offline").expect("a scenario");
        let mut faults = chaos::scenario_config(index, SEED);
        if input.sick == Some(Sick::Redispatched) {
            faults.forced_offline = vec![0];
        }
        let policy = match input.sick {
            Some(Sick::Flaky) => {
                let faults = FaultConfig { dpu_offline_prob: FLAKY, ..faults };
                ResilientLaunchPolicy { max_retries: 0, redispatch: false, ..chaos::policy(faults) }
            }
            _ => chaos::policy(faults),
        };
        self.faults.then_some(policy)
    }

    fn config(&self, input: &ServeInput) -> ServeConfig {
        let breaker = BreakerConfig {
            rank_dpus: 1,
            window: 4,
            cooldown_batches: 2,
            ..BreakerConfig::default()
        };
        ServeConfig {
            queue_capacity: input.queue_capacity,
            pipeline: self.pipeline,
            record_outputs: true,
            breaker: (input.sick == Some(Sick::Flaky)).then_some(breaker),
            ..ServeConfig::default()
        }
    }
}

/// A serving engine and the items its requests draw from, each with its
/// host reference.
pub struct Side<E: BatchEngine> {
    name: &'static str,
    /// The pipeline modes the engine runs differently.
    pipelines: &'static [PipelineMode],
    engine: Box<dyn Fn(PipelineMode, bool, Option<ResilientLaunchPolicy>) -> E>,
    pool: Vec<(E::Item, E::Output)>,
}

/// The eBNN engine (a one-filter model, capacity 32) over eight digits.
pub fn ebnn_side() -> Side<EbnnServeEngine> {
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let pool = (0..8)
        .map(|i| {
            let digit = ebnn::mnist::synth_digit(i % 10, SEED ^ i as u64);
            (encode_slot(&model, &digit), model.features(&model.binarize(&digit.pixels)))
        })
        .collect();
    let engine = Box::new(move |pipeline, ecc, policy| {
        let mut engine = EbnnServeEngine::new(&model, DPUS, pipeline, policy).expect("engine");
        engine.enable_ecc(ecc);
        engine
    });
    let pipelines = &[PipelineMode::Serial, PipelineMode::Double];
    Side { name: "eBNN", pipelines, engine, pool }
}

/// The GEMM row engine (8 × 8 rows, capacity 2) over eight `A` rows. It
/// is single-buffered, so `serve` runs it serially in either mode.
pub fn yolo_side() -> Side<YoloServeEngine> {
    let dims = GemmDims { m: 1, n: 8, k: 8 };
    let b: Vec<i16> = (0..dims.k * dims.n).map(|i| ((i * 5 % 11) as i16) - 5).collect();
    let pool = (0..8)
        .map(|r| {
            let a: Vec<i16> = (0..dims.k).map(|i| (((r * 8 + i) * 7 % 13) as i16) - 6).collect();
            let mut c = vec![0; dims.n];
            gemm_row(dims, 1, &a, &b, &mut c);
            (a, c)
        })
        .collect();
    let engine = Box::new(move |_, ecc, policy| {
        let mut engine = YoloServeEngine::new(dims, 1, &b, DPUS, 4, policy).expect("engine");
        engine.enable_ecc(ecc);
        engine
    });
    Side { name: "GEMM", pipelines: &[PipelineMode::Serial], engine, pool }
}

/// What one batch staged, computed and read back.
#[derive(Debug, Clone, Default, PartialEq)]
struct Batch {
    items: usize,
    /// The live mask it was staged under, if the breaker set one.
    live: Option<Vec<bool>>,
    stage_bytes: u64,
    compute_cycles: u64,
    read_bytes: u64,
    /// DPUs its launch reported holding items.
    active: Vec<u32>,
    /// Items its launch reported lost, and items read back lost.
    lost: usize,
    unread: usize,
}

/// A [`BatchEngine`] that forwards to `inner` and records every batch, as
/// the benchmark's decorators do.
struct Books<E> {
    inner: E,
    batches: Vec<Batch>,
    live: Option<Vec<bool>>,
    /// Batches read back so far (they are read back in launch order).
    read: usize,
}

impl<E: BatchEngine> BatchEngine for Books<E> {
    type Item = E::Item;
    type Output = E::Output;

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn dpus(&self) -> usize {
        self.inner.dpus()
    }

    fn buffers(&self) -> usize {
        self.inner.buffers()
    }

    fn stage(&mut self, items: &[E::Item], buf: usize) -> Result<u64, HostError> {
        let stage_bytes = self.inner.stage(items, buf)?;
        self.batches.push(Batch {
            items: items.len(),
            live: self.live.clone(),
            stage_bytes,
            ..Batch::default()
        });
        Ok(stage_bytes)
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        self.live = Some(live.to_vec());
        self.inner.set_live_mask(live);
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let run = self.inner.launch(seq)?;
        let batch = self.batches.last_mut().expect("a staged batch");
        batch.compute_cycles = run.compute_cycles;
        batch.active.clone_from(&run.active_dpus);
        batch.lost = run.lost_items;
        Ok(run)
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<E::Output>, HostError> {
        let gathered = self.inner.gather(buf)?;
        let batch = &mut self.batches[self.read];
        batch.read_bytes = gathered.1;
        batch.unread = gathered.0.iter().filter(|o| o.is_none()).count();
        self.read += 1;
        Ok(gathered)
    }

    fn dirty(&self) -> bool {
        self.inner.dirty()
    }

    fn restore(&mut self) -> Result<(), HostError> {
        self.inner.restore()
    }
}

/// `n` items drawn from `pool`.
fn draw<I: Clone>(pool: &[I], rng: &mut Rng64, n: u64) -> Vec<I> {
    (0..n).map(|_| pool[rng.range(0, pool.len() as u64 - 1) as usize].clone()).collect()
}

/// Scripted requests, in order.
struct Script<I>(VecDeque<Request<I>>);

impl<I> Traffic for Script<I> {
    type Item = I;

    fn next(&mut self) -> TrafficStep<I> {
        self.0.pop_front().map_or(TrafficStep::Done, TrafficStep::Arrival)
    }

    fn on_complete(&mut self, _: &Completion) {}

    fn on_reject(&mut self, _: &Overloaded) {}
}

/// A traffic source that records what it sends and what it hears back.
struct Recorded<'a, I> {
    inner: Box<dyn Traffic<Item = I> + 'a>,
    sent: Vec<Request<I>>,
    heard: Vec<u64>,
}

impl<I: Clone> Traffic for Recorded<'_, I> {
    type Item = I;

    fn next(&mut self) -> TrafficStep<I> {
        let step = self.inner.next();
        if let TrafficStep::Arrival(r) = &step {
            self.sent.push(r.clone());
        }
        step
    }

    fn on_complete(&mut self, c: &Completion) {
        self.heard.push(c.id);
        self.inner.on_complete(c);
    }

    fn on_reject(&mut self, r: &Overloaded) {
        self.inner.on_reject(r);
    }
}

/// One serving run of a cell.
struct Run<I, O> {
    report: ServeReport<O>,
    sent: Vec<Request<I>>,
    heard: Vec<u64>,
    batches: Vec<Batch>,
    /// Batches read back.
    read: usize,
    capacity: usize,
}

fn run<E>(side: &Side<E>, input: &ServeInput, cell: Cell) -> Run<E::Item, E::Output>
where
    E: BatchEngine,
    E::Item: Clone + 'static,
    E::Output: Clone,
{
    let inner = (side.engine)(cell.pipeline, cell.ecc, cell.policy(input));
    let capacity = inner.capacity();
    let mut engine = Books { inner, batches: Vec::new(), live: None, read: 0 };
    let pool: Vec<E::Item> = side.pool.iter().map(|(item, _)| item.clone()).collect();
    let gen = |pool: Vec<E::Item>| {
        move |rng: &mut Rng64, _| {
            let n = rng.range(ITEMS.0, ITEMS.1);
            draw(&pool, rng, n)
        }
    };
    let inner: Box<dyn Traffic<Item = E::Item>> = match &input.shape {
        &Shape::Open { gap } => Box::new(OpenLoop::new(SEED, REQUESTS, gap, gen(pool))),
        &Shape::Closed { clients, think } => {
            Box::new(ClosedLoop::new(SEED, clients, REQUESTS, think, gen(pool)))
        }
        Shape::Script(script) => {
            let mut rng = Rng64::new(SEED);
            let requests = script.iter().enumerate().map(|(id, &(arrival, n))| {
                let n = if n == OVERSIZE { capacity + 1 } else { n };
                Request { id: id as u64, arrival, items: draw(&pool, &mut rng, n as u64) }
            });
            Box::new(Script(requests.collect()))
        }
    };
    let mut traffic = Recorded { inner, sent: Vec::new(), heard: Vec::new() };
    let report = serve(&mut engine, &mut traffic, &cell.config(input)).expect("serve");
    let (sent, heard, batches, read) = (traffic.sent, traffic.heard, engine.batches, engine.read);
    Run { report, sent, heard, batches, read, capacity }
}

/// What a checked input showed across its cells, for the vacuity checks.
#[derive(Debug, Default)]
struct Seen {
    isolated: usize,
    faulted: u64,
    lost: usize,
    splits: u64,
    rejected: usize,
    /// Rejections below the configured bound: the breaker shrank it.
    shrunk: usize,
    redispatched: u64,
    empty_requests: usize,
    readmits: u64,
    /// Cells whose breaker tripped and ended with every rank readmitted.
    healed: usize,
}

/// Every cell of `input` on `side`.
pub fn check<E>(side: &Side<E>, input: &ServeInput)
where
    E: BatchEngine,
    E::Item: Clone + Eq + Hash + Debug + 'static,
    E::Output: Clone + PartialEq + Debug,
{
    let reference: HashMap<&E::Item, &E::Output> = side.pool.iter().map(|(i, o)| (i, o)).collect();
    let mut seen = Seen::default();
    // Each serial cell's finish per request, unless it shed one.
    let mut serial_finish = HashMap::new();
    for cell in Cell::all(side.pipelines) {
        let label = format!("{} on {}, {cell:?}", input.name, side.name);
        let a = run(side, input, cell);
        repeats(&a, &run(side, input, cell), &label);
        items(&a, &reference, cell, &label);
        books(&a, input, &label);
        seen.isolated += isolated(&a, input, &label);
        let m = &a.report.metrics;
        seen.faulted +=
            m.counter(keys::SERVE_REPAIRED_DPUS) + m.counter(keys::SERVE_QUARANTINED_DPUS);
        seen.readmits += m.counter(keys::SERVE_BREAKER_READMITS);
        let open = m.gauge(keys::SERVE_BREAKER_OPEN_RANKS);
        seen.healed +=
            usize::from(m.counter(keys::SERVE_BREAKER_READMITS) > 0 && open == Some(0.0));
        seen.splits += m.counter(keys::SERVE_SPLITS);
        seen.rejected += a.report.rejections.len();
        let bound = input.queue_capacity;
        seen.shrunk += a.report.rejections.iter().filter(|r| r.queue_depth < bound).count();
        seen.redispatched += m.counter(keys::SERVE_REDISPATCHED_ITEMS);
        seen.lost += a.report.outputs.iter().flat_map(|(_, o)| o).filter(|o| o.is_none()).count();
        seen.empty_requests += a.sent.iter().filter(|r| r.items.is_empty()).count();
        if !cell.faults {
            assert_eq!(m.counter(keys::SERVE_FAILED), 0, "{label}: a failure with no fault");
        }
        // Double buffering never delays a request of open-loop traffic
        // that nothing was shed from.
        let shed = !a.report.rejections.is_empty();
        let finish = (!shed).then(|| a.report.completions.iter().map(|c| (c.id, c.finish)));
        let finish: Option<HashMap<u64, u64>> = finish.map(Iterator::collect);
        let key = (cell.ecc, cell.faults);
        if cell.pipeline == PipelineMode::Serial {
            serial_finish.insert(key, finish);
        } else if let (Some(serial), Some(double)) = (&serial_finish[&key], &finish) {
            for (id, &f) in double.iter().filter(|_| input.open_loop()) {
                let s = serial[id];
                assert!(f <= s, "{label}: request {id} finished at {f}, serial at {s}");
            }
        }
    }
    assert!((input.shows)(&seen), "{} on {}: {seen:?}", input.name, side.name);
}

/// A second run repeats the first in every report field and batch.
fn repeats<I: PartialEq + Debug, O: PartialEq + Debug>(a: &Run<I, O>, b: &Run<I, O>, label: &str) {
    let (x, y) = (&a.report, &b.report);
    assert_eq!(x.completions, y.completions, "{label}: completions repeat");
    assert_eq!(x.rejections, y.rejections, "{label}: rejections repeat");
    assert_eq!(x.outputs, y.outputs, "{label}: outputs repeat");
    assert_eq!(x.metrics, y.metrics, "{label}: metrics repeat");
    let ends = |r: &ServeReport<O>| (r.vtime_cycles, r.goodput_ips.to_bits());
    assert_eq!(ends(x), ends(y), "{label}: end time and goodput repeat");
    assert_eq!((&a.sent, &a.heard, &a.batches), (&b.sent, &b.heard, &b.batches), "{label}");
}

/// Every served item is its reference's; a lost one only under faults,
/// and its request completes degraded.
fn items<I, O>(a: &Run<I, O>, reference: &HashMap<&I, &O>, cell: Cell, label: &str)
where
    I: Eq + Hash + Debug,
    O: PartialEq + Debug,
{
    let sent: HashMap<u64, &Request<I>> = a.sent.iter().map(|r| (r.id, r)).collect();
    let served: HashMap<u64, bool> =
        a.report.completions.iter().map(|c| (c.id, c.served)).collect();
    for (id, outs) in &a.report.outputs {
        let items = &sent[id].items;
        assert_eq!(outs.len(), items.len(), "{label}: request {id}'s outputs");
        for (j, (item, out)) in items.iter().zip(outs).enumerate() {
            match out {
                Some(out) => assert_eq!(out, reference[item], "{label}: request {id} item {j}"),
                None => assert!(cell.faults, "{label}: request {id} item {j} lost with no fault"),
            }
        }
        assert_eq!(served[id], outs.iter().all(Option::is_some), "{label}: request {id}");
    }
    let any_served = a.report.outputs.iter().flat_map(|(_, o)| o).any(Option::is_some);
    assert_eq!(a.report.goodput_ips > 0.0, any_served, "{label}: goodput");
}

/// Requests = accepted + rejected, each rejection at the queue bound (or
/// below it, with ranks ejected); every admitted request completes
/// exactly once, and the traffic hears it once; the batches carry exactly
/// the admitted items, within the live capacity and on live DPUs only,
/// each losing the items its launch reported; the run ends at the last
/// readback; the breaker's gauges agree with its counters.
fn books<I, O>(a: &Run<I, O>, input: &ServeInput, label: &str) {
    let (report, m) = (&a.report, &a.report.metrics);
    let requests = a.sent.len() as u64;
    assert_eq!(m.counter(keys::SERVE_REQUESTS), requests, "{label}: requests");
    assert_eq!(
        m.counter(keys::SERVE_ACCEPTED) + m.counter(keys::SERVE_REJECTED),
        requests,
        "{label}"
    );
    assert_eq!(m.counter(keys::SERVE_REJECTED), report.rejections.len() as u64, "{label}");
    let rejected: Vec<u64> = report.rejections.iter().map(|r| r.id).collect();
    let breaker = input.sick == Some(Sick::Flaky);
    for r in &report.rejections {
        let sent = a.sent.iter().find(|s| s.id == r.id).expect("a sent request");
        let depth = r.queue_depth;
        let bound = input.queue_capacity;
        assert_eq!(r.at, sent.arrival, "{label}: {r:?}");
        assert!(depth == bound || breaker && depth < bound, "{label}: {r:?}");
    }
    let mut admitted: Vec<u64> =
        a.sent.iter().map(|r| r.id).filter(|id| !rejected.contains(id)).collect();
    let mut completed: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
    assert_eq!(a.heard, completed, "{label}: the traffic hears each completion");
    completed.sort_unstable();
    admitted.sort_unstable();
    assert_eq!(completed, admitted, "{label}: each admitted request completes once");
    let failed = report.completions.iter().filter(|c| !c.served).count() as u64;
    assert_eq!(m.counter(keys::SERVE_FAILED), failed, "{label}: failed");
    assert_eq!(m.counter(keys::SERVE_COMPLETED) + failed, admitted.len() as u64, "{label}");
    for c in &report.completions {
        let r = a.sent.iter().find(|r| r.id == c.id).expect("a sent request");
        assert_eq!((c.arrival, c.items), (r.arrival, r.items.len()), "{label}: request {}", c.id);
        assert!(c.finish >= c.arrival, "{label}: {c:?}");
    }
    let staged: usize = a.batches.iter().map(|b| b.items).sum();
    let admitted_items: usize = report.outputs.iter().map(|(_, o)| o.len()).sum();
    assert_eq!(staged, admitted_items, "{label}: the batches carry the admitted items");
    assert_eq!(a.read, a.batches.len(), "{label}: every batch is read back");
    for (k, b) in a.batches.iter().enumerate() {
        assert!((1..=a.cap(b)).contains(&b.items), "{label}: batch {k}: {b:?}");
        let live = |&d: &u32| b.live.as_ref().is_none_or(|live| live[d as usize]);
        assert!(b.active.iter().all(live), "{label}: batch {k} staged on an ejected DPU: {b:?}");
        assert_eq!(b.unread, b.lost, "{label}: batch {k} reads back what its launch lost");
    }
    if breaker {
        // Every trip opens a rank and every probe closes one's cooldown.
        let trips = m.counter(keys::SERVE_BREAKER_TRIPS);
        let probes = m.counter(keys::SERVE_BREAKER_PROBES);
        let readmits = m.counter(keys::SERVE_BREAKER_READMITS);
        assert!(readmits <= probes && probes <= trips, "{label}: {trips} {probes} {readmits}");
        assert_eq!(m.gauge(keys::SERVE_BREAKER_RANKS), Some(DPUS as f64), "{label}");
        let open = (trips - probes) as f64;
        assert_eq!(m.gauge(keys::SERVE_BREAKER_OPEN_RANKS), Some(open), "{label}: open ranks");
    }
    let last_read = report.completions.iter().filter(|c| c.items > 0).map(|c| c.finish).max();
    assert_eq!(report.vtime_cycles, last_read.unwrap_or(0), "{label}: the run's end");
}

impl<I, O> Run<I, O> {
    /// Items `batch` could hold: the live ranks' share of the capacity.
    fn cap(&self, batch: &Batch) -> usize {
        let live = |live: &Vec<bool>| live.iter().filter(|&&l| l).count();
        batch.live.as_ref().map_or(self.capacity, |l| (self.capacity * live(l) / DPUS).max(1))
    }
}

/// Every isolated request finishes exactly its deadline wait + stage +
/// compute + readback after its arrival; returns how many there were.
fn isolated<I, O>(a: &Run<I, O>, input: &ServeInput, label: &str) -> usize {
    let link = LinkModel::default();
    let delay = ServeConfig::default().max_batch_delay;
    let finish: HashMap<u64, u64> = a.report.completions.iter().map(|c| (c.id, c.finish)).collect();
    // Admitted requests with items, in admission order, and where their
    // items start in the stream the batches pack.
    let order: Vec<&Request<I>> = a
        .report
        .outputs
        .iter()
        .map(|(id, _)| a.sent.iter().find(|r| r.id == *id).expect("a sent request"))
        .collect();
    let mut batch_start = HashMap::new();
    let mut at = 0;
    for (b, batch) in a.batches.iter().enumerate() {
        batch_start.insert(at, b);
        at += batch.items;
    }
    let mut count = 0;
    let mut start = 0;
    for (j, r) in order.iter().enumerate() {
        let n = r.items.len();
        let alone = batch_start.get(&start).filter(|&&b| a.batches[b].items == n);
        start += n;
        let Some(&b) = alone else { continue };
        let batch = &a.batches[b];
        let sent = a.sent.iter().position(|s| s.id == r.id).expect("a sent request");
        // Open-loop traffic that ends before the deadline drains the batch
        // at once; any later arrival past it cuts the batch there.
        let later = &a.sent[sent + 1..];
        let drained = later.iter().all(|s| s.items.is_empty() && s.arrival <= r.arrival + delay);
        let wait = if n == a.cap(batch) || drained && input.open_loop() { 0 } else { delay };
        let expected = r.arrival
            + wait
            + link.cycles(batch.stage_bytes)
            + batch.compute_cycles
            + link.cycles(batch.read_bytes);
        let idle = order[..j].iter().all(|p| finish[&p.id] <= r.arrival);
        let alone_until_read = order[j + 1..].iter().all(|p| p.arrival >= expected);
        if idle && alone_until_read {
            count += 1;
            assert_eq!(finish[&r.id], expected, "{label}: isolated request {}", r.id);
        }
    }
    count
}
