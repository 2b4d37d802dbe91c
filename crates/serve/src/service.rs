//! The serving loop: admission → dynamic batching → pipelined execution.
//!
//! [`serve`] drives a [`BatchEngine`] from a [`Traffic`] source until the
//! source is exhausted, accounting all time in simulated cycles (see
//! [`crate::pipeline`] for the schedule). Every decision is a pure
//! function of the traffic seed, the engine's deterministic cycle counts,
//! and the config — a fixed seed reproduces the run bit-for-bit.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::engine::{BatchEngine, Gathered};
use crate::pipeline::{LinkModel, PipelineMode};
use crate::queue::AdmissionQueue;
use crate::request::{Completion, CutKind, Overloaded, Request};
use crate::traffic::{Traffic, TrafficStep};
use pim_trace::{keys, MetricsRegistry};

/// Serving-loop knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue bound: requests waiting beyond this are shed with
    /// a typed [`Overloaded`] (counted in `serve.rejected`).
    pub queue_capacity: usize,
    /// Cycles the head-of-line request may wait before a partial batch is
    /// cut (the latency/throughput dial).
    pub max_batch_delay: u64,
    /// Execution-loop shape; engines with one buffer force serial.
    pub pipeline: PipelineMode,
    /// Host-link cost model for staging/readback accounting.
    pub link: LinkModel,
    /// Keep per-request outputs in the report (identity tests; costs
    /// memory on big runs).
    pub record_outputs: bool,
    /// `Some`: arm the per-rank circuit breaker — sick ranks are ejected
    /// from packing and admission capacity shrinks to the live ranks
    /// (see [`crate::breaker`]).
    pub breaker: Option<BreakerConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch_delay: 500_000,
            pipeline: PipelineMode::Double,
            link: LinkModel::default(),
            record_outputs: false,
            breaker: None,
        }
    }
}

/// Everything a serving run produced.
#[derive(Debug)]
pub struct ServeReport<O> {
    /// `serve.*` counters/histograms/gauges (see [`pim_trace::keys`]).
    pub metrics: MetricsRegistry,
    /// Per-request completions in finish order.
    pub completions: Vec<Completion>,
    /// Typed admission rejections in arrival order.
    pub rejections: Vec<Overloaded>,
    /// Per-request outputs (request id, per-item results) when
    /// [`ServeConfig::record_outputs`] was set, in admission order.
    pub outputs: Vec<(u64, Vec<Option<O>>)>,
    /// Simulated cycle of the last readback.
    pub vtime_cycles: u64,
    /// Served items per second of simulated time.
    pub goodput_ips: f64,
}

impl<O> ServeReport<O> {
    /// Latency quantile (in cycles) from the `serve.latency_cycles`
    /// histogram.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.metrics.histogram(keys::SERVE_LATENCY_CYCLES).and_then(|h| h.quantile(q))
    }
}

/// One batch slice of a request: `count` items starting at `req_off`.
#[derive(Debug)]
struct Slice {
    req: usize,
    req_off: usize,
    count: usize,
}

/// A launched batch whose results have not been read back yet.
#[derive(Debug)]
struct Pending {
    buf: usize,
    compute_end: u64,
    slices: Vec<Slice>,
}

struct RunState<I, O> {
    queue: AdmissionQueue<I>,
    outputs: Vec<Vec<Option<O>>>,
    record: bool,
    completions: Vec<Completion>,
    rejections: Vec<Overloaded>,
    metrics: MetricsRegistry,
    link: LinkModel,
    link_cursor: u64,
    buf_free: [u64; 2],
    compute_end_last: u64,
    pending: Option<Pending>,
    peeked: Option<Request<I>>,
    traffic_done: bool,
    seq: u64,
    first_arrival: Option<u64>,
    last_finish: u64,
    served_items: u64,
}

impl<I, O> RunState<I, O> {
    fn new(cfg: &ServeConfig) -> Self {
        Self {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            outputs: Vec::new(),
            record: cfg.record_outputs,
            completions: Vec::new(),
            rejections: Vec::new(),
            metrics: MetricsRegistry::new(),
            link: cfg.link,
            link_cursor: 0,
            buf_free: [0; 2],
            compute_end_last: 0,
            pending: None,
            peeked: None,
            traffic_done: false,
            seq: 0,
            first_arrival: None,
            last_finish: 0,
            served_items: 0,
        }
    }

    /// Admit (or shed) one arrival, delivering feedback to `traffic`.
    fn admit<T: Traffic<Item = I>>(&mut self, req: Request<I>, traffic: &mut T) {
        self.first_arrival.get_or_insert(req.arrival);
        self.metrics.counter_add(keys::SERVE_REQUESTS, 1);
        self.metrics.counter_add(keys::SERVE_ITEMS, req.items.len() as u64);
        if req.items.is_empty() {
            // Degenerate zero-item request: nothing to launch, complete
            // on the spot.
            let c = Completion {
                id: req.id,
                arrival: req.arrival,
                finish: req.arrival,
                items: 0,
                served: true,
            };
            self.metrics.counter_add(keys::SERVE_ACCEPTED, 1);
            self.metrics.counter_add(keys::SERVE_COMPLETED, 1);
            self.metrics.observe(keys::SERVE_LATENCY_CYCLES, 0.0);
            traffic.on_complete(&c);
            self.completions.push(c);
            return;
        }
        let n_items = req.items.len();
        match self.queue.admit(req) {
            Ok(idx) => {
                self.metrics.counter_add(keys::SERVE_ACCEPTED, 1);
                self.metrics.observe(keys::SERVE_QUEUE_DEPTH, self.queue.depth() as f64);
                debug_assert_eq!(idx, self.outputs.len());
                self.outputs.push(if self.record {
                    std::iter::repeat_with(|| None).take(n_items).collect()
                } else {
                    Vec::new()
                });
            }
            Err(over) => {
                self.metrics.counter_add(keys::SERVE_REJECTED, 1);
                traffic.on_reject(&over);
                self.rejections.push(over);
            }
        }
    }

    /// Admit every arrival up to `horizon` — the requests that queued up
    /// while the previous batch occupied the link.
    fn admit_up_to<T: Traffic<Item = I>>(&mut self, horizon: u64, traffic: &mut T) {
        loop {
            let req = if let Some(r) = self.peeked.take() {
                r
            } else if self.traffic_done {
                return;
            } else {
                match traffic.next() {
                    TrafficStep::Arrival(r) => r,
                    TrafficStep::Waiting => return,
                    TrafficStep::Done => {
                        self.traffic_done = true;
                        return;
                    }
                }
            };
            if req.arrival > horizon {
                self.peeked = Some(req);
                return;
            }
            self.admit(req, traffic);
        }
    }

    /// Read back the pending batch (if any): see [`RunState::book`].
    fn flush<E, T>(&mut self, engine: &mut E, traffic: &mut T) -> Result<(), pim_host::HostError>
    where
        E: BatchEngine<Item = I, Output = O>,
        T: Traffic<Item = I>,
        O: Clone,
    {
        let Some(p) = self.pending.take() else { return Ok(()) };
        let gathered = engine.gather(p.buf)?;
        self.book(p, gathered, traffic);
        Ok(())
    }

    /// When the link would finish reading back `p`'s `bytes`, starting
    /// now.
    fn read_end(&self, p: &Pending, bytes: u64) -> u64 {
        p.compute_end.max(self.link_cursor) + self.link.cycles(bytes)
    }

    /// Schedule `p`'s readback on the link, deliver per-request results,
    /// and complete finished requests.
    fn book<T>(&mut self, p: Pending, (outs, bytes): Gathered<O>, traffic: &mut T)
    where
        T: Traffic<Item = I>,
        O: Clone,
    {
        let read_cycles = self.link.cycles(bytes);
        let read_end = self.read_end(&p, bytes);
        self.link_cursor = read_end;
        self.buf_free[p.buf] = read_end;
        self.last_finish = self.last_finish.max(read_end);
        self.metrics.observe(keys::SERVE_READBACK_CYCLES, read_cycles as f64);

        let mut done = Vec::new();
        let mut pos = 0usize;
        for s in &p.slices {
            let slice_out = &outs[pos..pos + s.count];
            pos += s.count;
            self.served_items += slice_out.iter().filter(|o| o.is_some()).count() as u64;
            if self.record {
                for (j, o) in slice_out.iter().enumerate() {
                    self.outputs[s.req][s.req_off + j].clone_from(o);
                }
            }
            let r = self.queue.req_mut(s.req);
            if slice_out.iter().any(Option::is_none) {
                r.lost = true;
            }
            r.open_slices -= 1;
            r.finish = r.finish.max(read_end);
            if r.open_slices == 0 && r.taken == r.items.len() {
                done.push(Completion {
                    id: r.id,
                    arrival: r.arrival,
                    finish: r.finish,
                    items: r.items.len(),
                    served: !r.lost,
                });
            }
        }
        for c in done {
            let key = if c.served { keys::SERVE_COMPLETED } else { keys::SERVE_FAILED };
            self.metrics.counter_add(key, 1);
            self.metrics.observe(keys::SERVE_LATENCY_CYCLES, c.latency() as f64);
            traffic.on_complete(&c);
            self.completions.push(c);
        }
    }
}

/// Drive `engine` from `traffic` until the source is exhausted and every
/// admitted request has completed; returns the full run record.
///
/// # Errors
/// Host-runtime failures from the engine (injected faults degrade
/// goodput, they do not error).
///
/// # Panics
/// Internal bookkeeping invariants (slice accounting) only.
#[allow(clippy::too_many_lines)]
pub fn serve<E, T>(
    engine: &mut E,
    traffic: &mut T,
    cfg: &ServeConfig,
) -> Result<ServeReport<E::Output>, pim_host::HostError>
where
    E: BatchEngine,
    E::Item: Clone,
    E::Output: Clone,
    T: Traffic<Item = E::Item>,
{
    let capacity = engine.capacity();
    assert!(capacity > 0, "engine capacity must be positive");
    let double = matches!(cfg.pipeline, PipelineMode::Double) && engine.buffers() >= 2;
    let mut st: RunState<E::Item, E::Output> = RunState::new(cfg);
    st.metrics.gauge_set(keys::SERVE_DPUS, engine.dpus() as f64);
    st.metrics.gauge_set(keys::SERVE_CAPACITY_ITEMS, capacity as f64);
    let mut breaker = cfg.breaker.map(|b| CircuitBreaker::new(b, engine.dpus()));

    'rounds: loop {
        // A fault-armed launch that quarantined DPUs leaves their MRAM
        // dirty: read back what is in flight, then restore the golden
        // weights-loaded snapshot before staging anything new.
        if engine.dirty() {
            st.flush(engine, traffic)?;
            engine.restore()?;
        }

        // Circuit breaker: refresh the engine's live mask before staging
        // and shrink packing + admission capacity to the live ranks, so
        // overload sheds as a typed `Overloaded` instead of queueing
        // against hardware that cannot serve.
        let cap = match &breaker {
            Some(b) => {
                engine.set_live_mask(&b.live_mask());
                let bound = (cfg.queue_capacity * b.live_ranks()).div_ceil(b.ranks());
                st.queue.set_bound(bound.max(1));
                (capacity * b.live_dpus() / engine.dpus()).max(1)
            }
            None => capacity,
        };

        // ---- assemble the next batch ------------------------------------
        let mut items: Vec<E::Item> = Vec::new();
        let mut slices: Vec<Slice> = Vec::new();
        let mut fill_time = 0u64;
        let mut head_arrival: Option<u64> = None;
        let cut: (u64, CutKind);
        loop {
            // Pack what is already queued.
            while items.len() < cap {
                let Some(ri) = st.queue.front() else { break };
                let (r_arrival, r_total, r_taken) = {
                    let r = st.queue.req(ri);
                    (r.arrival, r.items.len(), r.taken)
                };
                let take = (cap - items.len()).min(r_total - r_taken);
                items.extend(st.queue.req(ri).items[r_taken..r_taken + take].iter().cloned());
                slices.push(Slice { req: ri, req_off: r_taken, count: take });
                {
                    let r = st.queue.req_mut(ri);
                    if r.taken > 0 && !r.split_counted {
                        // Second slice: the request spans multiple
                        // launches — count it once.
                        r.split_counted = true;
                        st.metrics.counter_add(keys::SERVE_SPLITS, 1);
                    }
                    r.taken += take;
                    r.open_slices += 1;
                }
                fill_time = fill_time.max(r_arrival);
                head_arrival.get_or_insert(r_arrival);
                if st.queue.req(ri).taken == r_total {
                    st.queue.pop_front();
                } else {
                    break; // batch is full, request continues next batch
                }
            }
            if items.len() == cap {
                cut = (fill_time, CutKind::Full);
                break;
            }
            // Not full: wait for arrivals or the head-of-line deadline.
            let deadline = head_arrival.map(|h| h + cfg.max_batch_delay);
            let step = if let Some(r) = st.peeked.take() {
                TrafficStep::Arrival(r)
            } else if st.traffic_done {
                TrafficStep::Done
            } else {
                traffic.next()
            };
            match step {
                TrafficStep::Arrival(req) => {
                    if let Some(dl) = deadline {
                        if req.arrival > dl {
                            st.peeked = Some(req);
                            cut = (dl, CutKind::Deadline);
                            break;
                        }
                    }
                    st.admit(req, traffic);
                }
                TrafficStep::Waiting => {
                    if st.pending.is_some() {
                        // Closed-loop clients are blocked on the pending
                        // readback: flush it early to release them.
                        st.flush(engine, traffic)?;
                    } else if let Some(dl) = deadline {
                        cut = (dl, CutKind::Deadline);
                        break;
                    } else {
                        debug_assert!(false, "traffic waiting with nothing in flight");
                        st.traffic_done = true;
                    }
                }
                TrafficStep::Done => {
                    st.traffic_done = true;
                    if items.is_empty() {
                        if st.queue.is_empty() {
                            break 'rounds;
                        }
                        continue;
                    }
                    cut = (fill_time, CutKind::Drain);
                    break;
                }
            }
        }

        // ---- stage / read(k-1) / launch ---------------------------------
        let buf = if double { (st.seq % 2) as usize } else { 0 };
        let stage_start = cut.0.max(st.link_cursor).max(st.buf_free[buf]);
        // Batch k-1's readback goes on the link first exactly when it
        // finishes by the time this staging would start (so the staging
        // does not move); otherwise it follows the staging while batch k
        // computes.
        let mut read_late = None;
        if double && st.pending.as_ref().is_some_and(|p| p.compute_end <= stage_start) {
            let p = st.pending.take().expect("pending batch");
            let gathered = engine.gather(p.buf)?;
            if st.read_end(&p, gathered.1) <= stage_start {
                st.book(p, gathered, traffic);
            } else {
                read_late = Some((p, gathered));
            }
        }
        let stage_bytes = engine.stage(&items, buf)?;
        let stage_cycles = st.link.cycles(stage_bytes);
        let stage_end = stage_start + stage_cycles;
        st.link_cursor = stage_end;

        st.metrics.counter_add(keys::SERVE_BATCHES, 1);
        st.metrics.counter_add(
            match cut.1 {
                CutKind::Full => keys::SERVE_CUTS_FULL,
                CutKind::Deadline => keys::SERVE_CUTS_DEADLINE,
                CutKind::Drain => keys::SERVE_CUTS_DRAIN,
            },
            1,
        );
        st.metrics.observe(keys::SERVE_BATCH_FILL, items.len() as f64);
        st.metrics.observe(keys::SERVE_STAGE_CYCLES, stage_cycles as f64);

        if double {
            // Read back batch k-1 while batch k computes.
            match read_late {
                Some((p, gathered)) => st.book(p, gathered, traffic),
                None => st.flush(engine, traffic)?,
            }
        }
        let run = engine.launch(st.seq)?;
        // Serial mode read batch k-1 back before staging this one, so there
        // `compute_end_last <= stage_end` and the batch computes from
        // `stage_end`.
        let compute_end = stage_end.max(st.compute_end_last) + run.compute_cycles;
        st.compute_end_last = compute_end;
        st.metrics.observe(keys::SERVE_COMPUTE_CYCLES, run.compute_cycles as f64);
        st.metrics.counter_add(keys::SERVE_REDISPATCHED_ITEMS, run.redispatched_items as u64);
        st.metrics.counter_add(keys::SERVE_QUARANTINED_DPUS, run.quarantined_dpus.len() as u64);
        st.metrics.counter_add(keys::SERVE_REPAIRED_DPUS, run.repaired_dpus.len() as u64);
        if let Some(b) = &mut breaker {
            b.observe(&run);
        }
        st.pending = Some(Pending { buf, compute_end, slices });
        if !double {
            st.flush(engine, traffic)?;
        }
        st.seq += 1;
        st.admit_up_to(stage_end, traffic);
    }

    // Drain the last in-flight batch.
    st.flush(engine, traffic)?;

    let window = st.last_finish.saturating_sub(st.first_arrival.unwrap_or(0));
    let goodput = if window == 0 {
        0.0
    } else {
        st.served_items as f64 * st.link.freq_hz as f64 / window as f64
    };
    st.metrics.gauge_set(keys::SERVE_GOODPUT_IPS, goodput);
    st.metrics.gauge_set(keys::SERVE_VTIME_CYCLES, st.last_finish as f64);
    if let Some(b) = &breaker {
        st.metrics.counter_add(keys::SERVE_BREAKER_TRIPS, b.trips());
        st.metrics.counter_add(keys::SERVE_BREAKER_PROBES, b.probes());
        st.metrics.counter_add(keys::SERVE_BREAKER_READMITS, b.readmits());
        st.metrics.gauge_set(keys::SERVE_BREAKER_RANKS, b.ranks() as f64);
        st.metrics.gauge_set(keys::SERVE_BREAKER_OPEN_RANKS, b.open_ranks() as f64);
    }

    Ok(ServeReport {
        metrics: st.metrics,
        completions: st.completions,
        rejections: st.rejections,
        outputs: if cfg.record_outputs {
            let ids: Vec<u64> = st.queue.all().iter().map(|r| r.id).collect();
            ids.into_iter().zip(st.outputs).collect()
        } else {
            Vec::new()
        },
        vtime_cycles: st.last_finish,
        goodput_ips: goodput,
    })
}
