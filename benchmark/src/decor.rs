//! Decorators that observe the serving loop from outside.
//!
//! `pim_serve::serve` talks to the world through two public traits, so
//! wrapping the engine and the traffic source sees every call the loop
//! makes without touching the crates. Both wrappers always count (the
//! end-to-end metrics need batch periods and simulated cycles even with
//! tracing off); they record spans only when given a recording
//! [`Recorder`].

use crate::spans::{Recorder, NO_BATCH};
use pim_host::HostError;
use pim_serve::{BatchEngine, BatchRun, Completion, Gathered, Overloaded, Traffic, TrafficStep};
use std::time::Instant;

/// Layer name of spans around [`BatchEngine`] calls.
pub const ENGINE: &str = "engine";
/// Layer name of spans around [`Traffic`] calls.
pub const LOADGEN: &str = "loadgen";

/// What the engine decorator counted during one `serve` call.
#[derive(Debug, Clone, Default)]
pub struct EngineTally {
    /// When each `launch` returned, in call order.
    pub launch_done: Vec<Instant>,
    /// Items staged per batch, in call order.
    pub fill: Vec<usize>,
    /// Σ `BatchRun::compute_cycles`.
    pub compute_cycles: u64,
    /// Σ `BatchRun::active_dpus.len()` — DPUs that had work staged.
    pub active_dpus: u64,
    /// Σ `BatchRun::redispatched_items`.
    pub redispatched_items: u64,
    /// Σ `BatchRun::quarantined_dpus.len()`.
    pub quarantined_dpus: u64,
    /// Σ `BatchRun::repaired_dpus.len()`.
    pub repaired_dpus: u64,
    /// `restore` calls (golden-snapshot recoveries).
    pub restores: u64,
}

/// A [`BatchEngine`] that forwards to `inner`, counting and timing.
pub struct TimedEngine<'a, E> {
    inner: &'a mut E,
    rec: Recorder,
    /// Counts so far.
    pub tally: EngineTally,
}

impl<'a, E: BatchEngine> TimedEngine<'a, E> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut E, rec: Recorder) -> Self {
        Self { inner, rec, tally: EngineTally::default() }
    }

    /// Sequence number of the batch being assembled (= batches staged).
    fn batch(&self) -> u64 {
        self.tally.fill.len() as u64
    }
}

impl<E: BatchEngine> BatchEngine for TimedEngine<'_, E> {
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

    fn stage(&mut self, items: &[Self::Item], buf: usize) -> Result<u64, HostError> {
        let batch = self.batch();
        self.tally.fill.push(items.len());
        let inner = &mut *self.inner;
        self.rec.time(ENGINE, "stage", batch, || inner.stage(items, buf))
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        let inner = &mut *self.inner;
        self.rec.time(ENGINE, "set_live_mask", NO_BATCH, || inner.set_live_mask(live));
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let inner = &mut *self.inner;
        let run = self.rec.time(ENGINE, "launch", seq, || inner.launch(seq))?;
        let t = &mut self.tally;
        t.launch_done.push(Instant::now());
        t.compute_cycles += run.compute_cycles;
        t.active_dpus += run.active_dpus.len() as u64;
        t.redispatched_items += run.redispatched_items as u64;
        t.quarantined_dpus += run.quarantined_dpus.len() as u64;
        t.repaired_dpus += run.repaired_dpus.len() as u64;
        Ok(run)
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<Self::Output>, HostError> {
        // The batch being read back is the newest one in serial mode and
        // the one before it when double-buffered; the span keeps the
        // newest and the buffer index disambiguates in the trace.
        let batch = self.batch().saturating_sub(1);
        let inner = &mut *self.inner;
        self.rec.time(ENGINE, "gather", batch, || inner.gather(buf))
    }

    fn dirty(&self) -> bool {
        self.inner.dirty()
    }

    fn restore(&mut self) -> Result<(), HostError> {
        self.tally.restores += 1;
        let inner = &mut *self.inner;
        self.rec.time(ENGINE, "restore", NO_BATCH, || inner.restore())
    }

    fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError> {
        let inner = &mut *self.inner;
        self.rec.time(ENGINE, "recompile_hot", NO_BATCH, || inner.recompile_hot(min_entries))
    }
}

/// What the traffic decorator counted during one `serve` call.
#[derive(Debug, Clone)]
pub struct TrafficTally<I> {
    /// Requests the source produced.
    pub requests: u64,
    /// Items those requests carried.
    pub items: u64,
    /// Arrival stamp of the first and the last request (simulated cycles).
    pub arrival_span: Option<(u64, u64)>,
    /// Items of requests completed with every item served.
    pub served_items: u64,
    /// Requests completed with at least one item lost.
    pub degraded: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Every request's items by request id, kept only for the oracle.
    pub sent: Vec<(u64, Vec<I>)>,
}

impl<I> Default for TrafficTally<I> {
    fn default() -> Self {
        Self {
            requests: 0,
            items: 0,
            arrival_span: None,
            served_items: 0,
            degraded: 0,
            rejected: 0,
            sent: Vec::new(),
        }
    }
}

impl<I> TrafficTally<I> {
    /// Requests that were refused or completed degraded.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.rejected + self.degraded
    }
}

/// A [`Traffic`] source that forwards to `inner`, counting and timing.
pub struct TimedTraffic<'a, T: Traffic> {
    inner: &'a mut T,
    rec: Recorder,
    keep_items: bool,
    /// Counts so far.
    pub tally: TrafficTally<T::Item>,
}

impl<'a, T: Traffic> TimedTraffic<'a, T> {
    /// Wrap `inner`; `keep_items` retains a copy of every request's
    /// items so outputs can be checked against the oracle afterwards.
    pub fn new(inner: &'a mut T, rec: Recorder, keep_items: bool) -> Self {
        Self { inner, rec, keep_items, tally: TrafficTally::default() }
    }
}

impl<T: Traffic> Traffic for TimedTraffic<'_, T>
where
    T::Item: Clone,
{
    type Item = T::Item;

    fn next(&mut self) -> TrafficStep<T::Item> {
        let inner = &mut *self.inner;
        let step = self.rec.time(LOADGEN, "next", NO_BATCH, || inner.next());
        if let TrafficStep::Arrival(req) = &step {
            let t = &mut self.tally;
            t.requests += 1;
            t.items += req.items.len() as u64;
            t.arrival_span = Some((t.arrival_span.map_or(req.arrival, |s| s.0), req.arrival));
            if self.keep_items {
                t.sent.push((req.id, req.items.clone()));
            }
        }
        step
    }

    fn on_complete(&mut self, completion: &Completion) {
        if completion.served {
            self.tally.served_items += completion.items as u64;
        } else {
            self.tally.degraded += 1;
        }
        let inner = &mut *self.inner;
        self.rec.time(LOADGEN, "on_complete", NO_BATCH, || inner.on_complete(completion));
    }

    fn on_reject(&mut self, rejection: &Overloaded) {
        self.tally.rejected += 1;
        let inner = &mut *self.inner;
        self.rec.time(LOADGEN, "on_reject", NO_BATCH, || inner.on_reject(rejection));
    }
}
