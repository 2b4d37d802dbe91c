//! Deterministic traffic generation: seeded open- and closed-loop sources.
//!
//! Everything is integer arithmetic on a splitmix64 stream, so a fixed
//! seed reproduces the exact same arrival schedule, request sizes, and
//! (in closed loop) think times on every platform — the loadgen's
//! bit-determinism guarantee rests on this.

use crate::request::{Completion, Overloaded, Request};
/// The fault injector's splitmix64 step (re-exported: the serve engine
/// derives per-batch fault seeds with it).
pub use dpu_sim::faults::splitmix64;
use std::collections::{BTreeMap, BinaryHeap};

/// A tiny seeded integer RNG (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform draw in `lo..=hi` (modulo bias is irrelevant for traffic
    /// shaping and keeps the math integer-only).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A positive gap with mean ≈ `mean` (uniform on `1..=2·mean−1`, the
    /// bound saturating for a mean past `u64::MAX / 2`).
    pub fn gap(&mut self, mean: u64) -> u64 {
        let m = mean.max(1);
        self.range(1, m.saturating_add(m - 1))
    }
}

/// What the traffic source has for the service right now.
#[derive(Debug)]
pub enum TrafficStep<I> {
    /// A request arrived.
    Arrival(Request<I>),
    /// Closed-loop clients are blocked on in-flight completions; flushing
    /// the pending readback will unblock them.
    Waiting,
    /// No further requests will ever arrive.
    Done,
}

/// A source of requests plus the completion/rejection feedback channel
/// closed-loop sources need.
pub trait Traffic {
    /// Work-item type of the requests produced.
    type Item;

    /// Produce the next arrival, or report the source's state.
    fn next(&mut self) -> TrafficStep<Self::Item>;

    /// A request finished (served or degraded) — closed-loop sources
    /// schedule the issuing client's next request from here.
    fn on_complete(&mut self, completion: &Completion);

    /// A request was shed at admission.
    fn on_reject(&mut self, rejection: &Overloaded);
}

/// Open-loop source: arrivals follow the seeded schedule regardless of
/// service latency (the "arrival rate" experiments).
pub struct OpenLoop<I, F> {
    rng: Rng64,
    gen: F,
    remaining: u64,
    mean_gap: u64,
    clock: u64,
    next_id: u64,
    _marker: std::marker::PhantomData<I>,
}

impl<I, F: FnMut(&mut Rng64, u64) -> Vec<I>> OpenLoop<I, F> {
    /// `requests` arrivals with mean inter-arrival `mean_gap` cycles;
    /// `gen(rng, id)` builds each request's items.
    #[must_use]
    pub fn new(seed: u64, requests: u64, mean_gap: u64, gen: F) -> Self {
        Self {
            rng: Rng64::new(seed),
            gen,
            remaining: requests,
            mean_gap,
            clock: 0,
            next_id: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<I, F: FnMut(&mut Rng64, u64) -> Vec<I>> Traffic for OpenLoop<I, F> {
    type Item = I;

    fn next(&mut self) -> TrafficStep<I> {
        if self.remaining == 0 {
            return TrafficStep::Done;
        }
        self.remaining -= 1;
        let id = self.next_id;
        self.next_id += 1;
        let arrival = self.clock;
        let items = (self.gen)(&mut self.rng, id);
        self.clock += self.rng.gap(self.mean_gap);
        TrafficStep::Arrival(Request { id, arrival, items })
    }

    fn on_complete(&mut self, _completion: &Completion) {}

    fn on_reject(&mut self, _rejection: &Overloaded) {}
}

/// Closed-loop source: `clients` concurrent users, each issuing its next
/// request `think` cycles after the previous one finishes (or is shed) —
/// latency feedback throttles load, the classic closed-loop model.
pub struct ClosedLoop<I, F> {
    rng: Rng64,
    gen: F,
    /// Requests still allowed to be issued (total budget).
    remaining: u64,
    think_mean: u64,
    next_id: u64,
    /// Min-heap of (arrival cycle, client) — `Reverse` for earliest-first.
    ready: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    in_flight: BTreeMap<u64, u64>,
    _marker: std::marker::PhantomData<I>,
}

impl<I, F: FnMut(&mut Rng64, u64) -> Vec<I>> ClosedLoop<I, F> {
    /// `clients` users issuing `requests` total, thinking ≈`think_mean`
    /// cycles between interactions; `gen(rng, id)` builds each request.
    ///
    /// # Panics
    /// When `clients` is zero.
    #[must_use]
    pub fn new(seed: u64, clients: u64, requests: u64, think_mean: u64, gen: F) -> Self {
        assert!(clients > 0, "closed loop needs at least one client");
        let mut rng = Rng64::new(seed);
        let mut ready = BinaryHeap::new();
        for c in 0..clients {
            let t = rng.gap(think_mean.max(1));
            ready.push(std::cmp::Reverse((t, c)));
        }
        Self {
            rng,
            gen,
            remaining: requests,
            think_mean,
            next_id: 0,
            ready,
            in_flight: BTreeMap::new(),
            _marker: std::marker::PhantomData,
        }
    }

    fn reschedule(&mut self, client: u64, at: u64) {
        let t = at + self.rng.gap(self.think_mean);
        self.ready.push(std::cmp::Reverse((t, client)));
    }
}

impl<I, F: FnMut(&mut Rng64, u64) -> Vec<I>> Traffic for ClosedLoop<I, F> {
    type Item = I;

    fn next(&mut self) -> TrafficStep<I> {
        if self.remaining == 0 {
            return if self.in_flight.is_empty() {
                TrafficStep::Done
            } else {
                TrafficStep::Waiting
            };
        }
        match self.ready.pop() {
            Some(std::cmp::Reverse((arrival, client))) => {
                self.remaining -= 1;
                let id = self.next_id;
                self.next_id += 1;
                let items = (self.gen)(&mut self.rng, id);
                self.in_flight.insert(id, client);
                TrafficStep::Arrival(Request { id, arrival, items })
            }
            None if self.in_flight.is_empty() => TrafficStep::Done,
            None => TrafficStep::Waiting,
        }
    }

    fn on_complete(&mut self, completion: &Completion) {
        if let Some(client) = self.in_flight.remove(&completion.id) {
            self.reschedule(client, completion.finish);
        }
    }

    fn on_reject(&mut self, rejection: &Overloaded) {
        if let Some(client) = self.in_flight.remove(&rejection.id) {
            self.reschedule(client, rejection.at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_item(_rng: &mut Rng64, id: u64) -> Vec<u64> {
        vec![id]
    }

    #[test]
    fn open_loop_is_deterministic_and_bounded() {
        let collect = |seed| {
            let mut t = OpenLoop::new(seed, 50, 100, one_item);
            let mut out = Vec::new();
            while let TrafficStep::Arrival(r) = t.next() {
                out.push((r.id, r.arrival));
            }
            assert!(matches!(t.next(), TrafficStep::Done));
            out
        };
        let a = collect(7);
        assert_eq!(a, collect(7));
        assert_ne!(a, collect(8));
        assert_eq!(a.len(), 50);
        // Arrivals are monotone and gaps are in [1, 199].
        for w in a.windows(2) {
            let gap = w[1].1 - w[0].1;
            assert!((1..=199).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn closed_loop_waits_on_in_flight_clients() {
        let mut t = ClosedLoop::new(3, 2, 10, 50, one_item);
        let TrafficStep::Arrival(a) = t.next() else { panic!("expected arrival") };
        let TrafficStep::Arrival(b) = t.next() else { panic!("expected arrival") };
        // Both clients are now blocked.
        assert!(matches!(t.next(), TrafficStep::Waiting));
        t.on_complete(&Completion {
            id: a.id,
            arrival: a.arrival,
            finish: 500,
            items: 1,
            served: true,
        });
        let TrafficStep::Arrival(c) = t.next() else { panic!("expected arrival") };
        assert!(c.arrival > 500, "next interaction comes after completion + think");
        let _ = b;
    }

    #[test]
    fn closed_loop_reschedules_after_rejection() {
        let mut t = ClosedLoop::new(9, 1, 5, 10, one_item);
        let TrafficStep::Arrival(a) = t.next() else { panic!("expected arrival") };
        assert!(matches!(t.next(), TrafficStep::Waiting));
        t.on_reject(&Overloaded { id: a.id, at: a.arrival, queue_depth: 4 });
        let TrafficStep::Arrival(b) = t.next() else { panic!("expected arrival") };
        assert!(b.arrival > a.arrival);
    }
}
