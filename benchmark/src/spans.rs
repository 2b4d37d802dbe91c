//! In-memory spans recorded at the harness's call boundaries.
//!
//! The harness measures from outside only: a span is opened around each
//! call the serving loop makes into the engine or the traffic source,
//! and around the `serve` call itself. Spans carry the span that caused
//! them (`parent`) and the batch they belong to, are kept in memory and
//! written out, if asked, when the run ends. Tracing inside the crates is
//! a later change; [`self_ns`] already handles the nesting it will add.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer that did the work (`pim-serve`, `engine`, `loadgen`).
    pub layer: &'static str,
    /// Call name (`serve`, `stage`, `launch`, `gather`, …).
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin; `>= start_ns`.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Batch sequence number the work belongs to (`u64::MAX` = none).
    pub batch: u64,
}

impl Span {
    /// Length of the interval.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Batch id of spans that belong to no batch.
pub const NO_BATCH: u64 = u64::MAX;

#[derive(Debug)]
struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A handle the decorators share; off by default, in which case
/// [`Recorder::time`] is a plain call.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<SpanLog>>>);

impl Recorder {
    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self(None)
    }

    /// A recording recorder whose clock starts now.
    #[must_use]
    pub fn on() -> Self {
        Self(Some(Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// Run `f` inside a span (when recording).
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(log) = &self.0 else { return f() };
        let id = {
            let mut log = log.borrow_mut();
            let id = u32::try_from(log.spans.len()).expect("fewer than 2^32 spans");
            let parent = log.open.last().copied();
            let start_ns = elapsed_ns(log.origin);
            log.spans.push(Span { layer, name, start_ns, end_ns: start_ns, parent, batch });
            log.open.push(id);
            id
        };
        // The borrow is released while `f` runs, so spans nest.
        let out = f();
        let mut log = log.borrow_mut();
        let end_ns = elapsed_ns(log.origin);
        log.spans[id as usize].end_ns = end_ns;
        let popped = log.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        out
    }

    /// Take every closed span recorded so far.
    #[must_use]
    pub fn take(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |log| std::mem::take(&mut log.borrow_mut().spans))
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent).
#[must_use]
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}
