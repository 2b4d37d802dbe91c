//! Span self-time arithmetic and the per-layer budget built on it.

use pim_e2e::decor::{ENGINE, LOADGEN};
use pim_e2e::report::Budget;
use pim_e2e::spans::{self_ns, Recorder, Span, NO_BATCH};

fn span(
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
) -> Span {
    Span { layer, name, start_ns, end_ns, parent, batch: NO_BATCH }
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    let spans = [
        span("pim-serve", "serve", 0, 1_000, None),
        span(ENGINE, "stage", 100, 200, Some(0)),
        span(ENGINE, "launch", 200, 800, Some(0)),
        // A grandchild takes from its parent, not from the root.
        span("dpu-sim", "run", 300, 700, Some(2)),
    ];
    assert_eq!(self_ns(&spans), vec![300, 100, 200, 400]);
    // Every nanosecond of the root is attributed exactly once.
    assert_eq!(self_ns(&spans).iter().sum::<u64>(), spans[0].duration_ns());
}

#[test]
fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
    let spans = [
        span("pim-serve", "serve", 100, 1_100, None),
        span(ENGINE, "launch", 200, 600, Some(0)),
        span(ENGINE, "gather", 500, 900, Some(0)), // overlaps launch by 100
        span(ENGINE, "stage", 1_000, 1_300, Some(0)), // runs 200 past the parent
        span(ENGINE, "restore", 0, 50, Some(0)),   // entirely outside the parent
    ];
    // Covered: [200, 900) and [1000, 1100) = 800 of the parent's 1000.
    assert_eq!(self_ns(&spans)[0], 200);
    // Children keep their own full duration.
    assert_eq!(&self_ns(&spans)[1..], &[400, 400, 300, 50]);
}

#[test]
fn a_child_contained_in_a_sibling_adds_nothing() {
    let spans = [
        span("pim-serve", "serve", 0, 100, None),
        span(ENGINE, "launch", 10, 90, Some(0)),
        span(ENGINE, "gather", 20, 30, Some(0)),
    ];
    assert_eq!(self_ns(&spans)[0], 20);
}

#[test]
fn budget_names_every_bucket_and_reports_the_rest_as_residual() {
    let spans = [
        span("pim-serve", "serve", 0, 10_000_000, None),
        span(LOADGEN, "next", 0, 100_000, Some(0)),
        span(ENGINE, "stage", 1_000_000, 2_000_000, Some(0)),
        span(ENGINE, "launch", 2_000_000, 8_000_000, Some(0)),
        span(ENGINE, "gather", 8_000_000, 8_500_000, Some(0)),
        span(LOADGEN, "on_complete", 8_500_000, 8_600_000, Some(0)),
        span(ENGINE, "restore", 8_600_000, 9_000_000, Some(0)),
    ];
    let b = Budget::of(&spans);
    assert_eq!(b.serve, 10.0);
    assert_eq!((b.stage, b.launch, b.gather, b.restore), (1.0, 6.0, 0.5, 0.4));
    assert!((b.loadgen - 0.2).abs() < 1e-12);
    assert!((b.pim_serve_self - 1.9).abs() < 1e-12);
    assert!(b.residual_pct() < 1e-9, "named buckets sum to the serve span");

    // A call outside the named buckets (a live-mask update) is residual.
    let mut with_other = spans.to_vec();
    with_other.push(span(ENGINE, "set_live_mask", 9_000_000, 9_500_000, Some(0)));
    let b = Budget::of(&with_other);
    assert!((b.residual_pct() - 5.0).abs() < 1e-9);
}

#[test]
fn recorder_links_nested_spans_to_their_parent() {
    let rec = Recorder::on();
    let out = rec.time("pim-serve", "serve", NO_BATCH, || {
        rec.time(ENGINE, "stage", 0, || 1) + rec.time(ENGINE, "launch", 0, || 2)
    });
    assert_eq!(out, 3);
    let spans = rec.take();
    let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.batch)).collect();
    assert_eq!(
        names,
        vec![("serve", None, NO_BATCH), ("stage", Some(0), 0), ("launch", Some(0), 0)]
    );
    assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert!(spans[1].end_ns <= spans[2].start_ns);

    // Off: the closure still runs, nothing is recorded.
    let off = Recorder::off();
    assert_eq!(off.time(ENGINE, "launch", 0, || 7), 7);
    assert!(off.take().is_empty());
}
