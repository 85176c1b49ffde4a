//! The `slap-bench stream` sweep: the bounded-memory streaming engine's
//! wall-clock trajectory and frontier peaks, recorded to `BENCH_stream.json`.
//!
//! For each (family, size, connectivity) point the sweep streams the image
//! through a warm band labeler ([`OutOfCoreLabeler`] at
//! [`STREAM_BAND_ROWS`] rows per band, one tile column — the configuration
//! [`label_stream`] runs), handing every record to a sink, and records
//! best/mean wall-clock, rows per second, and the observed memory peaks
//! (`peak_frontier_runs`, and `peak_live_slots` under the counter name
//! `peak_nodes`, from [`label_stream`]'s statistics).
//! Before timing, the retired feature multiset is checked against the
//! whole-frame reference ([`slap_cc::features::component_features`] over
//! [`slap_image::fast_labels_conn`] labels) and recorded as
//! `matches_reference`; [`spec`] rejects any point that was not equivalent
//! **or** whose peaks exceed the `O(cols)` frontier bound — the file itself
//! witnesses the engine's memory contract.

use crate::record::{Bound, Cover, Entry, Op, Report, Rhs, Sel, Spec, TIMED};
use crate::sweep;
use slap_cc::features::{component_features, streamed_features};
use slap_image::{fast_labels_conn, label_stream, BitmapRows, OutOfCoreLabeler, STREAM_BAND_ROWS};

const FAMILIES: &[&str] = &["random50", "blobs", "checker"];

const COUNTERS: &[&str] = &["rows_per_s", "peak_frontier_runs", "peak_nodes"];

/// Runs the sweep.
pub fn run(quick: bool, progress: &mut dyn FnMut(&str)) -> Report {
    let sides: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[256, 512, 1024, 2048]
    };
    let mut entries = Vec::new();
    // One warm session for the whole sweep: repeated passes reuse every
    // arena — the steady state the engine layer's sessions guarantee
    // (cold-vs-warm deltas are what `slap-bench reuse` records).
    let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
    sweep::drive(FAMILIES, sides, quick, |p| {
        let (n, conn, img, reps) = (p.n, p.conn, p.img, p.reps);
        // Untimed pass: memory peaks + feature equivalence against the
        // whole-frame engine (exercising the core's retirement hook end to
        // end).
        let stats = label_stream(&mut BitmapRows::new(img), conn)
            .expect("in-memory rows")
            .stats;
        let reference = component_features(img, &fast_labels_conn(img, conn), conn);
        let equivalent = streamed_features(img, conn) == reference.per_component;
        let times = sweep::time_reps(reps, || {
            let mut rows = BitmapRows::new(std::hint::black_box(img));
            let stats = labeler
                .label_source_with(&mut rows, conn, |rec| {
                    std::hint::black_box(rec);
                })
                .expect("in-memory rows");
            std::hint::black_box(stats);
        });
        let e = Entry::at(p, "stream", "", 1)
            .timed(times, reps)
            .matching(equivalent)
            .count(
                COUNTERS[0],
                ((n as u128 * 1_000_000_000) / times.0.max(1) as u128) as u64,
            )
            .count(COUNTERS[1], stats.peak_frontier_runs as u64)
            .count(COUNTERS[2], stats.peak_live_slots as u64);
        progress(&e.line());
        entries.push(e);
    });
    Report::new("stream", quick, FAMILIES, sides, entries)
}

/// The stream criteria: feature equivalence, the `O(cols)` frontier bound
/// (`peak_frontier_runs ≤ n/2 + 1`, `peak_nodes ≤ n + 1` for an `n × n`
/// image), and ≥ 2 families × ≥ 3 sizes per connectivity.
pub fn spec() -> Spec {
    let stream = Sel("stream", "");
    Spec {
        need: vec![(Sel::ANY, TIMED), (Sel::ANY, COUNTERS)],
        reference: vec![stream],
        bounds: vec![
            Bound {
                sel: stream,
                lhs: &["rows_per_s"],
                op: Op::Ge,
                rhs: Rhs::Const(1),
                why: "rows_per_s must be positive",
            },
            Bound {
                sel: stream,
                lhs: &["peak_frontier_runs"],
                op: Op::Le,
                rhs: Rhs::N(|n| n / 2 + 1, "n/2+1"),
                why: "the O(cols) frontier bound",
            },
            Bound {
                sel: stream,
                lhs: &["peak_nodes"],
                op: Op::Le,
                rhs: Rhs::N(|n| n + 1, "n+1"),
                why: "the O(cols + live) node bound",
            },
        ],
        cover: vec![Cover {
            pairs: vec![stream],
            min_families: 2,
            min_sides: 3,
            families: &[],
        }],
        ratios: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::table::{rejects_wrong_schema, roundtrips};

    fn fixture() -> Report {
        let mut entries = Vec::new();
        for family in ["random50", "blobs"] {
            for n in [256usize, 512, 1024] {
                for conn in [4u32, 8] {
                    entries.push(
                        Entry::new(family, n, conn, "stream", "", 1)
                            .timed((5000, 5600), 3)
                            .matching(true)
                            .count(COUNTERS[0], 1_000_000)
                            .count(COUNTERS[1], n as u64 / 2)
                            .count(COUNTERS[2], n as u64),
                    );
                }
            }
        }
        Report::new(
            "stream",
            false,
            &["random50", "blobs"],
            &[256, 512, 1024],
            entries,
        )
    }

    /// Sets `counter` on the first entry from its side.
    fn set(r: &mut Report, counter: &str, value: impl Fn(u64) -> u64) {
        let e = &mut r.entries[0];
        let n = e.n;
        e.counters.iter_mut().find(|(k, _)| k == counter).unwrap().1 = value(n);
    }

    #[test]
    fn report_roundtrips_through_validation() {
        roundtrips(fixture());
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        rejects_wrong_schema(fixture());
    }

    crate::record::rows! { fixture();
        validation_rejects_non_equivalent_features: false, |r| r.entries[0].matches_reference = Some(false)
            => Err("does not match the reference");
        validation_enforces_the_memory_bound: false, |r| set(r, "peak_frontier_runs", |n| n)
            => Err("O(cols) frontier bound");
        validation_enforces_the_node_bound: false, |r| set(r, "peak_nodes", |n| 2 * n)
            => Err("O(cols + live) node bound");
        validation_rejects_thin_coverage: false, |r| r.entries.retain(|e| e.family == "random50")
            => Err("coverage too thin");
    }

    #[test]
    fn quick_sweep_smoke() {
        let report = run(true, &mut |_| {});
        assert!(report
            .entries
            .iter()
            .all(|e| e.matches_reference == Some(true)));
        crate::record::check(&report.to_json(), false).expect("fresh quick sweep validates");
    }
}
