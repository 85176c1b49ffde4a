//! The `slap-bench reuse` sweep: cold-call vs. warm-session throughput for
//! **every registered engine**, recorded to `BENCH_reuse.json`.
//!
//! This is the measurement behind the engine layer's core promise: a
//! [`slap_cc::engine::LabelEngine`] owns its scratch arenas and reuses them
//! once warm (`tests/alloc_count.rs` counts the allocations themselves).
//! For each (engine, family, size,
//! connectivity) point the sweep records two entries:
//!
//! * **cold** — a fresh session *and* a fresh label grid constructed inside
//!   every call (the allocation churn a registry-less caller pays), and
//! * **warm** — one persistent session + grid reused across calls, warmed to
//!   its arena high-water mark first, recording bit-identity against the BFS
//!   oracle.
//!
//! The sweep iterates [`slap_cc::engine::registry`] — adding an engine to
//! the registry adds it to this file with no bench-side changes — and
//! [`spec`] gates **cold/warm ≥ 1 (warm ≤ cold) on every engine at every
//! point**, so a labeler that silently loses its reuse property fails.

use crate::record::{Cmp, Cover, Entry, Gate, Ratio, Report, Sel, Spec, TIMED};
use crate::sweep;
use slap_cc::engine::{registry, EngineKind};
use slap_image::{bfs_labels_conn, LabelGrid};

/// Worker threads handed to multithreaded engines (sequential engines
/// record `1`).
pub const THREADS: usize = 2;

const FAMILIES: &[&str] = &["random50", "blobs", "checker"];

/// Times one (engine, point): cold then warm. A warm call does strictly less
/// work than a cold one (same labeling, none of the allocation), so its true
/// floor is below cold's — but on a loaded host one best-of-N sample can
/// invert. Retries accumulate the running minimum of both modes (more
/// samples only tighten each floor) until the ordering settles, instead of
/// discarding earlier measurements.
fn time_point(kind: EngineKind, p: &sweep::Point, truth: &LabelGrid) -> [Entry; 2] {
    let (img, conn) = (p.img, p.conn);
    let (mut cold_best, mut cold_total_ns) = (u64::MAX, 0u128);
    let (mut warm_best, mut warm_total_ns) = (u64::MAX, 0u128);
    let mut threads = 1;
    let mut bit_identical = false;
    let mut reps_total = 0usize;
    for attempt in 0..6 {
        let reps = p.reps << attempt.min(3);
        reps_total += reps;
        let (best, mean) = sweep::time_reps(reps, || {
            let mut session = kind.session(THREADS);
            let mut grid = LabelGrid::new_background(1, 1);
            session.label_into(std::hint::black_box(img), conn, &mut grid);
            std::hint::black_box(&grid);
        });
        cold_best = cold_best.min(best);
        cold_total_ns += mean as u128 * reps as u128;
        let mut session = kind.session(THREADS);
        let mut grid = LabelGrid::new_background(1, 1);
        // Two warm-up passes: double-buffered arenas may need a second call
        // before every buffer reaches its high-water mark.
        session.label_into(img, conn, &mut grid);
        threads = session.label_into(img, conn, &mut grid).threads;
        let (best, mean) = sweep::time_reps(reps, || {
            session.label_into(std::hint::black_box(img), conn, &mut grid);
            std::hint::black_box(&grid);
        });
        warm_best = warm_best.min(best);
        warm_total_ns += mean as u128 * reps as u128;
        bit_identical = grid == *truth;
        if warm_best <= cold_best {
            break;
        }
    }
    // Means are weighted across attempts, so mean and reps stay consistent
    // (every attempt's mean ≥ its best ≥ the global best, so mean ≥ best).
    let mean = |total: u128| (total / reps_total as u128) as u64;
    [
        Entry::at(p, kind.name(), "cold", threads)
            .timed((cold_best, mean(cold_total_ns)), reps_total),
        Entry::at(p, kind.name(), "warm", threads)
            .timed((warm_best, mean(warm_total_ns)), reps_total)
            .matching(bit_identical),
    ]
}

/// Runs the sweep over the full engine registry.
pub fn run(quick: bool, progress: &mut dyn FnMut(&str)) -> Report {
    let sides: &[usize] = if quick { &[64, 128] } else { &[256, 512, 1024] };
    let mut entries = Vec::new();
    sweep::drive(FAMILIES, sides, quick, |p| {
        let truth = bfs_labels_conn(p.img, p.conn);
        for info in registry() {
            for e in time_point(info.kind, p, &truth) {
                progress(&e.line());
                entries.push(e);
            }
        }
    });
    Report::new("reuse", quick, FAMILIES, sides, entries)
}

/// The reuse criteria: warm entries bit-identical to the oracle, every
/// registered engine cold and warm at every point of ≥ 3 families × ≥ 2
/// sizes per connectivity, and warm ≤ cold everywhere — at every scale.
pub fn spec() -> Spec {
    Spec {
        need: vec![(Sel::ANY, TIMED)],
        reference: vec![Sel("*", "warm")],
        bounds: Vec::new(),
        cover: vec![Cover {
            pairs: registry()
                .iter()
                .flat_map(|i| [Sel(i.kind.name(), "cold"), Sel(i.kind.name(), "warm")])
                .collect(),
            min_families: 3,
            min_sides: 2,
            families: &[],
        }],
        ratios: vec![Ratio::new(Sel("*", "cold"), Sel("*", "warm")).gated(Gate {
            why: "reuse criterion (warm ≤ cold)",
            at: None,
            conns: &[],
            bound: Cmp::AtLeast(1.0),
            full_only: false,
            min_host_threads: 1,
        })],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::table::{rejects_wrong_schema, roundtrips};

    fn fixture() -> Report {
        let mut entries = Vec::new();
        for info in registry() {
            let threads = if info.multithreaded { THREADS } else { 1 };
            for family in FAMILIES {
                for n in [64usize, 128] {
                    for conn in [4u32, 8] {
                        let at =
                            |config| Entry::new(family, n, conn, info.kind.name(), config, threads);
                        entries.push(at("cold").timed((5000, 5600), 3));
                        entries.push(at("warm").timed((4000, 4400), 3).matching(true));
                    }
                }
            }
        }
        Report::new("reuse", false, FAMILIES, &[64, 128], entries)
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
        validation_enforces_warm_at_least_cold: false, |r| {
            let warm = &mut r.entries[11];
            assert_eq!(warm.config, "warm");
            warm.counters = vec![("best_ns".into(), 5001), ("mean_ns".into(), 5002), ("reps".into(), 3)];
        } => Err("reuse criterion (warm ≤ cold): bfs cold/bfs warm is 1.000× on blobs @ 64 (8-conn)");
        validation_rejects_non_identical_labels: false, |r| r.entries[1].matches_reference = Some(false)
            => Err("does not match the reference");
        validation_requires_every_registered_engine: false, |r| r.entries.retain(|e| e.engine != "propagate")
            => Err("lacks propagate cold");
        validation_rejects_unregistered_engines: false, |r| r.entries[0].engine = "warp-drive".into()
            => Err("unknown engine/config \"warp-drive\" \"cold\"");
        validation_rejects_thin_coverage: false, |r| r.entries.retain(|e| e.family == "random50")
            => Err("coverage too thin");
    }

    #[test]
    fn quick_sweep_smoke() {
        // A real (tiny) sweep must produce a valid file with bit-identical
        // labels. The warm ≤ cold *timing* criterion is enforced by CI's
        // dedicated sequential bench-smoke step (`slap-bench reuse --quick`
        // + `check`); under `cargo test` every suite shares the host
        // concurrently, so a pure timing inversion here is noise, not a bug
        // — any other validation failure still fails the test.
        let report = run(true, &mut |_| {});
        assert!(report
            .entries
            .iter()
            .all(|e| e.config == "cold" || e.matches_reference == Some(true)));
        if let Err(e) = crate::record::check(&report.to_json(), false) {
            assert!(
                e.contains("reuse criterion"),
                "non-timing validation failure: {e}"
            );
        }
    }
}
