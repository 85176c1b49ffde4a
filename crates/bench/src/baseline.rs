//! The `slap-bench baseline` sweep: the BFS oracle vs. the word-parallel
//! fast engine vs. the simulated SLAP run-based Algorithm CC, across image
//! families, sizes and both connectivities, recorded to
//! `BENCH_baseline.json`.
//!
//! Each point is the best and mean of several repetitions on deterministic
//! workloads; the fast and simulated entries record whether their labels
//! were bit-identical to the oracle's, and fast entries carry the word × 2-row
//! tile classification of the coarse-to-fine first pass. [`spec`] holds the
//! criteria: tile counters covering every word-tile, and at full scale fast
//! ≥ 5× the oracle plus fast 8-conn ≤ 2.2× its 4-conn time on
//! `random50` @ 2048².

use crate::record::{Bound, Cmp, Cover, Entry, Gate, Op, Ratio, Report, Rhs, Sel, Spec, TIMED};
use crate::sweep;
use slap_cc::engine::EngineKind;
use slap_cc::{label_components_runs, CcOptions};
use slap_image::LabelGrid;
use slap_unionfind::RankHalvingUf;

/// The registry engines the sweep times, with the ids the files record (the
/// simulated Algorithm CC rides along as a third, non-registry column — it
/// is a paper simulation, not a host engine).
const HOST_ENGINES: &[(EngineKind, &str)] =
    &[(EngineKind::Bfs, "oracle-bfs"), (EngineKind::Fast, "fast")];

const FAMILIES: &[&str] = &["random50", "blobs", "checker", "fig3a"];

const TILES: &[&str] = &["tiles_background", "tiles_interior", "tiles_boundary"];

/// Runs the sweep. The host engines are warm registry sessions; the first
/// ([`EngineKind::Bfs`]) doubles as the bit-identity reference.
pub fn run(quick: bool, progress: &mut dyn FnMut(&str)) -> Report {
    let sides: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[256, 512, 1024, 2048]
    };
    let mut entries = Vec::new();
    let mut sessions: Vec<_> = HOST_ENGINES
        .iter()
        .map(|&(kind, id)| (kind, kind.session(1), id, LabelGrid::new_background(1, 1)))
        .collect();
    sweep::drive(FAMILIES, sides, quick, |p| {
        let mut truth = LabelGrid::new_background(1, 1);
        for (kind, session, id, grid) in &mut sessions {
            let mut stats = None;
            let times = sweep::time_reps(p.reps, || {
                stats = Some(session.label_into(std::hint::black_box(p.img), p.conn, grid));
            });
            let mut e = Entry::at(p, id, "", 1).timed(times, p.reps);
            if *kind == EngineKind::Bfs {
                std::mem::swap(&mut truth, grid);
            } else {
                e = e.matching(*grid == truth);
            }
            if let Some(t) = stats.map(|s| s.tiles).filter(|t| t.total() > 0) {
                e = e
                    .count(TILES[0], t.background)
                    .count(TILES[1], t.interior)
                    .count(TILES[2], t.boundary);
            }
            progress(&e.line());
            entries.push(e);
        }
        // Simulated SLAP (run-based Algorithm CC). The identity check runs
        // on the kept labels *outside* the timed region, same as the fast
        // engine's.
        let sim_reps = p.reps.min(3);
        let opts = CcOptions {
            connectivity: p.conn,
            ..CcOptions::default()
        };
        let mut sim_labels = None;
        let times = sweep::time_reps(sim_reps, || {
            let run = label_components_runs::<RankHalvingUf>(std::hint::black_box(p.img), &opts);
            sim_labels = Some(run.labels);
        });
        let e = Entry::at(p, "slap-sim-runs", "", 1)
            .timed(times, sim_reps)
            .matching(sim_labels.as_ref() == Some(&truth));
        progress(&e.line());
        entries.push(e);
    });
    Report::new("baseline", quick, FAMILIES, sides, entries)
}

/// The baseline criteria.
pub fn spec() -> Spec {
    let (oracle, fast, sim) = (
        Sel("oracle-bfs", ""),
        Sel("fast", ""),
        Sel("slap-sim-runs", ""),
    );
    Spec {
        need: vec![(Sel::ANY, TIMED), (fast, TILES)],
        reference: vec![fast, sim],
        bounds: vec![Bound {
            sel: fast,
            lhs: TILES,
            op: Op::Eq,
            rhs: Rhs::N(|n| n.saturating_mul(n.div_ceil(64)), "n·⌈n/64⌉"),
            why: "tile counters must cover the frame's word-tiles",
        }],
        cover: vec![Cover {
            pairs: vec![oracle, fast, sim],
            min_families: 3,
            min_sides: 3,
            families: &[],
        }],
        ratios: vec![
            Ratio::new(oracle, fast).gated(Gate::headline(
                "fast-engine headline",
                Cmp::AtLeast(5.0),
                &[4],
            )),
            Ratio::new(sim, fast),
            Ratio {
                conns: Some((8, 4)),
                ..Ratio::new(fast, fast).gated(Gate::headline(
                    "8-connectivity regression bound",
                    Cmp::AtMost(2.2),
                    &[4],
                ))
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::table::{rejects_wrong_schema, roundtrips};

    fn fixture() -> Report {
        let mut entries = Vec::new();
        for family in ["random50", "blobs", "checker"] {
            for n in [64usize, 128, 256, 2048] {
                for conn in [4u32, 8] {
                    let at = |engine, best| {
                        Entry::new(family, n, conn, engine, "", 1).timed((best, 8500), 3)
                    };
                    entries.push(at("oracle-bfs", 8000));
                    entries.push(
                        at("fast", 1000)
                            .matching(true)
                            .count(TILES[0], 1)
                            .count(TILES[1], 1)
                            .count(TILES[2], (n.div_ceil(64) * n) as u64 - 2),
                    );
                    entries.push(at("slap-sim-runs", 1000).matching(true));
                }
            }
        }
        let mut r = Report::new("baseline", false, FAMILIES, &[64, 128, 256, 2048], entries);
        r.host_threads = 1;
        r
    }

    /// Sets `counter` on every entry `pick` selects.
    fn set(r: &mut Report, pick: impl Fn(&Entry) -> bool, counter: &str, value: u64) {
        for e in r.entries.iter_mut().filter(|e| pick(e)) {
            e.counters.iter_mut().find(|(k, _)| k == counter).unwrap().1 = value;
        }
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
        validation_rejects_non_identical_labels: false, |r| {
            r.entries.iter_mut().filter(|e| e.engine == "fast").for_each(|e| e.matches_reference = Some(false));
        } => Err("does not match the reference");
        validation_rejects_thin_coverage: false, |r| r.entries.retain(|e| e.family == "random50")
            => Err("coverage too thin");
        full_validation_enforces_the_headline_speedup: true, |r| {
            // only 4× the oracle's 8000
            set(r, |e| e.engine == "fast" && e.family == "random50" && e.n == 2048, "best_ns", 2000);
        } => Err("need ≥ 5×");
        full_validation_bounds_the_eight_over_four_gap: true, |r| {
            // 2.5× the 4-conn entry's 1000
            set(r, |e| e.engine == "fast" && e.family == "random50" && e.n == 2048 && e.conn == 8, "best_ns", 2500);
        } => Err("8-connectivity regression bound");
        full_validation_requires_the_headline_point: true, |r| {
            r.entries.retain(|e| !(e.family == "random50" && e.n == 2048));
        } => Err("fast-engine headline: no oracle-bfs/fast ratio at random50 @ 2048 (4-conn)");
        quick_validation_ignores_the_headline_gates: false, |r| {
            set(r, |e| e.engine == "fast" && e.family == "random50" && e.n == 2048, "best_ns", 7000);
        } => Ok(());
        validation_rejects_missing_tile_counters: false, |r| {
            r.entries.iter_mut().for_each(|e| e.counters.retain(|(k, _)| k != "tiles_background"));
        } => Err("missing counter \"tiles_background\"");
        validation_rejects_missing_or_short_tile_counters: false, |r| {
            set(r, |e| e.engine == "fast" && e.n == 64, "tiles_boundary", 61);
        } => Err("word-tiles");
    }

    #[test]
    fn quick_sweep_smoke() {
        // A real (tiny) sweep must validate. Keep the sizes minuscule: this
        // runs in `cargo test`.
        let text = run(true, &mut |_| {}).to_json();
        crate::record::check(&text, false).expect("fresh quick sweep validates");
    }
}
