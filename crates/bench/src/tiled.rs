//! The `slap-bench tiled` sweep: the decomposed engine at 2-D tile grids and
//! at the `T × 1` strip grids, plus the out-of-core band scheduler, recorded
//! to `BENCH_tiled.json`.
//!
//! For each (family, size, connectivity) point the sweep times the
//! sequential fast engine once (the identity reference), the tiled engine at
//! every grid in [`SHAPES`] — the strip grids `T × 1` at `T` threads are what
//! `slap label --engine parallel --threads T` runs — recording bit-identity
//! while timing, and the out-of-core scheduler at a quarter-frame band
//! budget, recording its carried-state peak and checking its retired labels
//! against the whole-frame engine. Wall-clock speedup is a property of the
//! recording host, so the [`HEADLINES`] gates apply only when the file's
//! `host_threads` is at least 4; the bit-identity, carried-state and
//! coverage checks apply everywhere.

use crate::record::{Bound, Cmp, Cover, Entry, Gate, Op, Ratio, Report, Rhs, Sel, Spec, TIMED};
use crate::sweep;
use slap_cc::engine::EngineKind;
use slap_image::{BitmapRows, LabelGrid, OutOfCoreLabeler};

/// Grids timed at every point: `(tiles_y, tiles_x, threads, config)`. The
/// 2-D shapes run at 4 threads; the `T × 1` strips at `T` threads.
pub const SHAPES: &[(usize, usize, usize, &str)] = &[
    (1, 2, 4, "1x2@4"),
    (2, 1, 4, "2x1@4"),
    (2, 2, 4, "2x2@4"),
    (4, 4, 4, "4x4@4"),
    (1, 1, 1, "1x1@1"),
    (2, 1, 2, "2x1@2"),
    (4, 1, 4, "4x1@4"),
    (8, 1, 8, "8x1@8"),
];

/// Headline speedups over the fast engine on `random50` @ 2048² (4-conn),
/// enforced on hosts with at least 4 hardware threads.
pub const HEADLINES: &[(&str, f64)] = &[("4x1@4", 1.8), ("2x2@4", 1.5)];

/// Out-of-core column tiles (and worker threads).
const OOC_TILES_X: usize = 2;

const OOC: Sel = Sel("ooc", "1x2@2");

const FAMILIES: &[&str] = &["random50", "blobs", "checker"];

/// Runs the sweep. The fast reference and every grid run as warm registry
/// sessions; the out-of-core point re-streams the frame from memory through
/// [`BitmapRows`].
pub fn run(quick: bool, progress: &mut dyn FnMut(&str)) -> Report {
    let sides: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[512, 1024, 2048]
    };
    let mut entries = Vec::new();
    let mut fast = EngineKind::Fast.session(1);
    let mut fast_grid = LabelGrid::new_background(1, 1);
    let mut tiled_grid = LabelGrid::new_background(1, 1);
    let mut push = |e: Entry| {
        progress(&e.line());
        entries.push(e);
    };
    sweep::drive(FAMILIES, sides, quick, |p| {
        let (n, conn, img, reps) = (p.n, p.conn, p.img, p.reps);
        let times = sweep::time_reps(reps, || {
            fast.label_into(std::hint::black_box(img), conn, &mut fast_grid);
        });
        push(Entry::at(p, "fast", "", 1).timed(times, reps));
        for &(tiles_y, tiles_x, threads, config) in SHAPES {
            let mut session = EngineKind::Tiled { tiles_x, tiles_y }.session(threads);
            let times = sweep::time_reps(reps, || {
                session.label_into(std::hint::black_box(img), conn, &mut tiled_grid);
            });
            push(
                Entry::at(p, "tiled", config, threads)
                    .timed(times, reps)
                    .matching(tiled_grid == fast_grid),
            );
        }
        // Out-of-core: a quarter-frame band budget forces ≥ 4 band seams;
        // correctness = the retired label set equals the whole-frame
        // component labels.
        let band_rows = (n / 4).max(1);
        let run = OutOfCoreLabeler::new(band_rows, OOC_TILES_X)
            .label_source(&mut BitmapRows::new(img), conn)
            .expect("in-memory rows cannot fail");
        let mut retired: Vec<u64> = run
            .components
            .iter()
            .map(|rec| rec.label(img.rows()))
            .collect();
        retired.sort_unstable();
        let mut want: Vec<u64> = fast_grid
            .component_stats()
            .iter()
            .map(|s| u64::from(s.label))
            .collect();
        want.sort_unstable();
        let times = sweep::time_reps(reps, || {
            let mut rows = BitmapRows::new(std::hint::black_box(img));
            OutOfCoreLabeler::new(band_rows, OOC_TILES_X)
                .label_source(&mut rows, conn)
                .unwrap();
        });
        push(
            Entry::at(p, OOC.0, OOC.1, OOC_TILES_X)
                .timed(times, reps)
                .matching(retired == want)
                .count("band_rows", band_rows as u64)
                .count("peak_carried_runs", run.stats.peak_carried_runs as u64),
        );
    });
    Report::new("tiled", quick, FAMILIES, sides, entries)
}

/// The tiled criteria.
pub fn spec() -> Spec {
    let fast = Sel("fast", "");
    let mut grid = vec![fast];
    grid.extend(SHAPES.iter().map(|s| Sel("tiled", s.3)));
    Spec {
        need: vec![
            (Sel::ANY, TIMED),
            (OOC, &["band_rows", "peak_carried_runs"]),
        ],
        reference: vec![Sel("tiled", "*"), OOC],
        bounds: vec![
            Bound {
                sel: fast,
                lhs: &["threads"],
                op: Op::Eq,
                rhs: Rhs::Const(1),
                why: "the fast reference is sequential",
            },
            Bound {
                sel: OOC,
                lhs: &["band_rows"],
                op: Op::Lt,
                rhs: Rhs::N(|n| n, "n"),
                why: "the out-of-core band budget must be below the frame height",
            },
            Bound {
                sel: OOC,
                lhs: &["peak_carried_runs"],
                op: Op::Le,
                rhs: Rhs::N(|n| n / 2 + 1, "n/2+1"),
                why: "carried state exceeds the one-row bound",
            },
        ],
        cover: vec![
            Cover {
                pairs: grid,
                min_families: 2,
                min_sides: 3,
                families: &[],
            },
            Cover {
                pairs: vec![OOC],
                min_families: 1,
                min_sides: 1,
                families: &[],
            },
        ],
        ratios: SHAPES
            .iter()
            .map(|s| {
                let ratio = Ratio::new(fast, Sel("tiled", s.3));
                match HEADLINES.iter().find(|h| h.0 == s.3) {
                    Some(&(_, x)) => ratio.gated(Gate {
                        min_host_threads: 4,
                        ..Gate::headline("tiled speedup", Cmp::AtLeast(x), &[4])
                    }),
                    None => ratio,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::table::{rejects_wrong_schema, roundtrips, row};

    /// Every grid at every point, a 2× speedup on each, recorded on a host
    /// with `host_threads` hardware threads.
    pub(crate) fn fixture(host_threads: u64) -> Report {
        let mut entries = Vec::new();
        for family in ["random50", "blobs"] {
            for n in [512usize, 1024, 2048] {
                for conn in [4u32, 8] {
                    entries.push(Entry::new(family, n, conn, "fast", "", 1).timed((4000, 4500), 3));
                    for &(_, _, threads, config) in SHAPES {
                        // 2× speedup
                        entries.push(
                            Entry::new(family, n, conn, "tiled", config, threads)
                                .timed((2000, 4500), 3)
                                .matching(true),
                        );
                    }
                    entries.push(
                        Entry::new(family, n, conn, OOC.0, OOC.1, OOC_TILES_X)
                            .timed((4400, 4500), 3)
                            .matching(true)
                            .count("band_rows", n as u64 / 4)
                            .count("peak_carried_runs", n as u64 / 8),
                    );
                }
            }
        }
        let mut r = Report::new(
            "tiled",
            false,
            &["random50", "blobs"],
            &[512, 1024, 2048],
            entries,
        );
        r.host_threads = host_threads;
        r
    }

    /// Sets `counter` on every entry of `engine` (and `config`, unless `*`).
    pub(crate) fn set(r: &mut Report, sel: Sel, counter: &str, value: impl Fn(u64) -> u64) {
        for e in r
            .entries
            .iter_mut()
            .filter(|e| e.engine == sel.0 && (sel.1 == "*" || e.config == sel.1))
        {
            let n = e.n;
            e.counters.iter_mut().find(|(k, _)| k == counter).unwrap().1 = value(n);
        }
    }

    #[test]
    fn report_roundtrips_through_validation() {
        roundtrips(fixture(8));
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        rejects_wrong_schema(fixture(8));
    }

    crate::record::rows! { fixture(8);
        validation_rejects_non_identical_labels: false, |r| {
            r.entries.iter_mut().filter(|e| e.engine == "tiled").for_each(|e| e.matches_reference = Some(false));
        } => Err("does not match the reference");
        validation_rejects_non_identical_strip_labels: false, |r| {
            r.entries.iter_mut().filter(|e| e.config == "4x1@4").for_each(|e| e.matches_reference = Some(false));
        } => Err("tiled 4x1@4): output does not match");
        validation_rejects_mismatched_ooc_components: false, |r| {
            r.entries.iter_mut().filter(|e| e.engine == "ooc").for_each(|e| e.matches_reference = Some(false));
        } => Err("ooc 1x2@2): output does not match");
        validation_rejects_unbounded_carried_state: false, |r| set(r, OOC, "peak_carried_runs", |n| n)
            => Err("one-row bound");
        validation_rejects_in_core_band_budgets: false, |r| set(r, OOC, "band_rows", |n| n)
            => Err("band budget");
        full_validation_enforces_the_speedup_on_wide_hosts: true, |r| {
            set(r, Sel("tiled", "2x2@4"), "best_ns", |_| 4000);
        } => Err("fast/tiled 2x2@4 is 1.000× on random50 @ 2048 (4-conn); need ≥ 1.5×");
        full_validation_enforces_the_strip_speedup_on_wide_hosts: true, |r| {
            set(r, Sel("tiled", "4x1@4"), "best_ns", |_| 4000);
        } => Err("fast/tiled 4x1@4 is 1.000× on random50 @ 2048 (4-conn); need ≥ 1.8×");
        quick_validation_ignores_the_speedups: false, |r| set(r, Sel("tiled", "*"), "best_ns", |_| 4000)
            => Ok(());
        validation_rejects_thin_coverage: false, |r| r.entries.retain(|e| e.family == "random50")
            => Err("coverage too thin");
        validation_requires_every_grid_at_every_point: false, |r| {
            r.entries.retain(|e| !(e.config == "8x1@8" && e.n == 1024));
        } => Err("coverage hole");
    }

    #[test]
    fn full_validation_waives_the_speedup_on_narrow_hosts() {
        // No speedup at any grid, but recorded on a 1-thread host: the
        // ratio criteria cannot apply there.
        row(
            fixture(1),
            |r| set(r, Sel("tiled", "*"), "best_ns", |_| 4000),
            true,
            Ok(()),
        );
    }

    #[test]
    fn quick_sweep_smoke() {
        let text = run(true, &mut |_| {}).to_json();
        crate::record::check(&text, false).expect("fresh quick sweep validates");
    }
}
