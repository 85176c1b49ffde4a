//! The `slap-bench propagate` sweep: the iterative label-equivalence engine
//! vs. the BFS oracle on the host, and the GPU-style propagation kernel vs.
//! the paper's pipeline Algorithm CC on the lock-step machine, recorded to
//! `BENCH_propagate.json`.
//!
//! The host entries time [`EngineKind::Propagate`] against
//! [`EngineKind::Bfs`] on every point — including the adversarial
//! `spiral` / `serpentine` / `hilbert` families, whose long snaking
//! components are the worst case for naive neighbor relaxation — recording
//! bit-identity while timing and the engine's convergence counters
//! (`iterations`, `reduction_passes`). The `lockstep` entries run the
//! paper's pipeline ([`label_components_lockstep`]) and the iterative
//! propagation kernel ([`propagate_components_lockstep`]) on identical
//! generated inputs, recording exact machine rounds for both — the
//! PRAM-style step-count comparison behind ARCHITECTURE.md's
//! pipeline-vs-label-equivalence discussion. [`spec`] enforces
//! bit-identity, per-entry convergence counters, lock-step coverage under
//! both adjacency conventions, and at full scale the headline criterion:
//! host propagate ≥ 2× the BFS oracle on `random50` @ 2048² under both
//! connectivities.

use crate::record::{Bound, Cmp, Cover, Entry, Gate, Op, Ratio, Report, Rhs, Sel, Spec, TIMED};
use crate::sweep;
use slap_cc::engine::EngineKind;
use slap_cc::lockstep_cc::label_components_lockstep;
use slap_cc::lockstep_propagate::propagate_components_lockstep;
use slap_cc::CcOptions;
use slap_image::LabelGrid;
use slap_unionfind::RankHalvingUf;

/// Adversarial workload families the sweep must cover: long snaking
/// components that maximize label-travel distance for naive relaxation.
pub const ADVERSARIAL_FAMILIES: &[&str] = &["spiral", "serpentine", "hilbert"];

const FAMILIES: &[&str] = &["random50", "blobs", "spiral", "serpentine", "hilbert"];

/// Lock-step comparison families: small frames (the simulator pays
/// `O(rounds × PEs)` host work, and the propagation kernel's rounds grow
/// with label-travel distance).
const LOCKSTEP_FAMILIES: &[&str] = &["random50", "blobs", "spiral"];

const LOCKSTEP: &[&str] = &[
    "pipeline_rounds",
    "propagate_rounds",
    "propagate_ticks",
    "propagate_iterations",
];

/// Runs the sweep. The host engines are warm registry sessions; the oracle
/// doubles as the bit-identity reference.
pub fn run(quick: bool, progress: &mut dyn FnMut(&str)) -> Report {
    let (ls_side, sides): (usize, &[usize]) = if quick {
        (16, &[64, 128, 256])
    } else {
        (32, &[256, 512, 1024, 2048])
    };
    let mut entries = Vec::new();
    let mut oracle = EngineKind::Bfs.session(1);
    let mut prop = EngineKind::Propagate.session(1);
    let mut oracle_grid = LabelGrid::new_background(1, 1);
    let mut prop_grid = LabelGrid::new_background(1, 1);
    let mut push = |e: Entry| {
        progress(&e.line());
        entries.push(e);
    };
    sweep::drive(FAMILIES, sides, quick, |p| {
        let (conn, img, reps) = (p.conn, p.img, p.reps);
        let times = sweep::time_reps(reps, || {
            oracle.label_into(std::hint::black_box(img), conn, &mut oracle_grid);
        });
        push(Entry::at(p, "oracle-bfs", "", 1).timed(times, reps));
        let mut stats = None;
        let times = sweep::time_reps(reps, || {
            stats = Some(prop.label_into(std::hint::black_box(img), conn, &mut prop_grid));
        });
        let stats = stats.expect("at least one timed repetition ran");
        push(
            Entry::at(p, "propagate", "", 1)
                .timed(times, reps)
                .matching(prop_grid == oracle_grid)
                .count("iterations", stats.iterations as u64)
                .count("reduction_passes", stats.reduction_passes as u64),
        );
    });
    // Lock-step machine comparison: the pipeline and the propagation kernel
    // on identical inputs, exact rounds for both.
    sweep::drive(LOCKSTEP_FAMILIES, &[ls_side], quick, |p| {
        let opts = CcOptions {
            connectivity: p.conn,
            ..CcOptions::default()
        };
        let (cc_run, cc_report) = label_components_lockstep::<RankHalvingUf>(p.img, &opts, 1);
        let (prop_grid, prop_report) = propagate_components_lockstep(p.img, p.conn, 1);
        push(
            Entry::at(p, "lockstep", "", 1)
                .matching(cc_run.labels == prop_grid)
                .count(LOCKSTEP[0], cc_report.total_rounds)
                .count(LOCKSTEP[1], prop_report.rounds)
                .count(LOCKSTEP[2], prop_report.ticks)
                .count(LOCKSTEP[3], prop_report.iterations),
        );
    });
    let all_sides: Vec<usize> = std::iter::once(ls_side)
        .chain(sides.iter().copied())
        .collect();
    Report::new("propagate", quick, FAMILIES, &all_sides, entries)
}

/// The propagate criteria: bit-identity and `iterations ≥ 1` on every
/// propagate entry; ≥ 3 families × ≥ 3 sizes of oracle + propagate points
/// per connectivity, including every adversarial family; lock-step entries
/// at both connectivities with matching labels and `ticks ≥ rounds ≥
/// iterations ≥ 1`; and at full scale propagate ≥ 2× the oracle on
/// `random50` @ 2048² at both connectivities.
pub fn spec() -> Spec {
    let (oracle, prop, lockstep) = (
        Sel("oracle-bfs", ""),
        Sel("propagate", ""),
        Sel("lockstep", ""),
    );
    let at_least = |lhs, rhs, why| Bound {
        sel: lockstep,
        lhs,
        op: Op::Ge,
        rhs,
        why,
    };
    Spec {
        need: vec![
            (oracle, TIMED),
            (prop, TIMED),
            (prop, &["iterations", "reduction_passes"]),
            (lockstep, LOCKSTEP),
        ],
        reference: vec![prop, lockstep],
        bounds: vec![
            Bound {
                sel: prop,
                lhs: &["iterations"],
                op: Op::Ge,
                rhs: Rhs::Const(1),
                why: "propagate iterations must be at least 1",
            },
            at_least(
                &["pipeline_rounds"],
                Rhs::Const(1),
                "lock-step pipeline ran",
            ),
            at_least(
                &["propagate_iterations"],
                Rhs::Const(1),
                "lock-step propagation ran",
            ),
            at_least(
                &["propagate_rounds"],
                Rhs::Of("propagate_iterations"),
                "rounds ≥ iterations",
            ),
            at_least(
                &["propagate_ticks"],
                Rhs::Of("propagate_rounds"),
                "ticks ≥ rounds",
            ),
        ],
        cover: vec![
            Cover {
                pairs: vec![oracle, prop],
                min_families: 3,
                min_sides: 3,
                families: ADVERSARIAL_FAMILIES,
            },
            Cover {
                pairs: vec![lockstep],
                min_families: 1,
                min_sides: 1,
                families: &[],
            },
        ],
        ratios: vec![Ratio::new(oracle, prop).gated(Gate::headline(
            "propagate headline",
            Cmp::AtLeast(2.0),
            &[4, 8],
        ))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::table::{rejects_wrong_schema, roundtrips};

    const FIXTURE_FAMILIES: &[&str] = &["random50", "spiral", "serpentine", "hilbert"];

    fn fixture() -> Report {
        let mut entries = Vec::new();
        for family in FIXTURE_FAMILIES {
            for n in [512usize, 1024, 2048] {
                for conn in [4u32, 8] {
                    let at = |engine| Entry::new(family, n, conn, engine, "", 1);
                    entries.push(at("oracle-bfs").timed((9000, 9500), 3));
                    // 3× the oracle
                    entries.push(
                        at("propagate")
                            .timed((3000, 3300), 3)
                            .matching(true)
                            .count("iterations", 4)
                            .count("reduction_passes", 2),
                    );
                }
            }
        }
        for conn in [4u32, 8] {
            entries.push(
                Entry::new("random50", 32, conn, "lockstep", "", 1)
                    .matching(true)
                    .count(LOCKSTEP[0], 400)
                    .count(LOCKSTEP[1], 2600)
                    .count(LOCKSTEP[2], 80_000)
                    .count(LOCKSTEP[3], 9),
            );
        }
        Report::new(
            "propagate",
            false,
            FIXTURE_FAMILIES,
            &[32, 512, 1024, 2048],
            entries,
        )
    }

    fn propagate_entries(r: &mut Report) -> impl Iterator<Item = &mut Entry> {
        r.entries.iter_mut().filter(|e| e.engine == "propagate")
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
            propagate_entries(r).for_each(|e| e.matches_reference = Some(false));
        } => Err("propagate): output does not match the reference");
        validation_requires_convergence_counters: false, |r| {
            propagate_entries(r).for_each(|e| e.counters.retain(|(k, _)| k != "iterations"));
        } => Err("missing counter \"iterations\"");
        validation_rejects_zero_iterations: false, |r| {
            propagate_entries(r).for_each(|e| e.counters[3].1 = 0);
        } => Err("propagate iterations must be at least 1");
        validation_requires_the_adversarial_families: false, |r| r.entries.retain(|e| e.family != "hilbert")
            => Err("family \"hilbert\" is not covered");
        validation_requires_lockstep_coverage_of_both_conns: false, |r| {
            r.entries.retain(|e| !(e.engine == "lockstep" && e.conn == 8));
        } => Err("coverage too thin at 8-connectivity: 0 families × 0 sizes carry [lockstep]");
        validation_rejects_disagreeing_lockstep_kernels: false, |r| {
            r.entries.iter_mut().find(|e| e.engine == "lockstep").unwrap().matches_reference = Some(false);
        } => Err("lockstep): output does not match the reference");
        validation_rejects_inconsistent_lockstep_counters: false, |r| {
            r.entries.iter_mut().find(|e| e.engine == "lockstep").unwrap().counters[2].1 = 100;
        } => Err("ticks ≥ rounds");
        full_validation_enforces_the_headline_speedup: true, |r| {
            // no speedup
            propagate_entries(r).for_each(|e| (e.counters[0].1, e.counters[1].1) = (9000, 9500));
        } => Err("need ≥ 2×");
        validation_rejects_thin_coverage: false, |r| {
            r.entries.retain(|e| e.family == "random50" || e.family == "spiral");
        } => Err("coverage too thin");
    }

    #[test]
    fn quick_sweep_smoke() {
        let text = run(true, &mut |_| {}).to_json();
        crate::record::check(&text, false).expect("fresh quick sweep validates");
    }
}
