//! The unified engine differential harness: **every registered engine ×
//! every workload family × both connectivities** must label bit-identically
//! to the BFS gold oracle — component minima, not merely the same partition.
//!
//! This is the collapsed successor of the per-engine family sweeps that used
//! to live in `fast_engine.rs` / `parallel_engine.rs` / `stream_engine.rs`:
//! adding an engine to `slap_cc::engine::registry()` adds it to this matrix
//! with no test changes. Sessions are deliberately *reused* across the whole
//! matrix (families, sizes, connectivities, all interleaved), so the harness
//! simultaneously proves the no-state-leak contract of warm sessions.

use slap_repro::cc::engine::{registry, EngineKind, LabelEngine};
use slap_repro::image::pbm::{PbmError, PbmRowReader};
use slap_repro::image::{gen, BfsOracle, Bitmap, ComponentInfo, Connectivity, LabelGrid};
use slap_repro::serve::WireError;

/// Thread counts exercised for multithreaded engines (sequential engines run
/// once, at their implicit 1).
const THREADS: &[usize] = &[1, 2, 4, 8];

/// The per-pixel statistics fold, the specification of
/// `LabelGrid::component_stats`' run fold.
fn pixel_stats(g: &LabelGrid) -> Vec<ComponentInfo> {
    let mut map = std::collections::BTreeMap::<u32, ComponentInfo>::new();
    for r in 0..g.rows() {
        for c in 0..g.cols() {
            let label = g.get(r, c);
            if label == LabelGrid::BACKGROUND {
                continue;
            }
            let e = map.entry(label).or_insert(ComponentInfo {
                label,
                pixels: 0,
                min_row: r,
                max_row: r,
                min_col: c,
                max_col: c,
            });
            e.pixels += 1;
            e.min_row = e.min_row.min(r);
            e.max_row = e.max_row.max(r);
            e.min_col = e.min_col.min(c);
            e.max_col = e.max_col.max(c);
        }
    }
    map.into_values().collect()
}

/// Drives `session` over every family × connectivity at `side`, asserting
/// bit-identity against the oracle, the statistics' self-consistency, and
/// the component statistics against the per-pixel fold: the records the
/// grid carries from `fast`, `parallel` and `tiled`, the walk over the
/// labels for `bfs` and `propagate`.
fn drive_matrix(session: &mut dyn LabelEngine, side: usize, what: &str) {
    let mut oracle = BfsOracle::new();
    let mut truth = LabelGrid::new_background(1, 1);
    let mut grid = LabelGrid::new_background(1, 1);
    for name in gen::WORKLOADS {
        let img = gen::by_name(name, side, 23).unwrap();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let want = oracle.label_into(&img, conn, &mut truth).components;
            let stats = session.label_into(&img, conn, &mut grid);
            assert_eq!(grid, truth, "{what}: workload {name} conn={conn:?}");
            assert_eq!(
                stats.components, want,
                "{what}: component count on {name} conn={conn:?}"
            );
            assert_eq!(
                grid.component_stats(),
                pixel_stats(&grid),
                "{what}: component stats on {name} conn={conn:?}"
            );
            assert_eq!(grid.component_count(), want, "{what}: {name} conn={conn:?}");
        }
    }
}

#[test]
fn every_registered_engine_is_bit_identical_on_every_family() {
    for info in registry() {
        let threads: &[usize] = if info.multithreaded { THREADS } else { &[1] };
        for &t in threads {
            let mut session = info.kind.session(t);
            drive_matrix(session.as_mut(), 41, &format!("{}@{t}", info.kind));
        }
    }
}

#[test]
fn every_registered_engine_handles_rectangular_and_word_boundary_shapes() {
    let shapes: Vec<Bitmap> = [
        (1usize, 1usize),
        (1, 200),
        (200, 1),
        (37, 63),
        (17, 64),
        (9, 130),
    ]
    .iter()
    .map(|&(r, c)| gen::uniform_random(r, c, 0.5, (r * c) as u64))
    .collect();
    let mut oracle = BfsOracle::new();
    let mut truth = LabelGrid::new_background(1, 1);
    let mut grid = LabelGrid::new_background(1, 1);
    for info in registry() {
        let mut session = info.kind.session(4);
        for img in &shapes {
            for conn in [Connectivity::Four, Connectivity::Eight] {
                oracle.label_into(img, conn, &mut truth);
                session.label_into(img, conn, &mut grid);
                assert_eq!(
                    grid,
                    truth,
                    "{}: {}x{} conn={conn:?}",
                    info.kind,
                    img.rows(),
                    img.cols()
                );
            }
        }
    }
}

#[test]
fn engines_agree_pairwise_not_just_with_the_oracle() {
    // Transitivity already implies this, but a direct cross-engine sweep
    // keeps the harness meaningful if the oracle reference above ever
    // changes: all registry outputs must be one grid.
    let img = gen::by_name("maze", 53, 3).unwrap();
    for conn in [Connectivity::Four, Connectivity::Eight] {
        let grids: Vec<(EngineKind, LabelGrid)> = registry()
            .iter()
            .map(|info| {
                let mut session = info.kind.session(3);
                let mut grid = LabelGrid::new_background(1, 1);
                session.label_into(&img, conn, &mut grid);
                (info.kind, grid)
            })
            .collect();
        for pair in grids.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "{} vs {} conn={conn:?}",
                pair[0].0, pair[1].0
            );
        }
    }
}

#[test]
fn tiled_engine_is_bit_identical_across_tile_shapes() {
    // The registry carries one canonical tiled shape (2×2); the acceptance
    // sweep covers degenerate single-axis grids and a deeper hierarchy too,
    // each shape driven over the full family × connectivity matrix.
    for (tiles_y, tiles_x) in [(1, 2), (2, 1), (2, 2), (4, 4)] {
        let kind = EngineKind::Tiled { tiles_x, tiles_y };
        for &t in &[1usize, 4] {
            let mut session = kind.session(t);
            drive_matrix(
                session.as_mut(),
                41,
                &format!("tiled {tiles_y}x{tiles_x}@{t}"),
            );
        }
    }
}

#[test]
fn poisoned_inputs_are_rejected_before_any_engine_runs() {
    // The matrix above only ever sees images the reader gate admitted. This
    // is the other half of that contract: poisoned headers — zero-width,
    // zero-height, dimensions whose product overflows, non-numeric tokens —
    // must die at `PbmRowReader::new` with a *typed* error, so no registered
    // engine (and no `slapd` worker) can ever be handed an unrepresentable
    // raster. Each row also pins the wire code the service answers with.
    let poisoned: &[(&str, &[u8], WireError)] = &[
        ("zero width", b"P4\n0 5\n", WireError::BadFrame),
        ("zero height", b"P4\n5 0\n", WireError::BadFrame),
        ("zero both", b"P1\n0 0\n", WireError::BadFrame),
        (
            "absurd dims (rows*cols overflows usize)",
            b"P4\n9999999999 9999999999\n",
            WireError::Overflow,
        ),
        ("non-numeric width", b"P4\nwide 5\n", WireError::BadFrame),
        ("negative height", b"P1\n5 -5\n", WireError::BadFrame),
    ];
    for &(what, bytes, wire) in poisoned {
        let err = match PbmRowReader::new(bytes) {
            Err(e) => e,
            Ok(rd) => panic!(
                "{what}: reader admitted a {}x{} poisoned header",
                rd.rows(),
                rd.cols()
            ),
        };
        let pbm =
            PbmError::from_io(&err).unwrap_or_else(|| panic!("{what}: untyped io error {err}"));
        match pbm {
            PbmError::ZeroDim { .. }
            | PbmError::DimsOverflow { .. }
            | PbmError::BadDim { .. }
            | PbmError::TruncatedHeader => {}
            other => panic!("{what}: unexpected rejection {other}"),
        }
        assert_eq!(WireError::from_pbm(pbm), wire, "{what}: wire code");
    }
}

#[test]
fn registry_capabilities_match_observed_behavior() {
    let img = gen::by_name("random50", 40, 1).unwrap();
    for info in registry() {
        // Advertised connectivities all work (exercised above); here check
        // the thread capability claim is honest.
        let mut session = info.kind.session(5);
        let threads = if info.multithreaded { 5 } else { 1 };
        let mut grid = LabelGrid::new_background(1, 1);
        let stats = session.label_into(&img, Connectivity::Four, &mut grid);
        assert_eq!(stats.threads, threads, "{}", info.kind);
    }
}
