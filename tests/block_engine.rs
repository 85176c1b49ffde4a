//! Differential battery for the coarse-to-fine block engine: the word ×
//! 2-row tile classification pass in `slap_image::fast` must never change
//! *what* is computed — only how much work computing it costs. Every
//! generator family × both connectivities × widths that straddle the 64-bit
//! word boundary is labeled through the block-classified engines and
//! compared bit-for-bit against the BFS gold oracle, and every call's
//! [`TileStats`] must satisfy the classification-counter invariant:
//! `background + interior + boundary` equals the exact number of word-tiles
//! the engine's decomposition scans — each tile classified exactly once,
//! none skipped, none double-counted.

use slap_repro::cc::engine::{registry, EngineKind, EngineStats};
use slap_repro::image::{bfs_labels_conn, gen, Bitmap, Connectivity, LabelGrid, TileStats};

/// Widths chosen to straddle the packed-word boundary: one under, at, and
/// over a single word, and the same around two words.
const WIDTHS: &[usize] = &[63, 64, 65, 127, 128];

/// Whether `kind` labels through the run-based coarse-to-fine scan (and so
/// must report a full tile classification); the pixel-probing oracle and
/// the whole-row iterative propagation engine scan no tiles and must report
/// zero.
fn classifies_tiles(kind: EngineKind) -> bool {
    !matches!(kind, EngineKind::Bfs | EngineKind::Propagate)
}

/// Exact word-tile count `kind`'s decomposition scans for `img`. Row splits
/// (sequential, strip-parallel, tiled bands) partition the rows, so they
/// never change the total; *column* splits re-scan a word shared by two
/// windows whenever a tile boundary is not word-aligned, so the tiled
/// engine's expectation counts each window's words explicitly.
fn expected_tiles(kind: EngineKind, img: &Bitmap) -> u64 {
    let tx = match kind {
        EngineKind::Tiled { tiles_x, tiles_y } if tiles_x.min(img.cols()) * tiles_y > 1 => {
            tiles_x.min(img.cols())
        }
        _ => 1,
    };
    let cols = img.cols();
    let words_per_row: usize = (0..tx)
        .map(|j| {
            let lo = j * cols / tx;
            let hi = (j + 1) * cols / tx;
            (hi - 1) / 64 + 1 - lo / 64
        })
        .sum();
    (words_per_row * img.rows()) as u64
}

/// Asserts the classification-counter invariant for one call's stats.
fn check_tile_invariant(stats: &EngineStats, kind: EngineKind, img: &Bitmap, what: &str) {
    let expect = expected_tiles(kind, img);
    let t = stats.tiles;
    assert_eq!(
        t.total(),
        expect,
        "{what}: tiles bg={} int={} bd={} must cover {expect} word-tiles",
        t.background,
        t.interior,
        t.boundary
    );
}

#[test]
fn block_classified_engines_match_the_oracle_across_the_width_matrix() {
    for info in registry() {
        let mut session = info.kind.session(3);
        let mut grid = LabelGrid::new_background(1, 1);
        for name in gen::WORKLOADS {
            for &cols in WIDTHS {
                let img = gen::by_name_dims(name, 40, cols, 29).unwrap();
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    let what = format!("{} on {name} 40x{cols} {conn:?}", info.kind);
                    let stats = session.label_into(&img, conn, &mut grid);
                    assert_eq!(grid, bfs_labels_conn(&img, conn), "{what}");
                    if classifies_tiles(info.kind) {
                        check_tile_invariant(&stats, info.kind, &img, &what);
                    } else {
                        assert_eq!(stats.tiles, TileStats::default(), "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn tile_classes_reflect_frame_structure_not_just_totals() {
    // The coarse pass must actually *find* the coarse structure: an empty
    // frame is all background, a solid frame is interior except the first
    // word-row (paired with the implicit empty row above), and dense random
    // noise is all boundary.
    let mut session = EngineKind::Fast.session(1);
    let mut grid = LabelGrid::new_background(1, 1);

    let empty = gen::by_name("empty", 128, 0).unwrap();
    let stats = session.label_into(&empty, Connectivity::Four, &mut grid);
    assert_eq!(stats.tiles.background, stats.tiles.total());

    let full = gen::by_name("full", 128, 0).unwrap();
    let stats = session.label_into(&full, Connectivity::Four, &mut grid);
    assert_eq!(stats.tiles.background, 0);
    assert_eq!(stats.tiles.boundary, full.words_per_row() as u64);
    assert_eq!(
        stats.tiles.interior,
        (full.words_per_row() * (full.rows() - 1)) as u64
    );

    let noise = gen::by_name("random50", 128, 7).unwrap();
    let stats = session.label_into(&noise, Connectivity::Four, &mut grid);
    assert_eq!(stats.tiles.boundary, stats.tiles.total());

    // A frame mixing all three classes — the realistic win case: a large
    // solid region (interior words), empty margins (background words), and
    // a noisy band (boundary words).
    let mut mixed = Bitmap::new(192, 256);
    for r in 16..112 {
        for c in 8..200 {
            mixed.set(r, c, true);
        }
    }
    let noise = gen::uniform_random(32, 256, 0.5, 5);
    for r in 0..32 {
        for c in 0..256 {
            if noise.get(r, c) {
                mixed.set(144 + r, c, true);
            }
        }
    }
    let stats = session.label_into(&mixed, Connectivity::Eight, &mut grid);
    assert_eq!(grid, bfs_labels_conn(&mixed, Connectivity::Eight));
    assert!(stats.tiles.background > 0, "{:?}", stats.tiles);
    assert!(stats.tiles.interior > 0, "{:?}", stats.tiles);
    assert!(stats.tiles.boundary > 0, "{:?}", stats.tiles);
}

#[test]
fn decomposed_engines_classify_every_window_tile_exactly_once() {
    // Strips and tiles split the frame, but each worker still classifies its
    // own window completely: the summed counters must cover the
    // decomposition's word-tiles exactly — including the words a non-aligned
    // tile boundary makes two column-windows share.
    let img = gen::by_name("blobs", 96, 11).unwrap();
    let mut grid = LabelGrid::new_background(1, 1);
    for kind in [
        EngineKind::Parallel,
        EngineKind::Tiled {
            tiles_x: 2,
            tiles_y: 2,
        },
        EngineKind::Tiled {
            tiles_x: 3,
            tiles_y: 1,
        },
    ] {
        for threads in [1usize, 2, 4] {
            let mut session = kind.session(threads);
            let stats = session.label_into(&img, Connectivity::Four, &mut grid);
            assert_eq!(grid, bfs_labels_conn(&img, Connectivity::Four));
            check_tile_invariant(&stats, kind, &img, &format!("{kind}@{threads}"));
        }
    }
}

#[test]
fn warm_sessions_keep_counters_call_local() {
    // Counters must describe the *last* call only — no accumulation across
    // a warm session's lifetime, no residue from a larger earlier frame.
    let mut session = EngineKind::Fast.session(1);
    let mut grid = LabelGrid::new_background(1, 1);
    let big = gen::by_name("full", 192, 0).unwrap();
    session.label_into(&big, Connectivity::Four, &mut grid);
    let small = gen::by_name("empty", 64, 0).unwrap();
    let stats = session.label_into(&small, Connectivity::Four, &mut grid);
    assert_eq!(stats.tiles.background, 64);
    assert_eq!(stats.tiles.total(), 64);
}
