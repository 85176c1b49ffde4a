//! Session-reuse coverage for the engine layer: a **warm** session — one
//! that has already labeled arbitrary other frames — must behave exactly
//! like a fresh one (bit-identical output, no state leaks), and once its
//! arenas have reached their high-water marks, further calls must perform
//! **zero reallocations** (asserted through the `scratch_bytes` capacity
//! watermark: a `Vec` can only grow its capacity by reallocating, so a
//! stable watermark over a repeated frame set proves no arena regrows;
//! `tests/alloc_count.rs` counts the allocations themselves). The
//! streaming labeler, which emits records instead of a grid, is held to the
//! same reuse contract on its records.

use proptest::prelude::*;
use slap_repro::cc::engine::{registry, EngineKind, LabelEngine};
use slap_repro::image::{
    bfs_labels_conn, gen, stream::BitmapRows, Bitmap, Connectivity, FastLabeler, LabelGrid,
    OocStats, OutOfCoreLabeler, STREAM_BAND_ROWS,
};

fn arb_frame() -> impl Strategy<Value = Bitmap> {
    // Dims straddle the 64-bit word boundary; densities span run-sparse to
    // run-dense; all deterministic from the seed.
    (1usize..48, 1usize..132, 0.0f64..1.0, 0u64..10_000)
        .prop_map(|(r, c, d, s)| gen::uniform_random(r, c, d, s))
}

fn arb_conn() -> impl Strategy<Value = Connectivity> {
    prop::sample::select(vec![Connectivity::Four, Connectivity::Eight])
}

/// Labels `img` with a warm `session`, built as `kind.session(threads)`,
/// and asserts its grid and stats equal a fresh session's, and its grid the
/// oracle's.
fn check_warm_equals_fresh(
    kind: EngineKind,
    threads: usize,
    session: &mut dyn LabelEngine,
    img: &Bitmap,
    conn: Connectivity,
) {
    let mut warm_grid = LabelGrid::new_background(1, 1);
    let warm_stats = session.label_into(img, conn, &mut warm_grid);
    let mut fresh_grid = LabelGrid::new_background(1, 1);
    let fresh_stats = kind.session(threads).label_into(img, conn, &mut fresh_grid);
    assert_eq!(warm_grid, fresh_grid, "warm vs fresh ({kind})");
    assert_eq!(warm_stats, fresh_stats, "warm vs fresh stats ({kind})");
    assert_eq!(
        warm_grid,
        bfs_labels_conn(img, conn),
        "warm vs oracle ({kind})"
    );
}

/// `(label, area, bbox)` of every component, sorted.
type Keys = Vec<(u64, u64, [u32; 4])>;

/// Streams `img` through a (possibly warm) band labeler: the sorted keys of
/// its records, and the run's stats.
fn streamed_keys(
    labeler: &mut OutOfCoreLabeler,
    img: &Bitmap,
    conn: Connectivity,
) -> (Keys, OocStats) {
    let run = labeler
        .label_source(&mut BitmapRows::new(img), conn)
        .unwrap();
    let mut keys: Keys = run
        .components
        .iter()
        .map(|c| {
            let bbox = [c.min_row, c.max_row, c.min_col, c.max_col];
            (c.label(img.rows()), c.area, bbox)
        })
        .collect();
    keys.sort_unstable();
    (keys, run.stats)
}

/// The same keys read off the BFS oracle's label grid.
fn oracle_keys(img: &Bitmap, conn: Connectivity) -> Keys {
    let mut keys: Keys = bfs_labels_conn(img, conn)
        .component_stats()
        .iter()
        .map(|s| {
            let bbox = [s.min_row, s.max_row, s.min_col, s.max_col].map(|v| v as u32);
            (u64::from(s.label), s.pixels as u64, bbox)
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Streams `img` through a warm `labeler` and asserts its records equal a
/// fresh labeler's and the oracle's.
fn check_warm_stream_equals_fresh(
    labeler: &mut OutOfCoreLabeler,
    img: &Bitmap,
    conn: Connectivity,
) {
    let (warm, _) = streamed_keys(labeler, img, conn);
    let (fresh, _) = streamed_keys(&mut OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1), img, conn);
    assert_eq!(warm, fresh, "warm vs fresh (stream)");
    assert_eq!(warm, oracle_keys(img, conn), "warm vs oracle (stream)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reuse property: a warm fast labeler's grid and stats, and a warm
    /// streaming labeler's records, equal a fresh one's after interleaving
    /// frames of different dims and families.
    #[test]
    fn warm_fast_and_stream_sessions_match_fresh_after_interleaved_frames(
        a in arb_frame(),
        b in arb_frame(),
        c in arb_frame(),
        conn in arb_conn(),
        family in prop::sample::select(gen::WORKLOADS.to_vec()),
        side in 4usize..40,
    ) {
        let named = gen::by_name(family, side, 5).unwrap();
        let kind = EngineKind::Fast;
        let mut session = kind.session(1);
        let mut grid = LabelGrid::new_background(1, 1);
        // Interleave frames of unrelated dims/densities, checking the warm
        // output against a fresh session at every step.
        session.label_into(&a, conn, &mut grid);
        check_warm_equals_fresh(kind, 1, session.as_mut(), &b, conn);
        session.label_into(&named, conn, &mut grid);
        check_warm_equals_fresh(kind, 1, session.as_mut(), &c, conn);
        // Re-labeling an earlier frame must reproduce it exactly.
        check_warm_equals_fresh(kind, 1, session.as_mut(), &a, conn);

        // The same interleaving through one warm streaming labeler.
        let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
        streamed_keys(&mut labeler, &a, conn);
        check_warm_stream_equals_fresh(&mut labeler, &b, conn);
        streamed_keys(&mut labeler, &named, conn);
        check_warm_stream_equals_fresh(&mut labeler, &c, conn);
        check_warm_stream_equals_fresh(&mut labeler, &a, conn);
    }

    /// Warm calls grow no arena: after a frame set has been seen
    /// (twice — double-buffered arenas need a pass per buffer half), its
    /// capacity watermark is final, so repeating the set reallocates nothing.
    #[test]
    fn warm_sessions_reallocate_nothing_on_seen_frame_sets(
        a in arb_frame(),
        b in arb_frame(),
        conn in arb_conn(),
    ) {
        for info in registry() {
            let mut session = info.kind.session(2);
            let mut grid = LabelGrid::new_background(1, 1);
            for _ in 0..2 {
                session.label_into(&a, conn, &mut grid);
                session.label_into(&b, conn, &mut grid);
            }
            let watermark = session.scratch_bytes();
            for _ in 0..3 {
                session.label_into(&a, conn, &mut grid);
                session.label_into(&b, conn, &mut grid);
            }
            prop_assert_eq!(
                session.scratch_bytes(),
                watermark,
                "{}: warm repeat grew an arena",
                info.kind
            );
        }
    }
}

#[test]
fn watermarks_are_monotone_and_engine_owned() {
    // Deterministic companion to the property: watermarks only ever grow,
    // grow when a strictly larger frame arrives, and never grow on repeats.
    let small = gen::uniform_random(16, 16, 0.5, 1);
    let large = gen::uniform_random(128, 128, 0.5, 2);
    for info in registry() {
        let mut session = info.kind.session(2);
        let mut grid = LabelGrid::new_background(1, 1);
        session.label_into(&small, Connectivity::Four, &mut grid);
        let after_small = session.scratch_bytes();
        assert!(after_small > 0, "{}", info.kind);
        session.label_into(&large, Connectivity::Four, &mut grid);
        let after_large = session.scratch_bytes();
        assert!(
            after_large > after_small,
            "{}: a 64x larger frame must grow the arenas",
            info.kind
        );
        session.label_into(&small, Connectivity::Four, &mut grid);
        assert_eq!(
            session.scratch_bytes(),
            after_large,
            "{}: shrinking back must keep (not shrink or grow) the arenas",
            info.kind
        );
    }
}

#[test]
fn warm_fast_session_relabels_allocation_free_with_block_classification() {
    // The coarse-to-fine pass added per-row run-start mask buffers to the
    // fast engine's scratch; they must obey the same watermark contract as
    // every other arena. Interleave dims, families, connectivities — the
    // classes of frames that stress different tile mixes (all-background,
    // all-interior, all-boundary, ragged tail words) — then assert the warm
    // watermark is final while the tile counters keep reporting per-call.
    let frames: Vec<Bitmap> = [
        ("empty", 96usize, 96usize),
        ("full", 96, 96),
        ("random50", 96, 65),
        ("blobs", 64, 127),
        ("checker", 40, 128),
        ("maze", 96, 63),
    ]
    .iter()
    .map(|&(name, rows, cols)| gen::by_name_dims(name, rows, cols, 13).unwrap())
    .collect();
    let mut session = FastLabeler::new();
    let mut grid = LabelGrid::new_background(1, 1);
    for _ in 0..2 {
        for (i, img) in frames.iter().enumerate() {
            let conn = if i % 2 == 0 {
                Connectivity::Four
            } else {
                Connectivity::Eight
            };
            session.label_into(img, conn, &mut grid);
        }
    }
    let watermark = session.scratch_bytes();
    for _ in 0..3 {
        for (i, img) in frames.iter().enumerate() {
            let conn = if i % 2 == 0 {
                Connectivity::Four
            } else {
                Connectivity::Eight
            };
            let stats = session.label_into(img, conn, &mut grid);
            assert_eq!(grid, bfs_labels_conn(img, conn));
            assert_eq!(
                stats.tiles.total(),
                (img.words_per_row() * img.rows()) as u64,
                "tile counters must stay call-local on a warm session"
            );
            assert_eq!(
                session.scratch_bytes(),
                watermark,
                "warm relabel with block classification grew an arena"
            );
        }
    }
}

#[test]
fn stream_session_grid_path_matches_pure_streaming_retirements() {
    // A warm streaming labeler retires, frame after frame, exactly the
    // components of the oracle's grid, within the frontier bound.
    let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
    for (i, name) in gen::WORKLOADS.iter().enumerate() {
        let img = gen::by_name(name, 24 + (i % 5) * 7, i as u64).unwrap();
        let (keys, stats) = streamed_keys(&mut labeler, &img, Connectivity::Four);
        assert_eq!(
            keys,
            oracle_keys(&img, Connectivity::Four),
            "workload {name}"
        );
        assert_eq!(stats.retired as usize, keys.len(), "workload {name}");
        assert!(stats.peak_frontier_runs <= img.cols() / 2 + 1, "{name}");
        assert!(stats.peak_live_slots <= img.cols() + 1, "{name}");
    }
}
