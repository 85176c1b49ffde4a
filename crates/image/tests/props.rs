//! Property tests for the image crate: geometric transform involutions,
//! column-view consistency, labeling invariants, and PBM robustness
//! (arbitrary bytes must parse to `Err`, never panic; well-formed images
//! must round-trip bit-exactly).

use proptest::prelude::*;
use slap_image::bitmap::for_each_adjacent_pair;
use slap_image::pbm::{FramedPbmReader, PbmRowReader};
use slap_image::stream::{BitmapRows, RowSource, STREAM_BAND_ROWS};
use slap_image::{
    bfs_labels, bfs_labels_conn, fast_labels_conn, gen, label_stream, morph, pbm,
    tiled_labels_conn, Bitmap, ComponentInfo, Connectivity, FastLabeler, LabelEngine, LabelGrid,
    OutOfCoreLabeler, TiledLabeler,
};

/// The retired two-pointer diagonal join, kept as the executable
/// specification of the word-level dilated-AND sweep that replaced it at
/// every 8-connectivity merge site (in-tile row merge, tile seams, the
/// out-of-core band merge, and the streaming sweep): for each run of
/// `cur`, every run of `prev` within horizontal reach `reach` (1 at
/// 8-connectivity, 0 at 4), in column order, with the `p = q - 1` backstep
/// so a prev run bridging two adjacent cur runs is revisited. Runs are
/// `(start, end)` inclusive and column-sorted.
fn two_pointer_pairs(cur: &[(u32, u32)], prev: &[(u32, u32)], reach: u32) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut p = 0usize;
    for (c, &(a, b)) in cur.iter().enumerate() {
        let aw = a.saturating_sub(reach);
        let bw = b + reach;
        while p < prev.len() && prev[p].1 < aw {
            p += 1;
        }
        let mut q = p;
        while q < prev.len() && prev[q].0 <= bw {
            pairs.push((c, q));
            q += 1;
        }
        if q > p {
            p = q - 1;
        }
    }
    pairs
}

/// Collects the (cur run, prev run) pairs the shared word-level kernel
/// enumerates for one row boundary of `bm`.
fn word_level_pairs(bm: &Bitmap, r: usize, conn: Connectivity) -> Vec<(usize, usize)> {
    let pack = |list: &[(u32, u32)]| -> Vec<u64> {
        list.iter()
            .map(|&(a, b)| (u64::from(a) << 32) | u64::from(b))
            .collect()
    };
    let (cur, prev) = (pack(&row_runs(bm, r)), pack(&row_runs(bm, r - 1)));
    let mut pairs = Vec::new();
    for_each_adjacent_pair(
        conn,
        bm.row_words(r),
        bm.row_words(r - 1),
        &cur,
        &prev,
        &mut Vec::new(),
        |c, q| pairs.push((c, q)),
    );
    pairs
}

fn row_runs(bm: &Bitmap, r: usize) -> Vec<(u32, u32)> {
    let mut runs = Vec::new();
    bm.for_each_row_run(r, |a, b| runs.push((a, b)));
    runs
}

fn arb_bitmap() -> impl Strategy<Value = Bitmap> {
    (1usize..40, 1usize..40, 0.0f64..1.0, 0u64..10_000)
        .prop_map(|(r, c, d, s)| gen::uniform_random(r, c, d, s))
}

/// Like [`arb_bitmap`] but with widths straddling the 64-bit word boundary,
/// the regime where the packed-word scanning has its edge cases.
fn arb_wide_bitmap() -> impl Strategy<Value = Bitmap> {
    (1usize..12, 56usize..136, 0.0f64..1.0, 0u64..10_000)
        .prop_map(|(r, c, d, s)| gen::uniform_random(r, c, d, s))
}

/// A label grid drawn from at most `palette` labels plus background, so
/// labels repeat in runs that are neither contiguous nor row intervals.
/// Labels come from a small pool that includes `0` and `u32::MAX - 1`.
fn arb_label_grid() -> impl Strategy<Value = LabelGrid> {
    (1usize..12, 1usize..136, 1usize..6, 0u64..10_000).prop_map(|(rows, cols, palette, seed)| {
        let pool = [0, u32::MAX - 1, 17, 4096, 3];
        let bm = gen::uniform_random(rows, cols, 0.6, seed);
        let mut g = LabelGrid::new_background(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if bm.get(r, c) {
                    g.set(
                        r,
                        c,
                        pool[(r * 7 + c * 3 + (c >> 2) + seed as usize) % palette],
                    );
                }
            }
        }
        g
    })
}

/// The per-pixel statistics fold, the specification of the run fold.
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

fn arb_conn() -> impl Strategy<Value = Connectivity> {
    prop::sample::select(vec![Connectivity::Four, Connectivity::Eight])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flip_and_transpose_are_involutions(bm in arb_bitmap()) {
        prop_assert_eq!(bm.flip_horizontal().flip_horizontal(), bm.clone());
        prop_assert_eq!(bm.transpose().transpose(), bm.clone());
        prop_assert_eq!(bm.invert().invert(), bm);
    }

    #[test]
    fn columns_view_agrees_with_bitmap(bm in arb_bitmap()) {
        let cols = bm.columns();
        for c in 0..bm.cols() {
            for r in 0..bm.rows() {
                prop_assert_eq!(cols.get(c, r), bm.get(r, c));
            }
        }
    }

    #[test]
    fn component_count_is_flip_invariant(bm in arb_bitmap()) {
        let a = bfs_labels(&bm).component_count();
        let b = bfs_labels(&bm.flip_horizontal()).component_count();
        let c = bfs_labels(&bm.transpose()).component_count();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
    }

    #[test]
    fn oracle_labels_are_min_column_major(bm in arb_bitmap()) {
        let labels = bfs_labels(&bm);
        // every component's label equals the min position over its pixels
        let mut seen_min: std::collections::HashMap<u32, u32> = Default::default();
        for c in 0..bm.cols() {
            for r in 0..bm.rows() {
                if bm.get(r, c) {
                    let l = labels.get(r, c);
                    let pos = bm.position(r, c);
                    seen_min.entry(l).or_insert(pos);
                }
            }
        }
        for (l, first_pos) in seen_min {
            prop_assert_eq!(l, first_pos);
        }
    }

    #[test]
    fn component_stats_fold_runs_like_pixels(g in arb_label_grid()) {
        let want = pixel_stats(&g);
        prop_assert_eq!(g.component_count(), want.len());
        prop_assert_eq!(g.component_stats(), want);
    }

    #[test]
    fn canonicalize_is_idempotent_and_partition_preserving(bm in arb_bitmap()) {
        let labels = bfs_labels(&bm);
        let canon = labels.canonicalize();
        prop_assert!(canon.same_partition(&labels));
        prop_assert_eq!(canon.canonicalize(), canon);
    }

    #[test]
    fn fast_engine_is_bit_identical_to_oracle(bm in arb_bitmap(), conn in arb_conn()) {
        prop_assert_eq!(fast_labels_conn(&bm, conn), bfs_labels_conn(&bm, conn));
    }

    #[test]
    fn fast_engine_handles_word_boundary_widths(bm in arb_wide_bitmap(), conn in arb_conn()) {
        prop_assert_eq!(fast_labels_conn(&bm, conn), bfs_labels_conn(&bm, conn));
    }

    #[test]
    fn reused_fast_labeler_matches_fresh_calls(
        a in arb_bitmap(),
        b in arb_wide_bitmap(),
        conn in arb_conn(),
    ) {
        // Scratch state left by one image must never leak into the next.
        let mut labeler = FastLabeler::new();
        let mut grid = LabelGrid::new_background(1, 1);
        labeler.label_into(&a, conn, &mut grid);
        prop_assert_eq!(&grid, &bfs_labels_conn(&a, conn));
        labeler.label_into(&b, conn, &mut grid);
        prop_assert_eq!(&grid, &bfs_labels_conn(&b, conn));
        labeler.label_into(&a, conn, &mut grid);
        prop_assert_eq!(&grid, &bfs_labels_conn(&a, conn));
        prop_assert_eq!(
            labeler.count_components(&a, conn),
            grid.component_count()
        );
    }

    // The `parallel` engine is the tiled engine on a `threads × 1` grid of
    // strips, one worker each; `tiled_engine_is_bit_identical_at_any_grid`
    // covers strip counts below 5, so this property takes the rest.
    #[test]
    fn parallel_engine_is_bit_identical_at_any_thread_count(
        bm in arb_bitmap(),
        conn in arb_conn(),
        threads in 5usize..9,
    ) {
        prop_assert_eq!(
            tiled_labels_conn(&bm, conn, threads, 1, threads),
            fast_labels_conn(&bm, conn)
        );
    }

    #[test]
    fn parallel_engine_handles_word_boundary_widths(
        bm in arb_wide_bitmap(),
        conn in arb_conn(),
        threads in 2usize..7,
    ) {
        prop_assert_eq!(
            tiled_labels_conn(&bm, conn, threads, 1, threads),
            bfs_labels_conn(&bm, conn)
        );
    }

    #[test]
    fn reused_parallel_labeler_matches_fresh_calls(
        a in arb_bitmap(),
        b in arb_wide_bitmap(),
        conn in arb_conn(),
        threads in 2usize..7,
    ) {
        // Strip scratch left by one image must never leak into the next.
        let mut labeler = TiledLabeler::new(threads, 1, threads);
        let mut grid = LabelGrid::new_background(1, 1);
        labeler.label_into(&a, conn, &mut grid);
        prop_assert_eq!(&grid, &bfs_labels_conn(&a, conn));
        labeler.label_into(&b, conn, &mut grid);
        prop_assert_eq!(&grid, &bfs_labels_conn(&b, conn));
        labeler.label_into(&a, conn, &mut grid);
        prop_assert_eq!(&grid, &bfs_labels_conn(&a, conn));
    }

    #[test]
    fn streamed_components_match_fast_labels(bm in arb_bitmap(), conn in arb_conn()) {
        // Replaying the rows one at a time must retire exactly the fast
        // engine's components: same count, same paper labels, same areas.
        let labels = fast_labels_conn(&bm, conn);
        let run = label_stream(&mut BitmapRows::new(&bm), conn).unwrap();
        let mut got: Vec<(u64, u64)> = run
            .components
            .iter()
            .map(|c| (c.label(bm.rows()), c.area))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = labels
            .component_stats()
            .iter()
            .map(|s| (u64::from(s.label), s.pixels as u64))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn streamed_components_handle_word_boundary_widths(
        bm in arb_wide_bitmap(),
        conn in arb_conn(),
    ) {
        let run = label_stream(&mut BitmapRows::new(&bm), conn).unwrap();
        prop_assert_eq!(
            run.components.len(),
            fast_labels_conn(&bm, conn).component_count()
        );
        prop_assert_eq!(run.stats.pixels, bm.count_ones() as u64);
        // The memory contract holds on arbitrary random streams too.
        prop_assert!(run.stats.peak_live_slots <= bm.cols() + 1);
        prop_assert!(run.stats.peak_frontier_runs <= bm.cols() / 2 + 1);
    }

    #[test]
    fn tiled_engine_is_bit_identical_at_any_grid(
        bm in arb_bitmap(),
        conn in arb_conn(),
        tiles_y in 1usize..5,
        tiles_x in 1usize..5,
        threads in 1usize..5,
    ) {
        prop_assert_eq!(
            tiled_labels_conn(&bm, conn, tiles_y, tiles_x, threads),
            fast_labels_conn(&bm, conn)
        );
    }

    #[test]
    fn out_of_core_retires_the_streamed_components(
        bm in arb_bitmap(),
        conn in arb_conn(),
        band_rows in 1usize..9,
        tiles_x in 1usize..4,
    ) {
        // Banded relabeling with carried seam state must retire the fast
        // engine's components (label, area, bounding box) at any band
        // shape, with records identical to the default streaming band's.
        let got = OutOfCoreLabeler::new(band_rows, tiles_x)
            .label_source(&mut BitmapRows::new(&bm), conn)
            .unwrap();
        let mut seen: Vec<(u64, u64, [u32; 4])> = got
            .components
            .iter()
            .map(|c| (c.label(bm.rows()), c.area, [c.min_row, c.max_row, c.min_col, c.max_col]))
            .collect();
        seen.sort_unstable();
        let mut fast: Vec<(u64, u64, [u32; 4])> = fast_labels_conn(&bm, conn)
            .component_stats()
            .iter()
            .map(|s| {
                let bbox = [s.min_row, s.max_row, s.min_col, s.max_col].map(|v| v as u32);
                (u64::from(s.label), s.pixels as u64, bbox)
            })
            .collect();
        fast.sort_unstable();
        prop_assert_eq!(seen, fast);
        let want = label_stream(&mut BitmapRows::new(&bm), conn).unwrap();
        let mut a = want.components;
        let mut b = got.components;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!(got.stats.peak_carried_runs <= bm.cols() / 2 + 1);
    }

    #[test]
    fn dilation_never_increases_component_count(bm in arb_bitmap(), conn in arb_conn()) {
        // Dilation only adds pixels adjacent (under `conn`) to existing
        // foreground, so components can merge or grow but never split and
        // never appear from nothing: labeling after dilating (same
        // adjacency for both) cannot see more components.
        let before = fast_labels_conn(&bm, conn).component_count();
        let after = fast_labels_conn(&morph::dilate(&bm, conn), conn).component_count();
        prop_assert!(
            after <= before,
            "dilation raised the component count {} -> {}",
            before,
            after
        );
    }

    #[test]
    fn ported_diagonal_kernel_equals_the_two_pointer_join(bm in arb_wide_bitmap()) {
        // The word-level sweep drives every row-to-row merge — the stream
        // engine, the out-of-core and tile band seams, the propagation edge
        // list — so at both connectivities it must enumerate exactly the
        // pair sequence of the two-pointer join it retired, on every row
        // boundary of an arbitrary bitmap.
        for (conn, reach) in [(Connectivity::Four, 0), (Connectivity::Eight, 1)] {
            for r in 1..bm.rows() {
                prop_assert_eq!(
                    word_level_pairs(&bm, r, conn),
                    two_pointer_pairs(&row_runs(&bm, r), &row_runs(&bm, r - 1), reach),
                    "row boundary {}..{} at {:?}", r - 1, r, conn
                );
            }
        }
    }

    #[test]
    fn in_strip_eight_merge_is_bit_identical_on_arbitrary_bitmaps(bm in arb_wide_bitmap()) {
        // End-to-end form of the kernel equivalence for the fast engine's
        // in-strip merge: 8-connectivity labels through the ported kernel
        // must still be the oracle's, bit for bit.
        prop_assert_eq!(
            fast_labels_conn(&bm, Connectivity::Eight),
            bfs_labels_conn(&bm, Connectivity::Eight)
        );
    }

    #[test]
    fn stream_merge_sweep_is_bit_identical_on_arbitrary_bitmaps(bm in arb_wide_bitmap()) {
        // Same end-to-end check for the streaming labeler's merge sweep: its
        // records carry the oracle's labels, areas and bounding boxes.
        let run = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1)
            .label_source(&mut BitmapRows::new(&bm), Connectivity::Eight)
            .unwrap();
        let mut got: Vec<(u64, u64, [u32; 4])> = run
            .components
            .iter()
            .map(|c| (c.label(bm.rows()), c.area, [c.min_row, c.max_row, c.min_col, c.max_col]))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64, [u32; 4])> = bfs_labels_conn(&bm, Connectivity::Eight)
            .component_stats()
            .iter()
            .map(|s| {
                let bbox = [s.min_row, s.max_row, s.min_col, s.max_col].map(|v| v as u32);
                (u64::from(s.label), s.pixels as u64, bbox)
            })
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn word_run_scan_agrees_with_pixel_probes(bm in arb_wide_bitmap()) {
        for r in 0..bm.rows() {
            let mut runs: Vec<(u32, u32)> = Vec::new();
            bm.for_each_row_run(r, |a, b| runs.push((a, b)));
            prop_assert_eq!(runs.len(), bm.count_row_runs(r));
            // reconstruct the row from its runs
            let mut row = vec![false; bm.cols()];
            for (a, b) in runs {
                for cell in &mut row[a as usize..=b as usize] {
                    prop_assert!(!*cell, "overlapping runs");
                    *cell = true;
                }
            }
            for (c, &set) in row.iter().enumerate() {
                prop_assert_eq!(set, bm.get(r, c));
            }
        }
    }

    #[test]
    fn pbm_plain_roundtrip(bm in arb_bitmap()) {
        let mut buf = Vec::new();
        pbm::write_plain(&bm, &mut buf).unwrap();
        prop_assert_eq!(pbm::read(&buf[..]).unwrap(), bm);
    }

    #[test]
    fn pbm_raw_roundtrip(bm in arb_bitmap()) {
        let mut buf = Vec::new();
        pbm::write_raw(&bm, &mut buf).unwrap();
        prop_assert_eq!(pbm::read(&buf[..]).unwrap(), bm);
    }

    #[test]
    fn pbm_reader_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = pbm::read(&bytes[..]); // Err is fine; panic is not
    }

    #[test]
    fn pbm_row_reader_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // The incremental reader must reject byte soup with a typed error at
        // header time, or — if the soup happens to spell a valid header —
        // fail row-by-row without ever panicking or spinning.
        if let Ok(mut rd) = PbmRowReader::new(&bytes[..]) {
            let mut words = Vec::new();
            for _ in 0..=rd.rows() {
                match rd.next_row(&mut words) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn framed_reader_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Same contract for the framed stream: every frame either yields a
        // drainable row reader or a typed error, never a panic, and the
        // stream always terminates.
        let mut frames = FramedPbmReader::new(&bytes[..]);
        for _ in 0..16 {
            match frames.next_frame() {
                Ok(Some(mut frame)) => {
                    let mut words = Vec::new();
                    while matches!(frame.next_row(&mut words), Ok(true)) {}
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn framed_reader_never_panics_on_lying_prefixes(
        lie in 0u64..1_000_000,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A syntactically valid length prefix that disagrees with the bytes
        // that follow (short body, or a lie about a well-formed frame) must
        // surface as Err, not a panic or a bogus frame.
        let mut buf = format!("{lie}\n").into_bytes();
        buf.extend(&body);
        let mut frames = FramedPbmReader::new(&buf[..]);
        if let Ok(Some(mut frame)) = frames.next_frame() {
            let mut words = Vec::new();
            while matches!(frame.next_row(&mut words), Ok(true)) {}
        }
    }

    #[test]
    fn pbm_reader_never_panics_on_near_valid(
        magic in prop::sample::select(vec!["P1", "P4", "P2"]),
        w in 0usize..40,
        h in 0usize..40,
        body in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut buf = format!("{magic}\n{w} {h}\n").into_bytes();
        buf.extend(body);
        let _ = pbm::read(&buf[..]);
    }

    #[test]
    fn generators_stay_in_bounds(
        name in prop::sample::select(gen::WORKLOADS.to_vec()),
        n in 4usize..40,
        seed in 0u64..100,
    ) {
        let bm = gen::by_name(name, n, seed).unwrap();
        prop_assert_eq!(bm.rows(), n);
        prop_assert_eq!(bm.cols(), n);
        // label grid construction must accept every generator output
        let labels = bfs_labels(&bm);
        prop_assert!(labels.component_count() <= bm.count_ones());
    }
}

#[test]
fn background_sentinel_is_not_a_valid_label() {
    // the sentinel must be outside the position space asserted at
    // construction (rows * cols < u32::MAX)
    let g = LabelGrid::new_background(10, 10);
    assert_eq!(g.get(0, 0), LabelGrid::BACKGROUND);
    assert!(u64::from(LabelGrid::BACKGROUND) > 100);
}
