//! Differential suite for the streaming engine: replaying any image
//! row-by-row must retire exactly the component set of the whole-frame
//! engines — same count, same paper labels, same per-component features —
//! for every generator family and both connectivities, while the frontier
//! stays bounded by the row width. The PBM row reader is exercised end to
//! end as well: a written P1/P4 stream fed through [`PbmRowReader`] must
//! yield the same retirements as the in-memory replay.

use slap_repro::cc::features::{component_features, streamed_features, Features};
use slap_repro::image::{
    bfs_labels_conn, fast_labels_conn, gen, label_stream, pbm, stream::BitmapRows, Bitmap,
    Connectivity,
};

/// Per-component `(label, features)` reference from a whole-frame labeling.
fn reference(img: &Bitmap, conn: Connectivity) -> Vec<(u32, Features)> {
    let fast = fast_labels_conn(img, conn);
    // The gold oracle must agree with the fast engine before it serves as
    // the streaming reference (the acceptance bar names both).
    assert_eq!(fast, bfs_labels_conn(img, conn));
    component_features(img, &fast, conn).per_component
}

#[test]
fn every_workload_family_streams_to_the_reference_features() {
    for name in gen::WORKLOADS {
        let img = gen::by_name(name, 48, 23).unwrap();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                streamed_features(&img, conn),
                reference(&img, conn),
                "workload {name} conn={conn:?}"
            );
        }
    }
}

#[test]
fn rectangular_and_word_boundary_shapes_stream_to_the_reference() {
    for (rows, cols) in [(1, 1), (1, 200), (200, 1), (37, 63), (17, 64), (9, 130)] {
        let img = gen::uniform_random(rows, cols, 0.5, (rows * cols) as u64);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                streamed_features(&img, conn),
                reference(&img, conn),
                "{rows}x{cols} conn={conn:?}"
            );
        }
    }
}

#[test]
fn retired_labels_are_the_paper_minimum_positions() {
    let img = gen::by_name("maze", 40, 7).unwrap();
    for conn in [Connectivity::Four, Connectivity::Eight] {
        let labels = fast_labels_conn(&img, conn);
        let run = label_stream(&mut BitmapRows::new(&img), conn).unwrap();
        let mut got: Vec<u64> = run.components.iter().map(|c| c.label(img.rows())).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = labels
            .component_stats()
            .iter()
            .map(|s| u64::from(s.label))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "conn={conn:?}");
    }
}

#[test]
fn run_dense_checker_exercises_the_word_and_merge_sweep() {
    // Regression for the 4-connectivity word-level `AND` adjacency sweep
    // (ported from the fast engine, replacing the per-run two-pointer join):
    // checker rows are the run-densest possible input — one run per other
    // column — so every AND-word shortcut and cursor advance is on the hot
    // path. 8-connectivity still takes the two-pointer join; both must agree
    // with the whole-frame reference, including at word-boundary widths.
    for side in [63usize, 64, 65, 96, 130] {
        let img = gen::by_name("checker", side, 0).unwrap();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                streamed_features(&img, conn),
                reference(&img, conn),
                "checker side={side} conn={conn:?}"
            );
        }
    }
    // Alternating checker phases between adjacent rows: the AND of facing
    // rows is empty (no unions) — maximal retirement churn per row.
    let mut img = Bitmap::new(40, 67);
    for r in 0..40 {
        for c in 0..67 {
            if (r + c) % 2 == 0 {
                img.set(r, c, true);
            }
        }
    }
    for conn in [Connectivity::Four, Connectivity::Eight] {
        assert_eq!(
            streamed_features(&img, conn),
            reference(&img, conn),
            "phase-alternating checker conn={conn:?}"
        );
    }
}

#[test]
fn frontier_memory_stays_bounded_by_cols_across_families() {
    // The O(cols + live components) contract, asserted over the families
    // with the most live components (checker: one component per other
    // column) and the most churn (random50).
    for name in ["checker", "random50", "hstripes", "full"] {
        let img = gen::by_name(name, 96, 3).unwrap();
        let cols = img.cols();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let run = label_stream(&mut BitmapRows::new(&img), conn).unwrap();
            assert!(
                run.stats.peak_frontier_runs <= cols / 2 + 1,
                "{name}: frontier {} for {cols} cols",
                run.stats.peak_frontier_runs
            );
            assert!(
                run.stats.peak_live_slots <= cols + 1,
                "{name}: {} nodes for {cols} cols (conn={conn:?})",
                run.stats.peak_live_slots
            );
        }
    }
}

#[test]
fn pbm_row_reader_streams_identically_to_in_memory_replay() {
    let img = gen::by_name("blobs", 33, 5).unwrap();
    for conn in [Connectivity::Four, Connectivity::Eight] {
        let mut want = label_stream(&mut BitmapRows::new(&img), conn)
            .unwrap()
            .components;
        want.sort_unstable();
        for raw in [false, true] {
            let mut buf = Vec::new();
            if raw {
                pbm::write_raw(&img, &mut buf).unwrap();
            } else {
                pbm::write_plain(&img, &mut buf).unwrap();
            }
            let mut reader = pbm::PbmRowReader::new(&buf[..]).unwrap();
            let mut got = label_stream(&mut reader, conn).unwrap().components;
            got.sort_unstable();
            assert_eq!(got, want, "raw={raw} conn={conn:?}");
        }
    }
}

#[test]
fn streaming_statistics_account_for_every_pixel() {
    let img = gen::by_name("random25", 50, 9).unwrap();
    let run = label_stream(&mut BitmapRows::new(&img), Connectivity::Four).unwrap();
    assert_eq!(run.stats.rows, img.rows() as u64);
    assert_eq!(run.stats.pixels, img.count_ones() as u64);
    assert_eq!(run.stats.retired, run.components.len() as u64);
    let total_area: u64 = run.components.iter().map(|c| c.area).sum();
    assert_eq!(total_area, img.count_ones() as u64);
}
