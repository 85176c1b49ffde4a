//! Engine-specific differential coverage for the strip-parallel engine —
//! the `parallel` registry kind, the tiled engine on a `threads × 1` grid:
//! seam-adversarial shapes at thread counts 1/2/4/8 under both
//! connectivities, word-boundary widths, and a cross-check of the seam pass
//! against `slap_cc::stitch::stitch_grid` on a 2 × 1 grid — an independent
//! implementation of the paper's stitch argument rotated to horizontal
//! seams.
//!
//! The family × connectivity × thread-count bit-identity matrix (and the
//! warm-session reuse checks) live in the registry-driven harness
//! `tests/engine_matrix.rs`; this file keeps only what is specific to the
//! seam machinery.

use slap_repro::cc::stitch::stitch_grid;
use slap_repro::cc::EngineKind;
use slap_repro::image::{bfs_labels_conn, fast_labels_conn, gen, Bitmap, Connectivity, LabelGrid};

const THREADS: &[usize] = &[1, 2, 4, 8];

/// Labels `img` through a fresh `parallel` session on `threads` workers.
fn parallel_labels_conn(img: &Bitmap, conn: Connectivity, threads: usize) -> LabelGrid {
    let mut session = EngineKind::Parallel.session(threads);
    let mut out = LabelGrid::new_background(1, 1);
    session.label_into(img, conn, &mut out);
    out
}

/// Asserts the parallel engine agrees exactly with both references on `img`
/// at every thread count.
fn check_parallel(img: &Bitmap, conn: Connectivity, what: &str) {
    let truth = bfs_labels_conn(img, conn);
    assert_eq!(
        fast_labels_conn(img, conn),
        truth,
        "fast vs oracle: {what} ({conn})"
    );
    for &t in THREADS {
        assert_eq!(
            parallel_labels_conn(img, conn, t),
            truth,
            "parallel@{t} vs oracle: {what} ({conn})"
        );
    }
}

#[test]
fn adversarial_shapes_agree_at_every_thread_count() {
    let shapes: &[(&str, Bitmap)] = &[
        ("full", gen::full(24, 24)),
        ("empty", Bitmap::new(24, 24)),
        ("comb", gen::double_comb(24, 24, 2)),
        ("tournament", gen::tournament(24, 48, 2)),
        ("vertical-line", {
            // One column crossing every strip seam.
            let mut bm = Bitmap::new(32, 8);
            for r in 0..32 {
                bm.set(r, 3, true);
            }
            bm
        }),
        ("seam-hugging-runs", {
            // Alternating rows: every strip boundary is a dense seam.
            let mut bm = Bitmap::new(16, 16);
            for r in 0..16 {
                for c in (r % 2..16).step_by(2) {
                    bm.set(r, c, true);
                }
            }
            bm
        }),
    ];
    for conn in [Connectivity::Four, Connectivity::Eight] {
        for (what, img) in shapes {
            check_parallel(img, conn, what);
        }
    }
}

#[test]
fn word_boundary_widths_agree_at_every_thread_count() {
    for cols in [63usize, 64, 65] {
        let img = gen::uniform_random(33, cols, 0.5, cols as u64);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            check_parallel(&img, conn, &format!("random {cols}w"));
        }
    }
}

/// Crops rows `lo..hi` of `img` into a standalone band bitmap.
fn band(img: &Bitmap, lo: usize, hi: usize) -> Bitmap {
    let mut out = Bitmap::new(hi - lo, img.cols());
    for r in lo..hi {
        for c in 0..img.cols() {
            if img.get(r, c) {
                out.set(r - lo, c, true);
            }
        }
    }
    out
}

#[test]
fn seam_logic_agrees_with_the_generalized_band_stitch() {
    // Independent cross-check of the seam pass: label the two halves of the
    // image separately, merge them with slap_cc's grid stitch as a 2 × 1
    // grid (which shares no code with the run-universe seam unions), and
    // compare against the parallel engine's two-strip output.
    for name in ["random50", "blobs", "maze", "spiral", "comb"] {
        let img = gen::by_name(name, 26, 3).unwrap();
        let split = img.rows() / 2;
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let top = fast_labels_conn(&band(&img, 0, split), conn);
            let bottom = fast_labels_conn(&band(&img, split, img.rows()), conn);
            let (stitched, _) = stitch_grid(&[vec![top], vec![bottom]], conn);
            assert_eq!(
                parallel_labels_conn(&img, conn, 2),
                stitched,
                "workload {name} ({conn})"
            );
        }
    }
}

#[test]
fn many_strips_stress_the_seam_loser_prepass() {
    // A component snaking through every strip chains seam unions across all
    // boundaries — the worst case for the flatten pre-pass that finalizes
    // seam losers before the per-strip parallel sweeps. High thread counts
    // on a short image maximize seams per row.
    let mut img = Bitmap::new(64, 9);
    for r in 0..64 {
        img.set(r, 4, true); // spine through every seam
        img.set(r, (r * 3) % 9, true); // satellite pixels joining per row
    }
    for conn in [Connectivity::Four, Connectivity::Eight] {
        for t in [2usize, 3, 7, 16, 64] {
            assert_eq!(
                parallel_labels_conn(&img, conn, t),
                bfs_labels_conn(&img, conn),
                "threads={t} ({conn})"
            );
        }
    }
}
