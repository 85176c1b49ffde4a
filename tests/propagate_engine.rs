//! Acceptance coverage specific to the label-equivalence propagation engine:
//! the convergence-speed property (iterations are bounded by component
//! geometry, not path length), counter hygiene on warm sessions, and the
//! allocation-free steady state of its run/edge/label arenas.
//!
//! Bit-identity across families, connectivities, and word-boundary shapes is
//! covered by the registry-driven matrix in `engine_matrix.rs`; these tests
//! pin down what the matrix cannot see — *how* the engine converges.

use proptest::prelude::*;
use slap_repro::image::fast::PropagateLabeler;
use slap_repro::image::{bfs_labels_conn, gen, Bitmap, Connectivity, LabelEngine, LabelGrid};
use std::collections::VecDeque;

/// Per-component minimum column-major pixel and the BFS eccentricity of the
/// component as seen *from that pixel*, under `conn`. Returns the maximum
/// eccentricity over all components (0 for an empty frame).
fn max_eccentricity_from_min_pixels(img: &Bitmap, conn: Connectivity) -> usize {
    let (rows, cols) = (img.rows(), img.cols());
    let mut comp = vec![u32::MAX; rows * cols];
    let mut mins: Vec<(usize, usize)> = Vec::new();
    let neighbors = |r: usize, c: usize| {
        let mut out: Vec<(usize, usize)> = Vec::new();
        let eight = conn == Connectivity::Eight;
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if (dr == 0 && dc == 0) || (!eight && dr != 0 && dc != 0) {
                    continue;
                }
                let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                if nr >= 0 && nc >= 0 && (nr as usize) < rows && (nc as usize) < cols {
                    out.push((nr as usize, nc as usize));
                }
            }
        }
        out
    };
    // First sweep: flood-fill components in column-major order, so the BFS
    // seed of each component IS its minimum column-major pixel — the pixel
    // the engine's labels fold to.
    for c in 0..cols {
        for r in 0..rows {
            if !img.get(r, c) || comp[r * cols + c] != u32::MAX {
                continue;
            }
            let id = mins.len() as u32;
            mins.push((r, c));
            let mut queue = VecDeque::from([(r, c)]);
            comp[r * cols + c] = id;
            while let Some((qr, qc)) = queue.pop_front() {
                for (nr, nc) in neighbors(qr, qc) {
                    if img.get(nr, nc) && comp[nr * cols + nc] == u32::MAX {
                        comp[nr * cols + nc] = id;
                        queue.push_back((nr, nc));
                    }
                }
            }
        }
    }
    // Second sweep: BFS distance from each component's min pixel.
    let mut worst = 0usize;
    for &(r, c) in &mins {
        let mut dist = vec![usize::MAX; rows * cols];
        dist[r * cols + c] = 0;
        let mut queue = VecDeque::from([(r, c)]);
        while let Some((qr, qc)) = queue.pop_front() {
            let d = dist[qr * cols + qc];
            worst = worst.max(d);
            for (nr, nc) in neighbors(qr, qc) {
                if img.get(nr, nc) && dist[nr * cols + nc] == usize::MAX {
                    dist[nr * cols + nc] = d + 1;
                    queue.push_back((nr, nc));
                }
            }
        }
    }
    worst
}

/// Labels `img` with a fresh propagate labeler, asserting bit-identity, and
/// returns the observed convergence counters.
fn run_propagate(img: &Bitmap, conn: Connectivity) -> (usize, usize) {
    let mut session = PropagateLabeler::new();
    let mut grid = LabelGrid::new_background(1, 1);
    let stats = session.label_into(img, conn, &mut grid);
    assert_eq!(grid, bfs_labels_conn(img, conn));
    (stats.iterations, stats.reduction_passes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The convergence property that makes the engine viable on adversarial
    /// inputs: one forward+backward relaxation sweep plus a label reduction
    /// moves the component minimum at least one run-graph hop outward, so
    /// observed iterations never exceed the pixel-BFS eccentricity from each
    /// component's minimum pixel (a run-graph-distance upper bound), plus
    /// one no-change sweep to prove convergence, plus one of slack.
    #[test]
    fn iterations_are_bounded_by_component_eccentricity(
        rows in 1usize..40,
        cols in 1usize..80,
        density in 0.0f64..1.0,
        seed in 0u64..10_000,
        conn in prop::sample::select(vec![Connectivity::Four, Connectivity::Eight]),
    ) {
        let img = gen::uniform_random(rows, cols, density, seed);
        let (iterations, _) = run_propagate(&img, conn);
        let bound = max_eccentricity_from_min_pixels(&img, conn) + 2;
        prop_assert!(
            iterations <= bound,
            "{iterations} iterations on a frame with eccentricity bound {bound}"
        );
    }
}

#[test]
fn adversarial_families_stay_within_the_eccentricity_bound() {
    // Spiral, serpentine, and Hilbert frames are the Θ(path-length) worst
    // cases for naive neighbor relaxation; the pointer-jumping reduction
    // must keep the engine at the (much smaller) geometric bound.
    for family in ["spiral", "serpentine", "hilbert"] {
        let img = gen::by_name(family, 48, 1).unwrap();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let (iterations, _) = run_propagate(&img, conn);
            let bound = max_eccentricity_from_min_pixels(&img, conn) + 2;
            assert!(
                iterations <= bound,
                "{family} {conn:?}: {iterations} iterations > bound {bound}"
            );
        }
    }
}

#[test]
fn warm_propagate_session_relabels_allocation_free_with_call_local_counters() {
    // The propagate session's scratch — run tables, the edge list, label and
    // min-position arrays, the two row-word buffers — must obey the same
    // watermark contract as every other engine's arenas: after the frame set
    // has been seen twice, repeats reallocate nothing. The convergence
    // counters must stay call-local on the warm session (a stale iteration
    // count from a previous, harder frame would corrupt the bench records).
    let frames: Vec<(Bitmap, Connectivity)> = [
        ("empty", 96usize, 96usize),
        ("serpentine", 96, 65),
        ("random50", 64, 127),
        ("spiral", 40, 128),
        ("hilbert", 64, 64),
        ("checker", 96, 63),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(name, rows, cols))| {
        let conn = if i % 2 == 0 {
            Connectivity::Four
        } else {
            Connectivity::Eight
        };
        (gen::by_name_dims(name, rows, cols, 13).unwrap(), conn)
    })
    .collect();
    let mut session = PropagateLabeler::new();
    let mut grid = LabelGrid::new_background(1, 1);
    for _ in 0..2 {
        for (img, conn) in &frames {
            session.label_into(img, *conn, &mut grid);
        }
    }
    let watermark = session.scratch_bytes();
    assert!(watermark > 0);
    // Fresh-session counters per frame are the call-local reference.
    let fresh: Vec<(usize, usize)> = frames
        .iter()
        .map(|(img, conn)| run_propagate(img, *conn))
        .collect();
    for _ in 0..3 {
        for ((img, conn), want) in frames.iter().zip(&fresh) {
            let stats = session.label_into(img, *conn, &mut grid);
            assert_eq!(grid, bfs_labels_conn(img, *conn));
            assert_eq!(
                (stats.iterations, stats.reduction_passes),
                *want,
                "warm counters must match a fresh session's"
            );
            assert_eq!(
                session.scratch_bytes(),
                watermark,
                "warm propagate relabel grew an arena"
            );
        }
    }
}
