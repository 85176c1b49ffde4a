//! Sequential ground-truth labeler.
//!
//! A plain flood fill over the image in column-major scan order. Because the
//! scan visits pixels in increasing column-major position, the first pixel of
//! each component encountered is exactly the component's minimum column-major
//! position, which the paper uses as the component label. Every other labeler
//! in the workspace is tested against this one.

use crate::bitmap::Bitmap;
use crate::connectivity::Connectivity;
use crate::fast::{EngineStats, LabelEngine};
use crate::labels::LabelGrid;

/// Reusable flood-fill state: the traversal queue survives between calls, so
/// a caller labeling many images (differential suites, sweeps) performs no
/// per-call allocation beyond what the output grid itself may need.
#[derive(Debug, Default)]
pub struct BfsOracle {
    queue: Vec<(u32, u32)>,
}

impl BfsOracle {
    /// Creates an oracle with an empty (but growable) traversal queue.
    pub fn new() -> Self {
        BfsOracle::default()
    }
}

impl LabelEngine for BfsOracle {
    /// Re-dimensions and background-fills `out` in bulk, then floods each
    /// component from its first pixel in column-major order.
    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        let (rows, cols) = (img.rows(), img.cols());
        out.reset_background(rows, cols);
        let queue = &mut self.queue;
        let mut components = 0usize;
        for c in 0..cols {
            for r in 0..rows {
                if !img.get(r, c) || out.is_foreground(r, c) {
                    continue;
                }
                components += 1;
                let label = img.position(r, c);
                out.set(r, c, label);
                queue.clear();
                queue.push((r as u32, c as u32));
                while let Some((pr, pc)) = queue.pop() {
                    for (nr, nc) in conn.neighbors(pr as usize, pc as usize, rows, cols) {
                        if img.get(nr, nc) && !out.is_foreground(nr, nc) {
                            out.set(nr, nc, label);
                            queue.push((nr as u32, nc as u32));
                        }
                    }
                }
            }
        }
        EngineStats {
            components,
            threads: 1,
            ..EngineStats::default()
        }
    }

    /// Bytes of traversal-queue capacity.
    fn scratch_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// Labels `img` by breadth-first flood fill (4-connectivity), assigning each
/// component the minimum column-major position of its pixels — the exact
/// labeling Algorithm CC must produce.
pub fn bfs_labels(img: &Bitmap) -> LabelGrid {
    bfs_labels_conn(img, Connectivity::Four)
}

/// [`bfs_labels`] under an arbitrary adjacency convention. Allocates one
/// fresh grid; hold a [`BfsOracle`] to reuse storage across calls.
pub fn bfs_labels_conn(img: &Bitmap, conn: Connectivity) -> LabelGrid {
    let mut out = LabelGrid::new_background(img.rows(), img.cols());
    BfsOracle::new().label_into(img, conn, &mut out);
    out
}

/// Counts 4-connected components without materialising labels.
pub fn component_count(img: &Bitmap) -> usize {
    bfs_labels(img).component_count()
}

/// Counts components under an arbitrary adjacency convention.
pub fn component_count_conn(img: &Bitmap, conn: Connectivity) -> usize {
    bfs_labels_conn(img, conn).component_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_oracle_matches_fresh_calls() {
        let mut oracle = BfsOracle::new();
        let mut grid = LabelGrid::new_background(1, 1);
        for (name, n) in [("random50", 24), ("comb", 16), ("full", 8)] {
            let img = crate::gen::by_name(name, n, 3).unwrap();
            oracle.label_into(&img, Connectivity::Four, &mut grid);
            assert_eq!(grid, bfs_labels(&img), "workload {name}");
        }
        // Shrinking and re-growing the grid across differently-sized images
        // must leave no stale labels behind.
        let tiny = Bitmap::from_art("#.\n.#\n");
        oracle.label_into(&tiny, Connectivity::Four, &mut grid);
        assert_eq!(grid, bfs_labels(&tiny));
    }

    #[test]
    fn empty_image_has_no_components() {
        let img = Bitmap::new(4, 4);
        let l = bfs_labels(&img);
        assert_eq!(l.component_count(), 0);
    }

    #[test]
    fn full_image_is_one_component_labeled_zero() {
        let img = Bitmap::from_art("###\n###\n");
        let l = bfs_labels(&img);
        assert_eq!(l.component_count(), 1);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(l.get(r, c), 0);
            }
        }
    }

    #[test]
    fn diagonal_pixels_are_not_connected() {
        let img = Bitmap::from_art("#.\n.#\n");
        let l = bfs_labels(&img);
        assert_eq!(l.component_count(), 2);
        assert_eq!(l.get(0, 0), 0);
        assert_eq!(l.get(1, 1), 3); // position 1*2+1
    }

    #[test]
    fn labels_are_min_column_major_positions() {
        // A U-shape opening left: arms meet only in the last column.
        let img = Bitmap::from_art(
            "###\n\
             ..#\n\
             ###\n",
        );
        let l = bfs_labels(&img);
        assert_eq!(l.component_count(), 1);
        // Min column-major position: column 0 has rows 0 and 2 -> position 0.
        for (r, c) in img.iter_ones_colmajor() {
            assert_eq!(l.get(r, c), 0);
        }
    }

    #[test]
    fn separate_rows_get_separate_labels() {
        let img = Bitmap::from_art(
            "###\n\
             ...\n\
             ###\n",
        );
        let l = bfs_labels(&img);
        assert_eq!(l.component_count(), 2);
        assert_eq!(l.get(0, 0), 0);
        assert_eq!(l.get(2, 0), 2);
        assert_eq!(l.get(0, 2), 0);
        assert_eq!(l.get(2, 2), 2);
    }

    #[test]
    fn count_matches_labels() {
        let img = Bitmap::from_art("#.#.#\n.....\n#####\n");
        assert_eq!(component_count(&img), 4);
    }

    #[test]
    fn eight_connectivity_joins_diagonals() {
        let img = Bitmap::from_art("#.\n.#\n");
        assert_eq!(component_count_conn(&img, Connectivity::Four), 2);
        assert_eq!(component_count_conn(&img, Connectivity::Eight), 1);
        let l = bfs_labels_conn(&img, Connectivity::Eight);
        assert_eq!(l.get(0, 0), 0);
        assert_eq!(l.get(1, 1), 0, "diagonal neighbor must share the label");
    }

    #[test]
    fn eight_connectivity_staircase_is_one_component() {
        // A full anti-diagonal: n components under 4-conn, one under 8-conn.
        let n = 9;
        let mut img = Bitmap::new(n, n);
        for i in 0..n {
            img.set(i, n - 1 - i, true);
        }
        assert_eq!(component_count_conn(&img, Connectivity::Four), n);
        assert_eq!(component_count_conn(&img, Connectivity::Eight), 1);
        // The component label is the min column-major position: the pixel in
        // the leftmost column is (n-1, 0).
        let l = bfs_labels_conn(&img, Connectivity::Eight);
        assert_eq!(l.get(0, n - 1), (n - 1) as u32);
    }

    #[test]
    fn eight_labels_refine_to_four_partition() {
        // Every 4-connected component is contained in one 8-connected
        // component.
        let img = Bitmap::from_art(
            "#.#.#\n\
             .#.#.\n\
             #.#.#\n\
             .....\n\
             ##.##\n",
        );
        let l4 = bfs_labels_conn(&img, Connectivity::Four);
        let l8 = bfs_labels_conn(&img, Connectivity::Eight);
        let mut map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (r, c) in img.iter_ones_colmajor() {
            let prev = map.insert(l4.get(r, c), l8.get(r, c));
            if let Some(p) = prev {
                assert_eq!(p, l8.get(r, c), "4-component split across 8-components");
            }
        }
    }
}
