//! Regressions for the strip-parallel shape: the tiled engine on a
//! `threads × 1` grid, which is what the `parallel` engine kind runs. Each
//! strip is one full-width band, so every boundary is a horizontal seam and
//! the tile-major run arena is laid out row by row, as the sequential
//! engine's.

#[cfg(test)]
mod tests {
    use crate::bitmap::Bitmap;
    use crate::connectivity::Connectivity;
    use crate::fast::tiled::{tiled_labels_conn, TiledLabeler};
    use crate::fast::{fast_labels_conn, LabelEngine};
    use crate::gen;
    use crate::labels::LabelGrid;
    use crate::oracle::bfs_labels_conn;

    const THREADS: &[usize] = &[1, 2, 3, 4, 8];

    /// Labels `img` on `threads` full-width strips with one worker each.
    fn strip_labels_conn(img: &Bitmap, conn: Connectivity, threads: usize) -> LabelGrid {
        tiled_labels_conn(img, conn, threads, 1, threads)
    }

    #[test]
    fn matches_fast_engine_on_tiny_shapes() {
        for art in [
            "#",
            ".",
            "##\n##\n",
            "#.\n.#\n",
            "###\n..#\n###\n",
            "#.#\n###\n#.#\n",
            "#####\n.....\n#####\n",
            ".#.\n###\n.#.\n",
            "#..#\n....\n#..#\n",
            "#\n#\n#\n#\n#\n#\n#\n#\n",
        ] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for &t in THREADS {
                    assert_eq!(
                        strip_labels_conn(&img, conn, t),
                        fast_labels_conn(&img, conn),
                        "threads={t} conn={conn:?} art:\n{art}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_fast_engine_on_every_workload_family() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 41, 13).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let reference = fast_labels_conn(&img, conn);
                for &t in THREADS {
                    assert_eq!(
                        strip_labels_conn(&img, conn, t),
                        reference,
                        "workload {name} threads={t} conn={conn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_word_boundary_widths() {
        for cols in [63usize, 64, 65, 127, 128, 130] {
            let img = gen::uniform_random(37, cols, 0.5, cols as u64);
            for &t in THREADS {
                assert_eq!(
                    strip_labels_conn(&img, Connectivity::Four, t),
                    bfs_labels_conn(&img, Connectivity::Four),
                    "cols={cols} threads={t}"
                );
            }
        }
    }

    #[test]
    fn seam_components_spanning_every_strip_collapse_to_one_label() {
        // A full column through many strips: every seam must union it.
        let mut bm = Bitmap::new(64, 9);
        for r in 0..64 {
            bm.set(r, 4, true);
        }
        for &t in THREADS {
            let l = strip_labels_conn(&bm, Connectivity::Four, t);
            assert_eq!(l.component_count(), 1, "threads={t}");
        }
    }

    #[test]
    fn reused_parallel_labeler_leaves_no_stale_state() {
        let mut labeler = TiledLabeler::new(4, 1, 4);
        let mut grid = LabelGrid::new_background(1, 1);
        let big = gen::uniform_random(80, 80, 0.6, 1);
        labeler.label_into(&big, Connectivity::Four, &mut grid);
        assert_eq!(grid, fast_labels_conn(&big, Connectivity::Four));
        let small = Bitmap::from_art("#.#\n###\n");
        labeler.label_into(&small, Connectivity::Four, &mut grid);
        assert_eq!(grid, fast_labels_conn(&small, Connectivity::Four));
        let stats = labeler.label_into(&big, Connectivity::Eight, &mut grid);
        assert_eq!(grid, fast_labels_conn(&big, Connectivity::Eight));
        assert_eq!(stats.components, grid.component_count());
    }

    #[test]
    fn one_by_one_and_single_row_images_do_not_panic() {
        // Degenerate dimensions through every phase: grid clamping, the
        // count pass, seam loops, and the output bands.
        for art in ["#", ".", "#\n", "##"] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for &t in &[1usize, 2, 4, 64] {
                    assert_eq!(
                        strip_labels_conn(&img, conn, t),
                        fast_labels_conn(&img, conn),
                        "art {art:?} conn={conn:?} threads={t}"
                    );
                }
            }
        }
        // Single column, many rows: every seam is one-run-to-one-run.
        let mut col = Bitmap::new(9, 1);
        for r in 0..9 {
            col.set(r, 0, r != 4);
        }
        for &t in THREADS {
            assert_eq!(
                strip_labels_conn(&col, Connectivity::Four, t),
                fast_labels_conn(&col, Connectivity::Four),
                "threads={t}"
            );
        }
    }
}
