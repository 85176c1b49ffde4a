//! Step 3 of Algorithm CC: the per-PE stitch of the left- and
//! right-connected labelings — plus [`stitch_grid`], the same union/min
//! argument generalized from column seams to the horizontal and vertical
//! seams of a tile grid (the reconciliation step of the host-side tiled
//! engine, `slap_image::fast::tiled`, whose `T × 1` shape is the
//! strip-parallel engine).
//!
//! Each PE holds, for every foreground row `j` of its column, a left label
//! `leftlabel[j]` (minimum column-major position of the pixel's component
//! within columns `0..=c`) and a right label `rightlabel[j]` (a distinct
//! label space — offset by the image size — identifying the pixel's
//! component within columns `c..`). The paper: *"perform component labeling
//! on the graph with nodes `{leftlabel[j]}` ∪ `{rightlabel[j]}` and edges
//! `{(leftlabel[j], rightlabel[j])}`"*, with each component taking *"the least
//! label seen on its pixels"*.
//!
//! Why this yields a globally consistent labeling: for a global component
//! `K` meeting column `c`, the rows of `K` in the column are grouped by the
//! left partition and by the right partition, and any two rows of `K` are
//! linked through alternating left/right segments of a connecting path, so
//! all of `K`'s labels land in one stitch component. The minimum node is a
//! left label (right labels are offset above every left label), and the
//! minimum left label at column `c` equals `min position of K within columns
//! 0..=c`, which — since `c` is at or right of `K`'s leftmost column — is the
//! global minimum position of `K`. Every column therefore computes the same
//! number for `K`, and it is exactly the oracle's label.

use crate::NIL;
use slap_image::{Connectivity, LabelGrid};
use slap_unionfind::{RankHalvingUf, UnionFind};
use std::collections::HashMap;

/// Stitches one column. `left[j]`/`right[j]` are the two labels of row `j`
/// ([`NIL`] on background rows; the caller has already offset the right
/// label space). Returns the final per-row labels and the units of local
/// work (hash/map touches count 1 unit, union–find ops their metered cost).
pub fn stitch_column(left: &[u32], right: &[u32]) -> (Vec<u32>, u64) {
    assert_eq!(left.len(), right.len());
    let rows = left.len();
    let mut units = 0u64;
    // dense-id the label values
    let mut dense: HashMap<u32, u32> = HashMap::new();
    let mut values: Vec<u32> = Vec::new();
    let intern = |v: u32, dense: &mut HashMap<u32, u32>, values: &mut Vec<u32>| -> u32 {
        *dense.entry(v).or_insert_with(|| {
            values.push(v);
            values.len() as u32 - 1
        })
    };
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(rows);
    for j in 0..rows {
        units += 1;
        match (left[j], right[j]) {
            (NIL, NIL) => {}
            (l, r) if l != NIL && r != NIL => {
                let dl = intern(l, &mut dense, &mut values);
                let dr = intern(r, &mut dense, &mut values);
                units += 2;
                edges.push((dl, dr));
            }
            _ => panic!("row {j}: left/right foreground disagree"),
        }
    }
    let mut uf = RankHalvingUf::with_elements(values.len());
    for &(a, b) in &edges {
        uf.union(a as usize, b as usize);
    }
    // least label per stitch component
    let mut min_label = vec![NIL; values.len()];
    for (id, &value) in values.iter().enumerate() {
        let r = uf.find(id);
        units += 1;
        if value < min_label[r] {
            min_label[r] = value;
        }
    }
    units += uf.cost();
    // per-row readout
    let mut out = vec![NIL; rows];
    for j in 0..rows {
        units += 1;
        if left[j] != NIL {
            let dl = dense[&left[j]] as usize;
            let r = uf.find(dl);
            out[j] = min_label[r];
            units += 1;
        }
    }
    units += uf.cost();
    (out, units)
}

/// Per-level cost record of a hierarchical [`stitch_grid`] merge: the seam
/// boundaries the level processed, the adjacent label pairs it examined, and
/// how many actually joined two distinct classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StitchLevel {
    /// Position in the schedule: vertical levels first, then horizontal.
    pub level: usize,
    /// `true` for vertical (tile-column) seams, `false` for horizontal
    /// (full-width band) seams.
    pub vertical: bool,
    /// Seam segments processed (boundary × band for vertical levels, whole
    /// boundaries for horizontal ones).
    pub seams: usize,
    /// Cross-seam adjacent label pairs examined.
    pub edges: usize,
    /// Pairs that joined two previously distinct stitch classes.
    pub unions: usize,
}

/// The paper's stitch argument generalized from column seams to a 2-D grid
/// of tile seams: merges an `R × C` grid of *independently labeled* tiles
/// into the global canonical labeling, processing seams in hierarchical
/// pairwise-doubling order. The stitch is the construction of
/// [`stitch_column`] on each seam: component labeling on the graph whose
/// nodes are the tile-local labels and whose edges join the label pairs
/// adjacent across the seam under `conn`, with each merged component taking
/// the least label seen. A one-column grid (`R × 1`) stitches horizontal
/// band seams — the strip-parallel decomposition.
///
/// `tiles[i][j]` is the labeling of the tile in band `i`, tile-column `j`,
/// in the paper's convention over the tile's own coordinates (minimum
/// tile-local column-major position, exactly what
/// [`slap_image::fast_labels_conn`] produces on the cropped sub-image).
/// Bands must agree on heights across a row of tiles and widths down a
/// column.
///
/// The merge schedule is the one the run-level tiled engine
/// (`slap_image::fast::tiled`) uses, making this the independent
/// specification its differential suite checks against: level `ℓ` of the
/// vertical phase joins the tile-column boundaries at odd multiples of
/// `2^ℓ` (each within every band, with ±1-row diagonal reach at
/// 8-connectivity), then the horizontal phase joins band boundaries the
/// same way over the **full image width** — which is what catches diagonal
/// adjacencies straddling a four-corner point. Union order cannot change
/// the final partition; the hierarchy exists so each level's cost is
/// attributable ([`StitchLevel`]). Like the band engines it specifies, it
/// is host-side machinery and meters no work units.
///
/// Correctness of the minima mirrors the column argument of the module docs:
/// tile-local column-major order agrees with global column-major order
/// within a tile,
/// so converting a tile component's local minimum yields its true global
/// minimum over that tile; a merged component's global minimum pixel lies in
/// one of its constituent tile components, every one of which touches a seam
/// and is therefore a node of the stitch graph.
pub fn stitch_grid(tiles: &[Vec<LabelGrid>], conn: Connectivity) -> (LabelGrid, Vec<StitchLevel>) {
    let ty = tiles.len();
    assert!(ty > 0, "grid must have at least one band");
    let tx = tiles[0].len();
    assert!(
        tiles.iter().all(|row| row.len() == tx) && tx > 0,
        "grid must be rectangular and non-empty"
    );
    let heights: Vec<usize> = (0..ty).map(|i| tiles[i][0].rows()).collect();
    let widths: Vec<usize> = (0..tx).map(|j| tiles[0][j].cols()).collect();
    for (i, row) in tiles.iter().enumerate() {
        for (j, t) in row.iter().enumerate() {
            assert_eq!(t.rows(), heights[i], "band {i} disagrees on height");
            assert_eq!(t.cols(), widths[j], "tile column {j} disagrees on width");
        }
    }
    let mut row_off = vec![0usize; ty + 1];
    for i in 0..ty {
        row_off[i + 1] = row_off[i] + heights[i];
    }
    let mut col_off = vec![0usize; tx + 1];
    for j in 0..tx {
        col_off[j + 1] = col_off[j] + widths[j];
    }
    let (rows, cols) = (row_off[ty], col_off[tx]);
    let mut out = LabelGrid::new_background(rows, cols); // asserts u32 label space

    // Tile-local label -> global column-major position.
    let global = |i: usize, j: usize, l: u32| -> u32 {
        let trows = heights[i] as u32;
        (col_off[j] as u32 + l / trows) * rows as u32 + row_off[i] as u32 + l % trows
    };
    // Intern the labels that appear on any seam, keyed by flat tile index.
    let mut dense: HashMap<(u32, u32), u32> = HashMap::new();
    let mut values: Vec<u32> = Vec::new(); // dense id -> global position
    let mut intern = |i: usize, j: usize, l: u32, values: &mut Vec<u32>| -> u32 {
        *dense.entry(((i * tx + j) as u32, l)).or_insert_with(|| {
            values.push(global(i, j, l));
            values.len() as u32 - 1
        })
    };

    // Collect each level's edge list first (interning nodes), then union
    // level by level so effective joins are attributable.
    let reach = match conn {
        Connectivity::Four => 0isize,
        Connectivity::Eight => 1isize,
    };
    struct LevelEdges {
        vertical: bool,
        seams: usize,
        edges: Vec<(u32, u32)>,
    }
    let mut levels: Vec<LevelEdges> = Vec::new();
    let doubling = |n: usize| {
        let mut bounds: Vec<Vec<usize>> = Vec::new();
        let mut half = 1usize;
        while half < n {
            bounds.push((half..n).step_by(half * 2).collect());
            half *= 2;
        }
        bounds
    };
    for boundaries in doubling(tx) {
        let mut level = LevelEdges {
            vertical: true,
            seams: 0,
            edges: Vec::new(),
        };
        for &j in &boundaries {
            for i in 0..ty {
                level.seams += 1;
                let (left, right) = (&tiles[i][j - 1], &tiles[i][j]);
                let h = heights[i] as isize;
                for r in 0..h {
                    let l = left.get(r as usize, widths[j - 1] - 1);
                    if l == NIL {
                        continue;
                    }
                    for rr in r - reach..=r + reach {
                        if rr < 0 || rr >= h {
                            continue;
                        }
                        let b = right.get(rr as usize, 0);
                        if b != NIL {
                            let dl = intern(i, j - 1, l, &mut values);
                            let dr = intern(i, j, b, &mut values);
                            level.edges.push((dl, dr));
                        }
                    }
                }
            }
        }
        levels.push(level);
    }
    for boundaries in doubling(ty) {
        let mut level = LevelEdges {
            vertical: false,
            seams: 0,
            edges: Vec::new(),
        };
        for &i in &boundaries {
            level.seams += 1;
            // Full-width seam between bands i-1 and i: columns map to tiles
            // on each side independently, so cross-corner diagonals are
            // ordinary (c, c') pairs here.
            let tile_of = |c: usize| col_off.partition_point(|&o| o <= c) - 1;
            for c in 0..cols as isize {
                let jt = tile_of(c as usize);
                let t = tiles[i - 1][jt].get(heights[i - 1] - 1, c as usize - col_off[jt]);
                if t == NIL {
                    continue;
                }
                for bc in c - reach..=c + reach {
                    if bc < 0 || bc >= cols as isize {
                        continue;
                    }
                    let jb = tile_of(bc as usize);
                    let b = tiles[i][jb].get(0, bc as usize - col_off[jb]);
                    if b != NIL {
                        let dt = intern(i - 1, jt, t, &mut values);
                        let db = intern(i, jb, b, &mut values);
                        level.edges.push((dt, db));
                    }
                }
            }
        }
        levels.push(level);
    }

    let mut uf = RankHalvingUf::with_elements(values.len());
    let mut costs = Vec::with_capacity(levels.len());
    for (lvl, level) in levels.iter().enumerate() {
        let mut unions = 0usize;
        for &(a, b) in &level.edges {
            if uf.find(a as usize) != uf.find(b as usize) {
                unions += 1;
            }
            uf.union(a as usize, b as usize);
        }
        costs.push(StitchLevel {
            level: lvl,
            vertical: level.vertical,
            seams: level.seams,
            edges: level.edges.len(),
            unions,
        });
    }

    // Least global position per stitched class, then emit.
    let mut min_label = vec![NIL; values.len()];
    for (id, &value) in values.iter().enumerate() {
        let r = uf.find(id);
        if value < min_label[r] {
            min_label[r] = value;
        }
    }
    for i in 0..ty {
        for j in 0..tx {
            let tile = &tiles[i][j];
            for r in 0..heights[i] {
                for c in 0..widths[j] {
                    let l = tile.get(r, c);
                    if l == NIL {
                        continue;
                    }
                    let resolved = match dense.get(&(((i * tx + j) as u32), l)) {
                        Some(&id) => min_label[uf.find(id as usize)],
                        None => global(i, j, l),
                    };
                    out.set(row_off[i] + r, col_off[j] + c, resolved);
                }
            }
        }
    }
    (out, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{fast_labels_conn, gen, Bitmap};

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

    /// Labeling each half independently then stitching them as a 2 × 1 grid
    /// must reproduce the whole-image labeling exactly.
    fn check_split(img: &Bitmap, split: usize, conn: Connectivity) -> LabelGrid {
        let top = fast_labels_conn(&band(img, 0, split), conn);
        let bottom = fast_labels_conn(&band(img, split, img.rows()), conn);
        let (stitched, _) = stitch_grid(&[vec![top], vec![bottom]], conn);
        assert_eq!(
            stitched,
            fast_labels_conn(img, conn),
            "split={split} conn={conn:?}"
        );
        stitched
    }

    #[test]
    fn band_stitch_matches_whole_image_labeling() {
        for name in ["random50", "blobs", "checker", "spiral", "comb"] {
            let img = gen::by_name(name, 24, 5).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for split in [1, 7, 12, 23] {
                    check_split(&img, split, conn);
                }
            }
        }
    }

    #[test]
    fn band_stitch_bridges_only_under_eight_connectivity() {
        // Two diagonal pixels facing each other across the seam.
        let img = Bitmap::from_art("#.\n.#\n");
        let four = check_split(&img, 1, Connectivity::Four);
        assert_eq!(four.component_count(), 2);
        let eight = check_split(&img, 1, Connectivity::Eight);
        assert_eq!(eight.component_count(), 1);
    }

    #[test]
    fn band_stitch_collapses_a_u_shape_to_the_global_min() {
        // A U opening upward: the two arms are separate components in the
        // top band and merge through the bottom band's base.
        let img = Bitmap::from_art("#.#\n#.#\n###\n");
        check_split(&img, 2, Connectivity::Four);
    }

    #[test]
    fn empty_column_is_all_background() {
        let (out, _) = stitch_column(&[NIL; 4], &[NIL; 4]);
        assert_eq!(out, vec![NIL; 4]);
    }

    #[test]
    fn single_edge_takes_min() {
        // one row: left label 5, right label 100
        let (out, _) = stitch_column(&[5], &[100]);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn right_labels_bridge_left_sets() {
        // rows 0 and 2 have different left labels (3, 7) but one right label
        // (100): the U-shape opening left. Both rows must end at min = 3.
        let left = [3, NIL, 7];
        let right = [100, NIL, 100];
        let (out, _) = stitch_column(&left, &right);
        assert_eq!(out, vec![3, NIL, 3]);
    }

    #[test]
    fn left_labels_bridge_right_sets() {
        // mirror case: one left label, two right labels.
        let left = [4, NIL, 4];
        let right = [100, NIL, 200];
        let (out, _) = stitch_column(&left, &right);
        assert_eq!(out, vec![4, NIL, 4]);
    }

    #[test]
    fn disjoint_components_stay_disjoint() {
        let left = [1, NIL, 9];
        let right = [100, NIL, 200];
        let (out, _) = stitch_column(&left, &right);
        assert_eq!(out, vec![1, NIL, 9]);
    }

    #[test]
    fn chain_of_bridges_collapses_to_global_min() {
        // left sets {0},{2},{4} with labels 10,2,30; right sets bridge
        // (0,2) and (2,4): all collapse to 2.
        let left = [10, NIL, 2, NIL, 30];
        let right = [100, NIL, 100, NIL, 200];
        // rows 2 and 4 need bridging too: give row 2 both bridges by a
        // second edge via its right label… use right: 0-2 share 100; 2-4
        // share? row2 right=100, row4 right=200: not bridged yet. Add a row
        // that shares left with row 4 and right with row 2:
        let left2 = [10, NIL, 2, 30, 30];
        let right2 = [100, NIL, 100, 100, 200];
        let (out, _) = stitch_column(&left2, &right2);
        assert_eq!(out, vec![2, NIL, 2, 2, 2]);
        let _ = (left, right);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mask_mismatch_is_detected() {
        stitch_column(&[1, NIL], &[NIL, NIL]);
    }

    /// Crops the rectangle `rows lo..hi × cols clo..chi` into a standalone
    /// tile bitmap.
    fn tile(img: &Bitmap, lo: usize, hi: usize, clo: usize, chi: usize) -> Bitmap {
        let mut out = Bitmap::new(hi - lo, chi - clo);
        for r in lo..hi {
            for c in clo..chi {
                if img.get(r, c) {
                    out.set(r - lo, c - clo, true);
                }
            }
        }
        out
    }

    /// Cuts `img` into a `ty × tx` grid of independently labeled tiles
    /// (balanced cuts, remainder to the leading tiles).
    fn label_grid_tiles(
        img: &Bitmap,
        ty: usize,
        tx: usize,
        conn: Connectivity,
    ) -> Vec<Vec<LabelGrid>> {
        let cut = |n: usize, k: usize| -> Vec<usize> {
            let mut offs = vec![0usize];
            for i in 0..k {
                offs.push(offs[i] + n / k + usize::from(i < n % k));
            }
            offs
        };
        let rcut = cut(img.rows(), ty);
        let ccut = cut(img.cols(), tx);
        (0..ty)
            .map(|i| {
                (0..tx)
                    .map(|j| {
                        fast_labels_conn(
                            &tile(img, rcut[i], rcut[i + 1], ccut[j], ccut[j + 1]),
                            conn,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn grid_stitch_matches_whole_image_labeling() {
        for name in ["random50", "blobs", "checker", "spiral", "comb"] {
            let img = gen::by_name(name, 25, 5).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for (ty, tx) in [(2, 2), (1, 3), (3, 1), (3, 3), (4, 2)] {
                    let tiles = label_grid_tiles(&img, ty, tx, conn);
                    let (stitched, _) = stitch_grid(&tiles, conn);
                    assert_eq!(
                        stitched,
                        fast_labels_conn(&img, conn),
                        "{name} {ty}x{tx} {conn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_stitch_agrees_with_the_run_level_tiled_engine() {
        // Two independent implementations of the same decomposition: the
        // pixel-level stitcher here and the run-arena engine in
        // slap_image::fast::tiled must land on identical output.
        use slap_image::tiled_labels_conn;
        for name in ["maze", "blobs", "random50"] {
            let img = gen::by_name(name, 33, 11).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for (ty, tx) in [(2, 2), (4, 4), (1, 4), (4, 1)] {
                    let tiles = label_grid_tiles(&img, ty, tx, conn);
                    let (stitched, _) = stitch_grid(&tiles, conn);
                    let engine = tiled_labels_conn(&img, conn, ty, tx, 2);
                    assert_eq!(stitched, engine, "{name} {ty}x{tx} {conn:?}");
                }
            }
        }
    }

    #[test]
    fn grid_stitch_joins_four_corner_diagonals() {
        // A 2×2 cut through the center of a diagonal pair: the two pixels
        // sit in opposite corner tiles and only the full-width horizontal
        // seam with ±1-column reach can join them.
        for art in ["#.\n.#\n", ".#\n#.\n"] {
            let img = Bitmap::from_art(art);
            let tiles = label_grid_tiles(&img, 2, 2, Connectivity::Eight);
            let (eight, _) = stitch_grid(&tiles, Connectivity::Eight);
            assert_eq!(eight.component_count(), 1, "{art:?}");
            let tiles = label_grid_tiles(&img, 2, 2, Connectivity::Four);
            let (four, _) = stitch_grid(&tiles, Connectivity::Four);
            assert_eq!(four.component_count(), 2, "{art:?}");
        }
    }

    #[test]
    fn grid_stitch_levels_follow_the_pairwise_doubling_schedule() {
        let img = gen::by_name("maze", 48, 3).unwrap();
        let tiles = label_grid_tiles(&img, 4, 4, Connectivity::Four);
        let (stitched, levels) = stitch_grid(&tiles, Connectivity::Four);
        assert_eq!(stitched, fast_labels_conn(&img, Connectivity::Four));
        let shape: Vec<(usize, bool, usize)> = levels
            .iter()
            .map(|l| (l.level, l.vertical, l.seams))
            .collect();
        // 4 tile columns: level 0 joins boundaries {1, 3} across 4 bands,
        // level 1 joins {2}; then the same halving over the 4 bands.
        assert_eq!(
            shape,
            vec![(0, true, 8), (1, true, 4), (2, false, 2), (3, false, 1)]
        );
        // Every stitch that matters is attributed to exactly one level: the
        // per-tile component count collapses to the final count through the
        // recorded effective unions.
        let per_tile: usize = tiles.iter().flatten().map(LabelGrid::component_count).sum();
        let unions: usize = levels.iter().map(|l| l.unions).sum();
        assert_eq!(per_tile - unions, stitched.component_count());
    }

    #[test]
    fn grid_stitch_handles_uneven_tile_dimensions() {
        // 25 rows over 4 bands and 25 cols over 3 tile columns exercise the
        // remainder-bearing offsets in both axes.
        let img = gen::by_name("blobs", 25, 9).unwrap();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let tiles = label_grid_tiles(&img, 4, 3, conn);
            let (stitched, _) = stitch_grid(&tiles, conn);
            assert_eq!(stitched, fast_labels_conn(&img, conn), "{conn:?}");
        }
    }

    #[test]
    fn single_tile_grid_is_the_identity() {
        let img = gen::by_name("spiral", 16, 2).unwrap();
        let tiles = label_grid_tiles(&img, 1, 1, Connectivity::Four);
        let (stitched, levels) = stitch_grid(&tiles, Connectivity::Four);
        assert_eq!(stitched, fast_labels_conn(&img, Connectivity::Four));
        assert!(levels.is_empty());
    }
}
