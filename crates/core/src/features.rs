//! Component feature extraction on the SLAP (an application of Corollary 4).
//!
//! Corollary 4 generalizes from "minimum" to *any* associative and
//! commutative binary operator over initial pixel values. This module
//! exercises that generality with a **product monoid**: every pixel carries a
//! [`Features`] record (area 1, its own coordinates as bounding-box and
//! centroid seeds, its local perimeter contribution), and one fold per
//! direction — the same pipeline shape and asymptotic cost as a single
//! `Label-Pass` — yields per-component area, bounding box, centroid and
//! perimeter. This is the measurement stage of the intermediate-level vision
//! pipelines the paper's introduction motivates (region properties after
//! region labeling).
//!
//! Also here: the image-wide **Euler number** (components minus holes),
//! computed by Gray's quad-counting. Each PE counts the 2×2 quad patterns
//! that straddle its column boundary — a purely local scan — and one
//! O(n)-step reduction sums them, another example of the local-work +
//! linear-pass structure the architecture favors.

use crate::aggregate::{component_fold_conn, Fold, FoldMetrics};
use slap_image::stream::{BitmapRows, RetiredComponent};
use slap_image::{label_stream, Bitmap, Connectivity, LabelGrid};

/// Per-component geometric features (a commutative monoid under
/// [`Features::merge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Features {
    /// Pixel count.
    pub area: u64,
    /// Topmost row.
    pub min_row: u32,
    /// Bottommost row.
    pub max_row: u32,
    /// Leftmost column.
    pub min_col: u32,
    /// Rightmost column.
    pub max_col: u32,
    /// Sum of row indices (centroid numerator).
    pub sum_row: u64,
    /// Sum of column indices (centroid numerator).
    pub sum_col: u64,
    /// Number of pixel edges exposed to background or the image border
    /// (the 4-neighbor boundary length).
    pub perimeter: u64,
}

impl Features {
    /// The monoid identity (empty region).
    pub const EMPTY: Features = Features {
        area: 0,
        min_row: u32::MAX,
        max_row: 0,
        min_col: u32::MAX,
        max_col: 0,
        sum_row: 0,
        sum_col: 0,
        perimeter: 0,
    };

    /// The feature record of the single pixel `(r, c)` with `exposed`
    /// boundary edges.
    pub fn pixel(r: usize, c: usize, exposed: u64) -> Features {
        Features {
            area: 1,
            min_row: r as u32,
            max_row: r as u32,
            min_col: c as u32,
            max_col: c as u32,
            sum_row: r as u64,
            sum_col: c as u64,
            perimeter: exposed,
        }
    }

    /// The commutative, associative combination (elementwise min/max/sum).
    pub fn merge(a: Features, b: Features) -> Features {
        Features {
            area: a.area + b.area,
            min_row: a.min_row.min(b.min_row),
            max_row: a.max_row.max(b.max_row),
            min_col: a.min_col.min(b.min_col),
            max_col: a.max_col.max(b.max_col),
            sum_row: a.sum_row + b.sum_row,
            sum_col: a.sum_col + b.sum_col,
            perimeter: a.perimeter + b.perimeter,
        }
    }

    /// Bounding-box width.
    pub fn width(&self) -> u32 {
        self.max_col - self.min_col + 1
    }

    /// Bounding-box height.
    pub fn height(&self) -> u32 {
        self.max_row - self.min_row + 1
    }

    /// Centroid `(row, col)`.
    pub fn centroid(&self) -> (f64, f64) {
        (
            self.sum_row as f64 / self.area as f64,
            self.sum_col as f64 / self.area as f64,
        )
    }

    /// Fill ratio of the bounding box (1.0 = solid rectangle).
    pub fn extent(&self) -> f64 {
        self.area as f64 / (self.width() as f64 * self.height() as f64)
    }

    /// The isoperimetric-style compactness `P² / (16·A)`: 1.0 for a solid
    /// square, larger for elongated or ragged shapes.
    pub fn compactness(&self) -> f64 {
        (self.perimeter * self.perimeter) as f64 / (16.0 * self.area as f64)
    }
}

/// The streaming engine's retirement hook: a component retired by
/// [`slap_image::label_stream`] carries exactly the [`Features`]
/// fields (the labeler maintains the same monoid online), so the conversion
/// is a field-for-field repack — no second pass over the image.
impl From<RetiredComponent> for Features {
    fn from(rec: RetiredComponent) -> Features {
        Features {
            area: rec.area,
            min_row: rec.min_row,
            max_row: rec.max_row,
            min_col: rec.min_col,
            max_col: rec.max_col,
            sum_row: rec.sum_row,
            sum_col: rec.sum_col,
            perimeter: rec.perimeter,
        }
    }
}

/// Per-component features via the **streaming** engine: `img` is streamed
/// a band of rows at a time and every retired record is converted through the
/// [`From<RetiredComponent>`] hook. Returns `(label, features)` pairs sorted
/// by the paper label — the same keying as
/// [`component_features`]`.per_component`, but computed in
/// `O(cols + live components)` working memory and without a label grid.
pub fn streamed_features(img: &Bitmap, conn: Connectivity) -> Vec<(u32, Features)> {
    let run =
        label_stream(&mut BitmapRows::new(img), conn).expect("in-memory row replay cannot fail");
    let mut out: Vec<(u32, Features)> = run
        .components
        .into_iter()
        // The u64 → u32 narrowing is exact here: an in-memory Bitmap's
        // positions fit the same u32 space LabelGrid asserts.
        .map(|rec| (rec.label(img.rows()) as u32, Features::from(rec)))
        .collect();
    out.sort_unstable_by_key(|&(label, _)| label);
    out
}

/// [`Fold`] instance plugging [`Features`] into the Corollary 4 machinery.
pub struct FeatureFold;
impl Fold for FeatureFold {
    type Value = Features;
    fn identity() -> Features {
        Features::EMPTY
    }
    fn combine(a: Features, b: Features) -> Features {
        Features::merge(a, b)
    }
}

/// Result of a feature-extraction run.
#[derive(Clone, Debug)]
pub struct FeatureRun {
    /// Per-component features, keyed by component label, sorted by label.
    pub per_component: Vec<(u32, Features)>,
    /// Step accounting of the underlying fold passes.
    pub metrics: FoldMetrics,
}

impl FeatureRun {
    /// Looks up the features of the component with `label`.
    pub fn get(&self, label: u32) -> Option<&Features> {
        self.per_component
            .binary_search_by_key(&label, |&(l, _)| l)
            .ok()
            .map(|i| &self.per_component[i].1)
    }
}

/// Number of 4-neighbor sides of pixel `(r, c)` exposed to background or the
/// image border.
fn exposed_edges(img: &Bitmap, r: usize, c: usize) -> u64 {
    let mut e = 0u64;
    if r == 0 || !img.get(r - 1, c) {
        e += 1;
    }
    if r + 1 >= img.rows() || !img.get(r + 1, c) {
        e += 1;
    }
    if c == 0 || !img.get(r, c - 1) {
        e += 1;
    }
    if c + 1 >= img.cols() || !img.get(r, c + 1) {
        e += 1;
    }
    e
}

/// Computes per-component features on the simulated SLAP: one
/// [`component_fold_conn`] pass over the [`Features`] monoid. `labels` must
/// be a valid labeling of `img` under `conn`.
pub fn component_features(img: &Bitmap, labels: &LabelGrid, conn: Connectivity) -> FeatureRun {
    let fold = component_fold_conn::<FeatureFold>(img, labels, conn, &|r, c| {
        Features::pixel(r, c, exposed_edges(img, r, c))
    });
    FeatureRun {
        per_component: fold.per_component,
        metrics: fold.metrics,
    }
}

/// [`component_features`] with the labeling produced by an arbitrary
/// registered engine session ([`crate::engine::LabelEngine`]): the hook the
/// CLI's `features --engine` path dispatches through, so feature extraction
/// is engine-agnostic by construction (every engine labels bit-identically).
/// `out` is the session's reusable label grid.
pub fn features_with_engine(
    img: &Bitmap,
    conn: Connectivity,
    session: &mut dyn crate::engine::LabelEngine,
    out: &mut LabelGrid,
) -> FeatureRun {
    session.label_into(img, conn, out);
    component_features(img, out, conn)
}

/// Euler number report: the value plus the cost model of computing it on the
/// array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EulerRun {
    /// Components minus holes.
    pub euler: i64,
    /// Machine steps: the local quad scan (max over PEs) plus the O(n)
    /// reduction across the array.
    pub steps: u64,
}

/// Computes the image-wide Euler number (4-connected components minus
/// 8-connected holes, or vice versa under `Connectivity::Eight`) by Gray's
/// quad counting.
///
/// Each PE scans the 2×2 windows whose left column it owns (touching only
/// its own and its east neighbor's pixels — the same neighbor-column access
/// the witness initialization uses) and counts the three pattern classes;
/// the counts are then summed along the array in `O(n)` steps.
pub fn euler_number(img: &Bitmap, conn: Connectivity) -> EulerRun {
    let (rows, cols) = (img.rows(), img.cols());
    // Pad by one so border pixels form quads with the outside; PE c owns the
    // windows with left column c-1 (virtual column -1 owned by PE 0's scan).
    let get = |r: isize, c: isize| -> bool {
        r >= 0
            && c >= 0
            && (r as usize) < rows
            && (c as usize) < cols
            && img.get(r as usize, c as usize)
    };
    let mut q1 = 0i64; // exactly one foreground pixel
    let mut q3 = 0i64; // exactly three foreground pixels
    let mut qd = 0i64; // the two diagonal patterns
    let mut per_pe_units = 0u64;
    for c in -1..cols as isize {
        let mut units = 0u64;
        for r in -1..rows as isize {
            units += 1;
            let quad = [get(r, c), get(r, c + 1), get(r + 1, c), get(r + 1, c + 1)];
            let ones = quad.iter().filter(|&&b| b).count();
            match ones {
                1 => q1 += 1,
                3 => q3 += 1,
                2 if quad[0] == quad[3] => qd += 1, // the two diagonals
                _ => {}
            }
        }
        per_pe_units = per_pe_units.max(units);
    }
    // Gray's formulas: 4·E4 = Q1 − Q3 + 2·QD, 4·E8 = Q1 − Q3 − 2·QD.
    let four_e = match conn {
        Connectivity::Four => q1 - q3 + 2 * qd,
        Connectivity::Eight => q1 - q3 - 2 * qd,
    };
    debug_assert_eq!(four_e % 4, 0, "Gray quad counts must be divisible by 4");
    EulerRun {
        euler: four_e / 4,
        // local scan runs on all PEs concurrently; the reduction moves one
        // partial sum per link: 3 units per hop (recv, add, send).
        steps: per_pe_units + 3 * cols as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{fast_labels, fast_labels_conn, gen};

    fn features_of(art: &str) -> (Bitmap, FeatureRun) {
        let img = Bitmap::from_art(art);
        let labels = fast_labels(&img);
        let run = component_features(&img, &labels, Connectivity::Four);
        (img, run)
    }

    #[test]
    fn solid_square_features() {
        let (_, run) = features_of("###\n###\n###\n");
        assert_eq!(run.per_component.len(), 1);
        let f = run.get(0).unwrap();
        assert_eq!(f.area, 9);
        assert_eq!((f.width(), f.height()), (3, 3));
        assert_eq!(f.perimeter, 12);
        assert_eq!(f.centroid(), (1.0, 1.0));
        assert!((f.compactness() - 1.0).abs() < 1e-9);
        assert!((f.extent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_components_are_separated() {
        let (img, run) = features_of("##...\n##...\n.....\n...##\n");
        assert_eq!(run.per_component.len(), 2);
        let a = run.get(0).unwrap();
        assert_eq!(a.area, 4);
        assert_eq!(a.perimeter, 8);
        let b_label = img.position(3, 3);
        let b = run.get(b_label).unwrap();
        assert_eq!(b.area, 2);
        assert_eq!((b.width(), b.height()), (2, 1));
        assert_eq!(b.perimeter, 6);
    }

    #[test]
    fn features_match_component_stats_on_random_images() {
        let img = gen::uniform_random(24, 24, 0.45, 3);
        let labels = fast_labels(&img);
        let run = component_features(&img, &labels, Connectivity::Four);
        let stats = labels.component_stats();
        assert_eq!(run.per_component.len(), stats.len());
        for info in stats {
            let f = run.get(info.label).unwrap();
            assert_eq!(f.area as usize, info.pixels, "area of {}", info.label);
            assert_eq!(f.min_row as usize, info.min_row);
            assert_eq!(f.max_row as usize, info.max_row);
            assert_eq!(f.min_col as usize, info.min_col);
            assert_eq!(f.max_col as usize, info.max_col);
        }
    }

    #[test]
    fn perimeter_matches_brute_force() {
        let img = gen::by_name("blobs", 32, 9).unwrap();
        let labels = fast_labels(&img);
        let run = component_features(&img, &labels, Connectivity::Four);
        let mut expect: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for (r, c) in img.iter_ones_colmajor() {
            *expect.entry(labels.get(r, c)).or_insert(0) += exposed_edges(&img, r, c);
        }
        for (l, p) in expect {
            assert_eq!(run.get(l).unwrap().perimeter, p, "component {l}");
        }
    }

    #[test]
    fn eight_conn_features_fuse_diagonals() {
        let mut img = Bitmap::new(8, 8);
        for i in 0..8 {
            img.set(i, 7 - i, true);
        }
        let labels = fast_labels_conn(&img, Connectivity::Eight);
        let run = component_features(&img, &labels, Connectivity::Eight);
        assert_eq!(run.per_component.len(), 1);
        let f = run.per_component[0].1;
        assert_eq!(f.area, 8);
        assert_eq!((f.width(), f.height()), (8, 8));
        assert_eq!(f.perimeter, 32, "isolated pixels expose all 4 sides");
    }

    #[test]
    fn euler_number_counts_components_minus_holes() {
        // Solid square: E = 1. Square ring (one hole): E = 0. Two rings: -…
        let solid = Bitmap::from_art("###\n###\n###\n");
        assert_eq!(euler_number(&solid, Connectivity::Four).euler, 1);
        let ring = Bitmap::from_art(
            "####\n\
             #..#\n\
             #..#\n\
             ####\n",
        );
        assert_eq!(euler_number(&ring, Connectivity::Four).euler, 0);
        let two = Bitmap::from_art("##.##\n##.##\n");
        assert_eq!(euler_number(&two, Connectivity::Four).euler, 2);
    }

    #[test]
    fn euler_number_respects_connectivity() {
        // A diagonal pair: two 4-components but one 8-component.
        let diag = Bitmap::from_art("#.\n.#\n");
        assert_eq!(euler_number(&diag, Connectivity::Four).euler, 2);
        assert_eq!(euler_number(&diag, Connectivity::Eight).euler, 1);
    }

    #[test]
    fn euler_matches_component_count_on_hole_free_images() {
        for name in ["blobs", "vstripes", "checker"] {
            let img = gen::by_name(name, 16, 5).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let labels = fast_labels_conn(&img, conn);
                let holes = holes_count(&img, conn);
                let e = euler_number(&img, conn);
                assert_eq!(
                    e.euler,
                    labels.component_count() as i64 - holes,
                    "{name} {conn}"
                );
            }
        }
    }

    /// Brute-force hole count: background components (under the dual
    /// connectivity) not touching the border.
    fn holes_count(img: &Bitmap, conn: Connectivity) -> i64 {
        let dual = match conn {
            Connectivity::Four => Connectivity::Eight,
            Connectivity::Eight => Connectivity::Four,
        };
        let inv = img.invert();
        let labels = fast_labels_conn(&inv, dual);
        let mut border: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let (rows, cols) = (img.rows(), img.cols());
        for r in 0..rows {
            for c in [0, cols - 1] {
                if labels.is_foreground(r, c) {
                    border.insert(labels.get(r, c));
                }
            }
        }
        for c in 0..cols {
            for r in [0, rows - 1] {
                if labels.is_foreground(r, c) {
                    border.insert(labels.get(r, c));
                }
            }
        }
        let mut all: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (r, c) in inv.iter_ones_colmajor() {
            all.insert(labels.get(r, c));
        }
        (all.len() - border.len()) as i64
    }

    #[test]
    fn streamed_features_match_the_fold_on_every_family() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 24, 11).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let labels = fast_labels_conn(&img, conn);
                let folded = component_features(&img, &labels, conn);
                assert_eq!(
                    streamed_features(&img, conn),
                    folded.per_component,
                    "workload {name} {conn}"
                );
            }
        }
    }

    #[test]
    fn features_with_engine_agree_across_the_registry() {
        let img = gen::by_name("blobs", 28, 13).unwrap();
        let mut grid = slap_image::LabelGrid::new_background(1, 1);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let labels = fast_labels_conn(&img, conn);
            let reference = component_features(&img, &labels, conn);
            for info in crate::engine::registry() {
                let mut session = info.kind.session(2);
                let run = features_with_engine(&img, conn, session.as_mut(), &mut grid);
                assert_eq!(
                    run.per_component, reference.per_component,
                    "{} {conn}",
                    info.kind
                );
            }
        }
    }

    #[test]
    fn retired_record_converts_field_for_field() {
        let img = Bitmap::from_art("##\n#.\n");
        let run =
            slap_image::label_stream(&mut slap_image::BitmapRows::new(&img), Connectivity::Four)
                .unwrap();
        assert_eq!(run.components.len(), 1);
        let f = Features::from(run.components[0]);
        assert_eq!(f.area, 3);
        assert_eq!((f.min_row, f.max_row, f.min_col, f.max_col), (0, 1, 0, 1));
        assert_eq!(f.perimeter, 8);
    }

    #[test]
    fn empty_image_has_no_features() {
        let img = Bitmap::new(6, 6);
        let labels = fast_labels(&img);
        let run = component_features(&img, &labels, Connectivity::Four);
        assert!(run.per_component.is_empty());
        assert_eq!(euler_number(&img, Connectivity::Four).euler, 0);
    }
}
