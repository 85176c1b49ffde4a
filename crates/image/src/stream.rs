//! Streaming run-based connected-component labeling with bounded memory.
//!
//! The paper's whole architecture consumes the image *one scan line per
//! beat*: the SLAP never holds the full frame, only each PE's running view
//! of its column. This module is the host-side API for that discipline.
//! [`label_stream`] drains a [`RowSource`] through the out-of-core band
//! scheduler ([`crate::fast::ooc`], [`STREAM_BAND_ROWS`] rows per band),
//! which keeps only
//!
//! * one band of rows and the **carried frontier** (the runs of the last
//!   row read and the live component each belongs to), and
//! * a **compact union–find over live components** (slab slots recycled
//!   through a free list the moment a component dies),
//!
//! and **retires** a component at the end of the first band that no longer
//! touches it — emitting its finished feature record ([`RetiredComponent`]:
//! area, bounding box, centroid sums, 4-neighbor perimeter, and the paper's
//! minimum column-major position). Memory is `O(band × cols + live
//! components)` (plus whatever retired records the caller keeps), never
//! `O(rows × cols)`: frames taller than memory, piped PBM, and unbounded
//! ingest all stream through at a constant footprint. [`label_stream`]
//! returns the band labeler's own result type, [`OocRun`], whose
//! [`OocStats`](crate::fast::OocStats) carry every frontier peak; a caller
//! that keeps only a summary, or wants another band height, drives
//! [`OutOfCoreLabeler::label_source_with`] itself and hands records to a
//! sink.
//!
//! The retired multiset is **exactly** what [`crate::fast::fast_labels_conn`]
//! plus a per-component feature fold would produce — the differential suites
//! replay every generator family and compare record-for-record, keyed by the
//! paper label — and the frontier bound is asserted by tests and enforced by
//! the `slap-bench stream` schema validator. Records are the only output:
//! a caller that wants a label grid labels the whole frame with a registry
//! engine (`fast`, `tiled`, ...) instead.
//!
//! Input adapters implement [`RowSource`]: [`BitmapRows`] replays an
//! in-memory [`Bitmap`], and [`crate::pbm::PbmRowReader`] streams P1/P4 PBM
//! rows incrementally from any [`std::io::Read`] without materializing the
//! image.

use crate::bitmap::Bitmap;
use crate::connectivity::Connectivity;
use crate::fast::{OocRun, OutOfCoreLabeler};
use std::io;

/// Rows per band of every streaming path — [`label_stream`], `slap stream`
/// and `slapd`'s stream jobs — on frames narrower than 2^25 columns;
/// [`band_rows_for`] lowers it from that width on.
pub const STREAM_BAND_ROWS: usize = 128;

/// The band height of every streaming path at width `cols`:
/// [`STREAM_BAND_ROWS`], lowered where a band that tall would overflow the
/// band arena's `u32` position space (one row at the very least).
/// [`label_stream`] and `slap stream` size each frame's band by its own
/// width; `slapd` sizes its warm band labelers once, by the widest
/// admissible frame.
pub fn band_rows_for(cols: usize) -> usize {
    STREAM_BAND_ROWS
        .min((u32::MAX as usize - 1) / cols.max(1))
        .max(1)
}

/// The finished feature record of a retired component (every field is final:
/// the component can never reconnect once retired).
///
/// The fields mirror the `Features` monoid of the core crate's Corollary 4
/// fold — area, bounding box, centroid numerators, and the 4-neighbor
/// perimeter — plus the paper's component label key: the minimum
/// column-major position, stored as its `(col, row)` coordinates because a
/// streaming consumer does not know the image height (see
/// [`RetiredComponent::label`]).
///
/// The derived ordering sorts by minimum position first, so sorting a drained
/// batch yields a canonical multiset order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RetiredComponent {
    /// Column of the component's minimum column-major position (its leftmost
    /// column; among pixels of that column, see `min_pos_row`).
    pub min_pos_col: u32,
    /// Row of the minimum column-major position (the topmost pixel within
    /// column `min_pos_col`).
    pub min_pos_row: u32,
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
    /// Pixel edges exposed to background or the image border (4-neighbor
    /// boundary length, the same convention as the core feature fold).
    pub perimeter: u64,
}

impl RetiredComponent {
    /// The paper's component label — the minimum column-major position
    /// `col * rows + row` — computable once the image height is known.
    /// Returned as `u64`: a stream can be taller than the `u32` position
    /// space that bounds whole-frame `LabelGrid`s (callers comparing
    /// against grid labels may narrow when `rows * cols` fits `u32`).
    pub fn label(&self, rows: usize) -> u64 {
        self.min_pos_col as u64 * rows as u64 + u64::from(self.min_pos_row)
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

    /// The contribution of one run — row `row`, columns `a..=b` — with
    /// `perimeter` of its pixel edges exposed: the unit the per-pixel
    /// reference fold absorbs into a component's record.
    #[cfg(test)]
    pub(crate) fn run(row: u32, a: u32, b: u32, perimeter: u64) -> Self {
        let len = u64::from(b - a + 1);
        RetiredComponent {
            min_pos_col: a,
            min_pos_row: row,
            area: len,
            min_row: row,
            max_row: row,
            min_col: a,
            max_col: b,
            sum_row: len * u64::from(row),
            sum_col: (u64::from(a) + u64::from(b)) * len / 2,
            perimeter,
        }
    }

    /// Merges `other` into `self` (elementwise min/max/sum, the same monoid
    /// as the core feature fold).
    pub(crate) fn absorb(&mut self, other: &RetiredComponent) {
        if (other.min_pos_col, other.min_pos_row) < (self.min_pos_col, self.min_pos_row) {
            self.min_pos_col = other.min_pos_col;
            self.min_pos_row = other.min_pos_row;
        }
        self.area += other.area;
        self.min_row = self.min_row.min(other.min_row);
        self.max_row = self.max_row.max(other.max_row);
        self.min_col = self.min_col.min(other.min_col);
        self.max_col = self.max_col.max(other.max_col);
        self.sum_row += other.sum_row;
        self.sum_col += other.sum_col;
        self.perimeter += other.perimeter;
    }
}

/// A source of packed image rows for [`label_stream`].
///
/// Implementations fill `words` with exactly `cols().div_ceil(64)` words per
/// row (bit `c % 64` of word `c / 64` is column `c`, padding bits past
/// `cols()` zero) and return `false` at end of input.
pub trait RowSource {
    /// Row width in pixels.
    fn cols(&self) -> usize;
    /// Total rows, when known up front (a PBM header knows; an unbounded
    /// ingest may not).
    fn rows_hint(&self) -> Option<usize> {
        None
    }
    /// Reads the next row into `words` (cleared and refilled). `Ok(false)`
    /// signals end of input.
    fn next_row(&mut self, words: &mut Vec<u64>) -> io::Result<bool>;
}

/// Replays an in-memory [`Bitmap`] row by row — the adapter the differential
/// suites use to prove the streaming engine equivalent to the whole-frame
/// engines.
#[derive(Clone, Copy, Debug)]
pub struct BitmapRows<'a> {
    img: &'a Bitmap,
    next: usize,
}

impl<'a> BitmapRows<'a> {
    /// Streams the rows of `img` from top to bottom.
    pub fn new(img: &'a Bitmap) -> Self {
        BitmapRows { img, next: 0 }
    }
}

impl RowSource for BitmapRows<'_> {
    fn cols(&self) -> usize {
        self.img.cols()
    }

    fn rows_hint(&self) -> Option<usize> {
        Some(self.img.rows())
    }

    fn next_row(&mut self, words: &mut Vec<u64>) -> io::Result<bool> {
        if self.next >= self.img.rows() {
            return Ok(false);
        }
        words.clear();
        words.extend_from_slice(self.img.row_words(self.next));
        self.next += 1;
        Ok(true)
    }
}

/// Streams every row of `source` through a fresh band labeler
/// ([`OutOfCoreLabeler`], [`STREAM_BAND_ROWS`] rows per band, one tile
/// column) and returns the retired components plus run statistics. The
/// image is never materialized: memory stays `O(band × cols + live +
/// retired)`.
pub fn label_stream<S: RowSource>(source: &mut S, conn: Connectivity) -> io::Result<OocRun> {
    OutOfCoreLabeler::new(band_rows_for(source.cols()), 1).label_source(source, conn)
}

/// Brute-force per-component records: the fast engine's labels folded pixel
/// by pixel, sorted canonically — the independent reference every
/// streaming test compares against.
#[cfg(test)]
pub(crate) fn reference_records(img: &Bitmap, conn: Connectivity) -> Vec<RetiredComponent> {
    let labels = crate::fast::fast_labels_conn(img, conn);
    let mut by_label: std::collections::BTreeMap<u32, RetiredComponent> = Default::default();
    for (r, c) in img.iter_ones_colmajor() {
        let mut exposed = 0u64;
        if r == 0 || !img.get(r - 1, c) {
            exposed += 1;
        }
        if r + 1 >= img.rows() || !img.get(r + 1, c) {
            exposed += 1;
        }
        if c == 0 || !img.get(r, c - 1) {
            exposed += 1;
        }
        if c + 1 >= img.cols() || !img.get(r, c + 1) {
            exposed += 1;
        }
        let rec = RetiredComponent::run(r as u32, c as u32, c as u32, exposed);
        by_label
            .entry(labels.get(r, c))
            .and_modify(|acc| acc.absorb(&rec))
            .or_insert(rec);
    }
    let mut out: Vec<RetiredComponent> = by_label.into_values().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_labels_conn;
    use crate::gen;
    use std::cell::Cell;

    #[test]
    fn band_height_drops_only_where_the_position_space_runs_out() {
        for cols in [0, 1, 64, 8192, 1 << 15] {
            assert_eq!(band_rows_for(cols), 128, "{cols} cols");
        }
        // The widest frame a 128-row band still fits, and one column more.
        let widest = (u32::MAX as usize - 1) / 128;
        assert_eq!(widest, 33_554_431);
        assert_eq!(band_rows_for(widest), 128);
        assert_eq!(band_rows_for(widest + 1), 127);
        assert_eq!(band_rows_for(u32::MAX as usize), 1);
    }

    /// Streams `img` and returns the retired records sorted canonically.
    fn stream_sorted(img: &Bitmap, conn: Connectivity) -> Vec<RetiredComponent> {
        let mut run = label_stream(&mut BitmapRows::new(img), conn).unwrap();
        run.components.sort_unstable();
        run.components
    }

    /// One 4-connectivity pass through a fresh band labeler.
    fn banded(img: &Bitmap, band_rows: usize) -> OocRun {
        OutOfCoreLabeler::new(band_rows, 1)
            .label_source(&mut BitmapRows::new(img), Connectivity::Four)
            .unwrap()
    }

    /// Sorted records of one pass through a (possibly reused) band labeler.
    fn band_sorted(
        labeler: &mut OutOfCoreLabeler,
        img: &Bitmap,
        conn: Connectivity,
    ) -> Vec<RetiredComponent> {
        let mut run = labeler
            .label_source(&mut BitmapRows::new(img), conn)
            .unwrap();
        run.components.sort_unstable();
        run.components
    }

    /// A row source that counts the rows it has handed out, so a sink can
    /// tell how far the stream had got when a record retired.
    struct Counted<'a> {
        rows: BitmapRows<'a>,
        read: &'a Cell<usize>,
    }

    impl RowSource for Counted<'_> {
        fn cols(&self) -> usize {
            self.rows.cols()
        }

        fn next_row(&mut self, words: &mut Vec<u64>) -> io::Result<bool> {
            let more = self.rows.next_row(words)?;
            self.read.set(self.read.get() + usize::from(more));
            Ok(more)
        }
    }

    /// `rows` all-background rows of `cols` pixels (`cols` may be zero,
    /// which no `Bitmap` can express).
    struct Blank {
        cols: usize,
        rows: usize,
    }

    impl RowSource for Blank {
        fn cols(&self) -> usize {
            self.cols
        }

        fn next_row(&mut self, words: &mut Vec<u64>) -> io::Result<bool> {
            if self.rows == 0 {
                return Ok(false);
            }
            self.rows -= 1;
            words.clear();
            words.resize(self.cols.div_ceil(64), 0);
            Ok(true)
        }
    }

    #[test]
    fn matches_reference_on_tiny_shapes() {
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
            "##..\n..##\n",
        ] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    stream_sorted(&img, conn),
                    reference_records(&img, conn),
                    "conn={conn:?} art:\n{art}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_every_workload_family() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 40, 17).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    stream_sorted(&img, conn),
                    reference_records(&img, conn),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_word_boundary_widths() {
        for cols in [63usize, 64, 65, 127, 128, 130] {
            let img = gen::uniform_random(37, cols, 0.5, cols as u64);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    stream_sorted(&img, conn),
                    reference_records(&img, conn),
                    "cols={cols} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn labels_reconstruct_the_paper_convention() {
        let img = gen::by_name("blobs", 32, 5).unwrap();
        let labels = fast_labels_conn(&img, Connectivity::Four);
        let mut got: Vec<u64> = stream_sorted(&img, Connectivity::Four)
            .iter()
            .map(|rec| rec.label(img.rows()))
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = labels
            .component_stats()
            .iter()
            .map(|info| u64::from(info.label))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn components_retire_as_soon_as_they_disconnect() {
        // Two bars separated by a blank row. The sink sees the first bar at
        // the end of the first band that no longer touches it — not at the
        // end of the frame — and the second bar at the end of the frame.
        let img = Bitmap::from_art("###\n...\n###\n");
        for (band_rows, first_at) in [(1usize, 2usize), (2, 2), (3, 3)] {
            let read = Cell::new(0);
            let mut seen = Vec::new();
            let mut source = Counted {
                rows: BitmapRows::new(&img),
                read: &read,
            };
            let stats = OutOfCoreLabeler::new(band_rows, 1)
                .label_source_with(&mut source, Connectivity::Four, |rec| {
                    seen.push((read.get(), rec.min_row, rec.area, rec.perimeter));
                })
                .unwrap();
            assert_eq!(stats.retired, 2);
            seen.sort_unstable();
            assert_eq!(
                seen,
                vec![(first_at, 0, 3, 8), (3, 2, 3, 8)],
                "band_rows={band_rows}"
            );
        }
    }

    #[test]
    fn eight_connectivity_keeps_diagonal_neighbors_alive() {
        // A diagonal staircase: under 8-conn it is one component and must
        // not retire early; under 4-conn each pixel retires row by row.
        let img = Bitmap::from_art("#..\n.#.\n..#\n");
        let mut run8 = label_stream(&mut BitmapRows::new(&img), Connectivity::Eight).unwrap();
        assert_eq!(run8.components.len(), 1);
        assert_eq!(run8.components.pop().unwrap().area, 3);
        let run4 = label_stream(&mut BitmapRows::new(&img), Connectivity::Four).unwrap();
        assert_eq!(run4.components.len(), 3);
    }

    #[test]
    fn memory_stays_bounded_by_cols_not_rows() {
        // A tall image: the frontier and the slab must scale with cols, not
        // with rows * cols.
        let cols = 64usize;
        let img = gen::uniform_random(512, cols, 0.5, 7);
        let mut source = BitmapRows::new(&img);
        let run = label_stream(&mut source, Connectivity::Four).unwrap();
        assert!(
            run.stats.peak_frontier_runs <= cols / 2 + 1,
            "frontier {} exceeds the run bound for {cols} columns",
            run.stats.peak_frontier_runs
        );
        assert!(
            run.stats.peak_live_slots <= cols + 1,
            "slab occupancy {} exceeds the O(cols + live) bound for {cols} columns",
            run.stats.peak_live_slots
        );
        assert_eq!(run.stats.rows, 512);
        assert_eq!(run.stats.pixels, img.count_ones() as u64);
    }

    #[test]
    fn degenerate_dimensions_stream_cleanly() {
        // 0 columns: every row is empty.
        let run = label_stream(&mut Blank { cols: 0, rows: 2 }, Connectivity::Four).unwrap();
        assert_eq!((run.stats.rows, run.stats.retired), (2, 0));
        assert!(run.components.is_empty());
        // 0 rows.
        let run = label_stream(&mut Blank { cols: 9, rows: 0 }, Connectivity::Eight).unwrap();
        assert_eq!((run.stats.rows, run.stats.retired), (0, 0));
        assert!(run.components.is_empty());
        // 1×1 foreground pixel.
        let img = Bitmap::from_art("#");
        let run = label_stream(&mut BitmapRows::new(&img), Connectivity::Four).unwrap();
        assert_eq!(run.components.len(), 1);
        let rec = run.components[0];
        assert_eq!((rec.area, rec.perimeter), (1, 4));
        assert_eq!(rec.centroid(), (0.0, 0.0));
        assert_eq!((rec.width(), rec.height()), (1, 1));
    }

    #[test]
    fn live_components_tracks_the_frontier() {
        // Four dots, then a bar joining them, at one row per band: the dots
        // hold four slots until the bar merges them into one component,
        // which retires once, at the end of the frame.
        let img = Bitmap::from_art("#.#.#.#.\n########\n");
        let run = banded(&img, 1);
        assert_eq!(run.stats.peak_live_slots, 4);
        assert_eq!(run.stats.retired, 1);
        assert_eq!(run.components[0].area, 12);
        // In one band the dots never take a slot of their own.
        assert_eq!(banded(&img, 2).stats.peak_live_slots, 1);
    }

    /// `(label, area, bbox)` of every record a warm `labeler` retires from
    /// `img`, sorted.
    fn record_keys(
        labeler: &mut OutOfCoreLabeler,
        img: &Bitmap,
        conn: Connectivity,
    ) -> Vec<(u64, u64, [u32; 4])> {
        let mut keys: Vec<_> = band_sorted(labeler, img, conn)
            .iter()
            .map(|c| {
                let bbox = [c.min_row, c.max_row, c.min_col, c.max_col];
                (c.label(img.rows()), c.area, bbox)
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The same keys read off the fast engine's label grid.
    fn grid_keys(img: &Bitmap, conn: Connectivity) -> Vec<(u64, u64, [u32; 4])> {
        let mut keys: Vec<_> = fast_labels_conn(img, conn)
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

    #[test]
    fn grid_labeler_is_bit_identical_to_the_fast_engine() {
        // One warm band labeler: its records carry the fast engine's labels,
        // areas and boxes on every family and connectivity.
        let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 33, 7).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    record_keys(&mut labeler, &img, conn),
                    grid_keys(&img, conn),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn grid_labeler_survives_interleaved_dims_and_checker_density() {
        // Run-dense checker rows exercise the word-AND merge sweep; the
        // interleaved sizes exercise labeler reuse across dims, and the
        // tall ones carry components across band seams.
        let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
        for (rows, cols) in [(64, 64), (3, 130), (65, 17), (1, 1), (200, 1), (300, 40)] {
            let img = gen::uniform_random(rows, cols, 0.55, (rows * 31 + cols) as u64);
            assert_eq!(
                record_keys(&mut labeler, &img, Connectivity::Four),
                grid_keys(&img, Connectivity::Four),
                "{rows}x{cols}"
            );
        }
        let checker = gen::by_name("checker", 48, 0).unwrap();
        assert_eq!(
            record_keys(&mut labeler, &checker, Connectivity::Four),
            grid_keys(&checker, Connectivity::Four)
        );
    }

    #[test]
    fn reset_rewinds_a_session_without_allocating_anew() {
        // A reused band labeler: the warm replay of a frame must retire the
        // same records without growing any arena.
        let img = gen::by_name("random50", 300, 4).unwrap();
        let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
        let run_fresh = band_sorted(&mut labeler, &img, Connectivity::Four);
        assert_eq!(run_fresh, reference_records(&img, Connectivity::Four));
        let watermark = labeler.scratch_bytes();
        let run_warm = band_sorted(&mut labeler, &img, Connectivity::Four);
        assert_eq!(run_warm, run_fresh);
        assert_eq!(
            labeler.scratch_bytes(),
            watermark,
            "warm replay of the same frame must not grow any arena"
        );
    }

    #[test]
    fn reset_switches_dimensions_and_connectivity() {
        let mut labeler = OutOfCoreLabeler::new(2, 1);
        let stripes = Bitmap::from_art(".#.#.#.#\n");
        assert_eq!(
            band_sorted(&mut labeler, &stripes, Connectivity::Four).len(),
            4
        );
        let tall = Bitmap::from_art("#..\n.#.\n..#\n");
        let run = labeler
            .label_source(&mut BitmapRows::new(&tall), Connectivity::Eight)
            .unwrap();
        assert_eq!(run.components.len(), 1, "8-conn staircase is one component");
        assert_eq!(run.components[0].area, 3);
        assert_eq!((run.stats.rows, run.stats.cols), (3, 3));
    }

    #[test]
    fn slab_slots_are_recycled_across_generations() {
        // Alternating full/empty rows churn components every other row; the
        // slab must recycle slots instead of growing per generation.
        let mut img = Bitmap::new(200, 32);
        for r in (0..200).step_by(2) {
            for c in 0..32 {
                img.set(r, c, true);
            }
        }
        for band_rows in [1usize, 3, STREAM_BAND_ROWS] {
            let stats = banded(&img, band_rows).stats;
            assert_eq!(stats.retired, 100);
            assert!(
                stats.peak_live_slots <= 2,
                "peak {} slots for one live component at band {band_rows}",
                stats.peak_live_slots
            );
        }
    }
}
