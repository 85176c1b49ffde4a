//! Streaming run-based connected-component labeling with bounded memory.
//!
//! The paper's whole architecture consumes the image *one scan line per
//! beat*: the SLAP never holds the full frame, only each PE's running view
//! of its column. This module is the host-side mirror of that discipline —
//! an online labeler that accepts rows one at a time
//! ([`StreamLabeler::push_row`] over packed words), keeps only
//!
//! * the **active-run frontier** (the previous row's maximal runs and the
//!   live component each belongs to), and
//! * a **compact union–find over live components** (slab slots recycled
//!   through a free list the moment a component dies),
//!
//! and **retires** a component the first time a row arrives that no longer
//! touches it — emitting its finished feature record ([`RetiredComponent`]:
//! area, bounding box, centroid sums, 4-neighbor perimeter, and the paper's
//! minimum column-major position). Memory is `O(cols + live components)`
//! (plus whatever retired records the caller has not drained), never
//! `O(rows × cols)`: frames taller than memory, piped PBM, and unbounded
//! ingest all stream through at a constant footprint.
//!
//! The retired multiset is **exactly** what [`crate::fast::fast_labels_conn`]
//! plus a per-component feature fold would produce — the differential suites
//! replay every generator family row-by-row and compare record-for-record,
//! keyed by the paper label — and the frontier bound is asserted by tests
//! and enforced by the `slap-bench stream` schema validator.
//!
//! Input adapters implement [`RowSource`]: [`BitmapRows`] replays an
//! in-memory [`Bitmap`], and [`crate::pbm::PbmRowReader`] streams P1/P4 PBM
//! rows incrementally from any [`std::io::Read`] without materializing the
//! image. [`label_stream`] drives a source to completion.

use crate::bitmap::{count_ones_in_span, for_each_adjacent_pair, for_each_run_in_words, Bitmap};
use crate::connectivity::Connectivity;
use crate::labels::LabelGrid;
use crate::live::{LiveComponents, NONE};
use std::io;

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
    /// `perimeter` of its pixel edges exposed: the unit the streaming and
    /// out-of-core folds absorb into a component's record.
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

/// Aggregate statistics of a finished (or in-flight) streaming run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rows pushed so far.
    pub rows: u64,
    /// Row width the labeler was constructed with.
    pub cols: usize,
    /// Foreground pixels seen.
    pub pixels: u64,
    /// Components retired so far.
    pub retired: u64,
    /// Maximum frontier size observed (runs of one row).
    pub peak_frontier_runs: usize,
    /// Maximum number of simultaneously allocated union–find slots — the
    /// `O(cols + live components)` bound made measurable. Sampled once per
    /// row after its unions and mints, before retirement and reclaim, so it
    /// counts the live components plus the row's merge garbage.
    pub peak_nodes: usize,
}

/// Online connected-component labeler: see the module docs for the memory
/// model. Rows arrive as packed words ([`StreamLabeler::push_row`]); retired
/// components accumulate until drained ([`StreamLabeler::drain_retired`]);
/// [`StreamLabeler::finish`] retires everything still live.
#[derive(Debug)]
pub struct StreamLabeler {
    cols: usize,
    words_per_row: usize,
    conn: Connectivity,
    finished: bool,
    /// Packed words of the previous row (all zero before the first row).
    prev_words: Vec<u64>,
    /// The frontier: previous row's runs (packed `start << 32 | end`) and
    /// the slot each belongs to (a root between rows).
    prev_runs: Vec<u64>,
    prev_slots: Vec<u32>,
    /// Scratch for the row being processed.
    cur_runs: Vec<u64>,
    cur_slots: Vec<u32>,
    /// The union–find over live components, one step per row.
    live: LiveComponents,
    /// Retired components awaiting [`StreamLabeler::drain_retired`].
    retired: Vec<RetiredComponent>,
    /// Scratch words for the merge sweep.
    and_buf: Vec<u64>,
    /// When set, every component ever created gets a stable id: a mint
    /// records a fresh id in `slot_comp`, a union records the merge in
    /// `comp_parent`, and a retirement appends the root id to
    /// `retired_comps` (parallel to `retired`). Off by default — the id
    /// arena grows with the *total* component count, which would break the
    /// `O(cols + live)` bound on unbounded streams.
    track_comps: bool,
    /// Component id of each slot's set under tracking. Unlike slots, ids are
    /// never recycled within a stream, so a grid-producing caller can
    /// resolve which component a long-dead run ended up in
    /// ([`StreamGridLabeler`]).
    slot_comp: Vec<u32>,
    /// Union–find over component ids (grows monotonically; tracking only).
    comp_parent: Vec<u32>,
    /// Root component id per retirement, parallel to `retired`.
    retired_comps: Vec<u32>,
    stats: StreamStats,
}

impl StreamLabeler {
    /// Creates a labeler for rows of `cols` pixels. `cols == 0` is accepted
    /// (every row is empty and nothing is ever emitted).
    pub fn new(cols: usize, conn: Connectivity) -> Self {
        StreamLabeler {
            cols,
            words_per_row: cols.div_ceil(64),
            conn,
            finished: false,
            prev_words: vec![0u64; cols.div_ceil(64)],
            prev_runs: Vec::new(),
            prev_slots: Vec::new(),
            cur_runs: Vec::new(),
            cur_slots: Vec::new(),
            live: LiveComponents::default(),
            retired: Vec::new(),
            and_buf: Vec::new(),
            track_comps: false,
            slot_comp: Vec::new(),
            comp_parent: Vec::new(),
            retired_comps: Vec::new(),
            stats: StreamStats {
                cols,
                ..StreamStats::default()
            },
        }
    }

    /// Rewinds the labeler to the state of a fresh [`StreamLabeler::new`]
    /// with possibly different dimensions or connectivity, **keeping every
    /// allocation**: a session labeling a stream of frames allocates only
    /// when a frame exceeds all previous highs. Component tracking (an
    /// internal mode of [`StreamGridLabeler`]) is switched off.
    pub fn reset(&mut self, cols: usize, conn: Connectivity) {
        self.cols = cols;
        self.words_per_row = cols.div_ceil(64);
        self.conn = conn;
        self.finished = false;
        self.prev_words.clear();
        self.prev_words.resize(self.words_per_row, 0);
        self.prev_runs.clear();
        self.prev_slots.clear();
        self.cur_runs.clear();
        self.cur_slots.clear();
        self.live.clear();
        self.retired.clear();
        self.and_buf.clear();
        self.track_comps = false;
        self.slot_comp.clear();
        self.comp_parent.clear();
        self.retired_comps.clear();
        self.stats = StreamStats {
            cols,
            ..StreamStats::default()
        };
    }

    /// Total bytes of scratch capacity currently reserved — the session's
    /// high-water mark. Steady-state reuse keeps this constant; tests assert
    /// warm calls perform zero arena reallocations by watching it.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.live.scratch_bytes()
            + (self.prev_words.capacity()
                + self.prev_runs.capacity()
                + self.cur_runs.capacity()
                + self.and_buf.capacity())
                * size_of::<u64>()
            + (self.prev_slots.capacity()
                + self.cur_slots.capacity()
                + self.slot_comp.capacity()
                + self.comp_parent.capacity()
                + self.retired_comps.capacity())
                * size_of::<u32>()
            + self.retired.capacity() * size_of::<RetiredComponent>()
    }

    /// Row width accepted by [`StreamLabeler::push_row`].
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Statistics so far (peaks are final only after
    /// [`StreamLabeler::finish`]).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Number of live (unretired) components currently tracked. O(1):
    /// between rows every occupied slot is a live root.
    pub fn live_components(&self) -> usize {
        self.live.live()
    }

    /// Pushes the next row as packed words (bit `c % 64` of word `c / 64` is
    /// column `c`, exactly [`Bitmap::row_words`]'s layout).
    ///
    /// # Panics
    /// Panics after [`StreamLabeler::finish`], when `words` is not exactly
    /// `cols.div_ceil(64)` long, or when a padding bit past `cols` is set
    /// (that would corrupt the word-level run scan).
    pub fn push_row(&mut self, words: &[u64]) {
        assert!(!self.finished, "push_row after finish");
        assert_eq!(
            words.len(),
            self.words_per_row,
            "row must be exactly cols.div_ceil(64) packed words"
        );
        let tail = self.cols % 64;
        assert!(
            tail == 0 || self.words_per_row == 0 || words[self.words_per_row - 1] >> tail == 0,
            "padding bits past cols must be zero"
        );
        let row = self.stats.rows as u32;
        self.stats.rows += 1;
        self.advance(words, row);
    }

    /// Retires every component still live and returns the final statistics.
    /// Idempotent; [`StreamLabeler::push_row`] panics afterwards.
    pub fn finish(&mut self) -> StreamStats {
        if !self.finished {
            // One virtual all-background row below the image: every prev run
            // collects its full bottom exposure and every live root goes
            // untouched, hence retires — no special-cased teardown path.
            let zeros = vec![0u64; self.words_per_row];
            self.advance(&zeros, self.stats.rows as u32);
            self.finished = true;
        }
        self.stats
    }

    /// Removes and returns the components retired so far (draining keeps the
    /// labeler's footprint at `O(cols + live)` on long streams).
    pub fn drain_retired(&mut self) -> std::vec::Drain<'_, RetiredComponent> {
        self.retired_comps.clear(); // keep the tracking vec parallel
        self.retired.drain(..)
    }

    /// Processes row `row`'s packed words (real or the virtual finish row) as
    /// one step of the live-component core.
    fn advance(&mut self, words: &[u64], row: u32) {
        // 1) Bottom exposure: pixels of each frontier run not covered by the
        // new row leave the component through their south edge.
        self.live
            .expose_south(&self.prev_runs, &self.prev_slots, words);

        // 2) Extract the new row's runs.
        self.cur_runs.clear();
        let cur_runs = &mut self.cur_runs;
        for_each_run_in_words(words, self.cols, |a, b| {
            cur_runs.push(((a as u64) << 32) | b as u64);
        });
        self.cur_slots.clear();
        self.cur_slots.resize(self.cur_runs.len(), NONE);

        // 3) Merge sweep: every frontier component a new run touches joins
        // the run's set, leaving the surviving slot of run `i` in
        // `cur_slots[i]` — `NONE` for runs touching no frontier run. A slot
        // can be forwarded by a *later* run's union, so slots are re-resolved
        // in step 3b.
        let conn = self.conn;
        let StreamLabeler {
            prev_words,
            prev_runs,
            prev_slots,
            cur_runs,
            cur_slots,
            live,
            and_buf,
            track_comps,
            slot_comp,
            comp_parent,
            ..
        } = self;
        for_each_adjacent_pair(
            conn,
            words,
            prev_words,
            cur_runs,
            prev_runs,
            and_buf,
            |c, q| {
                if let Some((keep, lose)) = live.join(&mut cur_slots[c], &mut prev_slots[q]) {
                    if *track_comps {
                        comp_parent[slot_comp[lose as usize] as usize] = slot_comp[keep as usize];
                    }
                }
            },
        );

        // 3b) Record pass: fold each new run's feature contribution into its
        // (resolved) surviving slot, or mint a fresh slot for runs that
        // touched nothing. Resolution here doubles as the frontier re-root:
        // all of this row's unions are already done, so the stored slots are
        // final roots for the inter-row invariant.
        for i in 0..self.cur_runs.len() {
            let sb = self.cur_runs[i];
            let (a, b) = ((sb >> 32) as u32, (sb & 0xffff_ffff) as u32);
            // Both horizontal ends are exposed; north exposure is what the
            // previous row does not cover; south exposure arrives with the
            // next row (or the virtual finish row).
            let up_exposed = b - a + 1 - count_ones_in_span(&self.prev_words, a, b);
            let rec = RetiredComponent::run(row, a, b, 2 + u64::from(up_exposed));
            let minted = self.live.fold(&mut self.cur_slots[i], rec);
            let s = self.cur_slots[i];
            if minted && self.track_comps {
                let id = u32::try_from(self.comp_parent.len())
                    .expect("more than u32::MAX components in one tracked stream");
                self.comp_parent.push(id);
                if self.slot_comp.len() <= s as usize {
                    self.slot_comp.resize(s as usize + 1, 0);
                }
                self.slot_comp[s as usize] = id;
            }
            self.live.touch(s);
            self.stats.pixels += rec.area;
        }

        // 4) Retirement: frontier roots no run of this row merged into can
        // never reconnect (rows only ever arrive below them) — emit and
        // recycle them, along with this row's forwarded slots.
        let StreamLabeler {
            prev_slots,
            live,
            retired,
            track_comps,
            slot_comp,
            retired_comps,
            stats,
            ..
        } = self;
        live.finish_step(prev_slots.iter().copied(), |s, rec| {
            retired.push(*rec);
            if *track_comps {
                retired_comps.push(slot_comp[s as usize]);
            }
            stats.retired += 1;
        });
        stats.peak_nodes = live.peak();

        // 5) The new row becomes the frontier.
        std::mem::swap(&mut self.prev_runs, &mut self.cur_runs);
        std::mem::swap(&mut self.prev_slots, &mut self.cur_slots);
        self.prev_words.copy_from_slice(words);
        self.stats.peak_frontier_runs = self.stats.peak_frontier_runs.max(self.prev_runs.len());
    }
}

/// Find with path halving over the component-id forest of a tracked stream.
#[inline]
fn comp_find(parent: &mut [u32], mut x: u32) -> u32 {
    loop {
        let p = parent[x as usize];
        if p == x {
            return x;
        }
        let g = parent[p as usize];
        if g != p {
            parent[x as usize] = g;
        }
        x = g;
    }
}

/// A reusable session that labels whole frames **through the streaming
/// engine**: rows are pushed one at a time into an internal component-tracked
/// [`StreamLabeler`], every run is logged with the component id it joined,
/// and once the stream finishes the retired records hand each component its
/// paper label (minimum column-major position) — which one run-fill pass then
/// writes into a [`LabelGrid`], bit-identical to
/// [`crate::fast::fast_labels_conn`] and the BFS oracle.
///
/// The grid output necessarily costs `O(rows × cols)` (the grid itself) plus
/// an `O(runs)` log, so this type trades the pure engine's bounded-memory
/// guarantee for interchangeability with the whole-frame engines; the
/// labeler's union–find still runs in the `O(cols + live)` frontier regime.
/// All scratch (the inner labeler, the run log, the component arenas) is
/// kept between calls.
#[derive(Debug)]
pub struct StreamGridLabeler {
    inner: StreamLabeler,
    /// Packed run bounds + component id per run, rows concatenated.
    run_log: Vec<(u64, u32)>,
    /// Index of the first logged run of each row, plus one sentinel.
    row_runs: Vec<u32>,
    /// Final label per retired component root id.
    comp_label: Vec<u32>,
}

impl Default for StreamGridLabeler {
    fn default() -> Self {
        StreamGridLabeler::new()
    }
}

impl StreamGridLabeler {
    /// Creates a session with empty (growable) scratch storage.
    pub fn new() -> Self {
        StreamGridLabeler {
            inner: StreamLabeler::new(0, Connectivity::Four),
            run_log: Vec::new(),
            row_runs: Vec::new(),
            comp_label: Vec::new(),
        }
    }

    /// Labels `img` into `out` (re-dimensioned; every cell written exactly
    /// once) by replaying its rows through the streaming engine. With reused
    /// storage of sufficient capacity the call performs no heap allocation.
    pub fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) {
        let (rows, cols) = (img.rows(), img.cols());
        self.inner.reset(cols, conn);
        self.inner.track_comps = true;
        self.run_log.clear();
        self.row_runs.clear();
        self.row_runs.reserve(rows + 1);
        for r in 0..rows {
            self.inner.push_row(img.row_words(r));
            self.row_runs
                .push(u32::try_from(self.run_log.len()).expect("run count exceeds u32"));
            // After a push the frontier is this row: log its runs with the
            // component each resolved into (roots between rows, so the comp
            // id is current — later unions are chased through comp_parent).
            let inner = &self.inner;
            self.run_log.extend(
                inner
                    .prev_runs
                    .iter()
                    .zip(&inner.prev_slots)
                    .map(|(&sb, &slot)| (sb, inner.slot_comp[slot as usize])),
            );
        }
        self.row_runs
            .push(u32::try_from(self.run_log.len()).expect("run count exceeds u32"));
        self.inner.finish();

        // Every component is now retired; its record carries the minimum
        // column-major position — the paper label — keyed by root comp id.
        self.comp_label.clear();
        self.comp_label
            .resize(self.inner.comp_parent.len(), LabelGrid::BACKGROUND);
        for (rec, &comp) in self.inner.retired.iter().zip(&self.inner.retired_comps) {
            self.comp_label[comp as usize] = rec.label(rows) as u32;
        }

        // Output: one background fill + run-at-a-time label fills per row,
        // resolving (and compressing) each logged component id.
        out.reset_dims(rows, cols);
        let StreamGridLabeler {
            inner,
            run_log,
            row_runs,
            comp_label,
        } = self;
        let comp_parent = &mut inner.comp_parent;
        for r in 0..rows {
            let row = out.row_mut(r);
            row.fill(LabelGrid::BACKGROUND);
            for entry in &mut run_log[row_runs[r] as usize..row_runs[r + 1] as usize] {
                let root = comp_find(comp_parent, entry.1);
                entry.1 = root;
                let label = comp_label[root as usize];
                let (a, b) = ((entry.0 >> 32) as usize, (entry.0 & 0xffff_ffff) as usize);
                row[a] = label;
                row[b] = label;
                if b - a > 1 {
                    row[a + 1..b].fill(label);
                }
            }
        }
    }

    /// Statistics of the most recent call (frontier peaks, retirements).
    pub fn last_stats(&self) -> StreamStats {
        self.inner.stats()
    }

    /// Number of runs logged by the most recent call.
    pub fn last_runs(&self) -> usize {
        self.run_log.len()
    }

    /// Number of components labeled by the most recent call.
    pub fn last_components(&self) -> usize {
        self.inner.stats().retired as usize
    }

    /// Total bytes of scratch capacity currently reserved (inner labeler,
    /// run log, and component arenas).
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.inner.scratch_bytes()
            + self.run_log.capacity() * size_of::<(u64, u32)>()
            + self.row_runs.capacity() * size_of::<u32>()
            + self.comp_label.capacity() * size_of::<u32>()
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

/// The result of draining a [`RowSource`] through a [`StreamLabeler`].
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// Every retired component, in retirement order.
    pub components: Vec<RetiredComponent>,
    /// Aggregate statistics (rows, pixels, frontier peaks).
    pub stats: StreamStats,
}

/// Streams every row of `source` through a fresh [`StreamLabeler`] and
/// returns the retired components plus run statistics. The image is never
/// materialized: memory stays `O(cols + live + retired)`.
pub fn label_stream<S: RowSource>(source: &mut S, conn: Connectivity) -> io::Result<StreamRun> {
    let mut labeler = StreamLabeler::new(source.cols(), conn);
    let mut words = Vec::with_capacity(source.cols().div_ceil(64));
    while source.next_row(&mut words)? {
        labeler.push_row(&words);
    }
    let stats = labeler.finish();
    Ok(StreamRun {
        components: labeler.drain_retired().collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_labels_conn;
    use crate::gen;

    /// Streams `img` and returns the retired records sorted canonically.
    fn stream_sorted(img: &Bitmap, conn: Connectivity) -> Vec<RetiredComponent> {
        let mut run = label_stream(&mut BitmapRows::new(img), conn).unwrap();
        run.components.sort_unstable();
        run.components
    }

    /// Brute-force per-component records from a label grid.
    fn reference_records(img: &Bitmap, conn: Connectivity) -> Vec<RetiredComponent> {
        let labels = fast_labels_conn(img, conn);
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
            let rec = RetiredComponent {
                min_pos_col: c as u32,
                min_pos_row: r as u32,
                area: 1,
                min_row: r as u32,
                max_row: r as u32,
                min_col: c as u32,
                max_col: c as u32,
                sum_row: r as u64,
                sum_col: c as u64,
                perimeter: exposed,
            };
            by_label
                .entry(labels.get(r, c))
                .and_modify(|acc| acc.absorb(&rec))
                .or_insert(rec);
        }
        let mut out: Vec<RetiredComponent> = by_label.into_values().collect();
        out.sort_unstable();
        out
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
        // Two bars separated by a blank row: the first bar must retire the
        // moment the blank row arrives, not at finish.
        let img = Bitmap::from_art("###\n...\n###\n");
        let mut labeler = StreamLabeler::new(3, Connectivity::Four);
        labeler.push_row(img.row_words(0));
        assert_eq!(labeler.drain_retired().count(), 0);
        labeler.push_row(img.row_words(1));
        let first: Vec<_> = labeler.drain_retired().collect();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].area, 3);
        assert_eq!(first[0].perimeter, 8);
        labeler.push_row(img.row_words(2));
        assert_eq!(labeler.drain_retired().count(), 0, "still live");
        labeler.finish();
        assert_eq!(labeler.drain_retired().count(), 1);
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
            run.stats.peak_nodes <= cols + 1,
            "slab occupancy {} exceeds the O(cols + live) bound for {cols} columns",
            run.stats.peak_nodes
        );
        assert_eq!(run.stats.rows, 512);
        assert_eq!(run.stats.pixels, img.count_ones() as u64);
    }

    #[test]
    fn degenerate_dimensions_stream_cleanly() {
        // 0 columns: every row is empty.
        let mut zero_cols = StreamLabeler::new(0, Connectivity::Four);
        zero_cols.push_row(&[]);
        zero_cols.push_row(&[]);
        let stats = zero_cols.finish();
        assert_eq!(stats.retired, 0);
        assert_eq!(stats.rows, 2);
        // 0 rows: finish without pushing anything.
        let mut zero_rows = StreamLabeler::new(9, Connectivity::Eight);
        let stats = zero_rows.finish();
        assert_eq!((stats.rows, stats.retired), (0, 0));
        assert_eq!(zero_rows.drain_retired().count(), 0);
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
    fn finish_is_idempotent_and_push_after_finish_panics() {
        let mut labeler = StreamLabeler::new(8, Connectivity::Four);
        labeler.push_row(&[0b1111]);
        let a = labeler.finish();
        let b = labeler.finish();
        assert_eq!(a, b);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            labeler.push_row(&[0b1111]);
        }));
        assert!(result.is_err(), "push_row after finish must panic");
    }

    #[test]
    fn live_components_tracks_the_frontier() {
        let mut labeler = StreamLabeler::new(8, Connectivity::Four);
        labeler.push_row(&[0b0101_0101]);
        assert_eq!(labeler.live_components(), 4);
        labeler.push_row(&[0b1111_1111]);
        assert_eq!(labeler.live_components(), 1);
        labeler.finish();
        assert_eq!(labeler.live_components(), 0);
    }

    #[test]
    fn grid_labeler_is_bit_identical_to_the_fast_engine() {
        let mut session = StreamGridLabeler::new();
        let mut grid = crate::labels::LabelGrid::new_background(1, 1);
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 33, 7).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                session.label_into(&img, conn, &mut grid);
                assert_eq!(
                    grid,
                    fast_labels_conn(&img, conn),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn grid_labeler_survives_interleaved_dims_and_checker_density() {
        // Run-dense checker rows exercise the word-AND merge sweep; the
        // interleaved sizes exercise session reset across dims.
        let mut session = StreamGridLabeler::new();
        let mut grid = crate::labels::LabelGrid::new_background(1, 1);
        for (rows, cols) in [(64, 64), (3, 130), (65, 17), (1, 1), (200, 1)] {
            let img = gen::uniform_random(rows, cols, 0.55, (rows * 31 + cols) as u64);
            session.label_into(&img, Connectivity::Four, &mut grid);
            assert_eq!(grid, fast_labels_conn(&img, Connectivity::Four));
        }
        let checker = gen::by_name("checker", 48, 0).unwrap();
        session.label_into(&checker, Connectivity::Four, &mut grid);
        assert_eq!(grid, fast_labels_conn(&checker, Connectivity::Four));
    }

    #[test]
    fn reset_rewinds_a_session_without_allocating_anew() {
        let img = gen::by_name("random50", 50, 4).unwrap();
        let mut labeler = StreamLabeler::new(img.cols(), Connectivity::Four);
        let run_fresh = {
            for r in 0..img.rows() {
                labeler.push_row(img.row_words(r));
            }
            labeler.finish();
            let mut v: Vec<RetiredComponent> = labeler.drain_retired().collect();
            v.sort_unstable();
            v
        };
        let watermark = labeler.scratch_bytes();
        labeler.reset(img.cols(), Connectivity::Four);
        for r in 0..img.rows() {
            labeler.push_row(img.row_words(r));
        }
        labeler.finish();
        let mut run_warm: Vec<RetiredComponent> = labeler.drain_retired().collect();
        run_warm.sort_unstable();
        assert_eq!(run_warm, run_fresh);
        assert_eq!(
            labeler.scratch_bytes(),
            watermark,
            "warm replay of the same frame must not grow any arena"
        );
    }

    #[test]
    fn reset_switches_dimensions_and_connectivity() {
        let mut labeler = StreamLabeler::new(8, Connectivity::Four);
        labeler.push_row(&[0b1010_1010]);
        labeler.finish();
        labeler.drain_retired();
        let tall = Bitmap::from_art("#..\n.#.\n..#\n");
        labeler.reset(3, Connectivity::Eight);
        for r in 0..3 {
            labeler.push_row(tall.row_words(r));
        }
        labeler.finish();
        let run: Vec<RetiredComponent> = labeler.drain_retired().collect();
        assert_eq!(run.len(), 1, "8-conn staircase is one component");
        assert_eq!(run[0].area, 3);
        assert_eq!(labeler.stats().rows, 3);
    }

    #[test]
    fn slab_slots_are_recycled_across_generations() {
        // Alternating full/empty rows churn components every other row; the
        // slab must recycle slots instead of growing per generation.
        let cols = 32usize;
        let full = vec![u32::MAX as u64; 1]; // 32 ones in a 64-bit word
        let empty = vec![0u64; 1];
        let mut labeler = StreamLabeler::new(cols, Connectivity::Four);
        for _ in 0..100 {
            labeler.push_row(&full);
            labeler.push_row(&empty);
            labeler.drain_retired();
        }
        let stats = labeler.finish();
        assert_eq!(stats.retired, 100);
        assert!(
            stats.peak_nodes <= 2,
            "peak {} slots for one live component",
            stats.peak_nodes
        );
    }
}
