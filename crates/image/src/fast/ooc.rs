//! Out-of-core labeling: a band-of-tiles scheduler that streams an
//! arbitrarily tall frame through the tiled engine one band at a time. It
//! is the crate's one streaming labeler, with one result type ([`OocRun`],
//! [`OocStats`]) and one memory model: [`crate::stream::label_stream`] (its
//! fixed-band convenience entry), `slap stream` and `slapd`'s stream jobs
//! all run on [`OutOfCoreLabeler`], and every one of them emits feature
//! records, never a label grid.
//!
//! The paper's SLAP reads the image one scan line per beat and keeps only
//! the frontier. This scheduler keeps the same carried state but advances a
//! *band* per step: read `band_rows` rows from a [`RowSource`] into a
//! reusable band bitmap, label the whole band with the 2-D tiled engine
//! (`TiledLabeler::build_arena`, whose tile pass parallelizes across
//! `tiles_x` columns), then reconcile the band against a carried frontier —
//! the runs of the previous band's last row, each pointing at a union–find
//! slot holding its component's running feature record. The carried state is
//! one row of runs plus one slot per component that reaches it:
//! `O(cols + live)`, made measurable by [`OocStats::peak_carried_runs`] and
//! [`OocStats::peak_live_slots`], while the transient band arena is
//! `O(band_rows × cols)` by construction.
//!
//! Per band, in order:
//!
//! 1. **ingest** — `band_rows` packed rows (fewer for the final band; the
//!    tail is zeroed so the band bitmap can be labeled whole);
//! 2. **band label** — the tiled engine's phases 1–4 build the band's runs
//!    into one arena, tile by tile (tile-major: with one tile column, row by
//!    row), and union them across the tile seams. A component's band root
//!    is its smallest arena index;
//! 3. **band fold** — one walk in arena index order, tile by tile, flattens
//!    every band run to its band root and folds its area, centroid sums,
//!    rows, rightmost column and perimeter charge (below) into a band-local
//!    record indexed by that root. The walk meets the root first and opens
//!    the record there. The column-major minimum (hence the leftmost column)
//!    is the flattened node's `component_min`; the record becomes a global
//!    [`RetiredComponent`] only when it joins, takes or leaves a slot;
//! 4. **seam merge** — the band's first row, gathered across its tiles into
//!    maximal runs, goes through the crate's one row-to-row adjacency sweep
//!    ([`for_each_adjacent_pair`]) against the carried runs: a band
//!    component *adopts* the first carried slot it meets and unions with
//!    any further ones, and its band record folds into that slot;
//! 5. **carry + retire** — the band's last real row, gathered the same way,
//!    becomes the new carried frontier, minting a slot for each component
//!    born in this band that reaches it. A component that touches neither
//!    the carried row nor the last row never takes a slot: its band record
//!    is already final and is emitted at once. Every carried slot that
//!    missed the new frontier retires its finished [`RetiredComponent`].
//!    Forwarded and retired slots return to a free list, so slot storage
//!    tracks *live* components, not total ones.
//!
//! **Perimeter charge.** A run of `len` pixels pays `left + right +
//! 2·(len − shared)`: its exposed side edges (where the pixel past it is
//! background), plus top and bottom edges of every pixel less the two each
//! vertical adjacency hides, where `shared` is the popcount of its span in
//! the row above (the carried row for a band's first row, zeros at the
//! image top). A vertical adjacency always
//! joins one component, so a component's charges sum to its 4-neighbor
//! perimeter (only partial sums differ) and no run reads the row below.
//!
//! Steps 4–5 drive the live-component union–find of `crate::live`, one band
//! per step. Retired records reach the caller through
//! [`OutOfCoreLabeler::label_source_with`] as their band retires them.
//! The test suites compare every record — perimeter included — with a
//! per-pixel fold over the whole-frame engine's labels, for every band
//! height and tile-column count.

use super::tiled::{gather_row, TiledLabeler};
use super::LabelEngine;
use crate::bitmap::{count_ones_in_span, for_each_adjacent_pair, Bitmap};
use crate::connectivity::Connectivity;
use crate::live::{LiveComponents, NONE};
use crate::stream::{RetiredComponent, RowSource};
use std::io;

/// Whether pixel `c` of a packed row is set.
#[inline]
fn bit(words: &[u64], c: u32) -> bool {
    words[c as usize / 64] >> (c % 64) & 1 == 1
}

/// Refuses a frame of more than `2^32` rows: record row fields are `u32`.
fn check_row_space(rows: u64) -> io::Result<()> {
    if rows <= 1 << 32 {
        return Ok(());
    }
    let msg = format!("a frame of {rows} rows overflows the u32 row space");
    Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
}

/// Aggregate statistics of an out-of-core run: the frame shape actually
/// seen, and the peaks that witness the memory model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OocStats {
    /// Rows read from the source.
    pub rows: u64,
    /// Row width in pixels.
    pub cols: usize,
    /// Foreground pixels seen.
    pub pixels: u64,
    /// Bands processed (`ceil(rows / band_rows)`).
    pub bands: u64,
    /// Band height the labeler was configured with.
    pub band_rows: usize,
    /// Components retired.
    pub retired: u64,
    /// Most arena runs in one row — the runs a scan-line labeler must hold
    /// for one row; at most `cols / 2 + 1` when `tiles_x = 1` (a wider tile
    /// grid clips runs at tile-column boundaries).
    pub peak_frontier_runs: usize,
    /// Maximum carried frontier size (runs of one band-boundary row) — the
    /// `O(cols)` half of the carried-state bound; at most `cols / 2 + 1`.
    pub peak_carried_runs: usize,
    /// Maximum simultaneously occupied union–find slots — the `O(live)`
    /// half. Sampled once per band after its seam merge and mints, before
    /// retirement and reclaim, so it counts the components on the old and
    /// the new frontier plus the band's seam-merge garbage: at most
    /// `cols + 1`, because a component confined to one band never takes a
    /// slot.
    pub peak_live_slots: usize,
    /// Maximum runs held by a single band arena (transient, bounded by the
    /// band area).
    pub peak_band_runs: usize,
}

/// The result of draining a [`RowSource`] out-of-core.
#[derive(Clone, Debug)]
pub struct OocRun {
    /// Every retired component, in retirement order.
    pub components: Vec<RetiredComponent>,
    /// Frame shape and carried-state peaks.
    pub stats: OocStats,
}

/// One component of the band being folded, in band-local rows (see step 3
/// of the module docs), and the live slot it joined ([`NONE`] while it is
/// band-local).
#[derive(Clone, Copy, Debug, Default)]
struct BandComp {
    area: u64,
    sum_row: u64,
    sum_col: u64,
    perimeter: u64,
    max_col: u32,
    top: u32,
    bottom: u32,
    /// Band-local column-major minimum, `col * band_rows + row`.
    min: u32,
    slot: u32,
}

impl BandComp {
    /// The record so far at global rows, the band's first being `band_top`.
    fn record(&self, band_rows: u32, band_top: u32) -> RetiredComponent {
        let col = self.min / band_rows;
        RetiredComponent {
            min_pos_col: col,
            min_pos_row: band_top + self.min % band_rows,
            area: self.area,
            min_row: band_top + self.top,
            max_row: band_top + self.bottom,
            min_col: col,
            max_col: self.max_col,
            sum_row: self.sum_row + u64::from(band_top) * self.area,
            sum_col: self.sum_col,
            perimeter: self.perimeter,
        }
    }
}

/// Reusable out-of-core labeler (see the module docs for the band cycle).
/// The band bitmap, the tiled core, and every carried vector persist across
/// calls, so a stream of frames with equal widths grows no arena.
#[derive(Debug)]
pub struct OutOfCoreLabeler {
    /// Rows per band (≥ 1); the in-memory working set is `band_rows × cols`.
    band_rows: usize,
    /// The band-labeling core: a 1 × `tiles_x` tiled engine driven through
    /// its arena-building phases only.
    core: TiledLabeler,
    /// The reusable band bitmap (re-dimensioned when the width changes; its
    /// storage only ever grows).
    band: Bitmap,
    /// Row read buffer handed to the source.
    words: Vec<u64>,
    /// Packed words of the previous band's last real row.
    prev_words: Vec<u64>,
    /// Runs of that row, packed `start << 32 | end`.
    prev_runs: Vec<u64>,
    /// Slot index of each carried run.
    prev_slots: Vec<u32>,
    /// Scratch for the next frontier while the previous is still readable.
    next_runs: Vec<u64>,
    next_slots: Vec<u32>,
    /// The union–find over live components, one step per band.
    live: LiveComponents,
    /// Band root (arena index) → index into `comps`; written when the fold
    /// reaches the root, which is always its component's first run.
    comp_ix: Vec<u32>,
    /// The current band's components, in band-root order.
    comps: Vec<BandComp>,
    /// Scratch words for seam adjacency.
    and_buf: Vec<u64>,
    /// Arena index of each run of a gathered band row.
    row_ix: Vec<u32>,
}

impl OutOfCoreLabeler {
    /// Creates a labeler reading `band_rows` rows per band and labeling each
    /// band with `tiles_x` tile columns (both clamped to ≥ 1; the tile pass
    /// uses `tiles_x` workers).
    pub fn new(band_rows: usize, tiles_x: usize) -> Self {
        let tiles_x = tiles_x.max(1);
        OutOfCoreLabeler {
            band_rows: band_rows.max(1),
            core: TiledLabeler::new(1, tiles_x, tiles_x),
            band: Bitmap::new(1, 1),
            words: Vec::new(),
            prev_words: Vec::new(),
            prev_runs: Vec::new(),
            prev_slots: Vec::new(),
            next_runs: Vec::new(),
            next_slots: Vec::new(),
            live: LiveComponents::default(),
            comp_ix: Vec::new(),
            comps: Vec::new(),
            and_buf: Vec::new(),
            row_ix: Vec::new(),
        }
    }

    /// Total bytes of scratch capacity currently reserved — carried state,
    /// slot slab, band bitmap, and the tiled core's arenas.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.core.scratch_bytes()
            + self.live.scratch_bytes()
            + self.band.scratch_bytes()
            + (self.words.capacity()
                + self.prev_words.capacity()
                + self.prev_runs.capacity()
                + self.next_runs.capacity()
                + self.and_buf.capacity())
                * size_of::<u64>()
            + (self.prev_slots.capacity()
                + self.next_slots.capacity()
                + self.comp_ix.capacity()
                + self.row_ix.capacity())
                * size_of::<u32>()
            + self.comps.capacity() * size_of::<BandComp>()
    }

    /// Drains `src` and returns every component of the frame with full
    /// feature records, never holding more than one band of bitmap plus the
    /// carried frontier. Component order is retirement order; sort for the
    /// canonical order, or use [`RetiredComponent::label`] with
    /// `stats.rows` for the paper's labels.
    pub fn label_source<S: RowSource>(
        &mut self,
        src: &mut S,
        conn: Connectivity,
    ) -> io::Result<OocRun> {
        let mut components = Vec::new();
        let stats = self.label_source_with(src, conn, |rec| components.push(rec))?;
        Ok(OocRun { components, stats })
    }

    /// [`Self::label_source`] without collecting: hands every record to
    /// `sink` as its band retires it, so a caller that keeps only a summary
    /// holds one band plus `O(cols + live)` state whatever the component
    /// count.
    ///
    /// A band of `band_rows × cols` positions must fit the arena's `u32`
    /// position space and a frame's rows the `u32` row fields; a wider band
    /// or a `rows_hint` past `2^32` rows is refused with
    /// [`io::ErrorKind::InvalidInput`] before any band-sized allocation (a
    /// hint-less source fails the same way on its `2^32 + 1`-th row).
    pub fn label_source_with<S: RowSource>(
        &mut self,
        src: &mut S,
        conn: Connectivity,
        mut sink: impl FnMut(RetiredComponent),
    ) -> io::Result<OocStats> {
        let cols = src.cols();
        let mut stats = OocStats {
            cols,
            band_rows: self.band_rows,
            ..OocStats::default()
        };
        // Reset carried state from any previous frame.
        self.prev_runs.clear();
        self.prev_slots.clear();
        self.live.clear();
        if cols == 0 {
            // Every row is empty: count them, emit nothing.
            while src.next_row(&mut self.words)? {
                stats.rows += 1;
            }
            return Ok(stats);
        }
        if (self.band_rows as u64).saturating_mul(cols as u64) >= u64::from(u32::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a band of {} rows x {cols} cols overflows the u32 position space; \
                     lower the band height",
                    self.band_rows
                ),
            ));
        }
        check_row_space(src.rows_hint().map_or(0, |rows| rows as u64))?;
        if (self.band.rows(), self.band.cols()) != (self.band_rows, cols) {
            self.band.reset_dims(self.band_rows, cols);
        }
        self.prev_words.clear();
        self.prev_words.resize(cols.div_ceil(64), 0);

        loop {
            let h = self.read_band(src)?;
            if h == 0 {
                break;
            }
            check_row_space(stats.rows + h as u64)?;
            self.process_band(conn, stats.rows as u32, h, &mut sink, &mut stats);
            stats.rows += h as u64;
            stats.bands += 1;
            if h < self.band_rows {
                break;
            }
        }

        // End of frame: every still-live component retires untouched.
        self.live
            .finish_step(self.prev_slots.iter().copied(), |rec| {
                sink(*rec);
                stats.retired += 1;
            });
        Ok(stats)
    }

    /// Reads up to `band_rows` rows into the band bitmap, zeroing the unused
    /// tail, and returns how many real rows arrived.
    fn read_band<S: RowSource>(&mut self, src: &mut S) -> io::Result<usize> {
        let band = &mut self.band;
        let mut h = 0usize;
        while h < self.band_rows {
            if !src.next_row(&mut self.words)? {
                break;
            }
            band.set_row_words(h, &self.words);
            h += 1;
        }
        if h < self.band_rows {
            self.words.clear();
            self.words.resize(band.words_per_row(), 0);
            for r in h..self.band_rows {
                band.set_row_words(r, &self.words);
            }
        }
        Ok(h)
    }

    /// Labels the loaded band (first `h` rows real, `band_top` its global
    /// row offset), reconciles it with the carried frontier, and advances
    /// the frontier to the band's last real row.
    fn process_band(
        &mut self,
        conn: Connectivity,
        band_top: u32,
        h: usize,
        sink: &mut impl FnMut(RetiredComponent),
        stats: &mut OocStats,
    ) {
        let band = &self.band;
        self.core.build_arena(band, conn);
        let (runs, node, tiles) = self.core.arena();
        stats.peak_band_runs = stats.peak_band_runs.max(runs.len());
        if self.comp_ix.len() < runs.len() {
            self.comp_ix.resize(runs.len(), 0);
        }
        self.comps.clear();
        // Fits: the band's positions fit `u32` (checked per frame).
        let band_rows = self.band_rows as u32;
        let cols = band.cols();
        for lr in 0..h {
            let row_runs = tiles.iter().map(|t| t.row_runs[lr + 1] - t.row_runs[lr]);
            stats.peak_frontier_runs = stats.peak_frontier_runs.max(row_runs.sum::<u32>() as usize);
        }

        // Step 3, in arena index order: parents point down, so a run's
        // parent is flattened before the run, and a root — its component's
        // smallest index — opens the record before any other run of its
        // component. The row above the band's first row is the carried one
        // (all zeros at the image top).
        for t in tiles {
            for lr in 0..h {
                let row = band.row_words(lr);
                let north = if lr > 0 {
                    band.row_words(lr - 1)
                } else {
                    &self.prev_words[..]
                };
                for k in t.row_runs[lr] as usize..t.row_runs[lr + 1] as usize {
                    let sb = runs[k];
                    let (a, b) = ((sb >> 32) as u32, sb as u32);
                    let len = u64::from(b - a + 1);
                    // Tiles clip runs, so test the pixel past each side.
                    let left = u64::from(a == 0 || !bit(row, a - 1));
                    let right = u64::from(b as usize + 1 == cols || !bit(row, b + 1));
                    node[k] = node[node[k] as u32 as usize];
                    let root = node[k] as u32 as usize;
                    let ix = if root == k {
                        self.comp_ix[k] = self.comps.len() as u32;
                        self.comps.push(BandComp {
                            top: lr as u32,
                            min: (node[k] >> 32) as u32,
                            slot: NONE,
                            ..BandComp::default()
                        });
                        self.comps.len() - 1
                    } else {
                        debug_assert!(root < k, "band roots are their components' first runs");
                        self.comp_ix[root] as usize
                    };
                    let comp = &mut self.comps[ix];
                    comp.area += len;
                    comp.sum_row += len * lr as u64;
                    comp.sum_col += (u64::from(a) + u64::from(b)) * len / 2;
                    let shared = u64::from(count_ones_in_span(north, a, b));
                    comp.perimeter += left + right + 2 * (len - shared);
                    comp.max_col = comp.max_col.max(b);
                    // A right tile's rows can precede its root's row.
                    comp.top = comp.top.min(lr as u32);
                    comp.bottom = comp.bottom.max(lr as u32);
                }
            }
        }
        stats.pixels += self.comps.iter().map(|comp| comp.area).sum::<u64>();

        if band_top > 0 {
            // Step 4: seam merge across the band boundary — a band component
            // adopts the first carried slot it meets and unions with the
            // rest — then each joined component's band record folds into
            // its slot. The first row is gathered into the next frontier's
            // buffer, free until step 5.
            let OutOfCoreLabeler {
                prev_words,
                prev_runs,
                prev_slots,
                live,
                comp_ix,
                comps,
                and_buf,
                next_runs: row0_runs,
                row_ix,
                ..
            } = self;
            gather_row(runs, tiles, 0, row0_runs, row_ix);
            for_each_adjacent_pair(
                conn,
                band.row_words(0),
                prev_words,
                row0_runs,
                prev_runs,
                and_buf,
                |c, q| {
                    let comp =
                        &mut comps[comp_ix[node[row_ix[c] as usize] as u32 as usize] as usize];
                    live.join(&mut comp.slot, &mut prev_slots[q]);
                },
            );
            for comp in comps.iter_mut().filter(|comp| comp.slot != NONE) {
                comp.slot = live.absorb(comp.slot, &comp.record(band_rows, band_top));
            }
        }

        // Step 5: the band's last real row, gathered into maximal runs,
        // becomes the new carried frontier. A component born in this band
        // that reaches it takes a slot now, with its whole band record.
        gather_row(runs, tiles, h - 1, &mut self.next_runs, &mut self.row_ix);
        self.next_slots.clear();
        for &k in &self.row_ix {
            let comp = &mut self.comps[self.comp_ix[node[k as usize] as u32 as usize] as usize];
            if comp.slot == NONE {
                comp.slot = self.live.mint(comp.record(band_rows, band_top));
            }
            self.live.touch(comp.slot);
            self.next_slots.push(comp.slot);
        }

        // A component that never took a slot is confined to this band: its
        // record is final.
        for comp in self.comps.iter().filter(|comp| comp.slot == NONE) {
            sink(comp.record(band_rows, band_top));
            stats.retired += 1;
        }

        // Still step 5: retire every carried slot that missed the new
        // frontier. Such a component has no pixel on the boundary row and
        // can never grow.
        self.live
            .finish_step(self.prev_slots.iter().copied(), |rec| {
                sink(*rec);
                stats.retired += 1;
            });

        // Swap in the new frontier.
        std::mem::swap(&mut self.prev_runs, &mut self.next_runs);
        std::mem::swap(&mut self.prev_slots, &mut self.next_slots);
        self.prev_words.copy_from_slice(band.row_words(h - 1));
        stats.peak_carried_runs = stats.peak_carried_runs.max(self.prev_runs.len());
        stats.peak_live_slots = self.live.peak();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_labels_conn;
    use crate::gen;
    use crate::stream::{label_stream, reference_records, BitmapRows, STREAM_BAND_ROWS};

    const CONNS: [Connectivity; 2] = [Connectivity::Four, Connectivity::Eight];

    fn ooc_on(img: &Bitmap, conn: Connectivity, band_rows: usize, tiles_x: usize) -> OocRun {
        OutOfCoreLabeler::new(band_rows, tiles_x)
            .label_source(&mut BitmapRows::new(img), conn)
            .unwrap()
    }

    /// The strongest identity available: every retired feature record —
    /// perimeter, centroid sums, bounding box, minimum position — must match
    /// a per-pixel fold over the whole-frame engine's labels, for every band
    /// height and tile-column count.
    #[test]
    fn retired_records_match_the_per_pixel_reference_exactly() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 53, 9).unwrap();
            for conn in CONNS {
                let want = reference_records(&img, conn);
                for band_rows in [1usize, 2, 7, 16, 53, 64, 100, 128] {
                    for tiles_x in [1usize, 2, 4] {
                        let mut got = ooc_on(&img, conn, band_rows, tiles_x).components;
                        got.sort_unstable();
                        assert_eq!(
                            got, want,
                            "{name} conn={conn:?} band_rows={band_rows} tiles_x={tiles_x}"
                        );
                    }
                }
            }
        }
    }

    /// Every record of `img` at `band_rows` 1/2/3 × `tiles_x` 1/2/3 × both
    /// connectivities equals the per-pixel reference.
    fn assert_small_bands_match_reference(img: &Bitmap, what: &str) {
        for conn in CONNS {
            let want = reference_records(img, conn);
            for band_rows in [1usize, 2, 3] {
                for tiles_x in [1usize, 2, 3] {
                    let mut got = ooc_on(img, conn, band_rows, tiles_x).components;
                    got.sort_unstable();
                    assert_eq!(
                        got, want,
                        "{what} conn={conn:?} band_rows={band_rows} tiles_x={tiles_x}"
                    );
                }
            }
        }
    }

    #[test]
    fn seam_perimeters_match_when_carried_and_first_row_runs_overlap_partly() {
        // Each run charges its vertical edges twice over against the row
        // above, so a band's partial perimeter depends on what the carried
        // row covers. Runs here overlap their neighbors above only partly,
        // several straddle the word boundary at column 64, and one row
        // holds two runs under one carried run.
        let spans: [&[(usize, usize)]; 8] = [
            &[(58, 66)],
            &[(62, 71)],
            &[(55, 63), (65, 70)],
            &[(64, 64)],
            &[(60, 70), (72, 75)],
            &[(50, 61), (66, 79)],
            &[(61, 65)],
            &[(0, 2), (63, 63), (77, 78)],
        ];
        let mut img = Bitmap::new(spans.len(), 80);
        for (r, row) in spans.iter().enumerate() {
            for &(a, b) in row.iter() {
                for c in a..=b {
                    img.set(r, c, true);
                }
            }
        }
        assert_small_bands_match_reference(&img, "hand-built");
    }

    #[test]
    fn a_root_below_a_right_tiles_first_run_opens_its_record_first() {
        // Tiles fill the band arena tile by tile, so the L's root — its
        // left-tile run on row 3 — precedes the right tile's runs on rows
        // 0–2. A fold walking the band row by row across tiles would meet
        // those runs before their root (and the dot's record would be the
        // one it finds open); the top row, too, is the right tile's.
        let img = Bitmap::from_art(
            "#....#\n\
             .....#\n\
             .....#\n\
             ######\n\
             ......\n\
             #.....\n\
             .....#\n\
             ######\n",
        );
        assert_small_bands_match_reference(&img, "root below the right tile's top");
        for conn in CONNS {
            let want = reference_records(&img, conn);
            for band_rows in [4usize, 8] {
                for tiles_x in [2usize, 3] {
                    let mut got = ooc_on(&img, conn, band_rows, tiles_x).components;
                    got.sort_unstable();
                    assert_eq!(
                        got, want,
                        "conn={conn:?} band_rows={band_rows} tiles_x={tiles_x}"
                    );
                }
            }
        }
    }

    #[test]
    fn seam_perimeters_match_on_word_boundary_widths() {
        for cols in [63usize, 64, 65, 127, 128, 129] {
            let img = gen::uniform_random(23, cols, 0.55, cols as u64);
            assert_small_bands_match_reference(&img, &format!("cols={cols}"));
        }
    }

    #[test]
    fn a_warm_one_tile_labeler_survives_shape_and_connectivity_changes() {
        // The band arena only grows and a warm band overwrites a prefix of
        // it; a stale arena tail left by a larger frame must not leak into
        // a smaller one, and the larger frame coming back must not grow
        // the scratch.
        let mut lab = OutOfCoreLabeler::new(16, 1);
        let tall = gen::uniform_random(100, 150, 0.5, 7);
        let short = gen::uniform_random(9, 20, 0.5, 8);
        let mut warm_bytes = 0;
        for (i, (img, conn)) in [
            (&tall, Connectivity::Four),
            (&short, Connectivity::Eight),
            (&tall, Connectivity::Four),
        ]
        .into_iter()
        .enumerate()
        {
            let mut got = lab
                .label_source(&mut BitmapRows::new(img), conn)
                .unwrap()
                .components;
            got.sort_unstable();
            assert_eq!(got, reference_records(img, conn), "call {i}");
            if i == 1 {
                warm_bytes = lab.scratch_bytes();
            }
        }
        assert!(lab.scratch_bytes() <= warm_bytes);
    }

    #[test]
    fn tall_run_dense_frames_keep_slots_bounded_by_cols() {
        // Components confined to one band never take a live slot, so the
        // slab stays within both band frontiers however many components a
        // band holds; `label_stream` reports the true densest row.
        let cols = 64usize;
        let img = gen::uniform_random(4096, cols, 0.5, 11);
        for conn in CONNS {
            let run = ooc_on(&img, conn, STREAM_BAND_ROWS, 1);
            assert!(
                run.stats.peak_live_slots <= cols + 1,
                "{} live slots for {cols} cols (conn={conn:?})",
                run.stats.peak_live_slots
            );
            let stream = label_stream(&mut BitmapRows::new(&img), conn).unwrap();
            let densest = (0..img.rows()).map(|r| img.count_row_runs(r)).max();
            assert_eq!(Some(stream.stats.peak_frontier_runs), densest);
            assert_eq!(stream.stats.peak_live_slots, run.stats.peak_live_slots);
        }
    }

    #[test]
    fn labels_and_areas_match_the_whole_frame_engine() {
        let img = gen::uniform_random(97, 130, 0.45, 3);
        for conn in CONNS {
            let grid = fast_labels_conn(&img, conn);
            let mut want: Vec<(u64, u64)> = grid
                .component_stats()
                .iter()
                .map(|c| (u64::from(c.label), c.pixels as u64))
                .collect();
            want.sort_unstable();
            let run = ooc_on(&img, conn, 16, 2);
            let mut got: Vec<(u64, u64)> = run
                .components
                .iter()
                .map(|c| (c.label(img.rows()), c.area))
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "conn={conn:?}");
            assert_eq!(run.stats.retired as usize, want.len());
        }
    }

    #[test]
    fn carried_state_stays_bounded_by_one_row_of_runs() {
        // A dense tall frame: the band arena sees many runs, but the carried
        // frontier can never exceed ceil(cols / 2) runs.
        let img = gen::uniform_random(200, 64, 0.5, 5);
        for conn in CONNS {
            let run = ooc_on(&img, conn, 8, 2);
            assert!(run.stats.peak_carried_runs <= 64 / 2 + 1);
            assert!(run.stats.peak_band_runs >= run.stats.peak_carried_runs);
            assert_eq!(run.stats.rows, 200);
            assert_eq!(run.stats.bands, 25);
        }
    }

    #[test]
    fn components_born_and_dying_inside_one_band_are_retired() {
        // An isolated dot strictly inside band 0 of a 2-band frame must not
        // be lost when the frontier moves past it.
        let mut img = Bitmap::new(8, 8);
        img.set(1, 3, true);
        img.set(6, 6, true);
        let run = ooc_on(&img, Connectivity::Four, 4, 1);
        assert_eq!(run.components.len(), 2);
        let dot = run.components.iter().find(|c| c.min_pos_row == 1).unwrap();
        assert_eq!((dot.area, dot.perimeter), (1, 4));
    }

    #[test]
    fn a_component_straddling_every_band_keeps_one_record() {
        // One vertical line through a 10-band frame: each band boundary must
        // chain the same slot forward.
        let mut img = Bitmap::new(40, 5);
        for r in 0..40 {
            img.set(r, 2, true);
        }
        for conn in CONNS {
            let run = ooc_on(&img, conn, 4, 2);
            assert_eq!(run.components.len(), 1, "conn={conn:?}");
            let c = &run.components[0];
            assert_eq!(c.area, 40);
            assert_eq!(c.perimeter, 2 * 40 + 2);
            assert_eq!((c.min_row, c.max_row), (0, 39));
            assert_eq!(run.stats.peak_live_slots, 1);
        }
    }

    #[test]
    fn diagonal_links_across_band_boundaries_merge_at_eight_conn() {
        // A staircase touching only diagonally at every boundary row.
        let mut img = Bitmap::new(6, 6);
        for k in 0..6 {
            img.set(k, k, true);
        }
        for band_rows in [1usize, 2, 3] {
            let run = ooc_on(&img, Connectivity::Eight, band_rows, 2);
            assert_eq!(run.components.len(), 1, "band_rows={band_rows}");
            let four = ooc_on(&img, Connectivity::Four, band_rows, 2);
            assert_eq!(four.components.len(), 6, "band_rows={band_rows}");
        }
    }

    #[test]
    fn reused_labeler_carries_nothing_between_frames() {
        let mut lab = OutOfCoreLabeler::new(4, 2);
        let a = gen::uniform_random(30, 33, 0.5, 1);
        let b = gen::uniform_random(9, 33, 0.7, 2);
        for img in [&a, &b, &a] {
            let run = lab
                .label_source(&mut BitmapRows::new(img), Connectivity::Eight)
                .unwrap();
            let mut got = run.components;
            got.sort_unstable();
            assert_eq!(got, reference_records(img, Connectivity::Eight));
        }
        // Width change reallocates the band bitmap.
        let c = gen::uniform_random(10, 70, 0.5, 3);
        let run = lab
            .label_source(&mut BitmapRows::new(&c), Connectivity::Four)
            .unwrap();
        assert_eq!(
            run.components.len(),
            fast_labels_conn(&c, Connectivity::Four).component_count()
        );
    }

    #[test]
    fn a_band_past_the_u32_position_space_is_invalid_input() {
        // 2^32 rows of 8 columns: refused with a typed error before the band
        // bitmap is sized, and the frame's rows are left unread.
        let img = gen::uniform_random(3, 8, 0.5, 6);
        let mut rows = BitmapRows::new(&img);
        let err = OutOfCoreLabeler::new(1 << 32, 1)
            .label_source(&mut rows, Connectivity::Four)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(rows.next_row(&mut Vec::new()).unwrap());
    }

    /// A source whose header claims more rows than it has.
    struct LyingHint<'a>(BitmapRows<'a>);

    impl RowSource for LyingHint<'_> {
        fn cols(&self) -> usize {
            self.0.cols()
        }

        fn rows_hint(&self) -> Option<usize> {
            Some(usize::MAX)
        }

        fn next_row(&mut self, words: &mut Vec<u64>) -> io::Result<bool> {
            self.0.next_row(words)
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_frame_past_the_u32_row_space_is_invalid_input() {
        // More than 2^32 rows announced: refused with a typed error before
        // any row is read, not a panic in the band fold.
        let img = gen::uniform_random(3, 8, 0.5, 6);
        let mut rows = LyingHint(BitmapRows::new(&img));
        let err = OutOfCoreLabeler::new(4, 1)
            .label_source(&mut rows, Connectivity::Four)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(rows.next_row(&mut Vec::new()).unwrap());
    }

    #[test]
    fn empty_and_degenerate_frames_do_not_panic() {
        let empty = Bitmap::new(5, 5);
        let run = ooc_on(&empty, Connectivity::Four, 2, 2);
        assert!(run.components.is_empty());
        assert_eq!(run.stats.rows, 5);
        let line = gen::uniform_random(1, 100, 0.5, 4);
        for conn in CONNS {
            let run = ooc_on(&line, conn, 3, 4);
            assert_eq!(
                run.components.len(),
                fast_labels_conn(&line, conn).component_count()
            );
        }
    }
}
