//! Out-of-core labeling: a band-of-tiles scheduler that streams an
//! arbitrarily tall frame through the tiled engine one band at a time. It
//! is the crate's one streaming labeler, with one result type ([`OocRun`],
//! [`OocStats`]) and one memory model: [`crate::stream::label_stream`] (its
//! fixed-band convenience entry), `slap stream` / `slap label --out-of-core`
//! and `slapd`'s stream jobs all run on [`OutOfCoreLabeler`], and every one
//! of them emits feature records, never a label grid.
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
//! 2. **band label** — the tiled engine's phases 1–4 leave every band run
//!    flattened to its band root, the component's first run in arena order;
//! 3. **band fold** — every band run folds its feature contribution (area,
//!    bbox, centroid sums, perimeter with word-level exposure counts,
//!    minimum column-major position at **global** row coordinates) into a
//!    band-local record indexed by its band root;
//! 4. **bottom exposure** — each carried run adds its uncovered span under
//!    the band's first row to its component's perimeter (the half of the
//!    seam accounting the previous band could not see);
//! 5. **seam merge** — the crate's one row-to-row adjacency sweep
//!    ([`for_each_adjacent_pair`]) pairs carried runs with first-row runs: a
//!    band component *adopts* the first carried slot it meets and unions
//!    with any further ones, and its band record folds into that slot;
//! 6. **carry + retire** — the band's last real row becomes the new carried
//!    frontier, minting a slot for each component born in this band that
//!    reaches it. A component that touches neither the carried row nor the
//!    last row never takes a slot: its band record is already final and is
//!    emitted at once. Every carried slot that missed the new frontier
//!    retires its finished [`RetiredComponent`]. Forwarded and retired slots
//!    return to a free list, so slot storage tracks *live* components, not
//!    total ones.
//!
//! Steps 4–6 drive the live-component union–find of `crate::live`, one band
//! per step. Retired records reach the caller through
//! [`OutOfCoreLabeler::label_source_with`] as their band retires them.
//! The test suites compare every record — perimeter included — with a
//! per-pixel fold over the whole-frame engine's labels, for every band
//! height and tile-column count.

use super::tiled::TiledLabeler;
use crate::bitmap::{count_ones_in_span, for_each_adjacent_pair, Bitmap};
use crate::connectivity::Connectivity;
use crate::live::{LiveComponents, NONE};
use crate::stream::{RetiredComponent, RowSource};
use std::io;

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

/// One component of the band being folded: its band record and the live
/// slot it joined ([`NONE`] while it is band-local).
#[derive(Clone, Copy, Debug)]
struct BandComp {
    rec: RetiredComponent,
    slot: u32,
}

/// Reusable out-of-core labeler (see the module docs for the band cycle).
/// The band bitmap, the tiled core, and every carried vector persist across
/// calls, so a stream of frames with equal widths reallocates nothing.
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
            + (self.prev_slots.capacity() + self.next_slots.capacity() + self.comp_ix.capacity())
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
    /// position space; a wider one is refused with
    /// [`io::ErrorKind::InvalidInput`] before any band-sized allocation.
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
            self.process_band(conn, stats.rows, h, &mut sink, &mut stats);
            stats.rows += h as u64;
            stats.bands += 1;
            if h < self.band_rows {
                break;
            }
        }

        // End of frame: every carried run's bottom edges face the border (an
        // all-background row), then every still-live component retires
        // untouched. Exposure comes first — a slot can own several carried
        // runs, and its record must not be emitted before all of them add
        // their edges.
        self.words.clear();
        self.words.resize(cols.div_ceil(64), 0);
        self.live
            .expose_south(&self.prev_runs, &self.prev_slots, &self.words);
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
        band_top: u64,
        h: usize,
        sink: &mut impl FnMut(RetiredComponent),
        stats: &mut OocStats,
    ) {
        let band = &self.band;
        self.core.build_arena(band, conn);
        let (runs, node, row_runs) = self.core.arena();
        stats.peak_band_runs = stats.peak_band_runs.max(runs.len());
        if self.comp_ix.len() < runs.len() {
            self.comp_ix.resize(runs.len(), 0);
        }
        self.comps.clear();
        let first = band_top == 0;

        // Step 3: fold every band run into its band component's record. A
        // root is its component's smallest arena index (parents always
        // point down), so the fold meets it before any other run of its
        // component and opens the record there.
        for lr in 0..h {
            let gr = u32::try_from(band_top + lr as u64).expect("frame rows exceed u32");
            let north_words = if lr > 0 {
                Some(band.row_words(lr - 1))
            } else if first {
                None
            } else {
                Some(&self.prev_words[..])
            };
            let south_words = (lr + 1 < h).then(|| band.row_words(lr + 1));
            let (row_lo, row_hi) = (row_runs[lr] as usize, row_runs[lr + 1] as usize);
            stats.peak_frontier_runs = stats.peak_frontier_runs.max(row_hi - row_lo);
            for k in row_lo..row_hi {
                let sb = runs[k];
                let (a, b) = ((sb >> 32) as u32, (sb & 0xffff_ffff) as u32);
                let len = u64::from(b - a + 1);
                stats.pixels += len;
                // The band arena clips runs at tile-column boundaries, so a
                // run's left/right pixel edge is exposed only when the
                // neighboring arena run (same row, adjacent index) does not
                // continue it.
                let left = u64::from(k == row_lo || (runs[k - 1] & 0xffff_ffff) + 1 != sb >> 32);
                let right =
                    u64::from(k + 1 == row_hi || (runs[k + 1] >> 32) != (sb & 0xffff_ffff) + 1);
                let north = match north_words {
                    Some(w) => len - u64::from(count_ones_in_span(w, a, b)),
                    None => len, // image top border
                };
                // The last real row's south edges are settled by the next
                // band (or the end-of-frame pass).
                let south = match south_words {
                    Some(w) => len - u64::from(count_ones_in_span(w, a, b)),
                    None => 0,
                };
                let rec = RetiredComponent::run(gr, a, b, left + right + north + south);
                let root = node[k] as u32 as usize;
                if root == k {
                    self.comp_ix[k] = self.comps.len() as u32;
                    self.comps.push(BandComp { rec, slot: NONE });
                } else {
                    debug_assert!(root < k, "band roots are their components' first runs");
                    self.comps[self.comp_ix[root] as usize].rec.absorb(&rec);
                }
            }
        }

        if !first {
            // Step 4: bottom exposure of the carried frontier against the
            // band's first row.
            let row0 = band.row_words(0);
            self.live
                .expose_south(&self.prev_runs, &self.prev_slots, row0);

            // Step 5: seam merge across the band boundary — a band component
            // adopts the first carried slot it meets and unions with the
            // rest — then each joined component's band record folds into
            // its slot.
            let (r0lo, r0hi) = (row_runs[0] as usize, row_runs[1] as usize);
            let OutOfCoreLabeler {
                prev_words,
                prev_runs,
                prev_slots,
                live,
                comp_ix,
                comps,
                and_buf,
                ..
            } = self;
            for_each_adjacent_pair(
                conn,
                row0,
                prev_words,
                &runs[r0lo..r0hi],
                prev_runs,
                and_buf,
                |c, q| {
                    let comp = &mut comps[comp_ix[node[r0lo + c] as u32 as usize] as usize];
                    live.join(&mut comp.slot, &mut prev_slots[q]);
                },
            );
            for comp in comps.iter_mut().filter(|comp| comp.slot != NONE) {
                comp.slot = live.absorb(comp.slot, &comp.rec);
            }
        }

        // Step 6: the band's last real row becomes the new carried frontier.
        // A component born in this band that reaches it takes a slot now,
        // with its whole band record. Arena runs clipped at tile boundaries
        // are coalesced back into maximal row runs — the seam sweeps and the
        // `O(cols)` carried-run bound both assume them — which is safe
        // because touching runs always share a component (the vertical seams
        // unioned them).
        self.next_runs.clear();
        self.next_slots.clear();
        for k in row_runs[h - 1] as usize..row_runs[h] as usize {
            let sb = runs[k];
            let comp = &mut self.comps[self.comp_ix[node[k] as u32 as usize] as usize];
            if comp.slot == NONE {
                comp.slot = self.live.mint(comp.rec);
            }
            let s = comp.slot;
            self.live.touch(s);
            if let Some(last) = self.next_runs.last_mut() {
                if (*last & 0xffff_ffff) + 1 == sb >> 32 {
                    debug_assert_eq!(*self.next_slots.last().unwrap(), s);
                    *last = (*last & 0xffff_ffff_0000_0000) | (sb & 0xffff_ffff);
                    continue;
                }
            }
            self.next_runs.push(sb);
            self.next_slots.push(s);
        }

        // A component that never took a slot is confined to this band: its
        // record is final.
        for comp in self.comps.iter().filter(|comp| comp.slot == NONE) {
            sink(comp.rec);
            stats.retired += 1;
        }

        // Still step 6: retire every carried slot that missed the new
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
        for name in ["random50", "blobs", "checker", "maze", "spiral"] {
            let img = gen::by_name(name, 53, 9).unwrap();
            for conn in CONNS {
                let want = reference_records(&img, conn);
                for band_rows in [1usize, 2, 7, 16, 53, 64, 100] {
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
