//! Out-of-core gigaframe labeling: a band-of-tiles scheduler that streams an
//! arbitrarily tall frame through the tiled engine one band at a time.
//!
//! The streaming engine ([`crate::stream`]) already labels unbounded frames
//! in `O(cols + live)` memory, but it advances one *row* per step — every row
//! pays the frontier bookkeeping. This scheduler moves the same carried-state
//! idea up one level: read `band_rows` rows from a [`RowSource`] into a
//! reusable band bitmap, label the whole band with the 2-D tiled engine
//! (`TiledLabeler::build_arena`, whose tile pass parallelizes across
//! `tiles_x` columns), then reconcile the band against a carried frontier —
//! the runs of the previous band's last row, each pointing at a union–find
//! slot holding its component's running feature record. The carried state is
//! one row of runs plus one slot per live component: `O(cols + live)`, made
//! measurable by [`OocStats::peak_carried_runs`] and
//! [`OocStats::peak_live_slots`], while the transient band arena is
//! `O(band_rows × cols)` by construction.
//!
//! Per band, in order:
//!
//! 1. **ingest** — `band_rows` packed rows (fewer for the final band; the
//!    tail is zeroed so the band bitmap can be labeled whole);
//! 2. **band label** — the tiled engine's phases 1–4 leave every band run
//!    flattened to its band-local root;
//! 3. **bottom exposure** — each carried run adds its uncovered span under
//!    the band's first row to its component's perimeter (the half of the
//!    seam accounting the previous band could not see);
//! 4. **seam merge** — the crate's one row-to-row adjacency sweep
//!    ([`for_each_adjacent_pair`]) pairs carried runs with first-row runs: a
//!    band root *adopts* the first slot it meets and unions with any further
//!    ones;
//! 5. **fold** — every band run folds its feature contribution (area, bbox,
//!    centroid sums, perimeter with word-level exposure counts, minimum
//!    column-major position at **global** row coordinates) into its root's
//!    slot, minting slots for components born in this band;
//! 6. **carry + retire** — the band's last real row becomes the new carried
//!    frontier; every slot live before the band that did not make it into
//!    the frontier retires its finished [`RetiredComponent`]. Forwarded and
//!    retired slots return to a free list, so slot storage tracks *live*
//!    components, not total ones.
//!
//! Steps 3–6 drive the same live-component union–find as the row-streaming
//! engine, one band per step instead of one row.
//!
//! Identities proven in the test suite: the retired-component multiset is
//! **identical** (every field, perimeter included) to the row-streaming
//! engine's, and label/area sets match the whole-frame engines whenever the
//! frame fits in memory.

use super::tiled::TiledLabeler;
use crate::bitmap::{count_ones_in_span, for_each_adjacent_pair, Bitmap};
use crate::connectivity::Connectivity;
use crate::live::{LiveComponents, NONE};
use crate::stream::{RetiredComponent, RowSource};
use std::io;

/// Streams `src` through a fresh [`OutOfCoreLabeler`] with the given band
/// height and tile-column count. Convenience wrapper; repeated frames should
/// hold the labeler.
pub fn label_out_of_core<S: RowSource>(
    src: &mut S,
    conn: Connectivity,
    band_rows: usize,
    tiles_x: usize,
) -> io::Result<OocRun> {
    OutOfCoreLabeler::new(band_rows, tiles_x).label_source(src, conn)
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
    /// Maximum carried frontier size (runs of one band-boundary row) — the
    /// `O(cols)` half of the carried-state bound; at most `cols / 2 + 1`.
    pub peak_carried_runs: usize,
    /// Maximum simultaneously occupied union–find slots — the `O(live)`
    /// half. Sampled once per band after its seam merge and fold, before
    /// retirement and reclaim, so it counts the live components plus the
    /// band's seam-merge garbage.
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

/// Reusable out-of-core labeler (see the module docs for the band cycle).
/// The band bitmap, the tiled core, and every carried vector persist across
/// calls, so a stream of frames with equal widths reallocates nothing.
#[derive(Debug)]
pub struct OutOfCoreLabeler {
    /// Rows per band (≥ 1); the in-memory working set is `band_rows × cols`.
    band_rows: usize,
    /// Tile columns the band labeler splits each band into.
    tiles_x: usize,
    /// The band-labeling core: a 1 × `tiles_x` tiled engine driven through
    /// its arena-building phases only.
    core: TiledLabeler,
    /// The reusable band bitmap (`None` until the first band reveals the
    /// width; reallocated only when the width changes).
    band: Option<Bitmap>,
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
    /// Slots minted by this band's fold — retirement candidates alongside
    /// the old frontier (a component can be born and die within one band).
    minted: Vec<u32>,
    /// Band-root → slot map for the current band (`NONE` = unmapped).
    band_slot: Vec<u32>,
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
            tiles_x,
            core: TiledLabeler::new(1, tiles_x, tiles_x),
            band: None,
            words: Vec::new(),
            prev_words: Vec::new(),
            prev_runs: Vec::new(),
            prev_slots: Vec::new(),
            next_runs: Vec::new(),
            next_slots: Vec::new(),
            live: LiveComponents::default(),
            minted: Vec::new(),
            band_slot: Vec::new(),
            and_buf: Vec::new(),
        }
    }

    /// The configured band height.
    pub fn band_rows(&self) -> usize {
        self.band_rows
    }

    /// The configured tile-column count.
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Total bytes of scratch capacity currently reserved — carried state,
    /// slot slab, band bitmap, and the tiled core's arenas.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.core.scratch_bytes()
            + self.live.scratch_bytes()
            + self
                .band
                .as_ref()
                .map_or(0, |b| b.rows() * b.words_per_row() * size_of::<u64>())
            + (self.words.capacity()
                + self.prev_words.capacity()
                + self.prev_runs.capacity()
                + self.next_runs.capacity()
                + self.and_buf.capacity())
                * size_of::<u64>()
            + (self.prev_slots.capacity()
                + self.next_slots.capacity()
                + self.minted.capacity()
                + self.band_slot.capacity())
                * size_of::<u32>()
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
        let cols = src.cols();
        assert!(cols > 0, "out-of-core source must have positive width");
        assert!(
            (self.band_rows as u64) * (cols as u64) < u32::MAX as u64,
            "band must fit the u32 run-index space; lower --band-rows"
        );
        // Reset carried state from any previous frame.
        self.prev_runs.clear();
        self.prev_slots.clear();
        self.live.clear();
        self.minted.clear();
        if self
            .band
            .as_ref()
            .is_none_or(|b| b.rows() != self.band_rows || b.cols() != cols)
        {
            self.band = None; // drop the old allocation before the new one
            self.band = Some(Bitmap::new(self.band_rows, cols));
        }
        self.prev_words.clear();
        self.prev_words.resize(cols.div_ceil(64), 0);

        let mut components = Vec::new();
        let mut stats = OocStats {
            cols,
            band_rows: self.band_rows,
            ..OocStats::default()
        };

        loop {
            let h = self.read_band(src)?;
            if h == 0 {
                break;
            }
            self.process_band(conn, stats.rows, h, &mut components, &mut stats);
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
            .finish_step(self.prev_slots.iter().copied(), |_, rec| {
                components.push(*rec);
                stats.retired += 1;
            });
        Ok(OocRun { components, stats })
    }

    /// Reads up to `band_rows` rows into the band bitmap, zeroing the unused
    /// tail, and returns how many real rows arrived.
    fn read_band<S: RowSource>(&mut self, src: &mut S) -> io::Result<usize> {
        let band = self.band.as_mut().expect("band allocated by label_source");
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
        components: &mut Vec<RetiredComponent>,
        stats: &mut OocStats,
    ) {
        let band = self.band.as_ref().expect("band allocated by label_source");
        self.core.build_arena(band, conn);
        let (runs, node, row_runs) = self.core.arena();
        stats.peak_band_runs = stats.peak_band_runs.max(runs.len());
        self.band_slot.clear();
        self.band_slot.resize(runs.len(), NONE);

        let first = band_top == 0;
        if !first {
            // Step 3: bottom exposure of the carried frontier against the
            // band's first row.
            let row0 = band.row_words(0);
            self.live
                .expose_south(&self.prev_runs, &self.prev_slots, row0);

            // Step 4: seam merge across the band boundary — a band root
            // adopts the first carried slot it meets and unions with the
            // rest.
            let (r0lo, r0hi) = (row_runs[0] as usize, row_runs[1] as usize);
            let OutOfCoreLabeler {
                prev_words,
                prev_runs,
                prev_slots,
                live,
                band_slot,
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
                    let rc = node[r0lo + c] as u32 as usize;
                    live.join(&mut band_slot[rc], &mut prev_slots[q]);
                },
            );
        }

        // Step 5: fold every band run's feature contribution into its
        // root's slot, minting slots for components born in this band.
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
                let slot = &mut self.band_slot[node[k] as u32 as usize];
                if self.live.fold(slot, rec) {
                    self.minted.push(*slot);
                }
            }
        }

        // Step 6: the band's last real row becomes the new carried frontier.
        // Arena runs clipped at tile boundaries are coalesced back into
        // maximal row runs — the seam sweeps and the `O(cols)` carried-run
        // bound both assume them — which is safe because touching runs
        // always share a component (the vertical seams unioned them).
        self.next_runs.clear();
        self.next_slots.clear();
        for k in row_runs[h - 1] as usize..row_runs[h] as usize {
            let sb = runs[k];
            let rc = node[k] as u32 as usize;
            let s = self.live.resolve(self.band_slot[rc]);
            self.band_slot[rc] = s;
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

        // Step 7: retire every slot live before this band — old frontier
        // or minted within it — that missed the new frontier. Such a
        // component has no pixel on the boundary row and can never grow.
        let candidates = self.prev_slots.iter().chain(&self.minted).copied();
        self.live.finish_step(candidates, |_, rec| {
            components.push(*rec);
            stats.retired += 1;
        });
        self.minted.clear();

        // Step 8: swap in the new frontier.
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
    use crate::stream::{label_stream, BitmapRows};

    const CONNS: [Connectivity; 2] = [Connectivity::Four, Connectivity::Eight];

    fn ooc_on(img: &Bitmap, conn: Connectivity, band_rows: usize, tiles_x: usize) -> OocRun {
        let mut rows = BitmapRows::new(img);
        label_out_of_core(&mut rows, conn, band_rows, tiles_x).unwrap()
    }

    /// The strongest identity available: every retired feature record —
    /// perimeter, centroid sums, bounding box, minimum position — must match
    /// the row-streaming engine's, for every band height.
    #[test]
    fn retired_records_match_the_streaming_engine_exactly() {
        for name in ["random50", "blobs", "checker", "maze", "spiral"] {
            let img = gen::by_name(name, 53, 9).unwrap();
            for conn in CONNS {
                let mut want = label_stream(&mut BitmapRows::new(&img), conn)
                    .unwrap()
                    .components;
                want.sort_unstable();
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
            let mut want = label_stream(&mut BitmapRows::new(img), Connectivity::Eight)
                .unwrap()
                .components;
            want.sort_unstable();
            assert_eq!(got, want);
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
