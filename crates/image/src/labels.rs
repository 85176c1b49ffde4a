//! Per-pixel component labels and comparisons between labelings.

use crate::bitmap::Bitmap;
use std::collections::HashMap;

/// Per-pixel component labels, row-major.
///
/// Foreground pixels hold a `u32` label; background pixels hold
/// [`LabelGrid::BACKGROUND`]. The paper's convention — used by the oracle and
/// by Algorithm CC — is that a component's label is the minimum column-major
/// position (`col * rows + row`) over its pixels, so labels of an `r × c`
/// image fit in `u32` for any image up to 65536 × 65536 pixels... in practice
/// we require `rows * cols <= u32::MAX` and assert it on construction.
///
/// A grid that the run-based engines ([`crate::FastLabeler`],
/// [`crate::TiledLabeler`]) fill also carries the component records their
/// resolve folded, so [`LabelGrid::component_stats`] and
/// [`LabelGrid::component_count`] need not walk the labels again. Every
/// `&mut` access drops them, so a grid written any other way falls back to
/// the walk. Equality compares dimensions and labels only.
#[derive(Clone)]
pub struct LabelGrid {
    rows: usize,
    cols: usize,
    labels: Vec<u32>,
    /// The filling engine's records, in its fold order; meaningful only
    /// while `carried` holds (the buffer keeps its capacity across frames).
    records: Vec<ComponentRecord>,
    carried: bool,
}

impl PartialEq for LabelGrid {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.labels == other.labels
    }
}

impl Eq for LabelGrid {}

/// One component as an engine's record fold leaves it: 20 bytes, widened
/// to [`ComponentInfo`] on output. The leftmost column is not stored: an
/// engine label is the component's minimum column-major position, so it is
/// `label / rows`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ComponentRecord {
    pub(crate) label: u32,
    pub(crate) pixels: u32,
    pub(crate) min_row: u32,
    pub(crate) max_row: u32,
    pub(crate) max_col: u32,
}

impl LabelGrid {
    /// Sentinel for background (0) pixels.
    pub const BACKGROUND: u32 = u32::MAX;

    /// Creates a grid with every pixel marked background.
    pub fn new_background(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "label grid dimensions must be positive"
        );
        // checked_mul, not plain widening: on a 64-bit usize two huge dims
        // can wrap u64 itself, so the widening product alone could pass.
        assert!(
            (rows as u64)
                .checked_mul(cols as u64)
                .is_some_and(|px| px < u32::MAX as u64),
            "image too large for u32 labels"
        );
        LabelGrid {
            rows,
            cols,
            labels: vec![Self::BACKGROUND; rows * cols],
            records: Vec::new(),
            carried: false,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the label of pixel `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u32 {
        self.labels[row * self.cols + col]
    }

    /// Writes the label of pixel `(row, col)` (dropping carried records).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, label: u32) {
        self.carried = false;
        self.labels[row * self.cols + col] = label;
    }

    /// `true` when the pixel carries a (foreground) label.
    #[inline]
    pub fn is_foreground(&self, row: usize, col: usize) -> bool {
        self.get(row, col) != Self::BACKGROUND
    }

    /// The raw label slice (row-major), for bulk comparisons.
    pub fn as_slice(&self) -> &[u32] {
        &self.labels
    }

    /// The labels of one row, read-only.
    #[inline]
    pub fn row(&self, row: usize) -> &[u32] {
        &self.labels[row * self.cols..(row + 1) * self.cols]
    }

    /// The labels of one row, for bulk writes (the propagation engine's
    /// readout; dropping carried records).
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [u32] {
        self.carried = false;
        &mut self.labels[row * self.cols..(row + 1) * self.cols]
    }

    /// Re-dimensions the grid to `rows × cols` and marks every pixel
    /// background, reusing the existing allocation when it is large enough.
    /// The batch-fill equivalent of constructing with
    /// [`LabelGrid::new_background`].
    pub fn reset_background(&mut self, rows: usize, cols: usize) {
        self.reset_dims(rows, cols);
        self.labels.fill(Self::BACKGROUND);
    }

    /// Every cell, row-major — for engines that write whole rows (dropping
    /// carried records).
    pub(crate) fn cells_mut(&mut self) -> &mut [u32] {
        self.carried = false;
        &mut self.labels
    }

    /// The record buffer for an engine's record fold, emptied: the grid
    /// carries whatever the fold leaves in it until the next `&mut` access.
    /// The fold must write the labels first and leave exactly one record
    /// per component, labeled with its minimum column-major position.
    pub(crate) fn records_mut(&mut self) -> &mut Vec<ComponentRecord> {
        self.records.clear();
        self.carried = true;
        &mut self.records
    }

    /// Re-dimensions the grid, leaving cell contents unspecified — the
    /// caller must overwrite every cell (the fast engine writes each row
    /// exactly once, runs and background gaps alike). Drops carried
    /// records.
    pub(crate) fn reset_dims(&mut self, rows: usize, cols: usize) {
        assert!(
            rows > 0 && cols > 0,
            "label grid dimensions must be positive"
        );
        assert!(
            (rows as u64) * (cols as u64) < u32::MAX as u64,
            "image too large for u32 labels"
        );
        self.rows = rows;
        self.cols = cols;
        self.carried = false;
        self.labels.resize(rows * cols, Self::BACKGROUND);
    }

    /// Number of distinct components (distinct foreground labels): the
    /// number of carried records, or else counted on the walk of
    /// [`LabelGrid::component_stats`] without building its records.
    pub fn component_count(&self) -> usize {
        if self.carried {
            return self.records.len();
        }
        label_groups(&self.fold_runs().1).count()
    }

    /// Relabels each component with the minimum column-major position of its
    /// pixels, producing the paper's canonical labeling. Foreground/background
    /// structure is preserved.
    pub fn canonicalize(&self) -> LabelGrid {
        let mut min_pos: HashMap<u32, u32> = HashMap::new();
        for c in 0..self.cols {
            for r in 0..self.rows {
                let l = self.get(r, c);
                if l != Self::BACKGROUND {
                    let pos = (c * self.rows + r) as u32;
                    min_pos.entry(l).or_insert(pos); // first in col-major scan = min
                }
            }
        }
        let mut out = LabelGrid::new_background(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let l = self.get(r, c);
                if l != Self::BACKGROUND {
                    out.set(r, c, min_pos[&l]);
                }
            }
        }
        out
    }

    /// `true` when `self` and `other` encode the same partition of foreground
    /// pixels (i.e. they agree up to a bijective renaming of labels) and the
    /// same foreground mask.
    pub fn same_partition(&self, other: &LabelGrid) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        let mut fwd: HashMap<u32, u32> = HashMap::new();
        let mut bwd: HashMap<u32, u32> = HashMap::new();
        for (&a, &b) in self.labels.iter().zip(other.labels.iter()) {
            match (a == Self::BACKGROUND, b == Self::BACKGROUND) {
                (true, true) => continue,
                (false, false) => {
                    if *fwd.entry(a).or_insert(b) != b || *bwd.entry(b).or_insert(a) != a {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// Per-component statistics, sorted by label, in a vector of exactly
    /// one record per component (`capacity() == len()`).
    ///
    /// A grid that carries its engine's records (see the type docs) widens
    /// them in label order: one counting scatter by the label's top bits
    /// straight into the output, then a sort of each small bucket, at
    /// `O(components)` with no pass over the labels.
    ///
    /// Any other grid is walked: maximal runs of one label are folded
    /// rather than pixels. Each row is walked 64 labels at a time as a mask
    /// of change points; each run costs one probe of a small direct-mapped
    /// label index, which may split a label over several slots; one radix
    /// sort of the slots by label then merges those. The cost is
    /// `O(pixels/64 + runs + slots)`, and at most one slot is opened per
    /// run. Nothing is assumed about the labels themselves: any labeling,
    /// canonical or not and with a label's pixels in any rows, gets one
    /// record per distinct foreground label.
    pub fn component_stats(&self) -> Vec<ComponentInfo> {
        if self.carried {
            return self.widen_records();
        }
        let (slots, order) = self.fold_runs();
        let mut out = Vec::with_capacity(label_groups(&order).count());
        for keys in label_groups(&order) {
            let mut s = slots[keys[0] as u32 as usize];
            for &k in &keys[1..] {
                s.merge(&slots[k as u32 as usize]);
            }
            out.push(ComponentInfo {
                label: (keys[0] >> 32) as u32,
                pixels: s.pixels as usize,
                min_row: s.min_row as usize,
                max_row: s.max_row as usize,
                min_col: s.min_col as usize,
                max_col: s.max_col as usize,
            });
        }
        out
    }

    /// The carried records as [`ComponentInfo`], sorted by label. About
    /// one bucket per record (at most `2^16`) keyed by the label's top
    /// bits; the scatter writes each record once, into its bucket's next
    /// free output position, so no buffer but the output holds them.
    fn widen_records(&self) -> Vec<ComponentInfo> {
        let n = self.records.len();
        let bits = (usize::BITS - n.leading_zeros()).min(16);
        // Labels are positions below `rows * cols`.
        let span = (self.rows * self.cols - 1) as u64;
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(bits);
        let bucket = |r: &ComponentRecord| (r.label >> shift) as usize;
        // `next[b]` starts as bucket `b`'s first output position and ends
        // as one past its last.
        let mut next = vec![0u32; (1 << bits) + 1];
        for r in &self.records {
            next[bucket(r) + 1] += 1;
        }
        for b in 1..next.len() {
            next[b] += next[b - 1];
        }
        let mut out = Vec::with_capacity(n);
        let cells = out.spare_capacity_mut();
        for r in &self.records {
            let at = &mut next[bucket(r)];
            cells[*at as usize].write(ComponentInfo {
                label: r.label,
                pixels: r.pixels as usize,
                min_row: r.min_row as usize,
                max_row: r.max_row as usize,
                min_col: r.label as usize / self.rows,
                max_col: r.max_col as usize,
            });
            *at += 1;
        }
        // SAFETY: the bucket starts are the exclusive prefix sums of the
        // bucket sizes, so the scatter wrote each of the first `n` cells
        // exactly once.
        unsafe { out.set_len(n) };
        let mut start = 0;
        for &end in &next[..1 << bits] {
            out[start..end as usize].sort_unstable_by_key(|c| c.label);
            start = end as usize;
        }
        out
    }

    /// The run fold behind [`LabelGrid::component_stats`]: the slots, and
    /// their keys `label << 32 | slot` sorted by label.
    ///
    /// The index has `2^k >= 2 * cols` `(label, slot)` entries picked by a
    /// multiplicative hash. A run whose label is in its entry folds into
    /// that slot; any other run opens a slot and takes the entry. So a slot
    /// holds one label's runs only, and a collision (or a label that comes
    /// back to a taken entry) costs an extra slot, which the merge after
    /// the sort folds back: every result is exact.
    fn fold_runs(&self) -> (Vec<Slot>, Vec<u64>) {
        let bits = index_bits(self.cols);
        let mut index = vec![(Self::BACKGROUND, 0u32); 1 << bits];
        let (mut slots, mut keys): (Vec<Slot>, Vec<u64>) = (Vec::new(), Vec::new());
        for r in 0..self.rows {
            let row = r as u32;
            for_each_label_run(self.row(r), |start, end, label| {
                let (first, last) = (start as u32, end as u32 - 1);
                let entry = &mut index[bucket(label, bits)];
                if entry.0 == label {
                    let slot = &mut slots[entry.1 as usize];
                    slot.pixels += last - first + 1;
                    slot.max_row = row;
                    slot.min_col = slot.min_col.min(first);
                    slot.max_col = slot.max_col.max(last);
                } else {
                    *entry = (label, slots.len() as u32);
                    keys.push(u64::from(label) << 32 | slots.len() as u64);
                    slots.push(Slot {
                        pixels: last - first + 1,
                        min_row: row,
                        max_row: row,
                        min_col: first,
                        max_col: last,
                    });
                }
            });
        }
        // Growth by doubling can leave half of each unused; hand it back
        // before the sort and the records allocate.
        slots.shrink_to_fit();
        keys.shrink_to_fit();
        (slots, sort_by_label(keys))
    }

    /// Renders the labeling as ASCII art: each component gets a letter
    /// (`a`–`z`, `A`–`Z`, `0`–`9`, cycling in order of first column-major
    /// appearance), background is `.`. Intended for examples and debugging
    /// of small images.
    pub fn to_art(&self) -> String {
        const GLYPHS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        let mut glyph_of: HashMap<u32, char> = HashMap::new();
        for c in 0..self.cols {
            for r in 0..self.rows {
                let l = self.get(r, c);
                if l != Self::BACKGROUND && !glyph_of.contains_key(&l) {
                    let g = GLYPHS[glyph_of.len() % GLYPHS.len()] as char;
                    glyph_of.insert(l, g);
                }
            }
        }
        let mut s = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                let l = self.get(r, c);
                s.push(if l == Self::BACKGROUND {
                    '.'
                } else {
                    glyph_of[&l]
                });
            }
            s.push('\n');
        }
        s
    }

    /// Checks that `self` is a *valid* labeling of `img`: the foreground mask
    /// matches and two foreground pixels have equal labels exactly when they
    /// are 4-connected in `img`. Returns a description of the first violation.
    pub fn validate_against(&self, img: &Bitmap) -> Result<(), String> {
        if self.rows != img.rows() || self.cols != img.cols() {
            return Err(format!(
                "dimension mismatch: labels {}x{} vs image {}x{}",
                self.rows,
                self.cols,
                img.rows(),
                img.cols()
            ));
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                if img.get(r, c) != self.is_foreground(r, c) {
                    return Err(format!("foreground mask mismatch at ({r},{c})"));
                }
            }
        }
        // Deliberately the BFS oracle, not the fast engine: a *validity*
        // check must use the one reference that shares no code path with
        // the run-scanning machinery it may be asked to judge.
        let truth = crate::oracle::bfs_labels(img);
        if self.same_partition(&truth) {
            Ok(())
        } else {
            Err("labeling partition differs from 4-connectivity".to_string())
        }
    }
}

impl std::fmt::Debug for LabelGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "LabelGrid({}x{})", self.rows, self.cols)?;
        if self.rows <= 32 && self.cols <= 32 {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    let l = self.get(r, c);
                    if l == Self::BACKGROUND {
                        write!(f, "   .")?;
                    } else {
                        write!(f, "{l:4}")?;
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// `k` for the run fold's index of `2^k >= 2 * cols` entries.
fn index_bits(cols: usize) -> u32 {
    (2 * cols).next_power_of_two().trailing_zeros().min(32)
}

/// The direct-mapped index entry of `label` in a table of `2^bits`
/// entries: the top bits of a multiplicative (Fibonacci) hash. Canonical
/// labels are `col * rows + row`, so the labels met along one row form a
/// sparse progression; the product spreads it over the whole table.
#[inline]
fn bucket(label: u32, bits: u32) -> usize {
    (u64::from(label.wrapping_mul(0x9E37_79B9)) >> (32 - bits)) as usize
}

/// One label's accumulators over some of its runs (`rows * cols <
/// u32::MAX`, so every field fits); the label is in the slot's key.
#[derive(Clone, Copy)]
struct Slot {
    pixels: u32,
    min_row: u32,
    max_row: u32,
    min_col: u32,
    max_col: u32,
}

impl Slot {
    /// Folds `other`, a slot of the same label, into `self`.
    fn merge(&mut self, other: &Slot) {
        self.pixels += other.pixels;
        self.min_row = self.min_row.min(other.min_row);
        self.max_row = self.max_row.max(other.max_row);
        self.min_col = self.min_col.min(other.min_col);
        self.max_col = self.max_col.max(other.max_col);
    }
}

/// Sorted keys `label << 32 | slot` grouped by label: one group per
/// component, holding its slots.
fn label_groups(keys: &[u64]) -> impl Iterator<Item = &[u64]> {
    keys.chunk_by(|a, b| a >> 32 == b >> 32)
}

/// `keys` (`label << 32 | slot`, in slot order) sorted by label, with the
/// slots of one label in the order they were opened: a stable LSD radix
/// sort on three digits of the label (11, 11 and 10 bits). One pass counts
/// all three, and a digit that every key shares is skipped, so labels below
/// `2^22` (any frame up to 2048 × 2048) take two scatter passes.
fn sort_by_label(mut keys: Vec<u64>) -> Vec<u64> {
    const BITS: u32 = 11;
    let digit = |k: u64, d: u32| (k >> (32 + BITS * d)) as usize & ((1 << BITS) - 1);
    let mut counts = [[0u32; 1 << BITS]; 3];
    for &k in &keys {
        for (d, count) in (0..).zip(&mut counts) {
            count[digit(k, d)] += 1;
        }
    }
    let mut spare = vec![0; keys.len()];
    for (d, count) in (0..).zip(&mut counts) {
        if count.contains(&(keys.len() as u32)) {
            continue;
        }
        let mut at = 0;
        for n in count.iter_mut() {
            (*n, at) = (at, at + *n);
        }
        for &k in &keys {
            let n = &mut count[digit(k, d)];
            spare[*n as usize] = k;
            *n += 1;
        }
        std::mem::swap(&mut keys, &mut spare);
    }
    keys
}

/// Invokes `f(start, end, label)` for every maximal run `start..end` of one
/// foreground label in `row`, left to right.
///
/// Each 64-pixel chunk becomes a mask of the positions where the label
/// changes (`row[c] != row[c - 1]`), and the change points are visited with
/// `trailing_zeros`, the way the bitmap walks its words: a chunk costs one
/// compare pass (16 SSE2 compares on x86_64) plus one step per run.
#[inline]
fn for_each_label_run(row: &[u32], mut f: impl FnMut(usize, usize, u32)) {
    let mut start = 0;
    let mut emit = |start: usize, end: usize| {
        let label = row[start];
        if label != LabelGrid::BACKGROUND {
            f(start, end, label);
        }
    };
    for base in (0..row.len()).step_by(64) {
        // Position 0 starts the first run, so it is never a change point.
        // The first chunk compares positions 1..=64 so that it, too, is a
        // full chunk; the shift drops position 64, which the next chunk
        // owns.
        let lo = base.max(1);
        let hi = row.len().min(lo + 64);
        let mut mask = change_mask(&row[lo..hi], &row[lo - 1..hi - 1]) << (lo - base);
        while mask != 0 {
            let c = base + mask.trailing_zeros() as usize;
            emit(start, c);
            start = c;
            mask &= mask - 1;
        }
    }
    emit(start, row.len());
}

/// Bit `i` set when `cur[i] != prev[i]` (at most 64 pixels): full chunks
/// take [`change_mask_sse2`] on x86_64, tails and other targets
/// [`scalar_change_mask`].
#[inline]
fn change_mask(cur: &[u32], prev: &[u32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (Ok(cur), Ok(prev)) = (cur.try_into(), prev.try_into()) {
        return change_mask_sse2(cur, prev);
    }
    scalar_change_mask(cur, prev)
}

/// [`change_mask`] one label at a time.
#[inline]
fn scalar_change_mask(cur: &[u32], prev: &[u32]) -> u64 {
    // Most chunks of a frame with large regions hold one label; an OR of
    // XORs (which vectorizes) settles those without building the mask.
    if cur.iter().zip(prev).fold(0, |acc, (a, b)| acc | (a ^ b)) == 0 {
        return 0;
    }
    cur.iter()
        .zip(prev)
        .enumerate()
        .fold(0, |m, (i, (a, b))| m | (u64::from(a != b) << i))
}

/// [`change_mask`] of a full chunk in SSE2, which every x86_64 CPU has:
/// per 16 labels, four 4-lane compares saturate-pack to 16 bytes, and one
/// `movemask` reads their 16 equality bits.
#[cfg(target_arch = "x86_64")]
#[inline]
fn change_mask_sse2(cur: &[u32; 64], prev: &[u32; 64]) -> u64 {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is in the x86_64 baseline, and load `i` reads labels
    // `4i..4i + 4` of a 64-label array.
    unsafe {
        let eq = |i: usize| {
            let load = |a: &[u32; 64]| _mm_loadu_si128(a.as_ptr().add(4 * i).cast::<__m128i>());
            _mm_cmpeq_epi32(load(cur), load(prev))
        };
        !(0..4).fold(0, |equal, q| {
            let lo = _mm_packs_epi32(eq(4 * q), eq(4 * q + 1));
            let hi = _mm_packs_epi32(eq(4 * q + 2), eq(4 * q + 3));
            equal | u64::from(_mm_movemask_epi8(_mm_packs_epi16(lo, hi)) as u16) << (16 * q)
        })
    }
}

/// Summary of one labeled component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentInfo {
    /// The component's label.
    pub label: u32,
    /// Number of pixels.
    pub pixels: usize,
    /// Topmost row index.
    pub min_row: usize,
    /// Bottommost row index.
    pub max_row: usize,
    /// Leftmost column index.
    pub min_col: usize,
    /// Rightmost column index.
    pub max_col: usize,
}

impl ComponentInfo {
    /// Width of the bounding box.
    pub fn width(&self) -> usize {
        self.max_col - self.min_col + 1
    }

    /// Height of the bounding box.
    pub fn height(&self) -> usize {
        self.max_row - self.min_row + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Connectivity, FastLabeler, LabelEngine, TiledLabeler};

    /// The per-pixel fold the run walk replaced, kept as the reference:
    /// one map entry per distinct label, widened pixel by pixel.
    fn reference_stats(g: &LabelGrid) -> Vec<ComponentInfo> {
        let mut map: HashMap<u32, ComponentInfo> = HashMap::new();
        for r in 0..g.rows() {
            for c in 0..g.cols() {
                let l = g.get(r, c);
                if l == LabelGrid::BACKGROUND {
                    continue;
                }
                let e = map.entry(l).or_insert(ComponentInfo {
                    label: l,
                    pixels: 0,
                    min_row: r,
                    max_row: r,
                    min_col: c,
                    max_col: c,
                });
                e.pixels += 1;
                e.min_row = e.min_row.min(r);
                e.max_row = e.max_row.max(r);
                e.min_col = e.min_col.min(c);
                e.max_col = e.max_col.max(c);
            }
        }
        let mut v: Vec<ComponentInfo> = map.into_values().collect();
        v.sort_unstable_by_key(|i| i.label);
        v
    }

    /// Asserts both run folds against the reference on `g`.
    fn assert_matches_reference(g: &LabelGrid, what: &str) {
        let want = reference_stats(g);
        assert_eq!(g.component_stats(), want, "{what}: component_stats");
        assert_eq!(g.component_count(), want.len(), "{what}: component_count");
    }

    /// A grid of `rows × cols` whose pixel `i` (row-major) holds
    /// `label(i)`.
    fn grid_from(rows: usize, cols: usize, label: impl Fn(usize) -> u32) -> LabelGrid {
        let mut g = LabelGrid::new_background(rows, cols);
        for (i, l) in g.labels.iter_mut().enumerate() {
            *l = label(i);
        }
        g
    }

    /// `n` labels that share one entry of the run fold's index on a grid
    /// of `cols` columns.
    fn colliding_labels(cols: usize, n: usize) -> Vec<u32> {
        let bits = index_bits(cols);
        let home = bucket(1000, bits);
        (1000..)
            .filter(|&l| bucket(l, bits) == home)
            .take(n)
            .collect()
    }

    /// The number of slots the run fold opens for `label` on `g`.
    fn slots_of(g: &LabelGrid, label: u32) -> usize {
        g.fold_runs()
            .1
            .iter()
            .filter(|&&k| k >> 32 == u64::from(label))
            .count()
    }

    fn tiny() -> LabelGrid {
        // Two components: left column pair (label 7) and bottom-right (label 9).
        let mut g = LabelGrid::new_background(2, 2);
        g.set(0, 0, 7);
        g.set(1, 0, 7);
        g.set(1, 1, 9);
        g
    }

    #[test]
    fn background_default() {
        let g = LabelGrid::new_background(3, 3);
        assert!(!g.is_foreground(1, 1));
        assert_eq!(g.component_count(), 0);
    }

    #[test]
    fn component_count_counts_distinct_labels() {
        assert_eq!(tiny().component_count(), 2);
    }

    #[test]
    fn reset_background_reuses_and_clears() {
        let mut g = tiny();
        g.reset_background(3, 4);
        assert_eq!((g.rows(), g.cols()), (3, 4));
        assert_eq!(g.component_count(), 0);
        assert!(g.as_slice().iter().all(|&l| l == LabelGrid::BACKGROUND));
        g.set(2, 3, 9);
        g.reset_background(2, 2); // shrink: stale labels must not survive
        assert_eq!(g.component_count(), 0);
    }

    #[test]
    fn row_accessors_slice_the_grid() {
        let mut g = tiny();
        assert_eq!(g.row(1), &[7, 9]);
        g.row_mut(0)[1] = 5;
        assert_eq!(g.get(0, 1), 5);
    }

    #[test]
    fn canonicalize_uses_min_column_major_position() {
        let g = tiny();
        let c = g.canonicalize();
        // Component {(0,0),(1,0)}: positions 0 and 1 -> label 0.
        // Component {(1,1)}: position 1*2+1 = 3 -> label 3.
        assert_eq!(c.get(0, 0), 0);
        assert_eq!(c.get(1, 0), 0);
        assert_eq!(c.get(1, 1), 3);
        assert_eq!(c.get(0, 1), LabelGrid::BACKGROUND);
    }

    #[test]
    fn same_partition_accepts_renaming() {
        let g = tiny();
        let mut h = LabelGrid::new_background(2, 2);
        h.set(0, 0, 100);
        h.set(1, 0, 100);
        h.set(1, 1, 5);
        assert!(g.same_partition(&h));
    }

    #[test]
    fn same_partition_rejects_merge_and_split() {
        let g = tiny();
        let mut merged = LabelGrid::new_background(2, 2);
        merged.set(0, 0, 1);
        merged.set(1, 0, 1);
        merged.set(1, 1, 1);
        assert!(!g.same_partition(&merged));
        let mut split = LabelGrid::new_background(2, 2);
        split.set(0, 0, 1);
        split.set(1, 0, 2);
        split.set(1, 1, 3);
        assert!(!g.same_partition(&split));
    }

    #[test]
    fn same_partition_rejects_mask_mismatch() {
        let g = tiny();
        let mut h = LabelGrid::new_background(2, 2);
        h.set(0, 0, 1);
        h.set(1, 0, 1);
        assert!(!g.same_partition(&h));
    }

    #[test]
    fn stats_cover_bounding_boxes() {
        let stats = tiny().component_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, 7);
        assert_eq!(stats[0].pixels, 2);
        assert_eq!(stats[0].height(), 2);
        assert_eq!(stats[0].width(), 1);
        assert_eq!(stats[1].label, 9);
        assert_eq!(stats[1].pixels, 1);
    }

    #[test]
    fn run_fold_matches_reference_on_every_family() {
        let mut labeler = FastLabeler::new();
        let mut g = LabelGrid::new_background(1, 1);
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 37, 5).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                labeler.label_into(&img, conn, &mut g);
                assert_matches_reference(&g, &format!("{name} {conn:?}"));
            }
        }
    }

    #[test]
    fn run_fold_matches_reference_on_non_canonical_labels() {
        // Labels 0 and u32::MAX - 1 sit next to the sentinel; 0 is a label,
        // not background.
        let extremes = [0, u32::MAX - 1, 7, 0, LabelGrid::BACKGROUND];
        for cols in [1, 5, 63, 64, 65, 127, 128, 129] {
            let g = grid_from(4, cols, |i| extremes[(i * 7 + i / 3) % extremes.len()]);
            assert_matches_reference(&g, &format!("extremes, width {cols}"));
        }
        // Few labels scattered at random repeat non-contiguously, in rows
        // that do not form intervals.
        for cols in [1, 63, 64, 65, 127, 128, 129] {
            for seed in 0..4u64 {
                let g = grid_from(9, cols, |i| {
                    let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed) >> 59;
                    if h < 4 {
                        LabelGrid::BACKGROUND
                    } else {
                        h as u32 % 5
                    }
                });
                assert_matches_reference(&g, &format!("scatter {seed}, width {cols}"));
            }
        }
    }

    #[test]
    fn label_missing_from_a_row_still_gives_one_record() {
        // Label 3 in rows 0 and 2 but not row 1: the fold retires it after
        // row 1 and must merge its two slots back into one record.
        let mut g = LabelGrid::new_background(3, 4);
        for c in 0..4 {
            g.set(0, c, 3);
            g.set(2, c, 3);
        }
        g.set(1, 2, 8);
        g.set(2, 1, 8); // and label 8 comes back too, inside 3's run
        assert_matches_reference(&g, "split label");
        let stats = g.component_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats[0],
            ComponentInfo {
                label: 3,
                pixels: 7,
                min_row: 0,
                max_row: 2,
                min_col: 0,
                max_col: 3,
            }
        );
    }

    #[test]
    fn run_fold_matches_reference_on_word_boundary_widths_and_thin_grids() {
        let mut labeler = FastLabeler::new();
        let mut g = LabelGrid::new_background(1, 1);
        let shapes = [
            (5, 1),
            (5, 63),
            (5, 64),
            (5, 65),
            (5, 127),
            (5, 128),
            (5, 129),
            (1, 200),
            (200, 1),
        ];
        for (rows, cols) in shapes {
            for density in [0.3, 0.7, 1.0] {
                let img = gen::uniform_random(rows, cols, density, (rows * cols) as u64);
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    labeler.label_into(&img, conn, &mut g);
                    assert_matches_reference(&g, &format!("{rows}x{cols} p={density}"));
                }
            }
            // One label across the whole grid: a run that spans every word.
            assert_matches_reference(&grid_from(rows, cols, |_| 42), "one label");
        }
    }

    #[test]
    fn labels_sharing_one_index_entry_stay_exact() {
        // Four labels of one entry alternate along every row, so every run
        // finds another label in the entry and opens a slot of its own.
        let cols = 16;
        let labels = colliding_labels(cols, 4);
        let g = grid_from(6, cols, |i| {
            let (r, c) = (i / cols, i % cols);
            if c % 3 == 2 {
                LabelGrid::BACKGROUND
            } else {
                labels[(c / 3 + 2 * r) % 4]
            }
        });
        assert_eq!(g.fold_runs().0.len(), 6 * 6, "one slot per run");
        assert_matches_reference(&g, "one index entry");
    }

    #[test]
    fn u_shape_split_by_a_colliding_label_merges_its_slots() {
        // Label `u` is a U, and a label of the same index entry sits between
        // its arms: each row's right arm opens a slot, and the next row's
        // left arm folds into it, so slots mix both arms' columns.
        let (cols, art) = (8, ["UU.cc.UU", "UU.cc.UU", "UU....UU", "UUUUUUUU"]);
        let [u, c] = colliding_labels(cols, 2)[..] else {
            unreachable!()
        };
        let g = grid_from(art.len(), cols, |i| {
            match art[i / cols].as_bytes()[i % cols] {
                b'U' => u,
                b'c' => c,
                _ => LabelGrid::BACKGROUND,
            }
        });
        assert_eq!(slots_of(&g, u), 3);
        assert_matches_reference(&g, "split U");
        let want = ComponentInfo {
            label: u,
            pixels: 3 * 4 + 8,
            min_row: 0,
            max_row: 3,
            min_col: 0,
            max_col: 7,
        };
        assert!(g.component_stats().contains(&want));
    }

    #[test]
    fn label_returning_after_gap_rows_gives_one_record() {
        // Label `a` fills rows 0-1 and 7-8. With empty rows between, its
        // entry survives the gap and one slot spans it; with a colliding
        // label filling the gap, `a` comes back to a taken entry.
        let cols = 10;
        let [a, b] = colliding_labels(cols, 2)[..] else {
            unreachable!()
        };
        for (filler, slots) in [(LabelGrid::BACKGROUND, 1), (b, 2)] {
            let g = grid_from(9, cols, |i| {
                if (2..7).contains(&(i / cols)) {
                    filler
                } else {
                    a
                }
            });
            assert_eq!(slots_of(&g, a), slots);
            assert_matches_reference(&g, &format!("gap filled with {filler}"));
        }
    }

    #[test]
    fn run_fold_matches_reference_on_renamed_labelings() {
        // Real partitions under bit-reversed labels: a bijection that keeps
        // the sentinel apart and sets the high label bits, so the labels are
        // neither canonical nor small.
        let mut labeler = FastLabeler::new();
        let mut g = LabelGrid::new_background(1, 1);
        for cols in [1, 63, 64, 65, 127, 128, 129] {
            let img = gen::uniform_random(9, cols, 0.6, cols as u64);
            labeler.label_into(&img, Connectivity::Four, &mut g);
            for r in 0..g.rows() {
                for l in g
                    .row_mut(r)
                    .iter_mut()
                    .filter(|l| **l != LabelGrid::BACKGROUND)
                {
                    *l = l.reverse_bits();
                }
            }
            assert_matches_reference(&g, &format!("renamed, width {cols}"));
        }
    }

    #[test]
    fn component_stats_holds_exactly_one_record_per_component() {
        let mut g = LabelGrid::new_background(1, 1);
        FastLabeler::new().label_into(
            &gen::by_name("random50", 64, 3).unwrap(),
            Connectivity::Four,
            &mut g,
        );
        for g in [g, tiny(), LabelGrid::new_background(3, 3)] {
            let stats = g.component_stats();
            assert_eq!(stats.capacity(), stats.len());
        }
    }

    /// `g` with its carried records dropped: the same labels, walked.
    fn walked(g: &LabelGrid) -> LabelGrid {
        let mut w = g.clone();
        w.cells_mut();
        assert!(!w.carried);
        w
    }

    #[test]
    fn carried_records_equal_the_walk_on_the_run_based_engines() {
        let mut g = LabelGrid::new_background(1, 1);
        let mut fast = FastLabeler::new();
        let mut tiled =
            [(1, 1), (2, 1), (1, 3), (3, 2)].map(|(ty, tx)| TiledLabeler::new(ty, tx, 2));
        for name in gen::WORKLOADS {
            for (rows, cols) in [(37, 37), (5, 130), (70, 3)] {
                let img = gen::by_name_dims(name, rows, cols, 7).unwrap();
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    let engines = std::iter::once(&mut fast as &mut dyn LabelEngine)
                        .chain(tiled.iter_mut().map(|t| t as &mut dyn LabelEngine));
                    for (e, engine) in engines.enumerate() {
                        let stats = engine.label_into(&img, conn, &mut g);
                        let what = format!("{name} {rows}x{cols} {conn:?} engine {e}");
                        assert!(g.carried, "{what}");
                        assert_eq!(g.records.len(), stats.components, "{what}");
                        let w = walked(&g);
                        assert_eq!(g.component_stats(), w.component_stats(), "{what}");
                        assert_eq!(g.component_count(), w.component_count(), "{what}");
                    }
                }
            }
        }
        // Past 2^16 records every output bucket holds several labels.
        let img = gen::by_name("random50", 1024, 3).unwrap();
        let components = fast.label_into(&img, Connectivity::Four, &mut g).components;
        assert!(components > 1 << 16, "{components}");
        assert_eq!(g.component_stats(), walked(&g).component_stats());
    }

    #[test]
    fn every_mut_path_drops_the_carried_records() {
        let img = gen::by_name("random50", 24, 9).unwrap();
        let (r, c) = img.iter_ones_colmajor().nth(40).unwrap();
        let i = r * img.cols() + c;
        let background = LabelGrid::BACKGROUND;
        type Mutation = fn(&mut LabelGrid, usize, usize);
        let paths: [(&str, Mutation); 5] = [
            ("set", |g, r, c| g.set(r, c, LabelGrid::BACKGROUND)),
            ("row_mut", |g, r, c| g.row_mut(r)[c] = LabelGrid::BACKGROUND),
            ("cells_mut", |g, r, c| {
                let cols = g.cols();
                g.cells_mut()[r * cols + c] = LabelGrid::BACKGROUND;
            }),
            ("reset_dims", |g, _, _| {
                let (rows, cols) = (g.rows(), g.cols());
                g.reset_dims(rows, cols);
            }),
            ("reset_background", |g, _, _| {
                let (rows, cols) = (g.rows(), g.cols());
                g.reset_background(rows, cols);
            }),
        ];
        let mut labeler = FastLabeler::new();
        for (what, mutate) in paths {
            let mut g = LabelGrid::new_background(1, 1);
            labeler.label_into(&img, Connectivity::Four, &mut g);
            let before = g.component_stats();
            mutate(&mut g, r, c);
            assert!(!g.carried, "{what}");
            assert_matches_reference(&g, what);
            if what != "reset_dims" {
                assert_ne!(g.component_stats(), before, "{what} changed a pixel");
            }
        }
        // One pixel taken out of a component after `label_into`: the
        // stats are the walk's, not the stale records.
        let mut g = LabelGrid::new_background(1, 1);
        labeler.label_into(&img, Connectivity::Four, &mut g);
        let label = g.as_slice()[i];
        let mut h = g.clone();
        h.set(r, c, background);
        let pixels = |g: &LabelGrid| -> usize {
            g.component_stats()
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.pixels)
                .sum()
        };
        assert_eq!(pixels(&h) + 1, pixels(&g));
        assert_eq!(g, walked(&g), "equality compares labels only");
    }

    #[test]
    fn a_grid_relabeled_by_a_walking_engine_keeps_no_records() {
        let mut g = LabelGrid::new_background(1, 1);
        let mut fast = FastLabeler::new();
        let mut walkers: [Box<dyn LabelEngine>; 2] = [
            Box::new(crate::BfsOracle::new()),
            Box::new(crate::fast::PropagateLabeler::new()),
        ];
        for name in ["random50", "blobs", "spiral"] {
            let first = gen::by_name(name, 40, 1).unwrap();
            let second = gen::by_name(name, 33, 2).unwrap();
            for walker in &mut walkers {
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    fast.label_into(&first, conn, &mut g);
                    assert!(g.carried);
                    walker.label_into(&second, conn, &mut g);
                    assert!(!g.carried, "{name} {conn:?}");
                    assert_matches_reference(&g, &format!("{name} {conn:?} relabeled"));
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_change_mask_equals_the_scalar_mask() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut chunk = || -> [u32; 64] {
            std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                // Labels that differ only in the sign bit or the low bit.
                [0, 1, 1 << 31, LabelGrid::BACKGROUND][(state >> 62) as usize]
            })
        };
        let mut pairs = Vec::new();
        for _ in 0..64 {
            let (cur, prev) = (chunk(), chunk());
            pairs.push((cur, prev));
            pairs.push((cur, cur));
        }
        let base = chunk();
        for i in 0..64 {
            let mut cur = base;
            cur[i] ^= 1;
            pairs.push((cur, base));
        }
        for (cur, prev) in &pairs {
            assert_eq!(change_mask_sse2(cur, prev), scalar_change_mask(cur, prev));
        }
        assert_eq!(change_mask_sse2(&base, &base), 0);
    }

    #[test]
    fn label_runs_split_at_every_change() {
        for cols in [1, 2, 63, 64, 65, 127, 128, 129] {
            // Runs of 1 and 2 pixels, background gaps, and equal labels on
            // both sides of a gap.
            let row: Vec<u32> = (0..cols as u32)
                .map(|c| match c % 4 {
                    3 => LabelGrid::BACKGROUND,
                    k => [5, 5, 9][k as usize] + c / 8,
                })
                .collect();
            let mut runs = Vec::new();
            for_each_label_run(&row, |s, e, l| runs.push((s, e, l)));
            let mut want = Vec::new();
            let mut s = 0;
            for c in 1..=cols {
                if c == cols || row[c] != row[s] {
                    if row[s] != LabelGrid::BACKGROUND {
                        want.push((s, c, row[s]));
                    }
                    s = c;
                }
            }
            assert_eq!(runs, want, "width {cols}");
        }
    }

    #[test]
    fn to_art_assigns_one_glyph_per_component() {
        let g = tiny();
        let art = g.to_art();
        assert_eq!(art, "a.\nab\n");
    }

    #[test]
    fn to_art_cycles_glyphs_beyond_62_components() {
        // 8x16 checkerboard = 32 isolated components; use a wide grid with
        // 70 singletons to force glyph reuse without panicking
        let mut g = LabelGrid::new_background(1, 70);
        for c in 0..70 {
            g.set(0, c, c as u32);
        }
        let art = g.to_art();
        assert_eq!(art.trim_end().chars().count(), 70);
        assert!(art.starts_with("abcdefgh"));
    }

    #[test]
    fn validate_against_detects_bad_mask() {
        let img = Bitmap::from_art("#.\n##\n");
        let mut g = LabelGrid::new_background(2, 2);
        g.set(0, 0, 0);
        // missing (1,0) and (1,1)
        assert!(g.validate_against(&img).is_err());
    }
}
