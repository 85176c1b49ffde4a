//! Bit-packed binary images and their column-major views.
//!
//! Besides per-pixel [`Bitmap::get`]/[`Bitmap::set`], this module exposes the
//! packed words directly ([`Bitmap::row_words`], [`Columns::column_words`])
//! together with word-level scanning helpers ([`for_each_run_in_words`],
//! [`count_runs_in_words`]) so hot paths can process 64 pixels per
//! instruction instead of one — the foundation of the [`crate::fast`]
//! labeling engine and of the run-based simulator passes.

use crate::connectivity::Connectivity;

/// Invokes `f(start, end)` (inclusive bounds) for every maximal run of set
/// bits among the first `bits` bits of `words`, where bit `i % 64` of word
/// `i / 64` is position `i`. Bits at positions `>= bits` must be zero (the
/// invariant every [`Bitmap`] row and [`Columns`] column maintains).
///
/// Runs are found with `trailing_zeros` scans over whole words — background
/// words cost one test each, and a `k`-pixel run costs `O(1 + k/64)` — so the
/// cost is proportional to words plus runs, not to pixels.
#[inline]
pub fn for_each_run_in_words(words: &[u64], bits: usize, mut f: impl FnMut(u32, u32)) {
    debug_assert!(bits <= words.len() * 64);
    let mut open: Option<u32> = None; // start of a run continuing across words
    for (i, &w) in words.iter().enumerate() {
        let base = (i * 64) as u32;
        let mut x = w;
        if let Some(s) = open {
            if x & 1 == 1 {
                let ones = (!x).trailing_zeros();
                if ones == 64 {
                    continue; // run spans this whole word too
                }
                f(s, base + ones - 1);
                x &= x.wrapping_add(1); // clear the trailing ones
            } else {
                f(s, base - 1);
            }
            open = None;
        }
        while x != 0 {
            // Adding the lowest set bit carries through the lowest run,
            // clearing it and depositing a bit just past its end — so one
            // add yields both the cleared word and the run's end position.
            let lsb = x & x.wrapping_neg();
            let t = x.wrapping_add(lsb);
            if t == 0 {
                // The lowest run reaches bit 63 (and nothing lies above it):
                // it may continue into the next word.
                open = Some(base + lsb.trailing_zeros());
                break;
            }
            f(base + lsb.trailing_zeros(), base + t.trailing_zeros() - 1);
            x &= t;
        }
    }
    if let Some(s) = open {
        // Only reachable when the last word ends in a 1-bit, i.e. the image
        // dimension is a multiple of 64 (padding bits are zero otherwise).
        f(s, bits as u32 - 1);
    }
}

/// Number of runs [`for_each_run_in_words`] would report, in one popcount
/// pass (a run starts at every 0→1 transition).
#[inline]
pub fn count_runs_in_words(words: &[u64]) -> usize {
    let mut carry = 0u64; // last bit of the previous word
    let mut runs = 0usize;
    for &w in words {
        runs += (w & !((w << 1) | carry)).count_ones() as usize;
        carry = w >> 63;
    }
    runs
}

/// Number of set bits among bit positions `start..=end` of `words` (same
/// bit-to-position packing as [`for_each_run_in_words`]): a masked popcount
/// touching only the words the span crosses — one shift pair and one
/// popcount when the span fits a word. The out-of-core band fold charges
/// every run's vertical edges with it, without per-pixel probes.
#[inline]
pub fn count_ones_in_span(words: &[u64], start: u32, end: u32) -> u32 {
    debug_assert!(start <= end && (end as usize) < words.len() * 64);
    let (wlo, whi) = ((start / 64) as usize, (end / 64) as usize);
    // Shifting a word's bits below `start` out of the bottom, or those above
    // `end` out of the top, masks them.
    let lo = words[wlo] >> (start % 64);
    if wlo == whi {
        return (lo << (63 - (end - start))).count_ones();
    }
    let hi = words[whi] << (63 - end % 64);
    let mid: u32 = words[wlo + 1..whi].iter().map(|w| w.count_ones()).sum();
    lo.count_ones() + mid + hi.count_ones()
}

/// Writes the horizontal dilation `src | src<<1 | src>>1` of a packed row
/// into `dst` (cleared first), carrying shifted bits across word boundaries
/// and masking the result back to `bits` positions.
///
/// Bit `i` of the output is set iff bit `i-1`, `i`, or `i+1` of `src` is set:
/// exactly the columns within diagonal reach of a set pixel. ANDing a dilated
/// row against the row below therefore marks every column where the lower row
/// is 8-adjacent to the upper one — the word-level replacement for walking
/// run pairs with a two-pointer scan (see [`for_each_diagonal_pair`]).
#[inline]
pub fn dilate_words_into(src: &[u64], bits: usize, dst: &mut Vec<u64>) {
    debug_assert!(bits <= src.len() * 64);
    dst.clear();
    dst.reserve(src.len());
    let mut carry_up = 0u64; // bit 63 of the previous word, shifted into bit 0
    for (i, &w) in src.iter().enumerate() {
        let next_lo = if i + 1 < src.len() { src[i + 1] & 1 } else { 0 };
        dst.push(w | (w << 1) | carry_up | (w >> 1) | (next_lo << 63));
        carry_up = w >> 63;
    }
    // Dilation may spill one bit past the image width into the padding.
    let tail = bits % 64;
    if tail != 0 {
        if let Some(last) = dst.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Invokes `f(cur_idx, prev_idx)` once for every 8-adjacent pair of a run in
/// `cur_runs` (the lower row) and a run in `prev_runs` (the upper row), where
/// `and_words` holds `dilate(upper) & lower` (see [`dilate_words_into`]) and
/// runs are packed `start << 32 | end` with inclusive bounds, sorted by start.
///
/// Each AND segment lies inside exactly one lower run (the AND is a subset of
/// the lower row), so a single forward cursor locates it; the upper runs
/// within diagonal reach of the segment — `start <= end+1` and
/// `end+1 >= start` — are exactly the 8-adjacent ones, enumerated with a
/// second cursor that *backsteps* one run after each segment because a
/// dilated upper run can bridge to the next segment too. Every adjacent pair
/// is reported exactly once; non-adjacent pairs never.
///
/// This one sweep serves every diagonal-join site — the fast engine's
/// in-tile row merge and, through [`for_each_adjacent_pair`], tile seams,
/// the out-of-core band merge, the streaming merge, and the propagation
/// engine's edge list — replacing their per-site two-pointer walks (kept as
/// test-only cross-checks).
#[inline]
pub fn for_each_diagonal_pair(
    and_words: &[u64],
    bits: usize,
    cur_runs: &[u64],
    prev_runs: &[u64],
    f: impl FnMut(usize, usize),
) {
    for_each_diagonal_pair_at(and_words, bits, 0, cur_runs, prev_runs, f);
}

/// Column-offset variant of [`for_each_diagonal_pair`]: bit `i` of
/// `and_words` is column `col_base + i`, while the run bounds stay absolute —
/// the shape the windowed (tiled) merge works in, where a tile's words start
/// at a word boundary left of (or at) its first column.
#[inline]
pub fn for_each_diagonal_pair_at(
    and_words: &[u64],
    bits: usize,
    col_base: u64,
    cur_runs: &[u64],
    prev_runs: &[u64],
    mut f: impl FnMut(usize, usize),
) {
    let mut c = 0usize;
    let mut p = 0usize;
    for_each_run_in_words(and_words, bits, |s, e| {
        let (s, e) = (col_base + u64::from(s), col_base + u64::from(e));
        while (cur_runs[c] & 0xffff_ffff) < s {
            c += 1;
        }
        while p < prev_runs.len() && (prev_runs[p] & 0xffff_ffff) + 1 < s {
            p += 1;
        }
        let mut q = p;
        while q < prev_runs.len() && (prev_runs[q] >> 32) <= e + 1 {
            f(c, q);
            q += 1;
        }
        // The last upper run consumed may reach the next segment as well.
        if q > p {
            p = q - 1;
        }
    });
}

/// Invokes `f(cur_idx, prev_idx)` once for every pair of a run in `cur_runs`
/// (the lower row, packed words `lower`) and a run in `prev_runs` (the upper
/// row, words `upper`) that touch under `conn`, in lower-run order. Runs are
/// packed `start << 32 | end` with inclusive bounds, sorted by start; both
/// rows keep their padding bits zero. `and_buf` is scratch for the adjacency
/// words.
///
/// At 4-connectivity the adjacency words are `lower & upper`: each maximal
/// segment lies inside exactly one run of each row, and a touching pair
/// overlaps in exactly one segment, so two forward cursors report every pair
/// once. At 8-connectivity they are `lower & dilate(upper)` and the segments
/// go through [`for_each_diagonal_pair`]. This is the one row-to-row merge
/// of the out-of-core band seam (which every streaming path runs on), the
/// tile engine's band seams, and the propagation engine's edge list.
#[inline]
pub fn for_each_adjacent_pair(
    conn: Connectivity,
    lower: &[u64],
    upper: &[u64],
    cur_runs: &[u64],
    prev_runs: &[u64],
    and_buf: &mut Vec<u64>,
    mut f: impl FnMut(usize, usize),
) {
    debug_assert_eq!(lower.len(), upper.len());
    // Zero padding makes the word count a safe bit bound: a segment reaches
    // the last word's top bit only when the row width is a multiple of 64.
    let bits = lower.len() * 64;
    match conn {
        Connectivity::Four => {
            and_buf.clear();
            and_buf.extend(lower.iter().zip(upper).map(|(&a, &b)| a & b));
            let (mut c, mut q) = (0usize, 0usize);
            for_each_run_in_words(and_buf, bits, |s, _| {
                let s = u64::from(s);
                while (cur_runs[c] & 0xffff_ffff) < s {
                    c += 1;
                }
                while (prev_runs[q] & 0xffff_ffff) < s {
                    q += 1;
                }
                f(c, q);
            });
        }
        Connectivity::Eight => {
            // The dilation may spill into the padding; the AND clears it.
            dilate_words_into(upper, bits, and_buf);
            for (w, &l) in and_buf.iter_mut().zip(lower) {
                *w &= l;
            }
            for_each_diagonal_pair(and_buf, bits, cur_runs, prev_runs, f);
        }
    }
}

/// A rectangular binary image stored row-major, 64 pixels per word.
///
/// Rows and columns are numbered from 0, top-to-bottom and left-to-right,
/// matching the paper's convention. A set bit is a foreground (`1`) pixel.
///
/// The *column-major position* of pixel `(row, col)` is
/// `col * rows + row`; the paper uses these positions both as the initial
/// pixel labels and as the final component labels (each component is labeled
/// with the least position of its pixels).
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero image with the given dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero, or if `rows × cols` overflows
    /// `usize` (an unrepresentable raster; callers ingesting untrusted
    /// headers must reject such dimensions before constructing — the PBM
    /// parser and the labeling service both do).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "image dimensions must be positive");
        assert!(
            rows.checked_mul(cols).is_some(),
            "image dimensions {rows}x{cols} overflow the pixel count"
        );
        let words_per_row = cols.div_ceil(64);
        // words_per_row <= cols, so this product fits whenever rows*cols does.
        Bitmap {
            rows,
            cols,
            words_per_row,
            bits: vec![0u64; rows * words_per_row],
        }
    }

    /// Re-dimensions the image to an all-zero `rows × cols`, keeping the
    /// word storage's capacity (a reused band buffer never shrinks).
    pub(crate) fn reset_dims(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = cols.div_ceil(64);
        self.bits.clear();
        self.bits.resize(rows * self.words_per_row, 0);
    }

    /// Bytes of word storage reserved.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (= number of SLAP processing elements used).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when the image contains zero pixels (never: dimensions are
    /// positive), kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn index(&self, row: usize, col: usize) -> (usize, u64) {
        debug_assert!(row < self.rows && col < self.cols);
        (row * self.words_per_row + col / 64, 1u64 << (col % 64))
    }

    /// Reads pixel `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        let (w, m) = self.index(row, col);
        self.bits[w] & m != 0
    }

    /// Writes pixel `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        let (w, m) = self.index(row, col);
        if value {
            self.bits[w] |= m;
        } else {
            self.bits[w] &= !m;
        }
    }

    /// The column-major position `col * rows + row`, the paper's initial
    /// label for pixel `(row, col)`.
    #[inline]
    pub fn position(&self, row: usize, col: usize) -> u32 {
        (col * self.rows + row) as u32
    }

    /// Number of 64-bit words storing each row (`ceil(cols / 64)`).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of one row: bit `c % 64` of word `c / 64` is column
    /// `c`. Bits at positions `>= cols` in the last word are always zero.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        debug_assert!(row < self.rows);
        &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// All packed words, row-major ([`Bitmap::words_per_row`] words per row).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.bits
    }

    /// Overwrites one row from packed words (the bulk inverse of
    /// [`Bitmap::row_words`], used by the streaming PBM reader).
    ///
    /// # Panics
    /// Panics when `words` is not exactly [`Bitmap::words_per_row`] long or
    /// sets a padding bit at a position `>= cols` — that would break the
    /// zero-padding invariant every word-level scan relies on.
    pub fn set_row_words(&mut self, row: usize, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.words_per_row,
            "row must be exactly words_per_row packed words"
        );
        let tail = self.cols % 64;
        assert!(
            tail == 0 || words[self.words_per_row - 1] >> tail == 0,
            "padding bits past cols must be zero"
        );
        self.bits[row * self.words_per_row..(row + 1) * self.words_per_row].copy_from_slice(words);
    }

    /// Number of foreground pixels in one row (word-level popcount).
    pub fn count_ones_in_row(&self, row: usize) -> usize {
        self.row_words(row)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of maximal horizontal runs of foreground pixels in one row.
    pub fn count_row_runs(&self, row: usize) -> usize {
        count_runs_in_words(self.row_words(row))
    }

    /// Invokes `f(start_col, end_col)` (inclusive) for every maximal
    /// horizontal run of foreground pixels in `row`, via word-level scans.
    #[inline]
    pub fn for_each_row_run(&self, row: usize, f: impl FnMut(u32, u32)) {
        for_each_run_in_words(self.row_words(row), self.cols, f);
    }

    /// Number of foreground pixels.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of foreground pixels.
    pub fn density(&self) -> f64 {
        self.count_ones() as f64 / self.len() as f64
    }

    /// Builds an image from ASCII art. `'1'` and `'#'` are foreground;
    /// `'0'`, `'.'` and `' '` are background. Lines may be ragged; the image
    /// width is the longest line and short lines are padded with background.
    /// Empty lines (and leading/trailing blank lines) are ignored.
    ///
    /// # Panics
    /// Panics on characters outside the set above or if no non-empty line
    /// exists.
    pub fn from_art(art: &str) -> Self {
        let lines: Vec<&str> = art
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.trim().is_empty())
            .collect();
        assert!(!lines.is_empty(), "ASCII art image has no rows");
        let cols = lines.iter().map(|l| l.chars().count()).max().unwrap();
        let mut bm = Bitmap::new(lines.len(), cols);
        for (r, line) in lines.iter().enumerate() {
            for (c, ch) in line.chars().enumerate() {
                match ch {
                    '1' | '#' => bm.set(r, c, true),
                    '0' | '.' | ' ' => {}
                    other => panic!("unexpected character {other:?} in ASCII art"),
                }
            }
        }
        bm
    }

    /// Renders the image as ASCII art (`#` foreground, `.` background),
    /// mainly for debugging and the examples.
    pub fn to_art(&self) -> String {
        let mut s = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                s.push(if self.get(r, c) { '#' } else { '.' });
            }
            s.push('\n');
        }
        s
    }

    /// Returns the horizontally mirrored image (column `c` becomes column
    /// `cols-1-c`). The right-connected labeling pass is implemented as a
    /// left-connected pass over the mirrored image.
    pub fn flip_horizontal(&self) -> Bitmap {
        let mut out = Bitmap::new(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    out.set(r, self.cols - 1 - c, true);
                }
            }
        }
        out
    }

    /// Returns the transposed image.
    pub fn transpose(&self) -> Bitmap {
        let mut out = Bitmap::new(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    out.set(c, r, true);
                }
            }
        }
        out
    }

    /// Returns the complement image (foreground and background swapped),
    /// word-at-a-time, re-zeroing the padding bits past `cols` in each row's
    /// last word.
    pub fn invert(&self) -> Bitmap {
        let mut out = self.clone();
        for w in &mut out.bits {
            *w = !*w;
        }
        let tail = self.cols % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            for r in 0..self.rows {
                out.bits[(r + 1) * self.words_per_row - 1] &= mask;
            }
        }
        out
    }

    /// Extracts the column-major packed view used by the SLAP simulator
    /// (PE `i` holds column `i`). Iterates set bits of the row words rather
    /// than probing every pixel, so background costs one word test per 64
    /// pixels.
    pub fn columns(&self) -> Columns {
        let words_per_col = self.rows.div_ceil(64);
        let mut bits = vec![0u64; self.cols * words_per_col];
        for r in 0..self.rows {
            let (wr, br) = (r / 64, 1u64 << (r % 64));
            for (wi, &w) in self.row_words(r).iter().enumerate() {
                let mut x = w;
                while x != 0 {
                    let c = wi * 64 + x.trailing_zeros() as usize;
                    bits[c * words_per_col + wr] |= br;
                    x &= x - 1;
                }
            }
        }
        Columns {
            rows: self.rows,
            cols: self.cols,
            words_per_col,
            bits,
        }
    }

    /// Iterates over all foreground pixel coordinates in column-major order
    /// (the order of the paper's initial labeling).
    pub fn iter_ones_colmajor(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.cols)
            .flat_map(move |c| (0..self.rows).map(move |r| (r, c)))
            .filter(move |&(r, c)| self.get(r, c))
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Bitmap({}x{})", self.rows, self.cols)?;
        if self.rows <= 64 && self.cols <= 64 {
            write!(f, "{}", self.to_art())
        } else {
            writeln!(f, "<{} ones>", self.count_ones())
        }
    }
}

/// Column-major packed view of a [`Bitmap`]: what each SLAP PE holds locally
/// after the row-by-row input phase.
#[derive(Clone, Debug)]
pub struct Columns {
    rows: usize,
    cols: usize,
    words_per_col: usize,
    bits: Vec<u64>,
}

impl Columns {
    /// Number of rows per column.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads pixel `(row, col)`.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> bool {
        debug_assert!(row < self.rows && col < self.cols);
        self.bits[col * self.words_per_col + row / 64] & (1u64 << (row % 64)) != 0
    }

    /// Number of 64-bit words storing each column (`ceil(rows / 64)`).
    #[inline]
    pub fn words_per_col(&self) -> usize {
        self.words_per_col
    }

    /// The packed words of one column (bit `r % 64` of word `r / 64` is row
    /// `r`). Used when a PE program wants to scan runs word-at-a-time.
    #[inline]
    pub fn column_words(&self, col: usize) -> &[u64] {
        &self.bits[col * self.words_per_col..(col + 1) * self.words_per_col]
    }

    /// Number of maximal vertical runs of foreground pixels in one column.
    pub fn count_column_runs(&self, col: usize) -> usize {
        count_runs_in_words(self.column_words(col))
    }

    /// Invokes `f(start_row, end_row)` (inclusive) for every maximal vertical
    /// run of foreground pixels in `col`, via word-level scans.
    #[inline]
    pub fn for_each_column_run(&self, col: usize, f: impl FnMut(u32, u32)) {
        for_each_run_in_words(self.column_words(col), self.rows, f);
    }

    /// First foreground row of `col` within `lo..=hi` (inclusive), scanning
    /// whole words. `None` when the range is all background.
    pub fn first_one_in_range(&self, col: usize, lo: usize, hi: usize) -> Option<usize> {
        debug_assert!(lo <= hi && hi < self.rows);
        let words = self.column_words(col);
        let (wlo, whi) = (lo / 64, hi / 64);
        for (wi, &word) in words.iter().enumerate().take(whi + 1).skip(wlo) {
            let mut w = word;
            if wi == wlo {
                w &= !0u64 << (lo % 64);
            }
            if wi == whi && hi % 64 != 63 {
                w &= (1u64 << ((hi % 64) + 1)) - 1;
            }
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired reference implementation of diagonal-pair enumeration:
    /// walk both run lists with a two-pointer scan at reach 1. Kept only to
    /// cross-check the word-level [`for_each_diagonal_pair`] sweep.
    fn diagonal_pairs_two_pointer(cur_runs: &[u64], prev_runs: &[u64]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut p = 0usize;
        for (c, &run) in cur_runs.iter().enumerate() {
            let (sb, eb) = (run >> 32, run & 0xffff_ffff);
            let aw = sb.saturating_sub(1);
            let bw = eb + 1;
            while p < prev_runs.len() && (prev_runs[p] & 0xffff_ffff) < aw {
                p += 1;
            }
            let mut q = p;
            while q < prev_runs.len() && (prev_runs[q] >> 32) <= bw {
                pairs.push((c, q));
                q += 1;
            }
            if q > p {
                p = q - 1;
            }
        }
        pairs
    }

    fn runs_of(words: &[u64], bits: usize) -> Vec<u64> {
        let mut runs = Vec::new();
        for_each_run_in_words(words, bits, |a, b| {
            runs.push((u64::from(a) << 32) | u64::from(b));
        });
        runs
    }

    #[test]
    fn dilate_words_carries_across_word_boundaries() {
        // Bits 0, 63, 64, and 130 over 131 columns: the dilation must reach
        // across both word seams and stay masked to the width.
        let src = [1u64 | (1 << 63), 1u64, 1u64 << 2];
        let mut dst = Vec::new();
        dilate_words_into(&src, 131, &mut dst);
        assert_eq!(dst[0], 0b11 | (0b11 << 62));
        assert_eq!(dst[1], 0b11); // bits 64 (own + carry of 63) and 65
        assert_eq!(dst[2], 0b110); // bit 130 dilates to 129..=130; 131 is masked off
    }

    #[test]
    fn dilate_words_masks_the_final_bit() {
        let src = [1u64 << 6];
        let mut dst = Vec::new();
        dilate_words_into(&src, 7, &mut dst);
        assert_eq!(dst, vec![0b110_0000]); // bit 7 would spill past cols=7
    }

    #[test]
    fn diagonal_pair_sweep_matches_the_two_pointer_reference() {
        // Every 2-row pattern over 2 words + a ragged tail, pseudo-randomly:
        // the word-level dilated-AND sweep and the retired two-pointer walk
        // must enumerate exactly the same (lower, upper) run pairs.
        let bits = 131usize;
        let words = bits.div_ceil(64);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let mask_tail = (1u64 << (bits % 64)) - 1;
            // Mix densities so some cases are run-dense, some sparse.
            let mix = |r: &mut dyn FnMut() -> u64| match case % 3 {
                0 => r(),
                1 => r() & r() & r(),
                _ => r() | r(),
            };
            let mut upper: Vec<u64> = (0..words).map(|_| mix(&mut rng)).collect();
            let mut lower: Vec<u64> = (0..words).map(|_| mix(&mut rng)).collect();
            upper[words - 1] &= mask_tail;
            lower[words - 1] &= mask_tail;
            let prev_runs = runs_of(&upper, bits);
            let cur_runs = runs_of(&lower, bits);

            let mut dilated = Vec::new();
            dilate_words_into(&upper, bits, &mut dilated);
            let and_words: Vec<u64> = dilated
                .iter()
                .zip(lower.iter())
                .map(|(&d, &l)| d & l)
                .collect();
            let mut got = Vec::new();
            for_each_diagonal_pair(&and_words, bits, &cur_runs, &prev_runs, |c, q| {
                got.push((c, q));
            });
            let want = diagonal_pairs_two_pointer(&cur_runs, &prev_runs);
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn new_is_all_zero() {
        let bm = Bitmap::new(5, 7);
        assert_eq!(bm.rows(), 5);
        assert_eq!(bm.cols(), 7);
        assert_eq!(bm.count_ones(), 0);
        for r in 0..5 {
            for c in 0..7 {
                assert!(!bm.get(r, c));
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(3, 130); // crosses word boundaries
        bm.set(0, 0, true);
        bm.set(2, 129, true);
        bm.set(1, 64, true);
        assert!(bm.get(0, 0));
        assert!(bm.get(2, 129));
        assert!(bm.get(1, 64));
        assert_eq!(bm.count_ones(), 3);
        bm.set(1, 64, false);
        assert!(!bm.get(1, 64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn art_roundtrip() {
        let art = "##.\n.#.\n..#\n";
        let bm = Bitmap::from_art(art);
        assert_eq!(bm.rows(), 3);
        assert_eq!(bm.cols(), 3);
        assert_eq!(bm.to_art(), "##.\n.#.\n..#\n");
    }

    #[test]
    fn art_accepts_zero_one_and_pads_ragged_lines() {
        let bm = Bitmap::from_art("101\n1\n");
        assert_eq!(bm.cols(), 3);
        assert!(bm.get(0, 0) && !bm.get(0, 1) && bm.get(0, 2));
        assert!(bm.get(1, 0) && !bm.get(1, 1) && !bm.get(1, 2));
    }

    #[test]
    #[should_panic(expected = "unexpected character")]
    fn art_rejects_garbage() {
        Bitmap::from_art("1x\n");
    }

    #[test]
    fn flip_horizontal_mirrors_columns() {
        let bm = Bitmap::from_art("#..\n.#.\n");
        let f = bm.flip_horizontal();
        assert!(f.get(0, 2));
        assert!(f.get(1, 1));
        assert_eq!(f.count_ones(), 2);
        assert_eq!(f.flip_horizontal(), bm);
    }

    #[test]
    fn transpose_swaps_axes() {
        let bm = Bitmap::from_art("#.#\n...\n");
        let t = bm.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert!(t.get(0, 0));
        assert!(t.get(2, 0));
        assert_eq!(t.transpose(), bm);
    }

    #[test]
    fn invert_flips_every_pixel() {
        let bm = Bitmap::from_art("#.\n.#\n");
        let inv = bm.invert();
        assert_eq!(inv.count_ones(), 2);
        assert!(inv.get(0, 1) && inv.get(1, 0));
    }

    #[test]
    fn columns_view_matches_bitmap() {
        let mut bm = Bitmap::new(70, 5); // rows cross a word boundary
        bm.set(0, 0, true);
        bm.set(69, 4, true);
        bm.set(64, 2, true);
        let cols = bm.columns();
        for c in 0..5 {
            for r in 0..70 {
                assert_eq!(cols.get(c, r), bm.get(r, c), "mismatch at ({r},{c})");
            }
        }
        assert_eq!(cols.column_words(0)[0] & 1, 1);
    }

    /// Reference run scan by per-pixel probing.
    fn naive_runs(get: impl Fn(usize) -> bool, len: usize) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < len {
            if !get(i) {
                i += 1;
                continue;
            }
            let s = i;
            while i < len && get(i) {
                i += 1;
            }
            out.push((s as u32, (i - 1) as u32));
        }
        out
    }

    #[test]
    fn word_run_scan_matches_naive_on_ragged_widths() {
        // Widths straddling word boundaries, including exact multiples.
        for cols in [1usize, 63, 64, 65, 127, 128, 130] {
            // A quasi-random but deterministic pattern with runs crossing
            // word boundaries.
            let mut bm = Bitmap::new(3, cols);
            for c in 0..cols {
                bm.set(0, c, (c / 3) % 2 == 0);
                bm.set(1, c, c % 7 != 0);
                bm.set(2, c, true);
            }
            for r in 0..3 {
                let mut got = Vec::new();
                bm.for_each_row_run(r, |a, b| got.push((a, b)));
                let want = naive_runs(|c| bm.get(r, c), cols);
                assert_eq!(got, want, "cols={cols} row={r}");
                assert_eq!(bm.count_row_runs(r), want.len(), "cols={cols} row={r}");
            }
        }
    }

    #[test]
    fn word_run_scan_full_and_empty_rows() {
        for cols in [64usize, 65, 128] {
            let bm = Bitmap::new(2, cols);
            let mut got = Vec::new();
            bm.for_each_row_run(0, |a, b| got.push((a, b)));
            assert!(got.is_empty());
            let mut full = Bitmap::new(1, cols);
            for c in 0..cols {
                full.set(0, c, true);
            }
            let mut got = Vec::new();
            full.for_each_row_run(0, |a, b| got.push((a, b)));
            assert_eq!(got, vec![(0, cols as u32 - 1)]);
        }
    }

    #[test]
    fn row_words_expose_packed_layout() {
        let mut bm = Bitmap::new(2, 70);
        bm.set(1, 0, true);
        bm.set(1, 64, true);
        bm.set(1, 69, true);
        assert_eq!(bm.words_per_row(), 2);
        assert_eq!(bm.row_words(0), &[0, 0]);
        assert_eq!(bm.row_words(1)[0], 1);
        assert_eq!(bm.row_words(1)[1], (1 << 0) | (1 << 5));
        assert_eq!(bm.count_ones_in_row(1), 3);
        assert_eq!(bm.as_words().len(), 4);
    }

    #[test]
    fn invert_keeps_padding_bits_clear() {
        for cols in [5usize, 64, 65, 130] {
            let bm = Bitmap::new(3, cols);
            let inv = bm.invert();
            assert_eq!(inv.count_ones(), 3 * cols, "cols={cols}");
            assert_eq!(inv.invert(), bm, "cols={cols}");
            // Padding must stay zero so word-level scans see no ghosts.
            let tail_word = inv.row_words(0)[inv.words_per_row() - 1];
            if cols % 64 != 0 {
                assert_eq!(tail_word >> (cols % 64), 0, "cols={cols}");
            }
        }
    }

    #[test]
    fn column_run_helpers_match_bitmap() {
        let mut bm = Bitmap::new(130, 3); // columns cross two word boundaries
        for r in 0..130 {
            bm.set(r, 0, r % 5 != 0);
            bm.set(r, 2, (60..70).contains(&r));
        }
        let cols = bm.columns();
        assert_eq!(cols.words_per_col(), 3);
        for c in 0..3 {
            let mut got = Vec::new();
            cols.for_each_column_run(c, |a, b| got.push((a, b)));
            let want = naive_runs(|r| bm.get(r, c), 130);
            assert_eq!(got, want, "col={c}");
            assert_eq!(cols.count_column_runs(c), want.len());
        }
    }

    #[test]
    fn first_one_in_range_scans_words() {
        let mut bm = Bitmap::new(200, 2);
        bm.set(3, 0, true);
        bm.set(130, 0, true);
        let cols = bm.columns();
        assert_eq!(cols.first_one_in_range(0, 0, 199), Some(3));
        assert_eq!(cols.first_one_in_range(0, 3, 3), Some(3));
        assert_eq!(cols.first_one_in_range(0, 4, 129), None);
        assert_eq!(cols.first_one_in_range(0, 4, 130), Some(130));
        assert_eq!(cols.first_one_in_range(0, 131, 199), None);
        assert_eq!(cols.first_one_in_range(1, 0, 199), None);
        // Boundary rows 63/64 within one range.
        let mut bm2 = Bitmap::new(128, 1);
        bm2.set(64, 0, true);
        let cols2 = bm2.columns();
        assert_eq!(cols2.first_one_in_range(0, 0, 63), None);
        assert_eq!(cols2.first_one_in_range(0, 63, 64), Some(64));
        assert_eq!(cols2.first_one_in_range(0, 0, 127), Some(64));
    }

    #[test]
    fn count_ones_in_span_matches_pixel_probes() {
        let mut bm = Bitmap::new(1, 200);
        for c in 0..200 {
            bm.set(0, c, c % 3 != 1);
        }
        let words = bm.row_words(0);
        for (a, b) in [(0, 0), (0, 199), (63, 64), (5, 130), (64, 127), (190, 199)] {
            let want = (a..=b).filter(|&c| bm.get(0, c as usize)).count() as u32;
            assert_eq!(count_ones_in_span(words, a, b), want, "span {a}..={b}");
        }
    }

    #[test]
    fn count_ones_in_span_single_word_spans() {
        // Spans inside one word take the shift-shift path: one bit, a whole
        // word, the last bit of a word, a span ending at bit 63, and one
        // starting at bit 0 of the next word.
        let words = [0x8000_0000_0000_0f0fu64, 0x0000_0000_0000_0005];
        for (a, b, want) in [
            (0, 0, 1),
            (4, 4, 0),
            (0, 63, 9),
            (63, 63, 1),
            (8, 63, 5),
            (64, 64, 1),
            (64, 66, 2),
            (65, 127, 1),
        ] {
            assert_eq!(count_ones_in_span(&words, a, b), want, "span {a}..={b}");
        }
    }

    #[test]
    fn set_row_words_roundtrips_and_guards_padding() {
        let mut bm = Bitmap::new(2, 70);
        bm.set(0, 3, true);
        bm.set(0, 69, true);
        let words: Vec<u64> = bm.row_words(0).to_vec();
        let mut other = Bitmap::new(2, 70);
        other.set_row_words(1, &words);
        assert_eq!(other.row_words(1), &words[..]);
        assert_eq!(other.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "padding bits")]
    fn set_row_words_rejects_padding_bits() {
        let mut bm = Bitmap::new(1, 70);
        bm.set_row_words(0, &[0, 1u64 << 10]); // bit 74 is past cols = 70
    }

    #[test]
    fn positions_are_column_major() {
        let bm = Bitmap::new(4, 4);
        assert_eq!(bm.position(0, 0), 0);
        assert_eq!(bm.position(3, 0), 3);
        assert_eq!(bm.position(0, 1), 4);
        assert_eq!(bm.position(2, 3), 14);
    }

    #[test]
    fn iter_ones_colmajor_order() {
        let bm = Bitmap::from_art("#.#\n##.\n");
        let got: Vec<_> = bm.iter_ones_colmajor().collect();
        assert_eq!(got, vec![(0, 0), (1, 0), (1, 1), (0, 2)]);
    }
}
